"""Benchmark of mhs: Otsuki paper-check and two spectrum ladders.

    python3 benchmark/run.py --workload clifford-spectrum --seed 0 \\
        --seconds 30 --trace 0

Run from the repository root.  Workloads (closed loop: one request at a
time from this single driver process):

  otsuki-paper-check  ``mhs paper-check --family otsuki --p 2 --q 3
                      --res 64 --seed S`` through ``mhs.cli.main``; one
                      operation per report.
  clifford-spectrum   clifford(2,1) -> mesh_torus -> assemble ->
                      morse_index at 44, 64, 96 and 128 squared; one
                      operation per rung.
  equator-spectrum    mesh_sphere -> assemble -> morse_index at icosphere
                      subdivisions 3 to 6; one operation per rung.
  all                 the three, interleaved round by round.

Every measured run is a fresh child interpreter (child.py) with BLAS and
OpenMP pinned to one thread in its environment, so it pays for cold
imports and the cold rotation-number scan as a command-line user does.
One warm-up child per workload at toy size is discarded first.  With
``--trace 0`` the driver runs workload children for ``--seconds`` per
workload, then reports medians over them of the end-to-end metrics:

  wall_ref        timed wall time / the mean time of the speed probe
                  timed in and around it (child.SpeedProbe), so that
                  changes in the machine's speed cancel
  cpu_per_wall    process CPU time / wall time of the timed section; 1
                  when the single-thread pin holds
  setup_s         child spawn to ``import mhs`` done, scaled by the speed
                  probe to seconds at its reference speed, over at least
                  seven spawns spread over the run
  peak_rss_mb     peak resident memory of the child
  oracle_max_err  largest deviation from the exact landmarks

The raw wall and set-up times in seconds, with their quartiles, are in the
text report above the result line.  With ``--trace 1`` it runs untraced and
traced children in pairs and reports the per-layer metrics of the traced
ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
correctness gate held, 1 when one failed, and 2 when the benchmark could
not run at all (no mhs sources, a child crashed or ran out of time).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import OUTDIR, WORKLOADS  # noqa: E402
from tracer import METRICS as LAYER_METRICS, layer_metrics  # noqa: E402

END_TO_END = (("wall_ref", "ref"), ("cpu_per_wall", "1"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("oracle_max_err", "1"))
SETUP_SAMPLES = 7     # set-up medians use at least this many imports
DEADLINE_S = 170      # the whole invocation ends before this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXPECTED_THREADS = 1


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


class Driver:
    def __init__(self, root, seed, size):
        self.root = root
        self.seed = seed
        self.size = size
        self.start = time.monotonic()
        self.loadavg = os.getloadavg()
        self.outdir = os.path.join(root, OUTDIR)
        os.makedirs(self.outdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.update({var: str(EXPECTED_THREADS) for var in THREAD_VARS})

    def spawn(self, workload, probe=False, spans=None, size=None):
        """Run child.py once and return its parsed result line."""
        timeout = DEADLINE_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchmarkError(f"out of time before a {workload} child")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(self.seed),
               "--size", size or self.size]
        if probe:
            cmd.append("--probe")
        if spans:
            cmd += ["--spans", spans]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawn-t0", repr(t0)],
                                  cwd=self.root, env=self.env, text=True,
                                  stdout=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{workload} child ran out of time") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchmarkError(
                f"{workload} child exited with {proc.returncode}")
        return json.loads(lines[-1])

    def measure(self, workloads, seconds, trace):
        """Interleaved rounds of children; returns per-workload samples."""
        samples = {w: {"setup": [], "setup_raw": [], "runs": [], "traced": []}
                   for w in workloads}
        for w in workloads:
            warm = self.spawn(w, size="toy")
            samples[w]["versions"] = warm["versions"]
        budget = seconds * len(workloads)
        t_start = time.monotonic()
        # Half the set-up probes go first and the rest last, so that the
        # set-ups of a run with a single long child still span the run.
        if not trace:
            self.probe_setup(samples, SETUP_SAMPLES // 2)
        while True:
            t_round = time.monotonic()
            for w in workloads:
                run = self.spawn(w)
                samples[w]["runs"].append(run)
                add_setup(samples[w], run)
                if trace:
                    path = os.path.join(self.outdir, f"{w}.spans.json")
                    traced = self.spawn(w, spans=path)
                    with open(path) as fh:
                        traced["spans"] = json.load(fh)
                    samples[w]["traced"].append(traced)
            now = time.monotonic()
            if now - t_start + (now - t_round) > budget:
                break
        if not trace:
            self.probe_setup(samples, SETUP_SAMPLES)
        return samples

    def probe_setup(self, samples, count):
        """Spawn import-only children until each workload has count set-ups."""
        while min(len(s["setup"]) for s in samples.values()) < count:
            for w, s in samples.items():
                add_setup(s, self.spawn(w, probe=True))


def add_setup(sample, child):
    sample["setup"].append(child["setup_ref_s"])
    sample["setup_raw"].append(child["setup_s"])


def child_ok(run):
    return run["threads"] == EXPECTED_THREADS and all(
        op["ok"] for op in run["ops"])


def summarize(sample, trace):
    """(attempted, failed, metrics) of one workload's samples.

    A child whose gates failed, or which ran with another thread count
    than the pinned one, counts all its operations as failed and yields
    no timing.
    """
    children = sample["runs"] + sample["traced"]
    attempted = sum(len(run["ops"]) for run in children)
    failed = sum(len(run["ops"]) if run["threads"] != EXPECTED_THREADS
                 else sum(not op["ok"] for op in run["ops"])
                 for run in children)
    good = [run for run in sample["runs"] if child_ok(run)]
    good_traced = [run for run in sample["traced"] if child_ok(run)]
    metrics = {}
    if trace and good and good_traced:
        untraced_wall = statistics.median(run["wall_s"] for run in good)
        per_child = [layer_metrics(run["spans"], run["wall_s"],
                                   untraced_wall, run["report_bytes"])
                     for run in good_traced]
        for name, unit in LAYER_METRICS:
            metrics[name] = {"value": statistics.median(
                values[name] for values in per_child), "unit": unit}
    elif not trace and good:
        values = {name: [run[name] for run in good]
                  for name in ("wall_ref", "peak_rss_mb", "oracle_max_err")}
        values["cpu_per_wall"] = [run["cpu_s"] / run["wall_s"]
                                  for run in good]
        values["setup_s"] = sample["setup"]
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(values[name]),
                             "unit": unit}
    return attempted, failed, metrics


def machine_block(driver, samples):
    first = next(iter(samples.values()))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            **first["versions"], "loadavg_at_start": driver.loadavg,
            "seed": driver.seed, "threads_pinned": EXPECTED_THREADS}


def quartiles(values):
    """Median, quartiles and count of a sample, as one line of text."""
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.4g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.4g}  quartiles {q1:.4g} {q3:.4g}  (n={len(values)})"


def print_report(workload, sample, attempted, failed, metrics, trace):
    good = [r for r in sample["runs"] if child_ok(r)]
    print(f"== {workload}: {len(sample['runs'])} measured children, "
          f"{len(sample['traced'])} traced, {len(sample['setup'])} set-ups")
    print(f"   attempted {attempted}  failed {failed}  "
          f"fail_frac {failed / attempted:.4g}")
    if good and not trace:
        print(f"   threads {sorted({r['threads'] for r in sample['runs']})}")
        for name in ("wall_s", "cpu_s", "wall_ref"):
            print(f"   {name:<14} " + quartiles([r[name] for r in good]))
        print("   setup raw s    " + quartiles(sample["setup_raw"]))
        print("   probe_s        " + quartiles(
            [t for r in good for t in r["probe_s"]]))
    for name, metric in metrics.items():
        print(f"   {name:<36} {metric['value']:<14.6g} {metric['unit']}")
    for run in sample["runs"] + sample["traced"]:
        for op in run["ops"]:
            if not op["ok"]:
                print(f"   FAILED rung {op['rung']}: {op['why']}")
        if run["threads"] != EXPECTED_THREADS:
            print(f"   FAILED: child ran with {run['threads']} threads")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: smallest rungs only, for smoke tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mhs", "__init__.py")):
        sys.stderr.write("benchmark: run from a checkout of mhs "
                         "(src/mhs not found)\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    driver = Driver(root, args.seed, args.size)
    try:
        samples = driver.measure(workloads, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 2

    machine = machine_block(driver, samples)
    print("machine " + json.dumps(machine))
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        a, f, m = summarize(samples[w], bool(args.trace))
        print_report(w, samples[w], a, f, m, bool(args.trace))
        attempted += a
        failed += f
        prefix = "" if len(workloads) == 1 else f"{w}/"
        metrics.update({prefix + name: v for name, v in m.items()})
    with open(os.path.join(driver.outdir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"machine": machine, "samples": {
            w: {k: v for k, v in s.items() if k != "traced"}
            for w, s in samples.items()}, "metrics": metrics}, fh, indent=1)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
