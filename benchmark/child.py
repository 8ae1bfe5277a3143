"""One measured run of one workload, in a fresh interpreter.

The driver (run.py) starts this script with the BLAS and OpenMP thread
counts already pinned in the environment and ``src`` on PYTHONPATH, and
passes the monotonic clock reading taken just before the spawn.  The
script imports mhs (set-up), evaluates the closed-form oracles, runs the
workload (the timed section, which ends with the verified result) and
prints one JSON line with its measurements.

The machine this runs on shares its cores, and their speed changes by half
within seconds and drifts by a third over minutes.  So the child also
times a fixed reference kernel (SpeedProbe) once before the timed section,
every PROBE_EVERY_S inside it and once after it.  The time spent in the
probes inside is taken out of the section's time, and the section's time
divided by the probe's mean time is a work measure from which most of the
machine's changes in speed cancel.  The set-up time is scaled the same way,
by probes taken right after the import, to seconds at the speed at which
the probe takes PROBE_REFERENCE_S.

    python3 benchmark/child.py --workload clifford-spectrum --size toy
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

WORKLOADS = ("otsuki-paper-check", "clifford-spectrum", "equator-spectrum")

# Ladder rungs and paper-check resolution.  The first Clifford rung is 44
# (1,936 dof): it is the largest torus below spectral._DENSE_LIMIT, so the
# dense path runs, and the coarsest one whose four zero modes stay inside
# morse_index's default zero_tol of 0.05 (at 32 two of them sit at 0.078).
#
# The sizes keep one child to about 8 s, so that a run of 35 s holds
# several children and all the runs of the three workloads fit the time
# one benchmark check may take.  The largest rungs the ladders were first
# drawn with (Clifford 256 squared, 10 s and 540 MB; paper-check --res 64,
# 27 s) would leave at most one child per run.
SIZES = {
    "full": {"clifford-spectrum": (44, 64, 96, 128),
             "equator-spectrum": (3, 4, 5, 6),
             "otsuki-paper-check": 64},
    "toy": {"clifford-spectrum": (44,),
            "equator-spectrum": (2,),
            "otsuki-paper-check": 16},
}
ORACLE_EIGS = 12            # eigenvalues compared at the finest rung
CHAIN_RESIDUAL_MAX = 1e-10  # relative chain identity |L1 - L2| / scale
URBANO_MIN_INDEX = 5        # index of a non-geodesic minimal surface in S^3
OUTDIR = ".bench_out"       # scratch files, relative to the checkout root
PROBE_EVERY_S = 0.4         # speed probe interval inside the timed section
PROBE_GRID = 60             # speed probe: LU of a 60 x 60 grid Laplacian
PROBE_REFERENCE_S = 0.06    # the probe's time at the reference speed: about
                            # its median on the 2.0 GHz Xeon vCPUs it was
                            # tuned on, where it ranges 0.045 to 0.08 s


class SpeedProbe:
    """A fixed single-threaded kernel of about 60 ms that does not use mhs.

    It mixes what the workloads spend their time on: interpreted Python
    (paperlab, rotational), a sparse LU factorization with solves
    (spectral) and vectorised numpy (geometry, fem).  Inside the timed
    section it runs from a SIGALRM handler, so it lands between the
    interpreter's bytecodes, wherever the workload happens to be.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        n = PROBE_GRID
        line = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1])
        self.laplacian = (sp.kron(line, sp.eye(n))
                          + sp.kron(sp.eye(n), line)).tocsc()
        self.times = []           # wall time of every probe
        self.inside = [0.0, 0.0]  # wall and CPU time of probes while armed

    def kernel(self):
        import numpy as np
        from scipy.sparse.linalg import splu
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        lu = splu(self.laplacian)
        b = np.ones(self.laplacian.shape[0])
        for _ in range(40):
            b = lu.solve(b)
            b /= np.abs(b).max()
        x = np.linspace(0.0, 1.0, 300_000)
        for _ in range(4):
            x = np.sin(x) * 1.0001 + 0.5
            x.sort()
        return acc + b[0] + x[0]

    def sample(self):
        """Run the kernel once; return its wall and CPU time."""
        w0, c0 = time.perf_counter(), time.process_time()
        self.kernel()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.times.append(wall)
        return wall, cpu

    def _fire(self, signum, frame):
        wall, cpu = self.sample()
        self.inside[0] += wall
        self.inside[1] += cpu
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def arm(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def disarm(self):
        """Stop the probes; return the wall and CPU time they took."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return tuple(self.inside)


def oracle(workload):
    """(index, nullity, lowest exact eigenvalues) of a ladder workload."""
    from mhs import closedform
    if workload == "clifford-spectrum":
        table, index, nullity = closedform.clifford_jacobi(2, 1, cutoff=20)
    else:
        table, index, nullity = closedform.equator_jacobi(2, cutoff=20)
    exact = [float(e) for e, m in table.entries for _ in range(m)]
    return index, nullity, sorted(exact)[:ORACLE_EIGS]


def run_ladder(workload, sizes, expected):
    """Mesh, assemble and index every rung; gate each against the oracle.

    Returns (ops, oracle_max_err): one {"rung", "dof", "ok", "why"} per
    rung, and the largest error of the lowest eigenvalues at the finest
    rung (None if that rung failed).
    """
    from mhs import fem, geometry, spectral
    from mhs.errors import MhsError
    index, nullity, exact = expected
    ops, err = [], None
    for size in sizes:
        if workload == "clifford-spectrum":
            mesh = fem.mesh_torus(geometry.clifford(2, 1), size, size)
        else:
            mesh = fem.mesh_sphere(size)
        operators = fem.assemble(mesh)
        op = {"rung": size, "dof": operators.size, "ok": False, "why": ""}
        ops.append(op)
        try:
            got, report = spectral.morse_index(operators)
        except MhsError as exc:
            op["why"] = f"morse_index: {exc}"
            continue
        problems = []
        if got != index:
            problems.append(f"index {got} != {index}")
        if report.nullity != nullity:
            problems.append(f"nullity {report.nullity} != {nullity}")
        op["ok"] = not problems
        op["why"] = "; ".join(problems)
        if size == sizes[-1] and op["ok"]:
            vals = [float(v) for v in report.eigenvalues[:len(exact)]]
            err = max(abs(v - e) for v, e in zip(vals, exact))
    return ops, err


def paper_check_gates(code, report):
    """(problems, oracle_max_err) of one Otsuki paper-check report."""
    if code != 0:
        return [f"exit code {code}"], None
    problems = []
    lemma, theorem = report["lemma"], report["theorem"]
    chain, ident = report["chain"], report["identities"]
    if lemma["verdict"] != "full_rank" or lemma["rank"] != 9:
        problems.append(f"lemma {lemma['verdict']} rank {lemma['rank']}")
    if not theorem["rr_consistent"]:
        problems.append("Rayleigh-Ritz count exceeds the spectral index")
    if theorem["spectral_index"] < URBANO_MIN_INDEX:
        problems.append(f"spectral index {theorem['spectral_index']} < "
                        f"{URBANO_MIN_INDEX}")
    if not chain["max_identity_residual"] <= CHAIN_RESIDUAL_MAX:
        problems.append(
            f"chain identity residual {chain['max_identity_residual']:.3e}")
    err = max(abs(report["ratio"] - 1.0),
              ident["int_l"] / ident["area"],
              ident["int_asq_f"] / ident["area"],
              ident["pair"] / ident["area"],
              chain["max_identity_residual"])
    return problems, err


def run_paper_check(res, seed):
    """The CLI paper-check on the Otsuki (2,3) torus; one operation."""
    from mhs import cli
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"paper-check-{os.getpid()}.json")
    code = cli.main(["paper-check", "--family", "otsuki", "--p", "2",
                     "--q", "3", "--res", str(res), "--seed", str(seed),
                     "--output", path])
    report, size = None, 0
    if code == 0:
        size = os.path.getsize(path)
        with open(path) as fh:
            report = json.load(fh)["report"]
        os.remove(path)
    problems, err = paper_check_gates(code, report)
    op = {"rung": res, "ok": not problems, "why": "; ".join(problems)}
    return [op], err, size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spawn-t0", type=float, default=None,
                        help="time.monotonic() just before the spawn")
    parser.add_argument("--probe", action="store_true",
                        help="import mhs, report set-up time and exit")
    parser.add_argument("--spans", default=None,
                        help="trace the layers and write the spans here")
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.spawn_t0 is None else args.spawn_t0

    import mhs.cli
    setup_s = time.monotonic() - t0
    src = os.path.realpath(os.path.join("src", "mhs"))
    if os.path.dirname(os.path.realpath(mhs.__file__)) != src:
        sys.stderr.write(f"mhs imported from {mhs.__file__}, not {src}\n")
        return 2
    # The machine's speed just after the import, from three warm probes
    # (the first call loads splu), turns the set-up time into seconds at
    # the probe's reference speed.
    probe = SpeedProbe()
    probe.sample()
    probe.times.clear()
    speed = statistics.median(probe.sample()[0] for _ in range(3))
    result = {"setup_s": setup_s,
              "setup_ref_s": setup_s * PROBE_REFERENCE_S / speed}
    if args.probe:
        print(json.dumps(result))
        return 0

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "blas": f"{blas.get('name')} {blas.get('version')}"}
    size = SIZES[args.size][args.workload]
    ladder = args.workload != "otsuki-paper-check"
    expected = oracle(args.workload) if ladder else None
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # A traced child reports per-layer times, into which probes inside
    # the section would leak, so it is probed only before and after.
    if tracer is None:
        probe.arm()
    w0, c0 = time.perf_counter(), time.process_time()
    if ladder:
        ops, err = run_ladder(args.workload, size, expected)
        report_bytes = 0
    else:
        ops, err, report_bytes = run_paper_check(size, args.seed)
    wall_s = time.perf_counter() - w0
    cpu_s = time.process_time() - c0
    probe_wall, probe_cpu = probe.disarm()
    probe.sample()
    wall_s -= probe_wall
    cpu_s -= probe_cpu

    result.update(
        wall_s=wall_s, cpu_s=cpu_s, probe_s=probe.times,
        wall_ref=wall_s / (sum(probe.times) / len(probe.times)),
        ops=ops, oracle_max_err=err,
        report_bytes=report_bytes,
        threads=len(os.listdir("/proc/self/task")),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
