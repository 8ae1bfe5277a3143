"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark/selftest.py

Kept out of the default test discovery (the file name does not match
test_*.py) because each smoke run starts several interpreters.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", child.WORKLOADS)
def test_toy_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    text = "\n".join(lines[:-1])
    for m in spec:
        assert m["name"] in text and m["unit"] in text
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_oracle_counts_failed_operation():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    index, nullity, exact = child.oracle("equator-spectrum")
    ops, err = child.run_ladder("equator-spectrum", (2,),
                                (index + 1, nullity, exact))
    assert [op["ok"] for op in ops] == [False] and err is None
    sample = {"setup": [0.5], "traced": [],
              "runs": [{"ops": ops, "threads": 1, "wall_s": 1.0,
                        "cpu_s": 1.0, "peak_rss_mb": 1.0,
                        "oracle_max_err": err}]}
    attempted, failed, metrics = run.summarize(sample, trace=False)
    assert (attempted, failed, metrics) == (1, 1, {})


def test_speed_probe_samples_inside_and_is_taken_out():
    probe = child.SpeedProbe()
    probe.arm()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 4 * child.PROBE_EVERY_S:
        sum(range(1000))
    inside_wall, inside_cpu = probe.disarm()
    samples = len(probe.times)
    time.sleep(2 * child.PROBE_EVERY_S)
    assert samples >= 2 and len(probe.times) == samples
    assert inside_wall == pytest.approx(sum(probe.times))
    assert 0 < inside_cpu <= inside_wall * 1.05


def test_paper_check_gates_reject_bad_report():
    report = {"lemma": {"rank": 8, "verdict": "collapsed"},
              "theorem": {"rr_consistent": True, "spectral_index": 4},
              "chain": {"max_identity_residual": 1e-3},
              "identities": {"int_l": 0.0, "int_asq_f": 0.0, "pair": 0.0,
                             "area": 1.0},
              "ratio": 1.0}
    problems, err = child.paper_check_gates(0, report)
    assert len(problems) == 3 and err == 1e-3
    assert child.paper_check_gates(2, None) == (["exit code 2"], None)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload",
         "clifford-spectrum", "--seed", "0", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
