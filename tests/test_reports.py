"""Golden CLI reports: every change must reproduce them to a tolerance.

Each file under ``tests/data`` is the JSON report of one small command.
A report must match its file apart from the timestamp: ints, strings,
bools and nulls exactly, and floats to 1e-9 relative plus 1e-13
absolute.  Exact bytes would differ between the CPU kernels that
OpenBLAS picks on different machines.

A change that alters a report on purpose regenerates the files and says
why in its log:

    PYTHONPATH=src python tests/test_reports.py
"""

import json
import math
import pathlib

import pytest

from mhs.cli import main

DATA = pathlib.Path(__file__).parent / "data"
REL_TOL, ABS_TOL = 1e-9, 1e-13
# golden file -> CLI arguments
REPORTS = {
    "paper_check_otsuki_res16.json": ["paper-check", "--family", "otsuki",
                                      "--res", "16", "--seed", "0"],
    "spectrum_clifford_res44.json": ["spectrum", "--family", "clifford",
                                     "--res", "44"],
    "spectrum_equator_res3.json": ["spectrum", "--family", "equator",
                                   "--res", "3"],
    "family_otsuki_2_3.json": ["family", "otsuki", "--p", "2", "--q", "3"],
    "chain_otsuki_res16.json": ["chain", "--family", "otsuki", "--res", "16",
                                "--draws", "5", "--seed", "1"],
    "conjecture_otsuki_res16.json": ["conjecture", "--family", "otsuki",
                                     "--res", "16"],
    "oracle_clifford_3_1.json": ["oracle", "clifford", "--n", "3", "--k",
                                 "1"],
}


def _differences(got, want, path="$"):
    """Paths, with both values, where got does not match want."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want
                for d in _differences(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _write(name, directory):
    path = directory / name
    if main(REPORTS[name] + ["--output", str(path)]) != 0:
        raise RuntimeError(f"{name}: the command failed")
    doc = json.loads(path.read_text())
    del doc["timestamp"]
    return doc


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_matches_golden_file(name, tmp_path):
    got = _write(name, tmp_path)
    want = json.loads((DATA / name).read_text())
    del want["timestamp"]
    assert _differences(got, want) == []


def test_comparison_tolerates_only_float_rounding():
    want = {"a": [1, 0.5, True, "x", None], "b": 1e-15}
    assert _differences({"a": [1, 0.5 + 4e-10, True, "x", None],
                         "b": 5e-14}, want) == []
    for got in ({"a": [2, 0.5, True, "x", None], "b": 1e-15},
                {"a": [1, 0.5 + 1e-9, True, "x", None], "b": 1e-15},
                {"a": [1, 0.5, 1, "x", None], "b": 1e-15},
                {"a": [1, 0.5, True, "y", None], "b": 1e-15},
                {"a": [1, 0.5, True, "x"], "b": 1e-15},
                {"a": [1, 0.5, True, "x", None], "b": 2e-13},
                {"a": [1, 0.5, True, "x", None]}):
        assert _differences(got, want), got


if __name__ == "__main__":
    for name in REPORTS:
        _write(name, DATA)
