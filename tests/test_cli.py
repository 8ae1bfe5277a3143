"""Command-line interface: reports, formats and exit codes."""

import json

import pytest

from mhs.cli import main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_package_exports_resolve():
    import mhs
    assert [name for name in mhs.__all__ if not hasattr(mhs, name)] == []


def test_oracle_clifford(capsys):
    code, doc = run_json(capsys, ["oracle", "clifford", "--n", "2", "--k", "1"])
    assert code == 0
    assert doc["report"]["index"] == 5
    assert doc["report"]["nullity"] == 4
    assert doc["config"]["kind"] == "clifford"
    assert "version" in doc and "timestamp" in doc


def test_oracle_equator_csv(capsys):
    code = main(["oracle", "equator", "--n", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1].startswith("-3.0,")


def test_spectrum_equator(capsys):
    code, doc = run_json(capsys, ["spectrum", "--family", "equator",
                                  "--n", "2", "--res", "3", "--count", "6"])
    assert code == 0
    assert doc["report"]["index"] == 1
    assert abs(doc["report"]["lambda1"] + 2.0) < 5e-2
    assert doc["report"]["path"] == "dense"
    assert doc["report"]["modes"] is None


def test_spectrum_clifford_index(capsys):
    code, doc = run_json(capsys, ["spectrum", "--family", "clifford",
                                  "--n", "2", "--k", "1", "--res", "32",
                                  "--count", "10"])
    assert code == 0
    assert doc["report"]["index"] == 5
    assert doc["report"]["window_saturated"] is False
    assert doc["report"]["path"] == "phi-modes"
    assert len(doc["report"]["modes"]) == 10


def test_family_profile(capsys):
    code, doc = run_json(capsys, ["family", "otsuki", "--p", "2", "--q", "3"])
    assert code == 0
    assert doc["report"]["closure_residual"] <= 1e-8
    assert doc["report"]["p"] == 2 and doc["report"]["q"] == 3


def test_exit_code_validation_errors(capsys):
    assert main(["family", "otsuki", "--p", "2", "--q", "4"]) == 1
    assert main(["family", "otsuki", "--p", "1", "--q", "1"]) == 1
    assert main(["oracle", "clifford", "--n", "1"]) == 1
    assert main(["spectrum", "--family", "clifford", "--n", "3",
                 "--res", "16"]) == 1
    capsys.readouterr()


def test_otsuki_rejects_other_dimensions(capsys):
    # only the n = 2 torus in S^3 is built; --n 3 must not be reported
    # as if it had been
    assert main(["paper-check", "--family", "otsuki", "--n", "3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_flag_is_usage_error(capsys):
    assert main(["oracle", "clifford", "--n", "2", "--bogus"]) == 1
    capsys.readouterr()


def test_chain_takes_no_delta1(capsys):
    # each draw picks its own delta1; the subcommand has no such option
    assert main(["chain", "--family", "equator", "--n", "2", "--res", "2",
                 "--delta1", "0.5"]) == 1
    capsys.readouterr()


def test_paper_check_report(capsys):
    code, doc = run_json(capsys, [
        "paper-check", "--family", "clifford", "--n", "2", "--k", "1",
        "--res", "16", "--delta1", "0.5", "--draws", "5"])
    assert code == 0
    rep = doc["report"]
    assert rep["theorem"]["verdict"] == "hypotheses_not_met"
    assert rep["lemma"]["rank"] == 5
    assert abs(rep["ratio"] - 1.0) < 1e-10
    assert rep["chain"]["max_identity_residual"] <= 1e-10
    assert set(rep) >= {"lemma", "theorem", "chain", "conjecture",
                        "identities", "ratio"}


def test_conjecture_subcommand(capsys):
    code, doc = run_json(capsys, ["conjecture", "--family", "equator",
                                  "--n", "2", "--res", "2"])
    assert code == 0
    assert doc["report"]["rank"] == 4
    assert not doc["report"]["negative_subspace_reaches_n_plus_4"]


def test_mesh_export_import_round_trip(tmp_path, capsys):
    path = str(tmp_path / "mesh.json")
    assert main(["mesh-export", "--family", "clifford", "--n", "2",
                 "--k", "1", "--res", "16", "-o", path]) == 0
    capsys.readouterr()
    code, doc = run_json(capsys, ["mesh-import", "-i", path])
    assert code == 0
    rep = doc["report"]
    assert rep["mesh"]["degraded_normals"] is True
    assert rep["mesh"]["euler_characteristic"] == 0
    assert rep["spectrum"]["index"] == 5
    assert rep["spectrum"]["window_saturated"] is False
    assert rep["spectrum"]["path"] == "dense"


def test_mesh_import_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[1, 0, 0, 0]]}))
    assert main(["mesh-import", "-i", str(path)]) == 1
    capsys.readouterr()


def test_reports_reproducible(tmp_path, capsys):
    argv = ["chain", "--family", "equator", "--n", "2", "--res", "2",
            "--draws", "3", "--seed", "1"]
    _, doc1 = run_json(capsys, argv)
    _, doc2 = run_json(capsys, argv)
    assert doc1["report"] == doc2["report"]
    assert doc1["config"] == doc2["config"]


def test_output_file_written(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    assert main(["oracle", "equator", "--n", "4", "-o", path]) == 0
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["report"]["index"] == 1
