"""Command-line interface: reports, formats and exit codes."""

import json
from unittest import mock

import numpy as np
import pytest

from mhs import paperlab, spectral
from mhs.cli import main
from mhs.errors import MeshFormatError
from mhs.fem import load_mesh, mesh_sphere, mesh_to_json


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
    assert doc["report"]["path"] == "shift-invert"
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


def test_spectrum_clifford_honours_grid_overrides(capsys):
    code, doc = run_json(capsys, ["spectrum", "--family", "clifford",
                                  "--res", "16", "--nt", "24"])
    assert code == 0
    assert doc["report"]["mesh"]["vertices"] == 24 * 16
    assert doc["report"]["mesh"]["name"] == "clifford(2,1)@24x16"


def test_family_profile(capsys):
    code, doc = run_json(capsys, ["family", "otsuki", "--p", "2", "--q", "3"])
    assert code == 0
    report = doc["report"]
    assert report["closure_residual"] <= 1e-12
    assert report["p"] == 2 and report["q"] == 3
    assert 0.0 < report["clairaut"] < 0.5
    assert "tol" not in doc["config"]
    # (theta, alpha, v, alpha', v') over one radial period, theta in (0, 2 pi)
    samples = np.array(report["samples"])
    assert samples.shape[1] == 5
    assert 0.0 < samples[0, 0] and samples[-1, 0] < 2.0 * np.pi
    assert np.all(np.diff(samples[:, 2]) > 0.0)


def test_exit_code_validation_errors(capsys):
    assert main(["family", "otsuki", "--p", "2", "--q", "4"]) == 1
    assert main(["family", "otsuki", "--p", "1", "--q", "1"]) == 1
    assert main(["oracle", "clifford", "--n", "1"]) == 1
    assert main(["spectrum", "--family", "clifford", "--n", "3",
                 "--res", "16"]) == 1
    # the default --res 64 is far beyond the icosphere subdivision cap
    assert main(["spectrum", "--family", "equator"]) == 1
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
    assert rep["spectrum"]["path"] == "shift-invert"


def test_mesh_import_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [[1, 0, 0, 0]]}))
    assert main(["mesh-import", "-i", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["mesh-import", "-i", "{missing}/mesh.json"],
    ["spectrum", "--family", "equator", "--res", "1",
     "-o", "{missing}/spectrum.json"],
    ["paper-check", "--family", "equator", "--res", "1",
     "-o", "{missing}/report.json"],
    ["mesh-export", "--family", "equator", "--res", "1",
     "-o", "{missing}/mesh.json"],
], ids=["mesh-import", "spectrum", "paper-check", "mesh-export"])
def test_missing_path_is_an_error_line(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-directory"
    argv = [a.format(missing=missing) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()


def _corrupt(edit):
    """Text of an ico1 mesh document after edit(doc) changed it in place."""
    doc = mesh_to_json(mesh_sphere(1))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _corrupt(lambda d: d["vertices"][0].__setitem__(0, float("nan"))),
    _corrupt(lambda d: d["fields"]["Asq"].__setitem__(3, float("nan"))),
    _corrupt(lambda d: d["fields"]["Asq"].__setitem__(3, float("inf"))),
    _corrupt(lambda d: d["vertices"][0].__setitem__(1, "zero")),
    _corrupt(lambda d: d["triangles"][0].__setitem__(0, "2")),
    _corrupt(lambda d: d["vertices"][0].append(0.0)),
    # ico1's first triangle is (0, 16, 13); 16.3 must not be read as 16
    _corrupt(lambda d: d["triangles"][0].__setitem__(1, 16.3)),
    _corrupt(lambda d: d.__setitem__("fields", 3)),
    '{"vertices": [[1, 0, 0, 0]], "triangles": ',
], ids=["nan-vertex", "nan-asq", "inf-asq", "string-coordinate",
        "string-index", "ragged-vertices", "fractional-index",
        "fields-not-object", "invalid-json"])
def test_mesh_import_rejects_malformed(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(MeshFormatError):
        load_mesh(path)
    assert main(["mesh-import", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_reports_reproducible(tmp_path, capsys):
    argv = ["chain", "--family", "equator", "--n", "2", "--res", "2",
            "--draws", "3", "--seed", "1"]
    _, doc1 = run_json(capsys, argv)
    _, doc2 = run_json(capsys, argv)
    assert doc1["report"] == doc2["report"]
    assert doc1["config"] == doc2["config"]


def test_paper_check_one_span_reproducible(capsys):
    # ico4's ground state comes from Lanczos.  Each run solves for it once
    # and forms two span Grams: the trial span and the probe's head-1 span
    argv = ["paper-check", "--family", "equator", "--res", "4"]
    with mock.patch.object(paperlab, "_span_forms",
                           wraps=paperlab._span_forms) as forms, \
            mock.patch.object(spectral, "first_eigfunction",
                              wraps=spectral.first_eigfunction) as ground, \
            mock.patch.object(spectral.spla, "eigsh",
                              wraps=spectral.spla.eigsh) as lanczos:
        (_, doc1), (_, doc2) = run_json(capsys, argv), run_json(capsys, argv)
    assert (forms.call_count, ground.call_count) == (4, 2)
    # per run: the ground state and the probe's Morse index window
    assert lanczos.call_count == 4
    del doc1["timestamp"], doc2["timestamp"]
    assert doc1 == doc2


def test_output_file_written(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    assert main(["oracle", "equator", "--n", "4", "-o", path]) == 0
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["report"]["index"] == 1
