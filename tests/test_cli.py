"""Command-line interface: reports, formats and exit codes."""

import json
from unittest import mock

import numpy as np
import pytest

from mhs import cli, paperlab, spectral
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


@pytest.mark.parametrize("argv", [
    ["paper-check", "--family", "otsuki", "--res", "64", "--draws", "0"],
    ["chain", "--family", "equator", "--n", "2", "--res", "2",
     "--draws", "-3"],
    ["paper-check", "--family", "otsuki", "--res", "64", "--seed", "-1"],
    ["chain", "--family", "clifford", "--res", "16", "--draws", "2",
     "--seed", "-1"]])
def test_draws_below_one_is_an_error_line(capsys, monkeypatch, argv):
    # the draw count and the seed are checked before any mesh is built
    def no_mesh(args):
        raise AssertionError("meshed before the draws were checked")

    monkeypatch.setattr(cli, "_build_mesh", no_mesh)
    assert main(argv) == 1
    err = capsys.readouterr().err
    bound = {"--draws": "draws must be >= 1", "--seed": "seed must be >= 0"}
    assert err == f"error: {bound[argv[-2]]}, got {argv[-1]}\n"


@pytest.mark.parametrize("delta1", ["1.5", "0", "1", "-0.25", "nan"])
def test_delta1_outside_unit_interval_is_an_error_line(capsys, delta1):
    # delta1 is checked before any mesh is built or ground state solved
    with mock.patch.object(cli.fem, "mesh_torus") as mesh_torus:
        assert main(["paper-check", "--family", "otsuki", "--res", "16",
                     "--delta1", delta1]) == 1
    assert mesh_torus.call_count == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: delta1 must lie in (0, 1)\n"


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--family", "clifford", "--res", "16", "--zero-tol", "-1"],
     "zero_tol must be finite and > 0, got -1.0"),
    (["spectrum", "--family", "clifford", "--res", "16", "--zero-tol", "nan"],
     "zero_tol must be finite and > 0, got nan"),
    (["mesh-import", "-i", "{mesh}", "--zero-tol", "0"],
     "zero_tol must be finite and > 0, got 0.0"),
    (["mesh-import", "-i", "{mesh}", "--zero-tol", "inf"],
     "zero_tol must be finite and > 0, got inf"),
    (["conjecture", "--family", "clifford", "--res", "16", "--rank-tol",
      "-1"], "rank_tol must lie in (0, 1), got -1.0"),
    (["conjecture", "--family", "clifford", "--res", "16", "--rank-tol",
      "nan"], "rank_tol must lie in (0, 1), got nan"),
    (["oracle", "clifford", "--n", "2", "--cutoff", "0"],
     "cutoff must be finite and > 0, got 0.0"),
    (["oracle", "equator", "--n", "2", "--cutoff", "-5"],
     "cutoff must be finite and > 0, got -5.0"),
    (["oracle", "clifford", "--n", "2", "--cutoff", "nan"],
     "cutoff must be finite and > 0, got nan"),
], ids=["spectrum-zero-tol-negative", "spectrum-zero-tol-nan",
        "mesh-import-zero-tol-zero", "mesh-import-zero-tol-inf",
        "conjecture-rank-tol-negative", "conjecture-rank-tol-nan",
        "oracle-clifford-cutoff-zero", "oracle-equator-cutoff-negative",
        "oracle-clifford-cutoff-nan"])
def test_bad_tolerance_is_an_error_line(tmp_path, capsys, argv, message):
    # a tolerance or cutoff that would miscount silently, or die in a
    # traceback, is an error line: --zero-tol -1 read the Clifford index
    # 9 for 5, --rank-tol -1 raised in scipy, --cutoff 0 read nullity 0
    mesh = tmp_path / "ico1.json"
    mesh.write_text(json.dumps(mesh_to_json(mesh_sphere(1))))
    assert main([a.format(mesh=mesh) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_conjecture_solves_no_eigenproblem(capsys):
    # the probe's span {1, f's, l's} needs no ground state
    with mock.patch.object(spectral, "first_eigfunction",
                           wraps=spectral.first_eigfunction) as ground, \
            mock.patch.object(spectral, "lowest_eigs",
                              wraps=spectral.lowest_eigs) as lowest, \
            mock.patch.object(spectral.spla, "eigsh",
                              wraps=spectral.spla.eigsh) as lanczos:
        code, doc = run_json(capsys, ["conjecture", "--family", "otsuki",
                                      "--res", "16"])
    assert code == 0 and doc["report"]["rank"] == 9
    assert (ground.call_count, lowest.call_count,
            lanczos.call_count) == (0, 0, 0)


@pytest.mark.parametrize("flag", ["--nt", "--nphi"])
def test_zero_resolution_override_is_an_error_line(capsys, flag):
    # an override of 0 is not "unset": mesh_torus's guard reports it
    argv = ["spectrum", "--family", "clifford", "--res", "16", flag, "0"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: torus mesh resolutions must be >= 8\n"


@pytest.mark.parametrize("command", ["spectrum", "paper-check"])
@pytest.mark.parametrize("flag", ["--nt", "--nphi"])
def test_equator_grid_override_is_an_error_line(capsys, monkeypatch,
                                                command, flag):
    # the icosphere has no grid sides; an override it would ignore is
    # refused before any mesh is built
    def no_mesh(subdivisions):
        raise AssertionError("meshed before the override was refused")

    monkeypatch.setattr(cli.fem, "mesh_sphere", no_mesh)
    argv = [command, "--family", "equator", "--res", "2", flag, "24"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --nt and --nphi apply to torus "
                            "families; the equator mesh takes only --res "
                            "subdivisions\n")


@pytest.mark.parametrize("family, flag", [
    ("equator", "--k"), ("equator", "--p"), ("equator", "--q"),
    ("clifford", "--p"), ("clifford", "--q"), ("otsuki", "--k")])
def test_parameter_of_another_family_is_an_error_line(capsys, monkeypatch,
                                                      family, flag):
    # a family parameter the family does not take is refused before any
    # mesh is built, not ignored and recorded in the config
    def no_mesh(*args):
        raise AssertionError("meshed before the parameter was refused")

    for module, name in ((cli.fem, "mesh_sphere"), (cli.fem, "mesh_torus"),
                         (cli.rotational, "find_otsuki")):
        monkeypatch.setattr(module, name, no_mesh)
    assert main(["spectrum", "--family", family, "--res", "2", flag,
                 "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} does not apply to the {family} "
                            "family\n")


def test_family_parameters_keep_their_defaults_in_the_config(capsys):
    _, doc = run_json(capsys, ["spectrum", "--family", "equator", "--res",
                               "2", "--count", "4"])
    assert {f: doc["config"][f] for f in "kpq"} == {"k": 1, "p": 2, "q": 3}
    _, doc = run_json(capsys, ["spectrum", "--family", "clifford", "--res",
                               "16", "--count", "4", "--k", "1"])
    assert {f: doc["config"][f] for f in "kpq"} == {"k": 1, "p": 2, "q": 3}


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
    # and makes one TrialForms: one product for the Grams of the ten
    # columns {rho, 1, f's, l's} and one quadrature pass
    argv = ["paper-check", "--family", "equator", "--res", "4"]
    with mock.patch.object(paperlab, "_span_forms",
                           wraps=paperlab._span_forms) as forms, \
            mock.patch.object(paperlab, "trial_forms",
                              wraps=paperlab.trial_forms) as produce, \
            mock.patch.object(spectral, "first_eigfunction",
                              wraps=spectral.first_eigfunction) as ground, \
            mock.patch.object(spectral.spla, "eigsh",
                              wraps=spectral.spla.eigsh) as lanczos:
        (_, doc1), (_, doc2) = run_json(capsys, argv), run_json(capsys, argv)
    assert (forms.call_count, produce.call_count) == (2, 2)
    assert ground.call_count == 2
    # per run: the ground state and the Morse index window
    assert lanczos.call_count == 4
    del doc1["timestamp"], doc2["timestamp"]
    assert doc1 == doc2


def test_output_file_written(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    assert main(["oracle", "equator", "--n", "4", "-o", path]) == 0
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["report"]["index"] == 1
