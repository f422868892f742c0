import json

import numpy as np
import pytest

from prolongation.cli import main
from prolongation.matspace import subspace_to_json
from prolongation.obstruct import complex_structure_plane
from conftest import conformal_subspace


@pytest.fixture
def conformal_file(tmp_path):
    path = tmp_path / "conformal3.json"
    rc = main(["manifold", "--family", "conformal", "--dim", "3",
               "--emit-tangent", "--out", str(path)])
    assert rc == 0
    return path


def read_result(path):
    return json.loads(path.read_text())["result"]


def test_chain_on_emitted_tangent(conformal_file, tmp_path):
    out = tmp_path / "chain.json"
    rc = main(["chain", "--input", str(conformal_file), "--kmax", "8",
               "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["alpha"] == [3, 4, 3, 0]
    assert result["delta"] == {"status": "finite", "value": 2}
    assert result["alpha_total"] == 10


def test_emitted_tangent_is_a_plain_subspace_file(conformal_file):
    data = json.loads(conformal_file.read_text())
    assert set(data) == {"n", "m", "generators"}
    assert len(data["generators"]) == 4


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    rc = main(["chain", "--input", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "invalid input" in capsys.readouterr().err


def test_malformed_input_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["chain", "--input", str(bad)]) == 1
    half = tmp_path / "half.json"
    half.write_text(json.dumps({"n": 2}))
    assert main(["chain", "--input", str(half)]) == 1


def test_detect_certifies_the_reference_plane(tmp_path):
    w_pad = tmp_path / "w_pad.json"
    w_pad.write_text(json.dumps(subspace_to_json(complex_structure_plane(3, 3))))
    out = tmp_path / "detect.json"
    rc = main(["detect", "--input", str(w_pad), "--seed", "42",
               "--restarts", "16", "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["rank_one"] == "inconclusive"
    assert result["complex_pair"]["type"] == "complex_pair"
    assert max(result["complex_pair"]["residuals"].values()) <= 1e-7
    assert "P" in result["complex_pair"] and "Q" in result["complex_pair"]


def test_classify_reports_certified_infinity(tmp_path):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(subspace_to_json(complex_structure_plane(2, 2))))
    out = tmp_path / "classify.json"
    rc = main(["classify", "--input", str(plane), "--kmax", "4",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["delta"]["status"] == "infinite_certified"
    assert result["witness"]["type"] == "complex_pair"
    assert result["searches"]["complex_pair"] == "certified"


def test_polysolve_reports_both_bases(conformal_file, tmp_path):
    out = tmp_path / "poly.json"
    rc = main(["polysolve", "--input", str(conformal_file), "--kmax", "8",
               "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert len(result["solution_basis"]["elements"]) == 10
    assert len(result["reduced_basis"]["elements"]) == 6


def test_polysolve_without_termination_is_a_note(tmp_path):
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps(subspace_to_json(complex_structure_plane(2, 2))))
    out = tmp_path / "poly.json"
    rc = main(["polysolve", "--input", str(plane), "--kmax", "4", "--out", str(out)])
    assert rc == 0
    assert read_result(out)["solution_basis"] is None


def test_verify_failing_verdict_still_exits_zero(conformal_file, tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 3, "m": 3,
        "terms": [{"degree": 2, "output": 1, "exponents": [2, 0, 0], "value": 1.0}],
    }))
    out = tmp_path / "verify.json"
    rc = main(["verify", "--input", str(conformal_file), "--poly", str(poly),
               "--samples", "20", "--radius", "1.0", "--tol", "1e-9",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["pass"] is False


def test_verify_passing_verdict(conformal_file, tmp_path):
    # a linear member of the subspace passes at the strict tolerance
    gens = json.loads(conformal_file.read_text())["generators"]
    terms = []
    for a, row in enumerate(np.asarray(gens[0])):
        for j, value in enumerate(row):
            if value != 0.0:
                exps = [0, 0, 0]
                exps[j] = 1
                terms.append({"degree": 1, "output": a + 1,
                              "exponents": exps, "value": float(value)})
    poly = tmp_path / "member.json"
    poly.write_text(json.dumps({"n": 3, "m": 3, "terms": terms}))
    out = tmp_path / "verify.json"
    rc = main(["verify", "--input", str(conformal_file), "--poly", str(poly),
               "--samples", "50", "--tol", "1e-9", "--seed", "2", "--out", str(out)])
    assert rc == 0
    assert read_result(out)["pass"] is True


def test_manifold_analysis_report(tmp_path):
    out = tmp_path / "manifold.json"
    rc = main(["manifold", "--family", "isometry", "--dim", "3",
               "--samples", "3", "--kmax", "4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["constant"] is True
    assert result["k"] == 6
    assert len(result["alpha_per_sample"]) == 3


def test_jet_subcommand(tmp_path):
    from prolongation.manifolds import augment_with_full_range, augmented_to_json

    V = conformal_subspace(3)
    aug_path = tmp_path / "aug.json"
    aug_path.write_text(json.dumps(augmented_to_json(augment_with_full_range(V))))
    mat_path = tmp_path / "A.json"
    mat_path.write_text(json.dumps(V.element(np.array([0.5, -0.3, 0.2, 0.9])).tolist()))
    out = tmp_path / "jet.json"
    rc = main(["jet", "--input-augmented", str(aug_path), "--matrix", str(mat_path),
               "--degree", "3", "--out", str(out)])
    assert rc == 0
    result = read_result(out)
    assert result["dimension"] == 3 and result["empty"] is False


def test_reports_embed_the_configuration(conformal_file, tmp_path):
    out = tmp_path / "chain.json"
    main(["chain", "--input", str(conformal_file), "--kmax", "6", "--out", str(out)])
    config = json.loads(out.read_text())["config"]
    assert config["k_max"] == 6
    assert "seed" not in config
    assert "rank_rel" in config["tolerances"]
    assert config["subcommand"] == "chain"


def test_table_format(conformal_file, tmp_path, capsys):
    rc = main(["chain", "--input", str(conformal_file), "--format", "table"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "alpha: 3 4 3 0" in text
    assert "delta.status: finite" in text


def test_stdout_default(conformal_file, capsys):
    rc = main(["chain", "--input", str(conformal_file)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["alpha_total"] == 10


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_invalid_run_configuration_is_exit_one(conformal_file):
    assert main(["chain", "--input", str(conformal_file), "--kmax", "0"]) == 1
    assert main(["detect", "--input", str(conformal_file), "--restarts", "0"]) == 1


def test_internal_inconsistency_is_exit_two(conformal_file, monkeypatch, capsys):
    from prolongation.obstruct import InternalInconsistencyError
    import prolongation.cli as cli_mod

    def broken(*args, **kwargs):
        raise InternalInconsistencyError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "classify_delta_full", broken)
    rc = main(["classify", "--input", str(conformal_file)])
    assert rc == 2
    assert "internal inconsistency" in capsys.readouterr().err


# --- the config block carries what each subcommand consumes ------------------

COMMON_KEYS = {"subcommand", "format", "tolerances"}


@pytest.fixture
def cli_files(tmp_path, conformal_file):
    from prolongation.manifolds import augment_with_full_range, augmented_to_json

    line = tmp_path / "line.json"
    line.write_text(json.dumps({"n": 2, "m": 2, "generators": [np.eye(2).tolist()]}))
    member = tmp_path / "member.json"
    member.write_text(json.dumps({"n": 3, "m": 3, "terms": [
        {"degree": 1, "output": a + 1, "exponents": [int(j == a) for j in range(3)],
         "value": 1.0} for a in range(3)]}))
    aug = tmp_path / "aug.json"
    aug.write_text(json.dumps(augmented_to_json(augment_with_full_range(conformal_subspace(3)))))
    matrix = tmp_path / "A.json"
    matrix.write_text(json.dumps(np.eye(3).tolist()))
    return {"conformal": str(conformal_file), "line": str(line), "member": str(member),
            "aug": str(aug), "matrix": str(matrix)}


@pytest.mark.parametrize("argv, keys", [
    (["chain", "--input", "{conformal}"], {"input", "k_max"}),
    (["detect", "--input", "{line}", "--restarts", "2"], {"input", "seed", "restarts"}),
    (["classify", "--input", "{line}", "--kmax", "3"], {"input", "k_max", "seed", "restarts"}),
    (["polysolve", "--input", "{conformal}"], {"input", "k_max"}),
    (["manifold", "--family", "isometry", "--dim", "2", "--samples", "2", "--kmax", "3"],
     {"family", "dim", "samples", "k_max", "seed", "restarts"}),
    (["verify", "--input", "{conformal}", "--poly", "{member}", "--samples", "3"],
     {"input", "samples", "radius", "tol", "seed"}),
    (["jet", "--input-augmented", "{aug}", "--matrix", "{matrix}", "--degree", "2"],
     {"input", "degree"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_config_block_holds_only_the_consumed_options(cli_files, tmp_path, argv, keys):
    out = tmp_path / "report.json"
    assert main([a.format(**cli_files) for a in argv] + ["--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert set(config) == COMMON_KEYS | keys
    assert "membership" not in config["tolerances"]
    if "restarts" in keys:
        assert config["restarts"] == (2 if argv[0] == "detect" else 64)


def test_fixed_restarts_take_no_flag(cli_files):
    assert main(["classify", "--input", cli_files["line"], "--restarts", "2"]) == 1


# --- verify never passes vacuously ------------------------------------------

@pytest.fixture
def square_on_identity(tmp_path):
    """x -> (x1^2, 0) against span{I}; fails membership wherever x1 != 0."""
    space = tmp_path / "identity.json"
    space.write_text(json.dumps({"n": 2, "m": 2, "generators": [np.eye(2).tolist()]}))

    def poly(value):
        path = tmp_path / "square.json"
        path.write_text('{"n": 2, "m": 2, "terms": [{"degree": 2, "output": 1, '
                        f'"exponents": [2, 0], "value": {value}}}]}}')
        return ["verify", "--input", str(space), "--poly", str(path)]
    return poly


def test_verify_rejects_zero_samples(square_on_identity):
    assert main(square_on_identity("1.0") + ["--samples", "0"]) == 1


def test_verify_rejects_zero_radius(square_on_identity):
    assert main(square_on_identity("1.0") + ["--radius", "0"]) == 1


def test_verify_rejects_a_nan_coefficient(square_on_identity):
    assert main(square_on_identity("NaN")) == 1


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_verify_fails_when_the_jacobian_overflows(square_on_identity, tmp_path):
    out = tmp_path / "verify.json"
    assert main(square_on_identity("1e308") + ["--out", str(out)]) == 0
    assert read_result(out)["pass"] is False


def _reject_constant(literal):
    raise ValueError(f"non-standard JSON constant {literal}")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_verify_report_with_an_overflowing_residual_is_strict_json(square_on_identity, tmp_path):
    out = tmp_path / "verify.json"
    assert main(square_on_identity("1e308") + ["--out", str(out)]) == 0
    result = json.loads(out.read_text(), parse_constant=_reject_constant)["result"]
    assert result["max_residual"] is None
    assert result["pass"] is False


def test_a_non_finite_report_value_is_exit_one(conformal_file, monkeypatch, capsys):
    import prolongation.cli as cli_mod

    _, help_text, options = cli_mod.SUBCOMMANDS["chain"]
    monkeypatch.setitem(cli_mod.SUBCOMMANDS, "chain",
                        (lambda args: {"value": float("inf")}, help_text, options))
    assert main(["chain", "--input", str(conformal_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err


# --- every JSON input rejects numbers that are not finite floats -------------

@pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "-inf", "overflow", "huge-int"])
@pytest.mark.parametrize("kind", ["subspace", "polynomial", "matrix", "augmented"])
def test_non_finite_json_numbers_are_exit_one(tmp_path, capsys, kind, literal):
    """One entry of a valid file (the only 0.25 in it) is replaced by the literal."""
    space = {"n": 2, "m": 2, "generators": [[[1.0, 0.0], [0.0, 0.25]]]}
    poly = {"n": 2, "m": 2, "terms": [
        {"degree": 1, "output": 1, "exponents": [1, 0], "value": 0.25}]}
    aug = {"n": 2, "m": 2, "generators": [{"matrix": np.eye(2).tolist(), "vector": [0.25, 0.0]}]}
    matrix = [[1.0, 0.0], [0.0, 0.25]]
    files = {"subspace": space, "polynomial": poly, "matrix": matrix, "augmented": aug}
    paths = {}
    for name, data in files.items():
        text = json.dumps(data)
        if name == kind:
            assert text.count("0.25") == 1
            text = text.replace("0.25", literal)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    if kind in ("subspace", "polynomial"):
        argv = ["verify", "--input", str(paths["subspace"]), "--poly", str(paths["polynomial"])]
    else:
        argv = ["jet", "--input-augmented", str(paths["augmented"]),
                "--matrix", str(paths["matrix"]), "--degree", "2"]
    assert main(argv) == 1
    assert "invalid input" in capsys.readouterr().err
