import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_detect_report_lists_every_tolerance(tmp_path):
    # the search's two polish stops are fields, not literals in obstruct
    w_pad = tmp_path / "w_pad.json"
    w_pad.write_text(json.dumps(subspace_to_json(complex_structure_plane(3, 3))))
    out = tmp_path / "detect.json"
    assert main(["detect", "--input", str(w_pad), "--restarts", "2", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["config"]["tolerances"]) == {
        "rank_rel", "orthonormality",
        "certificate", "certificate_distance",
        "fd_step", "on_manifold", "jet_consistency",
        "polish_stall_window", "polish_newton_ratio"}


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


@pytest.mark.parametrize("kind", ["conjugated_w_pad", "planted_rank_one"])
@pytest.mark.parametrize("rank_rel, code", [(1e-16, 2), (1e-14, 0)])
def test_the_guard_catches_a_broken_rank_decision(tmp_path, monkeypatch, capsys,
                                                  kind, rank_rel, code):
    """A rank threshold below the noise floor keeps round-off in every rank,
    so the chain falsely terminates on two spaces of infinite type (alpha
    [3, 2, 2, 0] and [3, 2, 1, 0]), and the witness search that runs as a
    guard on a terminated chain must turn that into exit 2.  Just above the
    floor the same inputs classify as certified infinite."""
    import dataclasses

    import prolongation.matspace as matspace_mod
    from conftest import well_conditioned
    from prolongation.matspace import conjugate, make_subspace

    rng = np.random.default_rng(11)
    if kind == "conjugated_w_pad":
        V = conjugate(complex_structure_plane(3, 3),
                      well_conditioned(rng, 3), well_conditioned(rng, 3))
    else:
        V = make_subspace(3, 3, [np.outer(rng.standard_normal(3), rng.standard_normal(3)),
                                 rng.standard_normal((3, 3))])
    space = tmp_path / "space.json"
    space.write_text(json.dumps(subspace_to_json(V)))
    monkeypatch.setattr(matspace_mod, "TOLERANCES",
                        dataclasses.replace(matspace_mod.TOLERANCES, rank_rel=rank_rel))
    out = tmp_path / "classify.json"
    assert main(["classify", "--input", str(space), "--out", str(out)]) == code
    if code == 2:
        assert "internal inconsistency" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert read_result(out)["delta"]["status"] == "infinite_certified"


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


def test_the_one_parser_carries_no_value_from_call_to_call(cli_files, tmp_path):
    from prolongation.cli import build_parser

    assert build_parser() is build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["chain", "--input", cli_files["line"], "--kmax", "3", "--format", "table",
                 "--out", str(first)]) == 0
    assert main(["chain", "--input", cli_files["line"], "--out", str(second)]) == 0
    config = json.loads(second.read_text())["config"]
    assert (config["k_max"], config["format"]) == (8, "json")


@pytest.mark.parametrize("argv", [
    ["detect", "--input", "{conformal}"],
    ["classify", "--input", "{conformal}"],
    ["manifold", "--family", "conformal", "--dim", "3"],
    ["verify", "--input", "{conformal}", "--poly", "{member}"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_rejected_when_parsed(cli_files, tmp_path, monkeypatch, capsys,
                                                 argv):
    import prolongation.cli as cli_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the subcommand ran")

    monkeypatch.setattr(cli_mod, "_load_json", unreachable)
    monkeypatch.setattr(cli_mod, "builtin_family", unreachable)
    argv = [a.format(**cli_files) for a in argv]
    assert main(argv + ["--seed", "-1"]) == 1
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(argv + ["--seed", "0", "--out", str(tmp_path / "report.json")]) == 0


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


@pytest.mark.parametrize("argv", [
    ["chain", "--input", "{conformal}"],
    ["polysolve", "--input", "{conformal}"],
    ["jet", "--input-augmented", "{aug}", "--matrix", "{matrix}", "--degree", "2"],
    ["verify", "--input", "{conformal}", "--poly", "{member}", "--samples", "3"],
    ["classify", "--input", "{line}", "--kmax", "3"],
    ["manifold", "--family", "conformal", "--dim", "3", "--emit-tangent"],
], ids=lambda argv: argv[0])
def test_reports_are_one_compact_line_from_the_c_encoder(cli_files, tmp_path, monkeypatch,
                                                         argv):
    import json.encoder

    def python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    out = tmp_path / "report.json"
    assert main([a.format(**cli_files) for a in argv] + ["--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


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
    where = {"subspace": "field 'generators'", "polynomial": "field 'value'",
             "matrix": "top level", "augmented": "field 'vector'"}
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
    err = capsys.readouterr().err
    assert "invalid input" in err and f"{where[kind]} of {paths[kind]}" in err


def test_an_integer_past_the_digit_limit_is_exit_one(tmp_path, capsys):
    # json.load's own error points at sys.set_int_max_str_digits, not the file
    path = tmp_path / "space.json"
    path.write_text('{"n": 2, "m": 2, "generators": [[[1.0, 0.0], [0.0, ' + "1" * 5001 + "]]]}")
    assert main(["chain", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and str(path) in err and "fields are finite numbers" in err
    assert "set_int_max_str_digits" not in err


# --- no input field is a boolean, null or a string ----------------------------

@pytest.mark.parametrize("kind", ["subspace", "polynomial", "matrix", "augmented"])
def test_json_booleans_are_exit_one(tmp_path, capsys, kind):
    """One entry of a valid file (the only 1.5 in it) is replaced by ``true``,
    which a plain JSON reader would take as the number 1, by ``null``, which
    numpy would read as NaN, or by a string, which ``float`` would read as a
    number.  A NaN in a jet matrix passed the consistency test and gave a
    report with ``"empty": false``."""
    space = {"n": 2, "m": 2, "generators": [[[1.0, 0.0], [0.0, 1.5]]]}
    poly = {"n": 2, "m": 2, "terms": [
        {"degree": 1, "output": 1, "exponents": [1, 0], "value": 1.5}]}
    aug = {"n": 2, "m": 2, "generators": [{"matrix": np.eye(2).tolist(), "vector": [1.5, 0.0]}]}
    matrix = [[1.0, 0.0], [0.0, 1.5]]
    files = {"subspace": space, "polynomial": poly, "matrix": matrix, "augmented": aug}
    for bad in ["true", "null", '"nan"', '"1e400"', '"1.5"']:
        paths = {}
        for name, data in files.items():
            text = json.dumps(data)
            if name == kind:
                assert text.count("1.5") == 1
                text = text.replace("1.5", bad)
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        if kind in ("subspace", "polynomial"):
            argv = ["verify", "--input", str(paths["subspace"]),
                    "--poly", str(paths["polynomial"])]
        else:
            argv = ["jet", "--input-augmented", str(paths["augmented"]),
                    "--matrix", str(paths["matrix"]), "--degree", "2"]
        assert main(argv) == 1, bad
        err = capsys.readouterr().err
        assert "invalid input" in err and bad in err and str(paths[kind]) in err, bad


def test_a_json_null_in_a_chain_input_is_exit_one(tmp_path, capsys):
    # numpy would read the null as NaN, and the SVD would fail to converge
    path = tmp_path / "space.json"
    path.write_text('{"n": 2, "m": 2, "generators": [[[1.0, 0.0], [0.0, null]]]}')
    assert main(["chain", "--input", str(path)]) == 1
    assert f"null at field 'generators' of {path}" in capsys.readouterr().err


# --- the reader: numbers parsed in C, then one checking walk ------------------

_KEYS = st.text("abxyz", min_size=1, max_size=3)
_DOCUMENTS = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**300, 10**300),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16)
_BAD_LEAVES = ["true", "null", '"1.5"', "NaN", "-Infinity", "1e400", "1" + "0" * 400]


def _leaves(container, field=None):
    """(container, index, field name) of every leaf; list items keep their field's name."""
    is_dict = isinstance(container, dict)
    for index, item in container.items() if is_dict else enumerate(container):
        name = index if is_dict else field
        if isinstance(item, (dict, list)):
            yield from _leaves(item, name)
        else:
            yield container, index, name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(document=_DOCUMENTS, data=st.data())
def test_the_reader_loads_what_json_loads_and_names_each_rejected_leaf(document, data):
    from prolongation.cli import _load_json

    holder = [document]  # a leaf at the top level still has a container
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert _load_json(path) == json.loads(json.dumps(document))
        leaves = list(_leaves(holder))
        if not leaves:
            return
        container, index, field = data.draw(st.sampled_from(leaves))
        container[index] = "@bad@"
        bad = data.draw(st.sampled_from(_BAD_LEAVES))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(holder[0]).replace('"@bad@"', bad))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["chain", "--input", path]) == 1
    where = "top level" if field is None else f"field {field!r}"
    assert f"{where} of {path}" in err.getvalue()


# --- the option table's defaults are the library's ---------------------------

def test_cli_defaults_equal_the_library_defaults():
    import inspect

    from prolongation.cli import _options
    from prolongation.manifolds import sample_analysis
    from prolongation.obstruct import find_witnesses
    from prolongation.polyspace import verify_membership
    from prolongation.prolong import chain

    pairs = [("chain", "k_max", chain, "k_max"),
             ("detect", "restarts", find_witnesses, "restarts"),
             ("detect", "seed", find_witnesses, "seed"),
             ("manifold", "samples", sample_analysis, "sample_count"),
             ("verify", "samples", verify_membership, "samples"),
             ("verify", "radius", verify_membership, "radius"),
             ("verify", "tol", verify_membership, "tol")]
    for subcommand, dest, fn, parameter in pairs:
        cli_default, = [o.kwargs["default"] for o in _options(subcommand) if o.dest == dest]
        assert cli_default == inspect.signature(fn).parameters[parameter].default, (
            subcommand, dest)


# --- dimension fields must be integers >= 1 ---------------------------------

@pytest.mark.parametrize("field, value", [("n", 2.5), ("m", 0), ("n", True), ("m", "2")],
                         ids=["fractional", "zero", "bool", "string"])
@pytest.mark.parametrize("kind", ["subspace", "polynomial", "augmented"])
def test_invalid_dimension_fields_are_exit_one(tmp_path, capsys, kind, field, value):
    space = {"n": 2, "m": 2, "generators": [np.eye(2).tolist()]}
    poly = {"n": 2, "m": 2, "terms": [
        {"degree": 1, "output": 1, "exponents": [1, 0], "value": 1.0}]}
    aug = {"n": 2, "m": 2, "generators": [{"matrix": np.eye(2).tolist(), "vector": [0.0, 0.0]}]}
    files = {"subspace": space, "polynomial": poly, "augmented": aug, "matrix": np.eye(2).tolist()}
    files[kind] = {**files[kind], field: value}
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    if kind == "subspace":
        argv = ["chain", "--input", str(paths["subspace"])]
    elif kind == "polynomial":
        argv = ["verify", "--input", str(paths["subspace"]), "--poly", str(paths["polynomial"])]
    else:
        argv = ["jet", "--input-augmented", str(paths["augmented"]),
                "--matrix", str(paths["matrix"]), "--degree", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and f"field '{field}'" in err


# --- the per-term fields of a polynomial file are integers too --------------

def verify_one_term(tmp_path, term):
    """Exit code of ``verify`` of a one-term polynomial against span{I}."""
    space = tmp_path / "identity.json"
    space.write_text(json.dumps({"n": 2, "m": 2, "generators": [np.eye(2).tolist()]}))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"n": 2, "m": 2, "terms": [{"value": 1.0, **term}]}))
    return main(["verify", "--input", str(space), "--poly", str(poly)])


@pytest.mark.parametrize("field, value", [
    ("degree", 1.9), ("degree", -1), ("degree", True), ("output", 1.5), ("output", 0),
    ("exponents", [1.2, 0]), ("exponents", [2, -1]), ("exponents", [False, 1])],
    ids=["fractional-degree", "negative-degree", "bool-degree", "fractional-output",
         "zero-output", "fractional-exponent", "negative-exponent", "bool-exponent"])
def test_invalid_polynomial_term_fields_are_exit_one(tmp_path, capsys, field, value):
    term = {"degree": 1, "output": 1, "exponents": [1, 0], field: value}
    assert verify_one_term(tmp_path, term) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err and f"field '{field}'" in err


def test_truncating_term_fields_are_exit_one(tmp_path, capsys):
    # each field would truncate to the linear term x1 in output 1
    term = {"degree": 1.9, "output": 1.5, "exponents": [1.2, 0]}
    assert verify_one_term(tmp_path, term) == 1
    assert "field 'degree'" in capsys.readouterr().err


def test_integral_float_term_fields_are_accepted(tmp_path):
    assert verify_one_term(tmp_path, {"degree": 2.0, "output": 1.0, "exponents": [2.0, 0]}) == 0


# --- every field of an input file is required --------------------------------

def write_inputs(tmp_path, replace=None):
    """A valid 2 x 2 subspace, polynomial, augmented subspace and matrix file,
    with ``replace`` mapping a file kind to the document written instead."""
    files = {
        "subspace": {"n": 2, "m": 2, "generators": [np.eye(2).tolist()]},
        "polynomial": {"n": 2, "m": 2, "terms": [
            {"degree": 1, "output": 1, "exponents": [1, 0], "value": 1.0}]},
        "augmented": {"n": 2, "m": 2,
                      "generators": [{"matrix": np.eye(2).tolist(), "vector": [0.0, 0.0]}]},
        "matrix": np.eye(2).tolist(),
        **(replace or {}),
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return {
        "chain": ["chain", "--input", str(paths["subspace"])],
        "classify": ["classify", "--input", str(paths["subspace"]), "--kmax", "3"],
        "verify": ["verify", "--input", str(paths["subspace"]),
                   "--poly", str(paths["polynomial"]), "--samples", "3"],
        "jet": ["jet", "--input-augmented", str(paths["augmented"]),
                "--matrix", str(paths["matrix"]), "--degree", "2"],
    }


@pytest.mark.parametrize("subcommand, kind, field", [
    ("chain", "subspace", "generators"), ("chain", "subspace", "n"),
    ("classify", "subspace", "generators"), ("classify", "subspace", "m"),
    ("verify", "subspace", "generators"), ("verify", "polynomial", "terms"),
    ("verify", "polynomial", "n"), ("jet", "augmented", "generators"),
    ("jet", "augmented", "m")])
def test_a_missing_field_is_exit_one(tmp_path, capsys, subcommand, kind, field):
    """A misspelled "generators" used to read as the zero subspace, so that
    classify reported a finite delta of 0 and jet an empty space, with exit 0."""
    valid = {"subspace": {"n": 2, "m": 2, "generators": [np.eye(2).tolist()]},
             "polynomial": {"n": 2, "m": 2, "terms": []},
             "augmented": {"n": 2, "m": 2, "generators": []}}[kind]
    data = dict(valid)
    value = data.pop(field)
    if field in ("generators", "terms"):
        data[field[:-1]] = value
    out = tmp_path / "report.json"
    assert main(write_inputs(tmp_path, {kind: data})[subcommand] + ["--out", str(out)]) == 1
    assert f"invalid input: missing field '{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, kind", [
    ("chain", "subspace"), ("classify", "subspace"), ("verify", "subspace"),
    ("verify", "polynomial"), ("jet", "augmented")])
def test_a_top_level_that_is_not_an_object_is_exit_one(tmp_path, capsys, subcommand, kind):
    assert main(write_inputs(tmp_path, {kind: [[1.0, 0.0], [0.0, 1.0]]})[subcommand]) == 1
    err = capsys.readouterr().err
    assert "invalid input: the top level must be an object, got list" in err


@pytest.mark.parametrize("kind, field", [
    ("subspace", "generators"), ("polynomial", "terms"), ("augmented", "generators")])
def test_a_list_field_that_is_an_object_is_exit_one(tmp_path, capsys, kind, field):
    # an empty object would otherwise read as an empty list
    argv = write_inputs(tmp_path, {kind: {"n": 2, "m": 2, field: {}}})
    assert main(argv["verify" if kind != "augmented" else "jet"]) == 1
    assert f"field '{field}' must be a list" in capsys.readouterr().err


def test_explicitly_empty_lists_stay_valid(tmp_path):
    argv = write_inputs(tmp_path, {
        "subspace": {"n": 2, "m": 2, "generators": []},
        "polynomial": {"n": 2, "m": 2, "terms": []},
        "augmented": {"n": 2, "m": 2, "generators": []}})
    results = {}
    for subcommand, args in argv.items():
        out = tmp_path / f"{subcommand}.json"
        assert main(args + ["--out", str(out)]) == 0
        results[subcommand] = read_result(out)
    assert results["chain"]["alpha"] == [2, 0]
    assert results["classify"]["delta"] == {"status": "finite", "value": 0}
    assert results["verify"]["pass"] is True
    assert results["jet"]["empty"] is True
