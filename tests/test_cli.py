import argparse
import csv
import io
import json
import math

import numpy as np
import pytest

from hwsep import ValidationError, basis, check_ppt, check_theorem1, cli, decompose_bipartite, make_check
from hwsep import optimize_params
from hwsep.cli import build_parser, matrix_to_pairs, parse_state_json, run, state_to_json
from hwsep.criteria import REGISTRY
from hwsep.hw_basis import basis_labels
from hwsep.states import (
    ghz,
    horodecki_2x4,
    horodecki_mix_family,
    random_density,
    random_pure,
    random_separable,
    xi_state,
)

from reference_data import PRINTED_D3, THRESHOLD_HW, THRESHOLD_ISC, THRESHOLD_LB, THRESHOLD_VB

BOUND_PAST = "the separable bound is past float range"
M_PAST = "1" + "0" * 400  # a whole-number m that no float holds


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def write_state(tmp_path, rho, name="state.json"):
    path = tmp_path / name
    path.write_text(json.dumps(state_to_json(rho)))
    return str(path)


def test_basis_dump_matches_library(capsys):
    doc = run_json(capsys, ["basis", "--dim", "3"])
    assert doc["dim"] == 3 and len(doc["elements"]) == 8
    lib = basis(3)
    for entry, (label, q) in zip(doc["elements"], zip(basis_labels(3), lib)):
        assert (entry["l"], entry["m"]) == label
        got = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
        np.testing.assert_allclose(got, q, atol=1e-15)


def test_basis_dump_plain_convention(capsys):
    doc = run_json(capsys, ["basis", "--dim", "3", "--convention", "plain"])
    entry = doc["elements"][3]  # (1, 1)
    got = np.array([[complex(re, im) for re, im in row] for row in entry["matrix"]])
    np.testing.assert_allclose(got, PRINTED_D3[(1, 1)], atol=1e-12)


def test_state_round_trip(capsys):
    doc = run_json(capsys, ["state", "--name", "horodecki", "--b", "0.9"])
    rho = parse_state_json(doc)
    np.testing.assert_allclose(rho.matrix, horodecki_2x4(0.9).matrix, atol=1e-15)
    assert rho.dims == (2, 4)


# every state name: the flags its row reads, and the same state made by the library
NAMED_STATES = {
    "horodecki": (["--b", "0.9"], lambda: horodecki_2x4(0.9)),
    "xi": ([], xi_state),
    "bell": ([], lambda: ghz(2)),
    "ghz": (["--n", "4"], lambda: ghz(4)),
    "horodecki-mix": (["--b", "0.9", "--x", "0.3"], lambda: horodecki_mix_family(0.9).state(0.3)),
    "random-pure": (["--dim", "3", "--seed", "5"], lambda: random_pure(3, 5)),
    "random-density": (["--dim", "3", "--seed", "5"], lambda: random_density(3, 5)),
    "random-separable": (["--dims", "2,3", "--terms", "4", "--seed", "5"], lambda: random_separable((2, 3), 4, 5)[1]),
}


class TestStateTables:
    def test_choices_are_the_tables(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

        def choices(command, flag):
            return next(a.choices for a in commands[command]._actions if flag in a.option_strings)

        assert choices("state", "--name") == list(cli._STATES) == list(NAMED_STATES)
        assert choices("scan", "--family") == choices("compare", "--family") == list(cli._FAMILIES)
        assert set(cli._FAMILIES) <= set(cli._STATES)

    @pytest.mark.parametrize("name", list(NAMED_STATES))
    def test_every_state_is_the_library_state(self, tmp_path, capsys, name):
        flags, made = NAMED_STATES[name]
        code, out, err = outcome(capsys, ["state", "--name", name, *flags])
        assert (code, err) == (0, "")
        assert out == json.dumps(state_to_json(made()), indent=2) + "\n"
        if len(made().dims) == 2:  # its file is read back, and ppt judges it
            path = tmp_path / "named.json"
            path.write_text(out)
            assert run_json(capsys, ["check", "--state", str(path), "--criterion", "ppt"])["criterion"] == "ppt"

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["state", "--name", "horodecki"], "--b"),
            (["state", "--name", "horodecki-mix", "--x", "0.3"], "--b"),
            (["state", "--name", "horodecki-mix", "--b", "0.9"], "--x"),
            (["state", "--name", "random-pure", "--seed", "1"], "--dim"),
            (["state", "--name", "random-density"], "--dim"),
            (["state", "--name", "random-separable", "--terms", "3"], "--dims"),
            (["scan", "--family", "horodecki-mix", "--criterion", "vb"], "--b"),
            (["compare", "--family", "horodecki-mix", "--criteria", "vb"], "--b"),
        ],
    )
    def test_missing_flag_is_a_usage_error(self, capsys, argv, missing):
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (2, "")
        assert f"{argv[2]} requires {missing}\n" in err

    def test_family_is_built_before_x_is_read(self, capsys):
        code, out, err = outcome(capsys, ["state", "--name", "horodecki-mix", "--b", "1.5"])
        assert (code, out) == (3, "")
        assert "b must lie in (0, 1)" in err


def test_check_ppt_on_bell_file(tmp_path, capsys):
    path = write_state(tmp_path, ghz(2))
    doc = run_json(capsys, ["check", "--state", path, "--criterion", "ppt"])
    assert doc["verdict"] == "ENTANGLED"
    assert doc["value"] == pytest.approx(0.5, abs=1e-12)


def test_check_hw_matches_library(tmp_path, capsys):
    rho = horodecki_2x4(0.9)
    path = write_state(tmp_path, rho)
    doc = run_json(
        capsys,
        ["check", "--state", path, "--criterion", "hw", "--alpha", "0.5", "--beta-sq", "2/11", "--m", "1"],
    )
    v = check_theorem1(rho, 0.5, np.sqrt(2 / 11), 1)
    assert doc["value"] == pytest.approx(v.value, abs=1e-12)
    assert doc["bound"] == pytest.approx(v.bound, abs=1e-12)


def test_decompose_matches_library(tmp_path, capsys):
    rho = horodecki_2x4(0.5)
    path = write_state(tmp_path, rho)
    doc = run_json(capsys, ["decompose", "--state", path, "--rescaled"])
    dec = decompose_bipartite(rho, "rescaled")
    np.testing.assert_allclose(doc["r"], dec.r.coeffs, atol=1e-15)
    np.testing.assert_allclose(doc["T"], dec.t, atol=1e-15)


def test_tensor_check_ghz(tmp_path, capsys):
    path = write_state(tmp_path, ghz(3))
    doc = run_json(capsys, ["tensor-check", "--state", path, "--alphas", "1,1,1", "--m", "1"])
    assert len(doc) == 3
    assert all(v["verdict"] == "ENTANGLED" for v in doc)
    single = run_json(
        capsys,
        ["tensor-check", "--state", path, "--alphas", "1,1,1", "--m", "1", "--partition", "1,3"],
    )
    assert len(single) == 1 and single[0]["params"]["partition"] == [1, 3]
    path = write_state(tmp_path, ghz(5), "ghz5.json")  # all 15 bipartitions, judged in stacks of two tall shapes
    doc = run_json(capsys, ["tensor-check", "--state", path, "--alphas", "1,1,1,1,1", "--m", "1"])
    assert [v["verdict"] for v in doc] == ["ENTANGLED"] * 15


def test_scan_subcommand(capsys):
    doc = run_json(
        capsys,
        [
            "scan", "--family", "horodecki-mix", "--b", "0.9",
            "--criterion", "vb", "--grid", "64", "--tol", "1e-06",
        ],
    )
    assert doc["threshold"] == pytest.approx(0.2292, abs=5e-4)
    assert doc["sign_changes"] == 1


def test_optimize_subcommand(tmp_path, capsys):
    path = write_state(tmp_path, ghz(2))
    doc = run_json(
        capsys,
        ["optimize", "--state", path, "--alpha-grid", "0,0.5", "--beta-grid", "0,0.5", "--m-range", "1"],
    )
    assert doc["violation"] >= 2.0 - 1e-9
    # on the default grids, on the states of test_analysis' tenths cases, the best cell is the library's, and hwsep
    # check at it judges the same value and bound
    separable = [random_separable(*args)[1] for args in (((2, 4), 1, 1), ((2, 4), 12, 3), ((3, 3), 5, 2))]
    runs = [("1,2,3", []), ("1,2,4,8,16,32", []), ("1,4,16,64", []), ("1,2,4,8,16,32", ["--rescaled"])]
    for rho in [ghz(2), horodecki_mix_family(0.9).state(0.3), *separable]:
        path = write_state(tmp_path, rho)
        for m_range, rescaled in runs:
            doc = run_json(capsys, ["optimize", "--state", path, "--m-range", m_range, *rescaled])
            ms, normalization = [int(m) for m in m_range.split(",")], "rescaled" if rescaled else "standard"
            assert doc == optimize_params(rho, TENTHS, TENTHS, ms, normalization).to_dict()
            cell = ["--alpha", repr(doc["alpha"]), "--beta", repr(doc["beta"]), "--m", str(doc["m"]), *rescaled]
            check = run_json(capsys, ["check", "--state", path, "--criterion", "hw", *cell])
            assert [check["value"], check["bound"]] == pytest.approx([doc["value"], doc["bound"]], abs=1e-12)


def test_compare_csv(capsys):
    code = run(
        [
            "compare", "--family", "horodecki-mix", "--b", "0.9",
            "--criteria", "vb,lb", "--format", "csv", "--grid", "32",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("criterion,alpha,beta,m")


@pytest.mark.parametrize("kind", ["family", "state"])
def test_compare_json_rows_are_the_csv_rows(tmp_path, capsys, kind):
    # the default format: each JSON row, its parameters among its fields, is the CSV row field by field
    subject, described = {
        "family": (["--family", "horodecki-mix", "--b", "0.9"], {"family": "horodecki-mix", "b": 0.9}),
        "state": (["--state", write_state(tmp_path, horodecki_2x4(0.9))], {"state": "inline", "dims": [2, 4]}),
    }[kind]
    argv = ["compare", *subject, "--alpha", "0.5", "--beta-sq", "2/11", "--m", "1", "--grid", "32"]
    doc = run_json(capsys, argv)
    assert run([*argv, "--format", "csv"]) == 0
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert doc["subject"] == described
    assert [row["criterion"] for row in doc["rows"]] == ["hw", "isc", "vb", "lb"]
    if kind == "family":  # the thresholds the tests pin, within test_known_thresholds' 5e-6
        pins = [THRESHOLD_HW, THRESHOLD_ISC, THRESHOLD_VB, THRESHOLD_LB]
        assert [row["threshold"] for row in doc["rows"]] == pytest.approx(pins, abs=5e-6)
    rows = [{**row["params"], **row} for row in doc["rows"]]
    assert len(table) == len(rows)
    for row, line in zip(rows, table):
        assert {key: "" if row.get(key) is None else str(row[key]) for key in line} == line


def compare_rows(capsys, argv):
    code = run(["compare", *argv, "--format", "csv", "--grid", "32"])
    out = capsys.readouterr().out
    assert code == 0, out
    return [line.split(",")[0] for line in out.strip().splitlines()[1:]]


def test_compare_default_criteria(tmp_path, capsys):
    family = ["--family", "horodecki-mix", "--b", "0.9"]
    assert compare_rows(capsys, family) == ["vb", "lb", "ppt"]  # no weights: the parameter-free rows
    assert compare_rows(capsys, ["--state", write_state(tmp_path, ghz(2))]) == ["vb", "lb", "ppt"]
    weights = ["--alpha", "0.5", "--beta-sq", "2/11", "--m", "1"]
    assert compare_rows(capsys, [*family, *weights]) == ["hw", "isc", "vb", "lb"]
    with pytest.raises(SystemExit) as err:  # a weighted row named without weights
        run(["compare", *family, "--criteria", "vb,hw"])
    assert err.value.code == 2


def test_every_command_reads_the_registry(tmp_path, capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command):
        return next(a.choices for a in commands[command]._actions if "--criterion" in a.option_strings)

    assert list(choices("scan")) == list(REGISTRY)
    assert list(choices("check")) == [name for name in REGISTRY if name != "thm2"]
    flags = ["--alpha", "0.5", "--beta", "0.4", "--m", "1", "--alphas", "1,1"]
    state = ["--state", write_state(tmp_path, ghz(2))]
    assert compare_rows(capsys, [*state, *flags, "--criteria", ",".join(REGISTRY)]) == list(REGISTRY)
    samples = {"alpha": 0.5, "beta": 0.4, "m": 1, "alphas": (1.0, 1.0)}
    for name, row in REGISTRY.items():
        v = make_check(name, **{key: samples[key] for key in row.required})(ghz(2))
        assert (v.criterion, list(v.params)) == (name, list(row.reported))


def test_full_precision_output(tmp_path, capsys):
    """JSON state round-trip preserves verdict values to 1e-12."""
    rho = horodecki_2x4(0.9)
    doc = run_json(capsys, ["state", "--name", "horodecki", "--b", "0.9"])
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    got = run_json(capsys, ["check", "--state", str(path), "--criterion", "vb"])
    direct = check_ppt(rho)  # unrelated warm-up to keep imports honest
    assert direct is not None
    expected = make_check("vb")(rho)
    assert abs(got["value"] - expected.value) <= 1e-12


class TestExitCodes:
    def test_usage_error_unknown_criterion(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["check", "--state", "x.json", "--criterion", "bogus"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:  # thm2 is the tensor-check command
            run(["check", "--state", "x.json", "--criterion", "thm2", "--alphas", "1,1", "--m", "1"])
        assert err.value.code == 2

    def test_usage_error_missing_params(self, tmp_path, capsys):
        path = write_state(tmp_path, ghz(2))
        with pytest.raises(SystemExit) as err:
            run(["check", "--state", path, "--criterion", "hw"])  # no alpha/beta/m
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--alpha-grid", "abc"],
            ["tensor-check", "--alphas", "1,1", "--m", "1", "--partition", "x"],
            ["check", "--criterion", "hw", "--alpha", "1", "--beta-sq", "nan", "--m", "1"],
        ],
    )
    def test_usage_error_malformed_number(self, tmp_path, capsys, argv):
        path = write_state(tmp_path, ghz(2))
        with pytest.raises(SystemExit) as err:
            run([*argv, "--state", path])
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a malformed list is a usage error even for a row that does not read it
            (["check", "--criterion", "ppt", "--alphas", "x"], "argument --alphas: expected comma-separated float"),
            (["check", "--criterion", "vb", "--partition", "1,y"], "argument --partition: expected comma-separated"),
            (["state", "--name", "ghz", "--dims", "x"], "argument --dims: expected comma-separated int values"),
            (["check", "--criterion", "hw", "--alpha", "1", "--beta", "0.9", "--beta-sq", "2/11"], "not allowed"),
            (["check", "--criterion", "hw", "--alpha", "1", "--beta-sq=-1/2", "--m", "1"], "nonnegative rational"),
            (["check", "--criterion", "hw", "--alpha", "1", "--beta-sq", "1e400"], "nonnegative rational"),
            (["compare", "--criteria", "vb", "--beta-sq", "1/4", "--beta", "0.5"], "argument --beta: not allowed"),
        ],
    )
    def test_usage_error_malformed_or_conflicting_flag(self, tmp_path, capsys, argv, message):
        path = write_state(tmp_path, ghz(2))
        code, out, err = outcome(capsys, argv if argv[0] == "state" else [*argv, "--m", "1", "--state", path])
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--criterion", "hw"], "criterion hw requires --alpha, --beta (or --beta-sq) and --m"),
            (["compare", "--criteria", "vb,bogus"], "unknown criterion 'bogus' in --criteria"),
            (["compare", "--criteria", "vb", "--family", "horodecki-mix"], "exactly one of --family or --state"),
        ],
    )
    def test_handler_usage_error_names_its_command(self, tmp_path, capsys, argv, message):
        # raised by the handler after parsing, and printed with the command's usage, as argparse's own errors are
        code, out, err = outcome(capsys, [*argv, "--state", write_state(tmp_path, ghz(2))])
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: hwsep {argv[0]} [-h]")
        assert f"\nhwsep {argv[0]}: error: " in err and message in err

    def test_empty_partition_is_every_bipartition(self, tmp_path, capsys):
        thm2 = ["tensor-check", "--state", write_state(tmp_path, ghz(3)), "--alphas", "1,1,1", "--m", "1"]
        assert run_json(capsys, [*thm2, "--partition", ""]) == run_json(capsys, thm2)

    def test_validation_error_bad_file(self, tmp_path, capsys):
        # not JSON, not UTF-8 (a UnicodeDecodeError), and nested past the parser's recursion limit (a RecursionError)
        path = tmp_path / "garbage.json"
        for content in (b"{not json", b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000):
            path.write_bytes(content)
            assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3
            assert "state file is not valid JSON" in capsys.readouterr().err
        # JSON that is not a state: an array (a TypeError), and an object without "dims" or "matrix" (a KeyError)
        for content in (b"[]", b'{"matrix": []}', b'{"dims": [2]}'):
            path.write_bytes(content)
            assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3
            assert capsys.readouterr().err.startswith("validation error: malformed state file: ")
        # a path that does not exist
        assert run(["check", "--state", str(tmp_path / "missing.json"), "--criterion", "ppt"]) == 3
        assert capsys.readouterr().err.startswith("validation error: cannot read state file: ")

    def test_validation_error_unphysical_state(self, tmp_path, capsys):
        doc = {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3

    def test_validation_error_bad_b(self, capsys):
        assert run(["state", "--name", "horodecki", "--b", "1.5"]) == 3

    def test_validation_error_empty_dims(self, capsys):
        assert run(["state", "--name", "random-separable", "--dims", ""]) == 3
        assert "dims must name at least one subsystem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--name", "random-pure", "--dim", "2", "--seed", "-1"], "seed"),
            (["--name", "random-density", "--dim", "2", "--seed", "-1"], "seed"),
            (["--name", "random-separable", "--dims", "2,2", "--seed", "-1"], "seed"),
            (["--name", "random-separable", "--dims", "2,2", "--terms", "100000000000000000000"], "k_terms"),
        ],
    )
    def test_validation_error_seed_and_terms(self, capsys, flags, named):
        assert run(["state", *flags]) == 3
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_validation_error_non_finite_weights(self, tmp_path, capsys, value):
        path = write_state(tmp_path, horodecki_2x4(0.9))
        check = ["check", "--state", path, "--criterion", "hw", f"--alpha={value}", "--beta", "1", "--m", "1"]
        assert run(check) == 3
        assert run(["optimize", "--state", path, f"--alpha-grid={value},1"]) == 3
        assert run(["tensor-check", "--state", path, f"--alphas=1,{value}", "--m", "1"]) == 3
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_validation_error_non_finite_tol(self, capsys, tol):
        assert run(["scan", "--family", "horodecki-mix", "--b", "0.9", "--criterion", "lb", "--tol", tol]) == 3
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [[1, 4], [4, 1]])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--criterion", "vb"],
            ["check", "--criterion", "hw", "--alpha", "1", "--beta", "1", "--m", "1"],
            ["tensor-check", "--alphas", "1,1", "--m", "1"],
            ["decompose"],
            ["optimize"],
        ],
    )
    def test_validation_error_party_of_dimension_one(self, tmp_path, capsys, dims, argv):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "matrix": matrix_to_pairs(np.eye(4) / 4)}))
        assert run([*argv, "--state", str(path)]) == 3
        assert "dimension >= 2" in capsys.readouterr().err
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 0  # ppt needs no Bloch data

    @pytest.mark.parametrize(
        "argv", [["--criterion", "vb"], ["--criterion", "hw", "--alpha", "1", "--beta", "1", "--m", "1"]]
    )
    def test_validation_error_two_party_row_on_three_parties(self, tmp_path, capsys, argv):
        path = write_state(tmp_path, ghz(3))
        assert run(["check", "--state", path, *argv]) == 3
        assert f"criterion {argv[1]} needs a state of 2 parties" in capsys.readouterr().err

    def test_validation_error_optimize_on_three_parties(self, tmp_path, capsys):
        assert run(["optimize", "--state", write_state(tmp_path, ghz(3))]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "validation error: optimize_params needs a state of 2 parties, got dims (2, 2, 2)\n"

    def test_validation_error_partition_out_of_range(self, tmp_path, capsys):
        path = write_state(tmp_path, ghz(2))
        assert run(["tensor-check", "--state", path, "--alphas", "1,1", "--m", "1", "--partition", "3"]) == 3
        assert "party indices must lie in 1..2" in capsys.readouterr().err

    # the last dims are whole numbers whose int64 product wraps to 8, the matrix's size: each command once ended in
    # a reshape ValueError (exit 1)
    @pytest.mark.parametrize("dims", ["24", [2.0, 4.0], [2, "4"], [True, 4], {"a": 2}, [8, 2305843009213693953]])
    def test_validation_error_dims_not_a_list_of_integers(self, tmp_path, capsys, dims):
        doc = state_to_json(horodecki_2x4(0.9))
        doc["dims"] = dims
        with pytest.raises(ValidationError):
            parse_state_json(doc)
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        wrapped = dims == [8, 2305843009213693953]
        commands = [
            ["check", "--criterion", "ppt"],
            ["decompose"],
            ["optimize"],
            ["tensor-check", "--alphas", "1,1", "--m", "1"],
        ]
        for argv in commands if wrapped else commands[:1]:
            assert run([*argv, "--state", str(path)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and ("dims (8, 2305843009213693953) imply dimension" in err or not wrapped)

    @pytest.mark.parametrize(
        "argv,message",
        [
            # these printed NaN values or an Infinity bound (not JSON) with exit 0, after an overflow warning
            (["check", "--criterion", "hw", "--alpha", "1e160", "--beta", "1e160", "--m", "1"], BOUND_PAST),
            (["optimize", "--alpha-grid", "1e200", "--beta-grid", "1e200", "--m-range", "1"], BOUND_PAST),
            (["tensor-check", "--alphas", "1e300,1", "--m", "4"], BOUND_PAST),
            # these ended in an OverflowError traceback with exit 1
            (["check", "--criterion", "hw", "--alpha", "1", "--beta", "1", "--m", M_PAST], "m must lie within float"),
            (["optimize", "--m-range", f"1,{M_PAST}"], "m must lie within float range"),
            (["tensor-check", "--alphas", "1,1", "--m", M_PAST], "m must lie within float range"),
            (["compare", "--criteria", "isc", "--alpha", "1", "--beta", "1", "--m", M_PAST], "m must lie within float"),
        ],
    )
    def test_validation_error_bound_past_float_range(self, tmp_path, capsys, argv, message):
        assert run([*argv, "--state", write_state(tmp_path, ghz(2))]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"validation error: {message}" in err

    @pytest.mark.parametrize(
        "matrix,message",
        [
            ([[[1, 0], [0, 0]], [[0, 0]]], "matrix must be a square JSON list of rows"),  # ragged
            ([[[1, 0], [0, 0]]], "matrix must be a square JSON list of rows"),
            ([[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]], "each matrix entry must be an [re, im] pair"),
            ([[[0.5], [0, 0]], [[0, 0], [0.5, 0]]], "each matrix entry must be an [re, im] pair"),
            ([[0.5, [0, 0]], [[0, 0], [0.5, 0]]], "each matrix entry must be an [re, im] pair"),
            ([[[True, False], [0, 0]], [[0, 0], [0, 0]]], "must be a finite real number, got True"),
            ([[[0.5, 0], [0, 0]], [[0, 0], [0.5, "0"]]], "must be a finite real number, got '0'"),
            ([[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]], "must be a finite real number, got 1000"),  # 401 digits
        ],
    )
    def test_validation_error_malformed_matrix(self, tmp_path, capsys, matrix, message):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"dims": [2], "matrix": matrix}))
        # a ragged matrix ended in a numpy traceback (exit 1); [re, im, 7] and [true, false] were read as re + im j
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3
        assert message in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        path = write_state(tmp_path, ghz(2))
        monkeypatch.setattr(np.linalg, "svd", fail)
        assert run(["check", "--state", path, "--criterion", "hw", "--alpha", "1", "--beta", "1", "--m", "1"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "numerical failure: singular value computation failed" in err
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)  # state validation, before any command's work
        assert run(["check", "--state", path, "--criterion", "ppt"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "numerical failure: eigendecomposition failed" in err


# each flag of each command: (option, dest, metavar, default, required, choices); what --help shows of it
RESCALED = ("--rescaled", "normalization", None, "standard", False, None)
STATE_FILE = ("--state", "state", None, None, True, None)
PARAMS = [
    RESCALED,
    ("--alpha", "alpha", None, None, False, None),
    ("--beta", "beta", None, None, False, None),
    ("--beta-sq", "beta", "BETA_SQ", None, False, None),
    ("--m", "m", None, None, False, None),
    ("--alphas", "alphas", None, None, False, None),
    ("--partition", "partitions", "PARTITION", None, False, None),
]
FAMILY_FLAGS = [("--b", "b", None, None, False, None)]
GRID_FLAGS = [("--grid", "grid", None, 256, False, None), ("--tol", "tol", None, 1e-6, False, None)]
TENTHS = [v / 10 for v in range(16)]
FLAG_SURFACE = {
    "basis": [
        ("--dim", "dim", None, None, True, None),
        ("--convention", "convention", None, "symmetric", False, ("symmetric", "plain")),
        RESCALED,
    ],
    "state": [
        ("--name", "name", None, None, True, list(NAMED_STATES)),
        *FAMILY_FLAGS,
        ("--x", "x", None, None, False, None),
        ("--n", "n", None, 3, False, None),
        ("--dim", "dim", None, None, False, None),
        ("--dims", "dims", None, None, False, None),
        ("--terms", "terms", None, 10, False, None),
        ("--seed", "seed", None, 0, False, None),
    ],
    "decompose": [RESCALED, STATE_FILE],
    "check": [("--criterion", "criterion", None, None, True, ["hw", "isc", "vb", "lb", "ppt"]), *PARAMS, STATE_FILE],
    "tensor-check": [*PARAMS, STATE_FILE],
    "scan": [
        ("--family", "family", None, None, True, ["horodecki-mix"]),
        *FAMILY_FLAGS,
        ("--criterion", "criterion", None, None, True, ["hw", "isc", "vb", "lb", "ppt", "thm2"]),
        *GRID_FLAGS,
        *PARAMS,
    ],
    "optimize": [
        ("--alpha-grid", "alpha_grid", None, TENTHS, False, None),
        ("--beta-grid", "beta_grid", None, TENTHS, False, None),
        ("--m-range", "m_range", None, [1, 2, 3], False, None),
        RESCALED,
        STATE_FILE,
    ],
    "compare": [
        ("--family", "family", None, None, False, ["horodecki-mix"]),
        *FAMILY_FLAGS,
        ("--state", "state", None, None, False, None),
        ("--criteria", "criteria", None, None, False, None),
        *GRID_FLAGS,
        ("--format", "format", None, "json", False, ["json", "csv"]),
        *PARAMS,
    ],
}


class TestFlagSurface:
    """Each command's flags as argparse holds them, which pins --help without a text that varies by Python version."""

    @staticmethod
    def commands():
        return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_flag_of_every_command(self):
        commands = self.commands()
        assert list(commands) == list(FLAG_SURFACE)
        for name, command in commands.items():
            flags = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
            got = [(*a.option_strings, a.dest, a.metavar, a.default, a.required, a.choices) for a in flags]
            assert got == FLAG_SURFACE[name], name

    def test_beta_flags_are_exclusive(self):
        for name, command in self.commands().items():
            groups = [[a.option_strings for a in g._group_actions] for g in command._mutually_exclusive_groups]
            assert groups == ([[["--beta"], ["--beta-sq"]]] if PARAMS[2] in FLAG_SURFACE[name] else []), name

    def test_default_grids_are_read_once_per_parse(self):
        args = build_parser().parse_args(["optimize", "--state", "s.json"])
        assert (args.alpha_grid, args.beta_grid, args.m_range) == (TENTHS, TENTHS, [1, 2, 3])

    @pytest.mark.parametrize(
        "flags, parsed",
        [
            (["--beta-sq", "2/11"], {"beta": math.sqrt(2 / 11)}),
            (["--beta-sq", "0.25"], {"beta": 0.5}),
            (["--alphas", "1,,0.5,"], {"alphas": [1.0, 0.5]}),
            (["--alphas", ""], {"alphas": []}),
            (["--partition", "3,1"], {"partitions": [[3, 1]]}),
            (["--partition", ""], {"partitions": None}),  # every bipartition
            (["--partition", ","], {"partitions": [[]]}),  # an empty subset: a validation error when bound
            (["--rescaled"], {"normalization": "rescaled"}),
            (["--criteria", "vb,,ppt"], {"criteria": ["vb", "ppt"]}),
        ],
    )
    def test_each_flag_is_parsed_into_its_parameter(self, flags, parsed):
        args = vars(build_parser().parse_args(["compare", "--state", "s.json", *flags]))
        assert {key: args[key] for key in parsed} == parsed


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``run``, usage errors and --help included."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestSharedParser:
    def test_run_builds_its_parser_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        monkeypatch.setattr(cli, "_PARSER", None)  # as in a new process
        path = write_state(tmp_path, ghz(2))
        for _ in range(4):
            assert outcome(capsys, ["check", "--state", path, "--criterion", "ppt"])[0] == 0
            assert outcome(capsys, ["check", "--state", path, "--criterion", "bogus"])[0] == 2
        assert len(builds) == 1
        assert build_parser() is not build_parser()  # the public builder still makes a new parser

    def test_same_output_as_a_new_parser(self, tmp_path, capsys, monkeypatch):
        path = write_state(tmp_path, horodecki_2x4(0.9))
        commands = [
            ["check", "--state", path, "--criterion", "hw"],  # usage error: no alpha, beta or m
            ["state", "--name", "horodecki", "--b", "1.5"],  # validation error
            ["--help"],
            ["optimize", "--state", path, "--m-range", "1,2"],
            ["check", "--state", path, "--criterion", "hw", "--alpha", "0.5", "--beta-sq", "2/11", "--m", "1"],
            ["scan", "--family", "horodecki-mix", "--b", "0.9", "--criterion", "lb", "--grid", "16"],
            ["optimize", "--state", path, "--alpha-grid", "x"],  # usage error after a parse that succeeded
        ]
        new = []
        for argv in commands:
            monkeypatch.setattr(cli, "_PARSER", None)  # each command on a parser of its own
            new.append(outcome(capsys, argv))
        assert [code for code, _, _ in new] == [2, 3, 0, 0, 0, 0, 2]
        monkeypatch.setattr(cli, "_PARSER", None)
        assert [outcome(capsys, argv) for argv in commands * 2] == new * 2  # one parser for all fourteen
