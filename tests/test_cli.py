import argparse
import json

import numpy as np
import pytest

from hwsep import ValidationError, analysis, basis, check_ppt, check_theorem1, cli, decompose_bipartite, make_check
from hwsep.cli import build_parser, matrix_to_pairs, parse_state_json, run, state_to_json
from hwsep.criteria import REGISTRY
from hwsep.states import ghz, horodecki_2x4

from reference_data import PRINTED_D3


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
    for entry, (label, q) in zip(doc["elements"], zip(lib.labels, lib.elements)):
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

    assert list(choices("scan")) == list(REGISTRY) == list(analysis.CRITERIA)
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

    def test_validation_error_bad_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3

    def test_validation_error_unphysical_state(self, tmp_path, capsys):
        doc = {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3

    def test_validation_error_bad_b(self, capsys):
        assert run(["state", "--name", "horodecki", "--b", "1.5"]) == 3

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

    def test_validation_error_partition_out_of_range(self, tmp_path, capsys):
        path = write_state(tmp_path, ghz(2))
        assert run(["tensor-check", "--state", path, "--alphas", "1,1", "--m", "1", "--partition", "3"]) == 3
        assert "party indices must lie in 1..2" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ["24", [2.0, 4.0], [2, "4"], [True, 4], {"a": 2}])
    def test_validation_error_dims_not_a_list_of_integers(self, tmp_path, capsys, dims):
        doc = state_to_json(horodecki_2x4(0.9))
        doc["dims"] = dims
        with pytest.raises(ValidationError):
            parse_state_json(doc)
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(doc))
        assert run(["check", "--state", str(path), "--criterion", "ppt"]) == 3


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
