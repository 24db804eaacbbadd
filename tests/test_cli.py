import json
import pathlib

import pytest

from liefusion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rootsys_json(capsys):
    code, out = run(capsys, "rootsys", "--algebra", "G2")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "liefusion/1"
    assert data["cartan_matrix"] == [[2, -1], [-3, 2]]
    assert data["dual_coxeter"] == 4


def test_weights_listing(capsys):
    code, out = run(capsys, "weights", "--algebra", "C2", "--level", "1")
    data = json.loads(out)
    assert code == 0
    assert len(data["admissible"]) == 3
    assert data["admissible"][0]["conformal_weight"] == "0"


def test_fusion_example(capsys):
    code, out = run(
        capsys, "fusion", "--algebra", "C2", "--level", "2",
        "--charge", "1,0", "--source", "0,1", "--target", "1,1",
    )
    data = json.loads(out)
    assert code == 0
    assert data["rule"] == data["oracle"] == 1
    assert data["agree"] is True


def test_fusion_unsupported_charge(capsys):
    code, out = run(
        capsys, "fusion", "--algebra", "G2", "--level", "2",
        "--charge", "0,1", "--source", "0,0", "--target", "0,1",
    )
    data = json.loads(out)
    assert code == 0
    assert data["rule"] is None
    assert data["oracle"] == 1
    assert data["agree"] is None


def test_tensor_three_routes(capsys):
    code, out = run(
        capsys, "tensor", "--algebra", "G2",
        "--charge", "1,0", "--source", "1,0", "--target", "1,0",
    )
    data = json.loads(out)
    assert code == 0 and data["agree"] is True


def test_tensor_graph_dot_and_json(capsys):
    code, out = run(capsys, "tensor-graph", "--height", "1")
    assert code == 0
    assert out.startswith("graph")
    assert '"1,0" -- "1,0"' in out
    code, out = run(capsys, "tensor-graph", "--height", "2", "--json")
    data = json.loads(out)
    assert [0, 0] in data["nodes"]


def test_lattice_commands(tmp_path, capsys):
    gram = tmp_path / "gram.json"
    gram.write_text("[[2]]")
    code, out = run(capsys, "lattice", "--gram", str(gram), "--op", "cocycle")
    assert code == 0
    assert json.loads(out)["basis_values"] == [[1]]
    code, out = run(
        capsys, "lattice", "--gram", str(gram), "--op", "fusion",
        "--charge", "1/2", "--source", "1/2", "--target", "1",
    )
    assert json.loads(out)["fusion"] == 1
    code, out = run(capsys, "lattice", "--gram", str(gram), "--op", "dual")
    assert json.loads(out)["dual_basis"] == [["1/2"]]


def test_probe_small(capsys):
    code, out = run(
        capsys, "probe", "--charge", "1", "--norm", "1",
        "--order", "0", "--cutoffs", "3,5", "--modes", "2",
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "PASS"


@pytest.mark.parametrize("cutoffs, modes", [("3,4", "-1"), ("-1,4", "2")])
def test_probe_on_no_mode_is_a_usage_error(capsys, cutoffs, modes):
    code, out = run(
        capsys, "probe", "--charge", "1", "--norm", "1",
        f"--cutoffs={cutoffs}", f"--modes={modes}",
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("slack", ["nan", "inf", "0", "-1"])
def test_probe_slack_not_finite_and_positive_is_a_usage_error(capsys, slack):
    # at slack 1.05 this probe FAILs (exit 1); a NaN or infinite slack
    # would otherwise turn it into a PASS
    argv = ["probe", "--charge", "1", "--norm", "2", "--order", "0",
            "--cutoffs", "4,6", "--modes", "3"]
    code, out = run(capsys, *argv, "--slack", "1.05")
    assert code == 1 and json.loads(out)["verdict"] == "FAIL"
    code = main([*argv, f"--slack={slack}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "slack must be finite and > 0" in captured.err


@pytest.mark.parametrize("gram, charge", [
    ("[[1, 2], [2, 1]]", "1,0"), ("[[1, 1], [1, 1]]", "1,0"), (None, "1"),
])
def test_probe_gram_not_positive_definite_is_a_usage_error(tmp_path, capsys,
                                                           monkeypatch, gram, charge):
    # refused when the charge space is built, before any mode block
    from liefusion import heisenberg

    def no_block(*args, **kwargs):
        raise AssertionError("a mode block was built")

    monkeypatch.setattr(heisenberg._ModeFamily, "block", no_block)
    if gram is None:
        space = ["--norm", "0"]
    else:
        path = tmp_path / "gram.json"
        path.write_text(gram)
        space = ["--gram", str(path)]
    code = main(["probe", "--charge", charge, *space, "--cutoffs", "3,4", "--modes", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "gram must be positive definite" in captured.err


@pytest.mark.parametrize("gram, charge, error", [
    (None, "1,5", "the charge space has rank 1, got charges of length 2 and 1"),
    ("[[1, 0], [0, 1]]", "1", "the charge space has rank 2, got charges of length 1 and 2"),
])
def test_probe_charge_off_the_rank_is_a_usage_error(tmp_path, capsys, gram, charge, error):
    # a longer charge used to be cut to the rank, a shorter one to die
    # with an IndexError
    if gram is None:
        space = ["--norm", "1"]
    else:
        path = tmp_path / "gram.json"
        path.write_text(gram)
        space = ["--gram", str(path)]
    code = main(["probe", "--charge", charge, *space, "--cutoffs", "3,4", "--modes", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert error in captured.err


@pytest.mark.parametrize("charge, source, target", [
    ("1/2,1/3", "1/2", "1"), ("1/2", "1/2,0", "1"), ("1/2", "1/2", "1,1"),
])
def test_lattice_fusion_vector_off_the_rank_is_a_usage_error(tmp_path, capsys,
                                                             charge, source, target):
    # a longer vector used to be cut to the rank, and the fusion answered
    gram = tmp_path / "a1.json"
    gram.write_text("[[2]]")
    code = main(["lattice", "--gram", str(gram), "--op", "fusion",
                 f"--charge={charge}", f"--source={source}", f"--target={target}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "the lattice has rank 1, got a vector of length 2" in captured.err


def test_probe_mode_zero_alone(capsys):
    code, out = run(
        capsys, "probe", "--charge", "1", "--norm", "1",
        "--cutoffs", "3,4", "--modes", "0",
    )
    data = json.loads(out)
    assert code == 0 and data["verdict"] == "PASS"
    assert all(list(per) == ["0"] for per in data["norms"].values())
    assert all(v == pytest.approx(1.0) for v in data["maxima"].values())


def test_compress_check(capsys):
    code, out = run(
        capsys, "compress-check", "--algebra", "C2", "--level", "2",
        "--charge", "1,0", "--source", "1,0", "--target", "2,0",
        "--shift", "1,0", "--source1", "0,0", "--target1", "1,0",
        "--sublevel", "1",
    )
    data = json.loads(out)
    assert code == 0
    assert data["reduction_conditions"]["a"] is True


def test_usage_errors_exit_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "--algebra", "C2"])
    assert exc.value.code == 2
    code = main(["fusion", "--algebra", "C2", "--level", "2", "--charge", "9,9",
                 "--source", "0,0", "--target", "0,0"])
    assert code == 2
    # a weight that is not dominant integral is a usage error, also on the
    # table path, and is rejected before any computation
    for charge, source in (("1/2,0", "1,0"), ("1,0", "1/2,0"), ("-1,0", "1,0")):
        code = main(["tensor", "--algebra", "G2", f"--charge={charge}", f"--source={source}"])
        assert code == 2
    assert "is not dominant integral" in capsys.readouterr().err
    # --shift needs every flag of the reduced triple, checked before any computation
    compress = ["compress-check", "--algebra", "C2", "--level", "2", "--charge", "1,0",
                "--source", "1,0", "--target", "2,0", "--shift", "1,0"]
    for extra, missing in (((), "--source1, --target1, --sublevel"),
                           (("--source1", "1,0", "--target1", "1,0"), "--sublevel"),
                           (("--sublevel", "1"), "--source1, --target1")):
        assert main(compress + list(extra)) == 2
        assert f"--shift needs {missing}" in capsys.readouterr().err
    gram = tmp_path / "g.json"
    gram.write_text("[[2]]")
    assert main(["lattice", "--gram", str(gram), "--op", "fusion"]) == 2
    assert "--op fusion needs --charge, --source, --target" in capsys.readouterr().err
    # a non-integral Gram is refused, not truncated
    for rows in ("[[2, 1.5], [1.5, 2]]", "[[2.5]]"):
        gram.write_text(rows)
        assert main(["lattice", "--gram", str(gram), "--op", "dual"]) == 2
        assert "gram matrix must be integral" in capsys.readouterr().err


def test_verify_paper_cap_above_module_cap(capsys, monkeypatch):
    # --cap is the sweep size; above the module cap it is a usage error
    # raised before any check runs
    import liefusion.verify as verify

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_e8_construction", no_check)
    monkeypatch.delenv("LIEFUSION_CAP", raising=False)
    assert main(["verify-paper", "--cap", "600"]) == 2
    err = capsys.readouterr().err
    assert "sweep size = 600 exceeds cap 512" in err and "LIEFUSION_CAP" in err
    monkeypatch.setenv("LIEFUSION_CAP", "16")
    assert main(["verify-paper", "--cap", "17", "--cutoffs", "3,4"]) == 2
    assert "sweep size = 17 exceeds cap 16" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_verify_paper_cap_below_one_before_any_check(capsys, monkeypatch, cap):
    # a sweep over no pair of modules would pass on 0 queries
    import liefusion.verify as verify

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_e8_construction", no_check)
    assert main(["verify-paper", f"--cap={cap}", "--cutoffs", "3,4", "--levels", "1"]) == 2
    assert f"the sweep size must be >= 1, got {cap}" in capsys.readouterr().err


def test_verify_paper_negative_cutoff_before_any_check(capsys, monkeypatch):
    # a negative cutoff is refused before the first check, like a bad --cap
    import liefusion.verify as verify

    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "check_e8_construction", no_check)
    assert main(["verify-paper", "--cap", "16", "--levels", "1", "--cutoffs", "4,-3"]) == 2
    assert "the probe needs cutoffs >= 0, got [-3, 4]" in capsys.readouterr().err


def test_verify_e8_report(capsys):
    code, out = run(capsys, "verify-e8", "--seed", "7")
    data = json.loads(out)
    assert code == 0
    assert data["passed"] is True
    claims = {r["claim"]: r for r in data["results"]}
    assert claims["adjoint-branching"]["status"] == "pass"
    anchors = [r["anchor"] for r in data["results"]]
    assert len(anchors) == len({r["claim"] for r in data["results"]})
    # byte for byte the recorded report
    golden = pathlib.Path(__file__).with_name("verify_e8_seed7.json")
    assert out == golden.read_text()


@pytest.mark.parametrize("value", ["abc", "-5", "0", "", "1.5"])
def test_liefusion_cap_must_be_a_positive_integer(capsys, monkeypatch, value):
    # a malformed cap is a usage error that names the variable, before any
    # check runs
    monkeypatch.setenv("LIEFUSION_CAP", value)
    assert main(["verify-paper", "--cap", "8"]) == 2
    err = capsys.readouterr().err
    assert f"LIEFUSION_CAP must be a positive integer, got '{value}'" in err


def test_verify_paper_levels(capsys, monkeypatch):
    import liefusion.cli as cli
    from liefusion.verify import VerificationReport

    seen = []

    def spy(**kwargs):
        seen.append(kwargs["levels"])
        return VerificationReport("full")

    monkeypatch.setattr(cli, "verify_full", spy)
    assert main(["verify-paper"]) == 0
    assert main(["verify-paper", "--levels", "2"]) == 0
    assert main(["verify-paper", "--levels", "1, 4"]) == 0
    assert seen == [(1, 2, 3), (2,), (1, 4)]
    capsys.readouterr()
    for bad in ("0", "-1", "a", "1,,2", "", "1.5"):
        assert main(["verify-paper", f"--levels={bad}"]) == 2
        assert f"--levels must be positive integers, got '{bad}'" in capsys.readouterr().err
    assert len(seen) == 3
