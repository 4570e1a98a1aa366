import json
import time

import pytest

from orbitopes import exactla, secantfit
from orbitopes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_curve_info_json(capsys):
    code, out = run_cli(capsys, "curve-info", "--rep", "1,3")
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 6
    assert report["smooth"] is False
    assert report["ambient_dim"] == 4
    assert report["config"]["rep"] == "1,3"
    assert report["version"]


def test_curve_info_probe_deterministic(capsys):
    code1, out1 = run_cli(capsys, "curve-info", "--rep", "2,3", "--probe",
                          "--seed", "4")
    code2, out2 = run_cli(capsys, "curve-info", "--rep", "2,3", "--probe",
                          "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["numeric_degree_probe"] == 6


def test_membership_subcommand(capsys):
    code, out = run_cli(capsys, "membership", "--point", "0,0,0,0")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "interior"
    assert report["face_dimension"] is None
    assert report["tolerances"]["psd_tol"] == 1e-9


def test_face_dim_outside_point_fails(capsys):
    code, out = run_cli(capsys, "face-dim", "--point", "2,0,0,0")
    assert code == 2


def test_faces_subcommand(capsys):
    code, out = run_cli(capsys, "faces", "--rep", "1,3", "--edge", "0,1/5")
    assert code == 0
    report = json.loads(out)
    assert report["query"]["is_edge"] is True
    assert report["boundary_components"] == ["S1(X)", "y^2+z^2-1"]
    code, out = run_cli(capsys, "faces", "--rep", "1,3", "--polygon", "3,0")
    assert json.loads(out)["query"]["kind"] == "q-gon"


def test_boundary_subcommand(capsys):
    code, out = run_cli(capsys, "boundary", "--rep", "1,2")
    assert code == 0
    assert json.loads(out)["basic_closed"] is True


def test_secant_fit_small_exact(tmp_path, capsys):
    code, out = run_cli(capsys, "secant-fit", "--rep", "1,2", "--r", "2",
                        "--degree", "3", "--mode", "exact",
                        "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["fit"]["nullity"] == 1
    assert (tmp_path / "nullspace_0.poly").exists()
    assert (tmp_path / "report.json").exists()


def test_secant_fit_no_vanishing_exit_code(capsys):
    code, out = run_cli(capsys, "secant-fit", "--rep", "1,3", "--r", "2",
                        "--degree", "2", "--mode", "float")
    assert code == 2


def test_verify_pass_and_fail(tmp_path, capsys):
    from orbitopes import fixtures
    path = tmp_path / "f.poly"
    fixtures.secant_surface_13().dump_file(path)
    code, out = run_cli(capsys, "verify", "--rep", "1,3", "--r", "2",
                        "--count", "500", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out = run_cli(capsys, "verify", "--rep", "1,3", "--r", "2",
                        "--count", "500", "--poly", str(path),
                        "--tol", "1e-30")
    assert code == 2


def test_rationalize_subcommand(tmp_path, capsys):
    from orbitopes import fixtures
    path = tmp_path / "float.poly"
    fixtures.secant_surface_13().to_float().dump_file(path)
    code, out = run_cli(capsys, "rationalize", "--poly", str(path),
                        "--anchor", "0,0,4,0", "--anchor-value", "1")
    assert code == 0
    assert json.loads(out)["terms"] == 47


@pytest.mark.parametrize("argv,message", [
    (["faces", "--rep", "1,3", "--edge", "1/0,1/2"], "zero denominator"),
    (["faces", "--rep", "1,3", "--vertex", "1/0"], "zero denominator"),
    (["faces", "--rep", "1,3", "--polygon", "3,1/0"], "zero denominator"),
    (["bn", "certify-face", "--n", "3", "--params", "1/0,1"],
     "zero denominator"),
    (["rationalize", "--poly", "{poly}", "--anchor", "0,0,4,0",
      "--anchor-value", "1/0"], "zero denominator"),
    (["rationalize", "--poly", "{poly}", "--anchor", "0,0,4,0",
      "--anchor-value", "0"], "must be nonzero"),
])
def test_bad_rational_arguments_are_usage_errors(tmp_path, capsys, argv,
                                                 message):
    assert_usage_error(tmp_path, capsys, argv, message)


def assert_usage_error(tmp_path, capsys, argv, message):
    """``argv`` (with ``{poly}`` standing for a float polynomial file) exits
    1 with ``message`` on stderr and nothing on stdout."""
    from orbitopes import fixtures
    path = tmp_path / "float.poly"
    fixtures.secant_surface_13().to_float().dump_file(path)
    assert main([tok.format(poly=path) for tok in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["bn", "certify-face", "--n", "3", "--params", "1e400,1"],
     "too large for a float"),
    (["faces", "--rep", "1,3", "--vertex", "1e400"], "too large for a float"),
    (["rationalize", "--poly", "{poly}", "--anchor", "0,0,4,0",
      "--anchor-value", "1e400"], "too large for a float"),
    (["membership", "--point", "0,0", "--tol", "nan"], "not a finite number"),
    (["membership", "--point", "0,0", "--tol", "-1"], "must be at least 0"),
    (["face-dim", "--point", "0,0", "--tol", "nan"], "not a finite number"),
    (["face-dim", "--point", "0,0", "--tol", "-1"], "must be at least 0"),
    (["verify", "--rep", "1,3", "--r", "2", "--poly", "{poly}",
      "--tol", "nan"], "not a finite number"),
    (["verify", "--rep", "1,3", "--r", "2", "--poly", "{poly}",
      "--tol", "-1"], "must be at least 0"),
    (["secant-fit", "--rep", "1,2", "--r", "2", "--degree", "3",
      "--count", "-5"], "must be at least 1"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv,
                                                 message):
    assert_usage_error(tmp_path, capsys, argv, message)


def test_zero_tolerance_is_valid(capsys):
    code, out = run_cli(capsys, "membership", "--point", "0,0", "--tol", "0")
    assert code == 0
    assert json.loads(out)["tolerances"]["psd_tol"] == 0.0


def test_bn_subcommands(tmp_path, capsys):
    code, out = run_cli(capsys, "bn", "top-face", "--n", "3")
    assert code == 0
    assert json.loads(out)["certificate"]["margin"] > 0

    code, out = run_cli(capsys, "bn", "certify-face", "--n", "3",
                        "--params", "0,0.1")
    assert code == 0
    assert json.loads(out)["status"] == "certified"

    code, out = run_cli(capsys, "bn", "certify-face", "--n", "3",
                        "--params", "0,3.141592653589793")
    assert code == 2

    code, out = run_cli(capsys, "bn", "witness", "--n", "3")
    assert code == 0
    assert json.loads(out)["accepted"] is True

    code, out = run_cli(capsys, "bn", "slice", "--out", str(tmp_path))
    assert code == 0
    csv = (tmp_path / "slice_series.csv").read_text()
    assert csv.startswith("series,x,z,tag")


def test_byte_identical_reports(capsys):
    argv = ["bn", "witness", "--n", "5"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert out1 == out2 and code1 == code2 == 0


def test_slice_csv_is_byte_identical_across_runs(capsys, tmp_path):
    for run in ("a", "b"):
        code, _ = run_cli(capsys, "bn", "slice", "--out", str(tmp_path / run))
        assert code == 0
    first = (tmp_path / "a" / "slice_series.csv").read_bytes()
    assert first == (tmp_path / "b" / "slice_series.csv").read_bytes()


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["membership"]) == 1  # missing --point
    assert main(["faces", "--rep", "1,3,5"]) == 1  # not a coprime pair


def test_exhausted_exact_sampler_exits_2(tmp_path, capsys):
    # with r = 1, 2503 or 3000 samples exceed the ~2225 distinct exact
    # curve parameters
    start = time.monotonic()
    code = main(["secant-fit", "--rep", "1,3", "--r", "1", "--degree", "10",
                 "--mode", "exact"])
    assert code == 2
    assert time.monotonic() - start < 30.0
    assert "secant samples" in capsys.readouterr().err

    from orbitopes import fixtures
    path = tmp_path / "f.poly"
    fixtures.secant_surface_13().dump_file(path)
    code = main(["verify", "--rep", "1,3", "--r", "1", "--mode", "exact",
                 "--count", "3000", "--poly", str(path)])
    assert code == 2
    assert "secant samples" in capsys.readouterr().err


def test_membership_rejects_non_finite_point(capsys):
    assert main(["membership", "--point", "nan,0"]) == 1
    assert main(["membership", "--point", "0,inf"]) == 1
    assert capsys.readouterr().out == ""


def test_bn_top_face_rejects_non_finite_theta(capsys):
    assert main(["bn", "top-face", "--n", "3", "--theta", "nan"]) == 1
    assert capsys.readouterr().out == ""


def test_bn_grid_below_one_is_a_usage_error(capsys):
    assert main(["bn", "certify-face", "--n", "3", "--params", "0,0.1",
                 "--grid", "0"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("grid", ["1", "2", "3", "8"])
def test_bn_certify_face_grid_covered_by_arcs(capsys, grid):
    # the exclusion radius 4*2pi/grid covers the circle for grid <= 8
    assert main(["bn", "certify-face", "--n", "3", "--params", "0,0.1",
                 "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exclusion arcs cover the whole grid" in captured.err


def test_uncertified_exact_fit_exits_2(monkeypatch, tmp_path, capsys):
    def uncertified(rows):
        basis, info = real_modular(rows)
        return basis, {**info, "certified": False}

    real_modular = exactla.nullspace_modular
    monkeypatch.setattr(exactla, "_BAREISS_MAX_COLS", 0)
    monkeypatch.setattr(exactla, "nullspace_modular", uncertified)
    code, out = run_cli(capsys, "secant-fit", "--rep", "1,2", "--r", "2",
                        "--degree", "3", "--mode", "exact",
                        "--out", str(tmp_path))
    assert code == 2
    report = json.loads(out)
    assert report["fit"]["certified"] is False
    assert report["fit"]["nullity"] == 1
    assert (tmp_path / "nullspace_0.poly").exists()


def test_ambiguous_rank_emits_fit_report(monkeypatch, capsys):
    monkeypatch.setattr(secantfit, "GAP_RATIO_REQUIRED", 1e300)
    code, out = run_cli(capsys, "secant-fit", "--rep", "1,2", "--r", "2",
                        "--degree", "3")
    assert code == 2
    report = json.loads(out)
    assert "gap ratio" in report["error"]
    assert report["fit"]["nullity"] == 1
    assert len(report["fit"]["sigma_tail"]) == 5
    assert report["fit"]["gap_ratio"] < 1e300
    assert report["tolerances"]["gap_ratio_required"] == 1e300
