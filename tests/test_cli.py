import hashlib
import json
import time
import warnings
from pathlib import Path

import pytest

from orbitopes import exactla, secantfit
from orbitopes.cli import main
from orbitopes.curve import Representation
from orbitopes.poly import monomials_up_to_degree


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
    path.write_text(fixtures.secant_surface_13().dumps())
    code, out = run_cli(capsys, "verify", "--rep", "1,3", "--r", "2",
                        "--count", "500", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out = run_cli(capsys, "verify", "--rep", "1,3", "--r", "2",
                        "--count", "500", "--poly", str(path),
                        "--tol", "1e-30")
    assert code == 2


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_refuses_coefficients_whose_sum_overflows(tmp_path, capsys,
                                                         mode):
    # |x_i| <= 1 on the secant varieties, so a residual is at most the sum
    # of the absolute coefficients: a sum over half the largest float is a
    # usage error, not an OverflowError or an inf in the JSON
    huge, fits = tmp_path / "huge.poly", tmp_path / "fits.poly"
    huge.write_text(f"17{'0' * 307}/1 0 0 0 0\n17{'0' * 307}/1 2 0 0 0\n")
    fits.write_text(f"4{'0' * 307}/1 0 0 0 0\n-4{'0' * 307}/1 2 0 0 0\n")
    argv = ["verify", "--rep", "1,3", "--r", "2", "--count", "50",
            "--mode", mode, "--poly"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [str(huge)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the absolute coefficients sum to more "
                                "than the budget 8.988465674311579e+307\n")
        code, out = run_cli(capsys, *argv, str(fits))
    assert code == 2
    assert 0 < json.loads(out)["max_residual"] <= 8e307


def test_verify_with_more_points_than_dimensions_finishes(tmp_path, capsys):
    # 128 points on the frequency-(1..64) curve: the secant variety fills
    # R^128, most draws are numerically affinely dependent, and every draw
    # is a sample
    path = tmp_path / "one.poly"
    path.write_text("1/1" + " 0" * 128 + "\n")
    code, out = run_cli(capsys, "verify", "--rep",
                        ",".join(map(str, range(1, 65))), "--r", "128",
                        "--count", "200", "--poly", str(path))
    assert code == 2
    assert json.loads(out)["max_residual"] == 1.0


def test_negative_values_parse_after_an_equals_sign(tmp_path, capsys):
    # argparse reads "-0.5,0.2" after a space as an option
    assert main(["membership", "--point", "-0.5,0.2"]) == 1
    assert "expected one argument" in capsys.readouterr().err
    code, out = run_cli(capsys, "membership", "--point=-0.5,0.2")
    assert code == 0
    assert json.loads(out)["config"]["point"] == "-0.5,0.2"
    from orbitopes import fixtures
    path = tmp_path / "float.poly"
    path.write_text(fixtures.secant_surface_13().to_float().dumps())
    code, out = run_cli(capsys, "rationalize", "--poly", str(path),
                        "--anchor", "0,0,4,0", "--anchor-value=-3/4")
    assert code == 0
    assert "-3/4 0 0 4 0" in json.loads(out)["polynomial"]


def test_rationalize_subcommand(tmp_path, capsys):
    from orbitopes import fixtures
    path = tmp_path / "float.poly"
    path.write_text(fixtures.secant_surface_13().to_float().dumps())
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


@pytest.mark.parametrize("anchor,message", [
    ("0,0,4", "the anchor has 3 exponents but the polynomial has 4 variables"),
    ("0,0,4,0,0", "the anchor has 5 exponents but the polynomial has 4 "
                  "variables"),
    ("0,x,4,0", "--anchor takes comma-separated integer exponents"),
])
def test_malformed_anchor_is_a_usage_error(tmp_path, capsys, anchor, message):
    assert_usage_error(tmp_path, capsys, ["rationalize", "--poly", "{poly}",
                                          "--anchor", anchor,
                                          "--anchor-value", "1"], message)


def assert_usage_error(tmp_path, capsys, argv, message):
    """``argv`` (with ``{poly}`` standing for a float polynomial file) exits
    1 with ``message`` on stderr and nothing on stdout."""
    from orbitopes import fixtures
    path = tmp_path / "float.poly"
    path.write_text(fixtures.secant_surface_13().to_float().dumps())
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
    # the Toeplitz matrix has unit diagonal: a PSD tolerance >= 1 makes
    # every rank 0
    (["membership", "--point", "0.1,0.2", "--tol", "1"], "must be below 1"),
    (["membership", "--point", "0.1,0.2", "--tol", "5"], "must be below 1"),
    (["face-dim", "--point", "0.1,0.2", "--tol", "1"], "must be below 1"),
    (["face-dim", "--point", "0.1,0.2", "--tol", "5"], "must be below 1"),
    (["faces", "--rep", "1,3", "--edge", "0,1/5", "--polygon", "3,0"],
     "not allowed with argument"),
    (["faces", "--rep", "1,3", "--edge", "0,1/5", "--vertex", "1/4"],
     "not allowed with argument"),
    (["faces", "--rep", "1,3", "--polygon", "3,0", "--vertex", "1/4"],
     "not allowed with argument"),
    (["faces", "--rep", "1,3", "--polygon", "3"],
     "--polygon takes two values which,t, got '3'"),
    (["faces", "--rep", "1,3", "--polygon", "3,0,1"],
     "--polygon takes two values which,t"),
    (["faces", "--rep", "1,3", "--polygon", "x,0"],
     "--polygon takes which,t with an integer which, got 'x,0'"),
    (["faces", "--rep", "1,3", "--edge", "0"],
     "--edge takes two values s,t, got '0'"),
    (["faces", "--rep", "1,3", "--edge", "0,1/5,1"],
     "--edge takes two values s,t"),
    # a negative seed is refused before any work starts
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
      "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
      "--mode", "exact", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "8",
      "--mode", "exact", "--seed", "-2"],
     "argument --seed: must be at least 0, got -2"),
    (["verify", "--rep", "1,3", "--r", "2", "--poly", "{poly}",
      "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["curve-info", "--rep", "1,3", "--probe", "--seed", "-1"],
     "argument --seed: must be at least 0, got -1"),
    # the Toeplitz eigenvalues overflow to infinity
    (["membership", "--point", "1e308,1e308,1e308,1e308"],
     "Toeplitz eigenvalues of the point are not finite"),
    (["face-dim", "--point", "1e308,1e308,1e308,1e308"],
     "Toeplitz eigenvalues of the point are not finite"),
])
def test_out_of_range_arguments_are_usage_errors(tmp_path, capsys, argv,
                                                 message):
    assert_usage_error(tmp_path, capsys, argv, message)


def test_zero_tolerance_is_valid(capsys):
    code, out = run_cli(capsys, "membership", "--point", "0,0", "--tol", "0")
    assert code == 0
    assert json.loads(out)["tolerances"]["psd_tol"] == 0.0


@pytest.mark.parametrize("command", ["membership", "face-dim"])
def test_psd_tolerance_below_one_is_valid(command, capsys):
    code, _ = run_cli(capsys, command, "--point", "0.1,0.2", "--tol", "0.999")
    assert code == 0


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


def test_float_secant_fit_is_byte_identical_across_runs(tmp_path, monkeypatch,
                                                       capsys):
    # the benchmark checks that a report's digest repeats for a seed
    runs = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        code, out = run_cli(capsys, "secant-fit", "--rep", "1,3", "--r", "2",
                            "--degree", "8", "--mode", "float", "--out", "fit")
        assert code == 0
        runs.append((out, {f.name: f.read_bytes()
                           for f in sorted(Path("fit").iterdir())}))
    assert runs[0] == runs[1]
    assert list(runs[0][1]) == ["nullspace_0.poly", "report.json"]


def test_secant_fit_draws_its_held_out_samples_once(monkeypatch, capsys):
    calls = []
    sample_secants = secantfit.sample_secants

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_secants(*args, **kwargs)

    monkeypatch.setattr(secantfit, "sample_secants", counting)
    code, out = run_cli(capsys, "secant-fit", "--rep", "1,2", "--r", "1",
                        "--degree", "2", "--seed", "5")
    monkeypatch.undo()
    assert code == 0
    report = json.loads(out)
    # the fit's own samples, then one held-out draw for all its polynomials
    assert report["fit"]["nullity"] > 1 and len(calls) == 2
    rep = Representation((1, 2))
    fit = secantfit.fit_hypersurface(rep, r=1, degree=2, seed=5)
    expected = []
    for p in fit.polynomials:
        scaled = p.to_float()
        scaled = scaled.scale(1.0 / max(abs(c) for c in scaled.terms.values()))
        expected.append(secantfit.verify_vanishing(scaled, rep, r=1,
                                                   count=2000, seed=6))
    assert report["held_out_residuals"] == expected


# sha256 of the slice_series.csv that `bn slice` writes: every sample's
# coordinates and black/gray tag.  The golden `bn slice` report only counts
# the samples, so a changed tag shows here alone.
SLICE_CSV_SHA256 = ("60f88644243f19091d954cb728940e82"
                    "e8125b0ff8fcb06e449407fe3c3867e0")


def test_slice_csv_is_byte_identical_across_runs(capsys, tmp_path):
    for run in ("a", "b"):
        code, _ = run_cli(capsys, "bn", "slice", "--out", str(tmp_path / run))
        assert code == 0
    first = (tmp_path / "a" / "slice_series.csv").read_bytes()
    assert first == (tmp_path / "b" / "slice_series.csv").read_bytes()
    assert hashlib.sha256(first).hexdigest() == SLICE_CSV_SHA256


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["membership"]) == 1  # missing --point
    assert main(["faces", "--rep", "1,3,5"]) == 1  # not a coprime pair


def test_exhausted_exact_sampler_exits_2(tmp_path, capsys):
    # with r = 1, 2503 samples exceed the ~2225 distinct exact curve
    # parameters (2503 is 2.5 x the degree-10 basis; the exact default,
    # 2.5 x the largest weight block, draws far fewer)
    start = time.monotonic()
    code = main(["secant-fit", "--rep", "1,3", "--r", "1", "--degree", "10",
                 "--mode", "exact", "--count", "2503"])
    assert code == 2
    assert time.monotonic() - start < 30.0
    assert "secant samples" in capsys.readouterr().err


@pytest.mark.parametrize("rep,count", [("1,3", "3000"), ("1,2", "10000")])
def test_exhausted_exact_verify_is_a_usage_error(tmp_path, capsys, rep,
                                                 count):
    # verify computes no residual when its sampler runs out, so there is
    # no verdict to report: exit 1, the message on stderr, no stdout and
    # no --out files (the default --count 10000 draws only 2225 points)
    from orbitopes import fixtures
    path = tmp_path / "f.poly"
    path.write_text(fixtures.secant_surface_13().dumps())
    code = main(["verify", "--rep", rep, "--r", "1", "--mode", "exact",
                 "--count", count, "--poly", str(path),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"of {count} secant samples" in captured.err
    assert "lower --count" in captured.err
    assert not (tmp_path / "out").exists()


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
    def uncertified(*args):
        basis, info = real_modular(*args)
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


def test_exact_verify_of_float_coefficients_is_exact(tmp_path, capsys):
    # each float coefficient is taken as the binary fraction it stores, so
    # the float form of the 47-term equation vanishes exactly, not to 3.6e-15
    from orbitopes import fixtures
    path = tmp_path / "f.poly"
    path.write_text(fixtures.secant_surface_13().to_float().dumps())
    code, out = run_cli(capsys, "verify", "--rep", "1,3", "--r", "2",
                        "--count", "30", "--mode", "exact", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["max_residual"] == 0.0


@pytest.mark.parametrize("coefficient", ["nan", "inf", "-inf", "1e400", "1/0"])
@pytest.mark.parametrize("command", [
    ["verify", "--rep", "1,3", "--r", "2", "--count", "10", "--poly", "{poly}"],
    ["verify", "--rep", "1,3", "--r", "2", "--count", "10", "--mode", "exact",
     "--poly", "{poly}"],
    ["rationalize", "--poly", "{poly}", "--anchor", "0,0,4,0",
     "--anchor-value", "1"],
])
def test_non_finite_poly_coefficient_is_a_usage_error(tmp_path, capsys, command,
                                                       coefficient):
    path = tmp_path / "bad.poly"
    path.write_text(f"1.5 0 0 4 0\n{coefficient} 1 0 0 0\n")
    assert main([tok.format(poly=path) for tok in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a finite number" in captured.err


@pytest.mark.parametrize("command", [
    ["verify", "--rep", "1,3", "--r", "2", "--count", "10", "--poly", "{poly}"],
    ["rationalize", "--poly", "{poly}", "--anchor", "0,0,4,0",
     "--anchor-value", "1"],
])
def test_empty_poly_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "empty.poly"
    path.write_text("")
    assert main([tok.format(poly=path) for tok in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the polynomial text has no terms\n"


def test_face_dim_malformed_point_is_a_usage_error(tmp_path, capsys):
    assert_usage_error(tmp_path, capsys, ["face-dim", "--point", "1,2,3"],
                       "positive even length")
    code, out = run_cli(capsys, "face-dim", "--point", "2,0,0,0")
    assert code == 2
    assert json.loads(out)["error"] == "point is outside the orbitope"


def test_every_fit_error_exits_2_with_a_report(tmp_path, capsys):
    from orbitopes import fixtures
    path = tmp_path / "f.poly"
    path.write_text(fixtures.secant_surface_13().dumps())
    for argv, message in [
        (["secant-fit", "--rep", "1,2", "--r", "2", "--degree", "3",
          "--count", "5"], "need at least 35 samples"),
        (["secant-fit", "--rep", "1,3", "--r", "1", "--degree", "3",
          "--mode", "exact", "--count", "3000"], "secant samples"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert message in report["error"] and message in captured.err
        assert report["fit"] == {}
        assert report["config"]["count"] == int(argv[argv.index("--count") + 1])


def test_bad_out_directory_is_a_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(["bn", "witness", "--n", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["curve-info", "--rep", "1,65"], "frequency 65 over the budget 64"),
    (["secant-fit", "--rep", "1,4", "--r", "2", "--degree", "16"],
     "4845 monomials, over the float budget 4000"),
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "11",
      "--mode", "exact"], "1365 monomials, over the exact budget 1001"),
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "2",
      "--count", "10001"], "must be at most 10000"),
    (["verify", "--rep", "1,3", "--r", "2", "--poly", "{poly}",
      "--count", "10001"], "must be at most 10000"),
    (["bn", "top-face", "--n", "203"], "must be at most 201"),
    (["bn", "certify-face", "--n", "203", "--params", "0"],
     "must be at most 201"),
    (["bn", "witness", "--n", "203"], "must be at most 201"),
    (["membership", "--point", ",".join(["0"] * 130)],
     "130 coordinates over the budget 128"),
    (["face-dim", "--point", ",".join(["0"] * 130)],
     "130 coordinates over the budget 128"),
])
def test_over_budget_inputs_are_usage_errors(tmp_path, capsys, argv, message):
    assert_usage_error(tmp_path, capsys, argv, message)


@pytest.mark.parametrize("argv,target", [
    (["curve-info", "--rep", "1,64"], "orbitopes.cli.curve_info"),
    (["secant-fit", "--rep", "1,4", "--r", "2", "--degree", "15"],
     "orbitopes.secantfit.fit_hypersurface"),
    (["secant-fit", "--rep", "1,3", "--r", "2", "--degree", "10",
      "--mode", "exact", "--count", "10000"],
     "orbitopes.secantfit.fit_hypersurface"),
    (["verify", "--rep", "1,3", "--r", "2", "--poly", "{poly}",
      "--count", "10000"], "orbitopes.secantfit.verify_vanishing"),
    (["bn", "top-face", "--n", "201"], "orbitopes.bnorbit.top_face"),
    (["bn", "certify-face", "--n", "201", "--params", "0"],
     "orbitopes.bnorbit.certify_face"),
    (["bn", "witness", "--n", "201"], "orbitopes.bnorbit.not_basic_witness"),
])
def test_budgets_admit_their_largest_values(tmp_path, monkeypatch, capsys,
                                            argv, target):
    # the computation is replaced by a stub: only the budget check runs
    from orbitopes import fixtures

    def reached(*args, **kwargs):
        raise ValueError("budget check passed")

    monkeypatch.setattr(target, reached)
    path = tmp_path / "f.poly"
    path.write_text(fixtures.secant_surface_13().to_float().dumps())
    assert main([tok.format(poly=path) for tok in argv]) == 1
    assert "budget check passed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["membership", "face-dim"])
def test_point_budget_admits_its_largest_value(command, capsys):
    assert main([command, "--point", ",".join(["0.001"] * 128)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["command"] == command


POLY_COMMANDS = [
    (["verify", "--rep", "1,3", "--r", "2", "--count", "1"],
     "orbitopes.secantfit.verify_vanishing"),
    (["rationalize", "--anchor", "0,0,4,0", "--anchor-value", "1"],
     "orbitopes.secantfit.rationalize"),
]


@pytest.mark.parametrize("argv,target", POLY_COMMANDS)
def test_poly_degree_budget(tmp_path, monkeypatch, capsys, argv, target):
    # the computation is replaced by a stub: only the budget check runs
    def reached(*args, **kwargs):
        raise ValueError("budget check passed")

    monkeypatch.setattr(target, reached)
    for degree, message in ((128, "budget check passed"),
                            (129, "degree 129 over the budget 128")):
        path = tmp_path / f"degree{degree}.poly"
        path.write_text(f"1/1 {degree} 0 0 0\n")
        assert main(argv + ["--poly", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("argv,target", POLY_COMMANDS)
def test_poly_term_budget(tmp_path, monkeypatch, capsys, argv, target):
    # the computation is replaced by a stub: only the budget check runs
    def reached(*args, **kwargs):
        raise ValueError("budget check passed")

    monkeypatch.setattr(target, reached)
    exponents = monomials_up_to_degree(4, 17)  # 5985 monomials
    for terms, message in ((4000, "budget check passed"),
                           (4001, "4001 terms over the budget 4000")):
        path = tmp_path / f"terms{terms}.poly"
        path.write_text("".join(f"1/1 {' '.join(map(str, e))}\n"
                                for e in exponents[:terms]))
        assert main(argv + ["--poly", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
