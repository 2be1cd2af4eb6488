"""Exit codes, determinism, and problem-file round trips for the batch CLI."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from coneflat import cli, cone
from coneflat.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REJECTED,
    main,
)
from coneflat.flatten import InternalIdentityError
from coneflat.funcfield import parse_ratfunc, set_term_bound, term_bound

VARS = ("x1", "x2", "x3")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def certify_details(report):
    for entry in report["checks"]:
        if entry["name"] == "certify":
            return entry["details"]
    raise AssertionError("no certify check in report")


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_certify_flat_model_exits_zero(capsys):
    code, report = run_json(capsys, "certify", "--model", "flat",
                            "--seed", "5", "--samples", "10")
    assert code == EXIT_OK
    assert report["status"] == "pass"
    details = certify_details(report)
    assert details["status"] == "flat"
    assert details["witness"] is None


def test_certify_rescaled_recovers_factor(capsys):
    code, report = run_json(capsys, "certify", "--model", "rescaled",
                            "--seed", "5", "--samples", "10")
    assert code == EXIT_OK
    details = certify_details(report)
    assert details["status"] == "conformally_flat"
    # string formatting is not pinned down; compare as rational functions
    f = parse_ratfunc(details["f"], VARS)
    assert f == parse_ratfunc("1 - x1", VARS)


def test_certify_twisted_model_is_rejected_with_witness(capsys):
    code, report = run_json(capsys, "certify", "--model", "twisted",
                            "--seed", "5", "--samples", "10")
    assert code == EXIT_REJECTED
    assert report["status"] == "rejected"
    details = certify_details(report)
    assert details["status"] == "rejected"
    assert details["stage"] == "characteristic_check"
    assert details["witness"] is not None
    assert details["witness"]["residual"] > 0


def test_certify_twisted_model_witness_is_pinned(capsys):
    # the witness is the first seeded chart point where the structure
    # tensor leaves xi_Z, with its exact distance to the contraction image
    code, report = run_json(capsys, "certify", "--model", "twisted", "--seed", "5")
    assert code == EXIT_REJECTED
    assert certify_details(report)["witness"] == {
        "stage": "characteristic_check", "point": ["-1", "-1/3", "8/7"], "residual": 1.0}


def test_certify_constant_twist_is_flat(capsys):
    # a constant invertible matrix is just a linear change of frame
    code, report = run_json(capsys, "certify", "--model", "twisted",
                            "--twist", "2", "--seed", "5", "--samples", "10")
    assert code == EXIT_OK
    assert certify_details(report)["status"] == "flat"


def test_xi_command_reports_dimensions(capsys):
    code, report = run_json(capsys, "xi", "--seed", "2", "--samples", "30")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["smooth_check"]["passed"]
    assert by_name["span_check"]["details"]["rank"] == 3
    assert by_name["tangent_lines_nondegenerate"]["details"]["rank"] == 3
    xiz = by_name["xi_Z"]["details"]
    assert xiz["dim"] == 3 and xiz["equal_dims"] and xiz["stable"]
    assert xiz["method"] == "ideal_membership" and xiz["proves_xi_V"]


@pytest.mark.parametrize("backend", ["modp", "float", "rational"])
def test_xi_command_samples_no_cone_point_mod_p(monkeypatch, capsys, backend):
    def refuse(*args, **kwargs):
        raise AssertionError("coneflat xi drew cone points mod p")

    monkeypatch.setattr(cli.xi, "sample_variety_points_modp", refuse)
    code, report = run_json(capsys, "xi", "--backend", backend, "--seed", "1")
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("span_check", "tangent_lines_nondegenerate"):
        assert by_name[name]["passed"]
        assert by_name[name]["details"]["rank"] == 3
        assert by_name[name]["details"]["method"] == "ideal_membership"


def test_xi_command_rejects_an_unstable_xi_Z(monkeypatch, capsys):
    original = cli.xi.xi_Z

    def unstable(*args, **kwargs):
        space = original(*args, **kwargs)
        space.meta["stable"] = False
        return space

    monkeypatch.setattr(cli.xi, "xi_Z", unstable)
    code, report = run_json(capsys, "xi", "--seed", "2", "--samples", "30")
    assert code == EXIT_REJECTED
    xiz = {c["name"]: c for c in report["checks"]}["xi_Z"]
    assert not xiz["passed"] and not xiz["details"]["stable"]
    assert xiz["details"]["contains_xi_V"]


def test_xi_command_rejects_irrationally_singular_variety(capsys, tmp_path):
    # singular only at (+-sqrt(3) : 1 : 0)
    path = tmp_path / "singular.variety.json"
    path.write_text(json.dumps({"n": 3, "degree": 4,
                                "f": "(x1^2-3*x2^2)^2 + x3^4 + x1*x3^3"}))
    code, report = run_json(capsys, "xi", "--variety", str(path), "--seed", "2")
    assert code == EXIT_REJECTED
    (check,) = report["checks"]
    assert check["name"] == "smooth_check" and not check["passed"]
    assert check["details"] == {"verdict": "singular", "witness": None}


def test_xi_command_rejects_singular_variety_before_xi_Z(monkeypatch, capsys, tmp_path):
    def never(*args, **kwargs):
        raise AssertionError("xi_Z ran on a singular variety")

    monkeypatch.setattr(cli.xi, "xi_Z", never)
    path = tmp_path / "union.variety.json"
    path.write_text(json.dumps({"n": 3, "degree": 3, "f": "x1*(x2^2 + x3^2)"}))
    code, report = run_json(capsys, "xi", "--variety", str(path), "--seed", "2")
    assert code == EXIT_REJECTED
    (check,) = report["checks"]
    assert check["name"] == "smooth_check" and not check["passed"]


def test_xi_command_rejects_variety_above_smoothness_bound(capsys, tmp_path):
    path = tmp_path / "quartic5.variety.json"
    path.write_text(json.dumps({"n": 5, "degree": 4,
                                "f": "x1^4 + x2^4 + x3^4 + x4^4 + x5^4"}))
    code = main(["xi", "--variety", str(path), "--seed", "2"])
    assert code == EXIT_CONFIG
    assert "2475 x 1365 Macaulay matrix" in capsys.readouterr().err


def test_verify_identities_single_case(capsys):
    code, report = run_json(capsys, "verify-identities",
                            "--seed", "7", "--cases", "1")
    assert code == EXIT_OK
    assert report["config_echo"]["samples"] == 1
    (case,) = report["checks"]
    assert case["passed"]
    assert case["details"]["double_bracket"]
    assert case["details"]["dd_zero"]


def test_selftest_passes(capsys):
    code, report = run_json(capsys, "selftest", "--seed", "1")
    assert code == EXIT_OK
    assert all(c["passed"] for c in report["checks"])


def test_reports_count_bracket_samples_dropped_at_poles(monkeypatch, capsys):
    code, report = run_json(capsys, "verify-identities", "--seed", "7", "--cases", "1")
    assert code == EXIT_OK
    assert report["checks"][0]["details"]["pole_drops"] == 0

    real = cone.sample_cone

    def with_a_pole(cs, count, seed, field=None):
        # the selftest's rescaled model has its pole at x1 = 1
        points = real(cs, count - 1, seed, field)
        x, y = points[0]
        return points + [((1,) + tuple(x[1:]), y)]

    monkeypatch.setattr(cone, "sample_cone", with_a_pole)
    code, report = run_json(capsys, "selftest", "--seed", "1")
    assert code == EXIT_OK
    (check,) = [c for c in report["checks"] if c["name"] == "double_bracket_exact"]
    assert check["passed"]
    assert check["details"] == {"pole_drops": 1, "residual": 0}


def test_verify_identities_names_the_singular_point_projectively(capsys, tmp_path):
    path = tmp_path / "singular.variety.json"
    path.write_text(json.dumps({"n": 3, "degree": 4, "f": "x1^4 + x2^4"}))
    code = main(["verify-identities", "--variety", str(path), "--seed", "7", "--cases", "1"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "hypersurface is singular at (0 : 0 : 1)" in err
    assert "Fraction(" not in err


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def test_model_emits_files_certify_reads_them_back(tmp_path, capsys):
    stem = str(tmp_path / "resc")
    code, _ = run(capsys, "model", "rescaled", "--out", stem)
    assert code == EXIT_OK
    variety = json.load(open(stem + ".variety.json"))
    assert variety["n"] == 3 and variety["degree"] == 4

    code, report = run_json(capsys, "certify",
                            "--coframe", stem + ".coframe.json",
                            "--variety", stem + ".variety.json",
                            "--seed", "5", "--samples", "10")
    assert code == EXIT_OK
    assert certify_details(report)["status"] == "conformally_flat"


def test_model_report_without_out_carries_bundle(capsys):
    code, report = run_json(capsys, "model", "flat")
    assert code == EXIT_OK
    details = report["checks"][0]["details"]
    assert details["model"] == "flat"
    assert "coframe" in details and "variety" in details


def test_reports_identical_modulo_timings(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    argv = ["certify", "--model", "rescaled", "--seed", "11",
            "--samples", "10", "--out", out]
    assert main(list(argv)) == EXIT_OK
    first = json.load(open(out))
    assert main(list(argv)) == EXIT_OK
    second = json.load(open(out))
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    capsys.readouterr()


def test_csv_rendering(capsys):
    code, out = run(capsys, "certify", "--model", "flat", "--seed", "5",
                    "--samples", "10", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("check,passed")
    assert lines[-1].startswith("status,pass,exit_code=0")


# ---------------------------------------------------------------------------
# config errors: exit code 3
# ---------------------------------------------------------------------------

def test_missing_seed_is_config_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["certify", "--model", "flat"])
    assert excinfo.value.code == EXIT_CONFIG


def test_unknown_subcommand_is_config_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "--seed", "1"])
    assert excinfo.value.code == EXIT_CONFIG


def test_certify_needs_model_or_coframe(capsys):
    code = main(["certify", "--seed", "1"])
    assert code == EXIT_CONFIG


def test_missing_coframe_file(tmp_path, capsys):
    stem = str(tmp_path / "v")
    run(capsys, "model", "flat", "--out", stem)
    code = main(["certify", "--coframe", str(tmp_path / "nope.json"),
                 "--variety", stem + ".variety.json", "--seed", "1"])
    assert code == EXIT_CONFIG


def test_malformed_variety_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["xi", "--variety", str(bad), "--seed", "1"])
    assert code == EXIT_CONFIG


def test_xi_rational_backend_is_exact(capsys):
    code, report = run_json(capsys, "xi", "--backend", "rational", "--seed", "1")
    assert code == EXIT_OK
    xiz = {c["name"]: c for c in report["checks"]}["xi_Z"]["details"]
    assert xiz["dims"] == {"rational": 3} and xiz["dim"] == 3
    assert xiz["method"] == "ideal_membership" and xiz["proves_xi_V"]


def test_certify_twisted_model_rational_backend_is_rejected(capsys):
    code, report = run_json(capsys, "certify", "--model", "twisted",
                            "--backend", "rational", "--seed", "5", "--samples", "10")
    assert code == EXIT_REJECTED
    dims = {c["name"]: c for c in report["checks"]}["xi_Z_dims"]["details"]
    assert dims == {"dim": 3, "equal_dims": True}
    assert certify_details(report)["stage"] == "characteristic_check"


def test_scale_vanishing_at_base_is_config_error(capsys):
    code = main(["certify", "--model", "rescaled", "--scale", "x1",
                 "--seed", "1"])
    assert code == EXIT_CONFIG


def test_bad_term_bound_env(monkeypatch, capsys):
    monkeypatch.setenv("CCC_MAX_TERMS", "banana")
    code = main(["selftest", "--seed", "1"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_nonpositive_term_bound_env_is_config_error(monkeypatch, capsys, raw):
    saved = term_bound()
    monkeypatch.setenv("CCC_MAX_TERMS", raw)
    code = main(["selftest", "--seed", "1"])
    assert code == EXIT_CONFIG
    assert term_bound() == saved
    assert "CCC_MAX_TERMS" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "-3", "banana"])
def test_invalid_term_bound_env_keeps_default_at_import(raw):
    # a fresh interpreter, so the module reads the variable at import
    probe = ("from coneflat.funcfield import DEFAULT_TERM_BOUND, MultiPoly, term_bound\n"
             "assert term_bound() == DEFAULT_TERM_BOUND, term_bound()\n"
             "MultiPoly.one(2)\n")
    env = dict(os.environ, CCC_MAX_TERMS=raw)
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_tripped_term_budget_is_config_error(monkeypatch, capsys):
    saved = term_bound()
    monkeypatch.setenv("CCC_MAX_TERMS", "50")
    try:
        code = main(["verify-identities", "--seed", "7", "--cases", "1"])
    finally:
        set_term_bound(saved)
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_good_term_bound_env_applies(monkeypatch, capsys):
    saved = term_bound()
    monkeypatch.setenv("CCC_MAX_TERMS", "250000")
    try:
        code = main(["certify", "--model", "flat", "--seed", "1",
                     "--samples", "5"])
        assert code == EXIT_OK
        assert term_bound() == 250000
    finally:
        set_term_bound(saved)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# internal errors: exit code 4
# ---------------------------------------------------------------------------

def test_internal_identity_error_exits_four(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InternalIdentityError("forced for the test")

    monkeypatch.setattr(cli.flatten, "certify", boom)
    code = main(["certify", "--model", "flat", "--seed", "1"])
    assert code == EXIT_INTERNAL
    capsys.readouterr()


def test_identity_suite_failure_exits_four(monkeypatch, capsys):
    # the suite checks theorems, so a failing case is a broken build
    monkeypatch.setattr(cli, "check_d_lemma", lambda *a, **k: False)
    code, report = run_json(capsys, "verify-identities",
                            "--seed", "7", "--cases", "1")
    assert code == EXIT_INTERNAL
    assert report["status"] == "error"
    (case,) = report["checks"]
    assert case["details"]["d_lemma"] is False


def test_verify_identities_rejects_singular_variety(capsys, tmp_path):
    # x1^4 + x2^4 is singular at (0 : 0 : 1)
    path = tmp_path / "singular.variety.json"
    path.write_text(json.dumps({"n": 3, "degree": 4, "f": "x1^4 + x2^4"}))
    code = main(["verify-identities", "--variety", str(path),
                 "--seed", "7", "--cases", "1"])
    assert code == EXIT_CONFIG
    assert "hypersurface is singular at" in capsys.readouterr().err
