"""Batch front end: model emission, the Xi computations, certification
runs, exact identity suites, and machine-readable reports.

Exit codes: 0 all checks passed, 2 rejection with witness (a valid
mathematical outcome), 3 configuration problem, 4 internal identity
violation (a bug, never a property of the input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from coneflat import __version__, flatten, xi
from coneflat.coframe import (
    Chart,
    Coframe,
    SingularCoframeError,
    check_d_lemma,
    check_dual_relations,
    check_geodesic_identities,
    coframe_from_json,
    coframe_to_json,
    exterior_derivative,
    induced_coframe,
    random_polynomial_coframe,
    structure_function,
    verify_induced_structure,
)
from coneflat.cone import (
    ConeError,
    Hypersurface,
    adapted_cone,
    double_bracket_check,
    geodesic_tangency_check,
    hypersurface_from_json,
    hypersurface_to_json,
    require_smooth,
    smooth_check,
)
from coneflat.funcfield import (
    BadPrimeError,
    FuncFieldError,
    ParseError,
    TermBudgetError,
    _load_term_bound_env,
    parse_ratfunc,
)

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

FERMAT_QUARTIC = "x1^4 + x2^4 + x3^4"


class ConfigError(ValueError):
    """Bad flags, missing files, malformed problem data."""


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Deterministic run record; only the timings block may vary
    between identical invocations."""

    command: str
    config: dict
    checks: list = field(default_factory=list)
    status: str = "pass"
    exit_code: int = EXIT_OK
    timings: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, **details):
        self.checks.append({"name": name, "passed": bool(passed),
                            "details": details})
        if not passed and self.status == "pass":
            self.status = "rejected"
            self.exit_code = EXIT_REJECTED

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "version": __version__,
            "status": self.status,
            "exit_code": self.exit_code,
            "config_echo": self.config,
            "checks": self.checks,
            "timings": self.timings,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True,
                              default=str) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "passed", "details"])
        for entry in self.checks:
            detail = ";".join(f"{k}={v}" for k, v in
                              sorted(entry["details"].items()))
            writer.writerow([entry["name"], entry["passed"], detail])
        writer.writerow(["status", self.status, f"exit_code={self.exit_code}"])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# problem loading
# ---------------------------------------------------------------------------

def _read_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_variety(path: str) -> Hypersurface:
    try:
        return hypersurface_from_json(_read_json(path))
    except (ConeError, FuncFieldError, ParseError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad variety file {path}: {exc}") from exc


def load_coframe(path: str) -> Coframe:
    try:
        return coframe_from_json(_read_json(path))
    except Exception as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad coframe file {path}: {exc}") from exc


def default_variety() -> Hypersurface:
    return Hypersurface(parse_ratfunc(FERMAT_QUARTIC,
                                      ("x1", "x2", "x3")).num)


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------

def _identity_rows(n: int):
    names = tuple(f"x{i + 1}" for i in range(n))
    one = parse_ratfunc("1", names)
    zero = parse_ratfunc("0", names)
    return [[one if k == j else zero for j in range(n)] for k in range(n)],\
        names


def model_flat(z: Hypersurface) -> dict:
    """Constant adapted coframe dx: the translation-invariant model."""
    rows, _ = _identity_rows(z.n)
    cf = Coframe(Chart.standard(z.n), rows)
    return {"model": "flat", "variety": hypersurface_to_json(z),
            "coframe": coframe_to_json(cf)}


def model_rescaled(z: Hypersurface, scale: str = "1/(1 - x1)") -> dict:
    """omega = s(x) dx, conformally closed by construction."""
    rows, names = _identity_rows(z.n)
    try:
        s = parse_ratfunc(scale, names)
    except (ParseError, FuncFieldError) as exc:
        raise ConfigError(f"bad scale expression: {exc}") from exc
    chart = Chart.standard(z.n)
    if s.is_zero():
        raise ConfigError("scale must be nonzero")
    try:
        at_base = s.evaluate(chart.base_point)
    except Exception as exc:
        raise ConfigError("scale has a pole at the base point") from exc
    if at_base == 0:
        raise ConfigError("scale vanishes at the base point")
    scaled = [[entry * s for entry in row] for row in rows]
    cf = Coframe(chart, scaled)
    return {"model": "rescaled", "scale": scale,
            "variety": hypersurface_to_json(z),
            "coframe": coframe_to_json(cf)}


def model_twisted(z: Hypersurface, twist: str = "x1") -> dict:
    """A = I + t(x) E_23: the generic negative control."""
    rows, names = _identity_rows(z.n)
    try:
        t = parse_ratfunc(twist, names)
    except (ParseError, FuncFieldError) as exc:
        raise ConfigError(f"bad twist expression: {exc}") from exc
    rows[1][2] = rows[1][2] + t
    cf = Coframe(Chart.standard(z.n), rows)
    return {"model": "twisted", "twist": twist,
            "variety": hypersurface_to_json(z),
            "coframe": coframe_to_json(cf)}


MODELS = {"flat": model_flat, "rescaled": model_rescaled,
          "twisted": model_twisted}


def build_model(name: str, z: Hypersurface, args) -> dict:
    if name == "rescaled":
        return model_rescaled(z, args.scale)
    if name == "twisted":
        return model_twisted(z, args.twist)
    if name == "flat":
        return model_flat(z)
    raise ConfigError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _xi_config(args) -> xi.XiConfig:
    primes = tuple(args.prime) if args.prime else xi.DEFAULT_PRIMES
    # "float" is an alias of "modp": the perfbench xi workload still passes it
    backend = "modp" if args.backend == "float" else args.backend
    try:
        return xi.XiConfig(backend=backend, primes=primes, seed=args.seed)
    except (BadPrimeError, xi.XiError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _variety_from_args(args, required: bool = True) -> Hypersurface:
    if getattr(args, "variety", None):
        return load_variety(args.variety)
    if required:
        raise ConfigError("--variety is required for this command")
    return default_variety()


def cmd_xi(args) -> RunReport:
    z = _variety_from_args(args, required=False)
    cfgx = _xi_config(args)
    report = RunReport("xi", _echo(args))
    t0 = time.perf_counter()
    try:
        smooth = smooth_check(z)
    except ConeError as exc:
        raise ConfigError(str(exc)) from exc
    report.add("smooth_check", smooth.verdict == "smooth",
               verdict=smooth.verdict, witness=smooth.witness)
    if smooth.verdict == "singular":
        return report
    spanned, span_rank = xi.span_check(z)
    report.add("span_check", spanned, rank=span_rank, expected=z.n,
               method="ideal_membership")
    lines_ok, line_rank = xi.tangent_lines_nondegenerate(z)
    report.add("tangent_lines_nondegenerate", lines_ok, rank=line_rank,
               expected=z.n * (z.n - 1) // 2, method="ideal_membership")
    space = xi.xi_Z(z, cfgx)
    meta = dict(space.meta)
    # xi_Z passes only when its dimension is stable (the same over every
    # prime) and it contains Xi_V, as it must
    report.add("xi_Z", meta["stable"] and meta["contains_xi_V"],
               dim=space.dim, dim_xi_V=z.n,
               equal_dims=space.dim == z.n, **{
                   k: meta[k] for k in sorted(meta) if k != "notes"})
    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    return report


def cmd_certify(args) -> RunReport:
    z = _variety_from_args(args, required=args.coframe is not None)
    if args.coframe:
        cf = load_coframe(args.coframe)
    elif args.model:
        bundle = build_model(args.model, z, args)
        cf = coframe_from_json(bundle["coframe"])
    else:
        raise ConfigError("provide --coframe FILE or --model NAME")
    try:
        cs = adapted_cone(cf, z)
    except ConeError as exc:
        raise ConfigError(str(exc)) from exc

    report = RunReport("certify", _echo(args))
    t0 = time.perf_counter()
    # over Q: the reduction that the characteristic check reads too
    space = xi.xi_Z(z, xi.XiConfig(backend="rational"))
    report.add("xi_Z_dims", True, dim=space.dim, equal_dims=space.dim == cs.n)
    cert = flatten.certify(cs, space, flatten.CertifyConfig(
        seed=args.seed, validation_samples=args.samples))
    payload = cert.to_json()
    report.add("certify", cert.status in ("flat", "conformally_flat"),
               **payload)
    if cert.status == "error":
        report.status = "error"
        report.exit_code = EXIT_INTERNAL
    elif cert.status == "rejected":
        report.status = "rejected"
        report.exit_code = EXIT_REJECTED
    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    return report


def cmd_verify_identities(args) -> RunReport:
    report = RunReport("verify-identities", _echo(args))
    t0 = time.perf_counter()
    z = (load_variety(args.variety) if args.variety else default_variety())
    try:
        require_smooth(z)
    except ConeError as exc:
        raise ConfigError(str(exc)) from exc
    chart = Chart.standard(3)
    all_exact = True
    for case in range(args.cases):
        rng = random.Random(f"{args.seed}:{case}")
        cf = random_polynomial_coframe(chart, rng,
                                       unimodular=(case % 2 == 0))
        ok = _identity_case(cf, z, case)
        passed = all(ok.values())
        all_exact = all_exact and passed
        report.add(f"case_{case}", passed, **{k: v for k, v in sorted(ok.items())})
    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    if not all_exact:
        # these identities are theorems; a failure means broken code
        report.status = "error"
        report.exit_code = EXIT_INTERNAL
    return report


# the verify-identities keys that rest on the A B = I proof, the first
# being that proof: every check of the induced pair reads B, while the
# structure function comes from A's minors and det A; all read false
# when the proof fails, as no later check can run without it
_PAIRING_KEYS = ("structure_ab_is_identity", "theta_of_dtheta_is_identity",
                 "theta_of_dlambda_is_zero", "lambda_of_dtheta_is_zero",
                 "lambda_of_dlambda_is_identity", "dtheta_mu_is_zero",
                 "dlambda_mu_is_identity", "bracket_dlambda_gamma_is_dtheta",
                 "induced_structure_pullback", "geodesic_tangency", "double_bracket")


def _identity_case(cf: Coframe, z: Hypersurface, case: int) -> dict[str, bool]:
    """One verify-identities case: every value must be True.  A failed
    pairing proof (SingularCoframeError) sets each key that rests on it,
    and was not decided before it failed, to False."""
    ok = {"dd_zero": exterior_derivative(cf).d_components() == {}}
    probe = cf.a[0][(case + 1) % 3]
    ok["d_lemma"] = check_d_lemma(cf, probe * probe)
    try:
        ok["structure_ab_is_identity"] = cf.pairing
        structure_function(cf)
        ic = induced_coframe(cf)
        ok.update(check_dual_relations(ic))
        ok.update(check_geodesic_identities(ic))
        ok["induced_structure_pullback"] = verify_induced_structure(cf).passed
        cs = adapted_cone(cf, z)
        ok["geodesic_tangency"] = geodesic_tangency_check(cs).verdict
        ok["double_bracket"] = double_bracket_check(cs).verdict
    except SingularCoframeError:
        ok.update({key: False for key in _PAIRING_KEYS if key not in ok})
    return ok


def cmd_model(args) -> RunReport:
    z = _variety_from_args(args, required=False)
    bundle = build_model(args.name, z, args)
    report = RunReport("model", _echo(args))
    if args.out:
        variety_path = args.out + ".variety.json"
        coframe_path = args.out + ".coframe.json"
        with open(variety_path, "w", encoding="utf-8") as fh:
            json.dump(bundle["variety"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(coframe_path, "w", encoding="utf-8") as fh:
            json.dump(bundle["coframe"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        report.add("emit", True, model=bundle["model"],
                   variety=variety_path, coframe=coframe_path)
    else:
        report.add("emit", True, **bundle)
    return report


def cmd_selftest(args) -> RunReport:
    """Condensed versions of the shipped acceptance cases."""
    report = RunReport("selftest", _echo(args))
    t0 = time.perf_counter()

    for n in (3, 4, 5):
        report.add(f"xi_V_dim_n{n}", xi.xi_V(n).dim == n, dim=xi.xi_V(n).dim)

    z = default_variety()
    space = xi.xi_Z(z, xi.XiConfig(backend="rational"))
    report.add("fermat_xi_Z", space.dim == 3 and space.meta.get("stable"),
               dim=space.dim)

    expected = {"flat": "flat", "rescaled": "conformally_flat",
                "twisted": "rejected"}
    for name, want in expected.items():
        bundle = build_model(name, z, argparse.Namespace(
            scale="1/(1 - x1)", twist="x1"))
        cf = coframe_from_json(bundle["coframe"])
        cert = flatten.certify(adapted_cone(cf, z), space, flatten.CertifyConfig(seed=1))
        report.add(f"certify_{name}", cert.status == want,
                   status=cert.status, expected=want)
        if cert.status == "error":
            report.status = "error"
            report.exit_code = EXIT_INTERNAL

    cs = adapted_cone(coframe_from_json(
        build_model("rescaled", z, argparse.Namespace(
            scale="1/(1 - x1)", twist="x1"))["coframe"]), z)
    report.add("double_bracket_exact", double_bracket_check(cs).verdict)

    report.timings["total_s"] = round(time.perf_counter() - t0, 6)
    return report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _echo(args) -> dict:
    keep = ("variety", "coframe", "model", "backend", "prime", "samples",
            "cases", "seed", "format", "scale", "twist", "name", "out")
    return {k: getattr(args, k) for k in keep
            if getattr(args, k, None) is not None}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage, which collides with the
    rejection exit code; route usage problems to the config-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coneflat",
        description="Certify local flatness of isotrivial cone structures "
                    "presented by adapted coframes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variety: bool = True, seed: bool = True):
        if variety:
            p.add_argument("--variety", help="variety JSON file")
        if seed:
            p.add_argument("--seed", required=True,
                           help="seed for all sampling (mandatory)")
        p.add_argument("--out", help="write the report to this file")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("xi", help="span, tangent-line, and xi_Z dimensions")
    common(p)
    p.add_argument("--backend", choices=("modp", "float", "rational"),
                   default="modp")
    p.add_argument("--prime", action="append", type=int,
                   help="a prime of the modp backend (repeat for more)")
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("certify", help="run the flattening pipeline")
    common(p)
    p.add_argument("--samples", type=int, default=flatten.VALIDATION_SAMPLES,
                   help="validation samples of the conformal factor")
    p.add_argument("--coframe", help="coframe JSON file")
    p.add_argument("--model", choices=sorted(MODELS),
                   help="use a built-in model instead of --coframe")
    p.add_argument("--scale", default="1/(1 - x1)")
    p.add_argument("--twist", default="x1")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-identities",
                       help="exact identity suite on random coframes")
    common(p)
    p.add_argument("--cases", "--samples", dest="cases", type=int, default=25,
                   help="number of random coframe cases")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("model", help="emit problem files for a model")
    p.add_argument("name", choices=sorted(MODELS))
    common(p, seed=False)
    p.add_argument("--scale", default="1/(1 - x1)")
    p.add_argument("--twist", default="x1")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("selftest", help="condensed acceptance battery")
    common(p, variety=False, seed=False)
    p.set_defaults(func=cmd_selftest)
    return parser


def _apply_term_bound_env() -> None:
    try:
        _load_term_bound_env()
    except ValueError as exc:
        raw = os.environ["CCC_MAX_TERMS"]
        raise ConfigError(f"bad CCC_MAX_TERMS value {raw!r}: {exc}") from exc


def emit(report: RunReport, args) -> None:
    text = report.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_term_bound_env()
        report = args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except TermBudgetError as exc:
        # the configured size guard fired; not a wrong answer, not a bug
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except flatten.InternalIdentityError as exc:
        sys.stderr.write(f"internal identity violation: {exc}\n")
        return EXIT_INTERNAL
    emit(report, args)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
