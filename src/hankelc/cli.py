"""Command line front end.

Problem specs are JSON files with a strict schema:

    {
      "mu": ["1/2", "3/4"],
      "function": {"decay": "1/2", "terms": [{"k": [0, 0], "q": 1}]},
      "operator": {"terms": [{"k": [1, 0], "a": 1}]},
      "window": {"kind": "cutoff", "inner": 1.0, "outer": 2.0},
      "multiplier": {"numer": [...], "denom": [...], "power": 1}
    }

Unknown top-level keys are rejected.  Exit codes: 0 success, 1 failed
verification, 2 validation/spec problems, 3 numerical failures, 4 the
operator hypothesis was refuted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bessel import MuVector
from .cutoff import CutoffSpec, OuterWindow, WindowedHFunction
from .distributions import (
    MultiplierForm,
    multiplier_check,
    pair_delta,
    pair_delta_transform,
    taylor_coeffs,
)
from .errors import (
    DomainError,
    HankelcError,
    HypothesisFailed,
    NumericError,
    SpecError,
)
from .liouville import liouville_solve
from .multiindex import MultiIndex
from .quadrature import GridSpec, build_quadrature
from .seminorms import seminorm_gamma, seminorm_lambda, seminorm_rho
from .symbolic import EvenPolynomial, EvenRational, OperatorPoly, SymbolicHFunction
from .transform import default_rule_for, hankel_nd
from .verify import SUITES, run_all

_TOP_KEYS = {"mu", "function", "operator", "window", "multiplier"}
_WINDOWS = {"cutoff": CutoffSpec, "outer": OuterWindow}


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, text that is not UTF-8, or an integer past
        # Python's 4300-digit conversion limit
        raise SpecError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("problem spec must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise SpecError(f"unknown spec keys: {unknown}")
    return data


def _require_object(value, what: str, allowed: set) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"'{what}' must be a JSON object")
    extra = sorted(set(value) - allowed)
    if extra:
        raise SpecError(f"unknown {what} keys: {extra}")
    return value


def _require_terms(value, what: str, key: str) -> dict:
    """Coefficient map of a nonempty JSON term list [{"k": [...], key: value}, ...];
    a term that is not such an object, any other term key and any repeated
    index raise DomainError."""
    if not value:
        raise SpecError(f"'{what}' must be a nonempty list of terms")
    if not isinstance(value, list):
        raise DomainError("terms must be a list of objects")
    coeffs = {}
    for t in value:
        if not isinstance(t, dict) or not isinstance(t.get("k"), list) or key not in t:
            raise DomainError(f"each term needs a 'k' list and a '{key}' coefficient")
        extra = sorted(set(t) - {"k", key})
        if extra:
            raise DomainError(f"unknown term keys: {extra}")
        k = MultiIndex(t["k"])
        if k in coeffs:
            raise DomainError(f"duplicate term {list(k)}")
        coeffs[k] = t[key]
    return coeffs


def _spec_mu(data: dict) -> MuVector:
    if "mu" not in data:
        raise SpecError("spec needs a 'mu' entry")
    return MuVector(data["mu"])


def _spec_function(data: dict, mu: MuVector) -> SymbolicHFunction:
    fdata = data.get("function")
    if fdata is None:
        raise SpecError("spec needs a 'function' entry")
    _require_object(fdata, "function", {"decay", "terms"})
    if "terms" not in fdata:
        raise SpecError("'function' needs a 'terms' list")
    poly = EvenPolynomial(mu.dim, _require_terms(fdata["terms"], "function.terms", "q"))
    return SymbolicHFunction(mu, poly, fdata.get("decay", 0))


def _spec_operator(data: dict, dim: int) -> OperatorPoly:
    odata = data.get("operator")
    if odata is None:
        raise SpecError("spec needs an 'operator' entry")
    _require_object(odata, "operator", {"terms"})
    if "terms" not in odata:
        raise SpecError("'operator' needs a 'terms' list")
    return OperatorPoly(dim, _require_terms(odata["terms"], "operator.terms", "a"))


def _spec_window(data: dict):
    wdata = data.get("window")
    if wdata is None:
        return None
    _require_object(wdata, "window", {"kind", "inner", "outer"})
    kind = wdata.get("kind")
    cls = _WINDOWS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DomainError(f"unknown window kind {kind!r}")
    if "inner" not in wdata or "outer" not in wdata:
        raise DomainError("a window needs both 'inner' and 'outer'")
    return cls(wdata["inner"], wdata["outer"])


def _spec_multiplier(data: dict) -> MultiplierForm:
    mdata = data.get("multiplier")
    if mdata is None:
        raise SpecError("spec needs a 'multiplier' entry")
    _require_object(mdata, "multiplier", {"numer", "denom", "power"})
    if "numer" not in mdata:
        raise SpecError("'multiplier' needs a nonempty 'numer' list")
    numer_terms = _require_terms(mdata["numer"], "multiplier.numer", "q")
    dim = len(next(iter(numer_terms)))
    numer = EvenPolynomial(dim, numer_terms)
    window = _spec_window(data)
    if "denom" in mdata:
        denom = EvenPolynomial(dim, _require_terms(mdata["denom"], "multiplier.denom", "q"))
        rational = EvenRational(numer, denom, mdata.get("power", 1))
    else:
        if "power" in mdata:
            raise SpecError("'power' without 'denom' makes no sense")
        rational = EvenRational(numer)
    return MultiplierForm(rational, window)


def _parse_grid(text: str, dim: int) -> GridSpec:
    parts = text.split(":")
    kind = "linear"
    if parts and parts[0] in ("linear", "geometric"):
        kind = parts.pop(0)
    if len(parts) != 3:
        raise SpecError("--grid expects [linear|geometric:]lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"bad --grid value: {exc}") from exc
    ctor = GridSpec.linear if kind == "linear" else GridSpec.geometric
    return ctor(lo, hi, count, dim=dim)


def _parse_quad(text, decay):
    if text is None:
        return default_rule_for(decay)
    parts = text.split(":")
    try:
        if len(parts) == 2:
            return default_rule_for(decay, int(parts[0]), int(parts[1]))
        if len(parts) == 3:
            return build_quadrature(float(parts[2]), int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise SpecError(f"bad --quad value: {exc}") from exc
    raise SpecError("--quad expects points:panels[:radius]")


def _parse_index(text: str) -> MultiIndex:
    try:
        return MultiIndex(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SpecError(f"bad index {text!r}: {exc}") from exc


def _emit(args, payload) -> None:
    """Write a JSON payload, or a str payload unchanged, to --out or stdout.

    NaN and infinity are not JSON, so a payload holding one is refused.
    """
    try:
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"the result is not finite: {exc}") from None
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    data = _load_spec(args.spec)
    mu = _spec_mu(data)
    f = _spec_function(data, mu)
    window = _spec_window(data)
    rule = _parse_quad(args.quad, float(f.decay))
    grid = _parse_grid(args.grid, mu.dim)
    if window is None:
        target = f
    else:
        wf = WindowedHFunction(f, window)
        target = lambda *cols: wf.evaluate(cols)
    gf = hankel_nd(mu, target, grid, rule, direct=args.direct)
    _emit(args, gf.to_csv() if args.format == "csv" else gf.to_json())
    return 0


def cmd_kernel(args) -> int:
    data = _load_spec(args.spec)
    mu = _spec_mu(data)
    P = _spec_operator(data, mu.dim)
    basis, cert = liouville_solve(P, mu, args.degree, skip_weak=args.skip_weak)
    _emit(args, {
        "basis": [b.to_json() for b in basis],
        "certificate": cert.to_json(),
    })
    return 0


def cmd_verify(args) -> int:
    names = args.suites or list(SUITES)
    bad = sorted(set(names) - set(SUITES))
    if bad:
        raise SpecError(f"unknown suites: {bad}; choose from {list(SUITES)}")
    results = run_all(names, args.negative_controls, args.threads)
    all_ok = True
    for suite in results:
        for chk in suite["checks"]:
            status = "PASS" if chk["passed"] else "FAIL"
            tag = " (negative control)" if chk["expected_fail"] else ""
            print(
                f"[{status}] {suite['suite']}/{chk['name']}: "
                f"value={chk['value']:.3e} tolerance={chk['tolerance']:.3e}{tag}"
            )
        all_ok &= suite["passed"]
    print("verify: all checks passed" if all_ok else "verify: FAILURES above")
    if args.json:
        _emit(args, {"suites": results, "passed": all_ok})
    return 0 if all_ok else 1


def cmd_seminorm(args) -> int:
    data = _load_spec(args.spec)
    mu = _spec_mu(data)
    f = _spec_function(data, mu)
    if args.kind == "rho":
        if args.order is None:
            raise SpecError("--order is required for kind=rho")
        value = seminorm_rho(args.order, mu, f)
        payload = {"kind": "rho", "order": args.order, "value": value}
    else:
        if args.m is None or args.k is None:
            raise SpecError("-m and -k are required for gamma/lambda")
        k = _parse_index(args.k)
        fn = seminorm_gamma if args.kind == "gamma" else seminorm_lambda
        value = fn(args.m, k, mu, f)
        payload = {"kind": args.kind, "m": args.m, "k": list(k), "value": value}
    _emit(args, payload)
    return 0


def cmd_taylor(args) -> int:
    data = _load_spec(args.spec)
    mu = _spec_mu(data)
    f = _spec_function(data, mu)
    report = taylor_coeffs(mu, f, args.order, method=args.method)
    _emit(args, report.to_json())
    return 0


def cmd_pair_delta(args) -> int:
    data = _load_spec(args.spec)
    mu = _spec_mu(data)
    f = _spec_function(data, mu)
    window = _spec_window(data)
    phi = f if window is None else WindowedHFunction(f, window)
    k = _parse_index(args.k)
    value = pair_delta(k, mu, phi, method=args.method)
    payload = {"k": list(k), "value": value, "method": args.method}
    if args.transform_check:
        if window is not None:
            raise SpecError("--transform-check needs an unwindowed function")
        both = pair_delta_transform(k, mu, f)
        payload["transform_check"] = {
            "lhs": both["lhs"],
            "rhs": both["rhs"],
            "difference": abs(both["lhs"] - both["rhs"]),
        }
    _emit(args, payload)
    return 0


def cmd_multiplier(args) -> int:
    data = _load_spec(args.spec)
    form = _spec_multiplier(data)
    report = multiplier_check(form, args.max_order)
    _emit(args, report.to_json())
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="hankelc",
        description="Bessel-operator calculus and Hankel transforms on the orthant",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for verify suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="numerical transform on a grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", default="0.1:4:64", help="[linear|geometric:]lo:hi:count")
    p.add_argument("--quad", help="points:panels[:radius]")
    p.add_argument("--direct", action="store_true", help="use the assembled product kernel")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("kernel", help="solve L f = 0 in the closed family")
    p.add_argument("--spec", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--skip-weak", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="run the built-in check suites")
    p.add_argument("suites", nargs="*", metavar="suite", help=f"subset of {list(SUITES)}")
    p.add_argument("--negative-controls", action="store_true")
    p.add_argument("--json", action="store_true", help="also emit a JSON report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("seminorm", help="weighted suprema of operator images")
    p.add_argument("--spec", required=True)
    p.add_argument("--kind", choices=("gamma", "lambda", "rho"), required=True)
    p.add_argument("-m", type=int)
    p.add_argument("-k")
    p.add_argument("--order", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("taylor", help="even Taylor data at the origin")
    p.add_argument("--spec", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--method", choices=("exact", "extrapolate"), default="exact")
    p.add_argument("--out")
    p.set_defaults(func=cmd_taylor)

    p = sub.add_parser("pair-delta", help="pair a delta derivative with the function")
    p.add_argument("--spec", required=True)
    p.add_argument("-k", required=True, help="comma separated multi-index")
    p.add_argument("--method", choices=("exact", "extrapolate"), default="exact")
    p.add_argument("--transform-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pair_delta)

    p = sub.add_parser("multiplier", help="weighted boundedness of T-derivatives")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_multiplier)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisFailed as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, SpecError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except HankelcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
