"""Inventory of the public API and of its options.

The rule: a parameter with a default (an option) exists only when a
caller outside tests/ sets it (the package itself, the CLI or the
benchmark), or when a test sets it to reach a case the default cannot.
A value that nobody changes is a module constant, not an option.

OPTIONS pins every defaulted parameter of every public callable that
hankelc exports: functions, classes (their constructors) and the public
methods defined on those classes.  Adding or removing an option has to
update this table on purpose, next to the caller that needs it.

PUBLIC pins the names hankelc exports (its submodules aside), so a
deleted name or alias comes back only on purpose.

CLI_OPTIONS pins the command line the same way: for the global options
and for each subcommand of build_parser(), every flag or positional with
its (default, choices).  A CLI option is added, removed or given a new
default or new choices only on purpose.
"""

import argparse
import inspect

import hankelc
from hankelc.cli import build_parser

OPTIONS = {
    "EvenPolynomial": {"coeffs": None},
    "EvenPolynomial.monomial": {"value": 1},
    "EvenRational": {"denom": None, "power": 1},
    "GaussianPolynomial": {"decay": 0},
    "GridSpec.geometric": {"dim": 1},
    "GridSpec.linear": {"dim": 1},
    "MultiplierForm": {"window": None},
    "MultiplierReport": {"note": None},
    "SymbolicHFunction": {"decay": 0},
    "build_quadrature": {"points_per_panel": 24, "panels": 16},
    "default_rule_for": {"points_per_panel": 24, "panels": 16},
    "default_weak_family": {"count": 10, "seed": 7},
    "hankel_nd": {"direct": False},
    "hankel_roundtrip_residual": {"rule": None},
    "liouville_solve": {"skip_weak": False},
    "multiplier_check": {"points_per_axis": 200},
    "pair_delta": {"method": "exact"},
    "richardson_limit": {"floor": 0.0},
    "run_all": {"names": None, "negative_controls": False, "threads": 1},
    "run_suite": {"negative_controls": False, "threads": 1},
    "seminorm_gamma": {"grid": None},
    "seminorm_lambda": {"grid": None},
    "taylor_coeffs": {"method": "exact"},
    "weak_spectral_check": {"mu": None, "family": None, "rule": None},
}

PUBLIC = {
    "ComponentExceeds", "CutoffSpec", "DEFAULT_Z_MAX", "DecayRequired",
    "DeltaCombination", "DimensionMismatch", "DomainError", "EvenPolynomial",
    "EvenRational", "ExtrapolationDiverged", "GaussianPolynomial", "GridFunction",
    "GridSpec", "HankelcError", "HypothesisFailed", "HypothesisReport",
    "KernelCertificate", "LimitExceeded", "MuVector", "MultiIndex", "MultiplierForm",
    "MultiplierReport", "NumericError", "OperatorPoly", "OuterWindow", "QuadratureRule",
    "SUITES", "SpecError", "SupportViolation", "SymbolicHFunction", "TaylorReport",
    "WindowedHFunction", "apply_L", "apply_S", "apply_Sk", "apply_T", "apply_Tk",
    "bessel_j", "build_quadrature", "c_k_mu", "c_mu", "check_hypothesis",
    "default_rule_for", "default_sup_grid", "default_weak_family", "gamma_fn",
    "hankel_1d", "hankel_nd", "hankel_roundtrip_residual",
    "kernel_basis", "koh_zemanian_coeffs", "koh_zemanian_coeffs_nd",
    "lambda_gamma_bound_terms", "leibniz_Tk", "liouville_solve", "mi_below",
    "mi_binomial", "mi_factorial", "mi_graded_enumerate", "multiplier_check",
    "orthant_pair", "pair_delta", "pair_delta_transform", "pair_s_delta",
    "reconstruct_point_supported", "reduced_bessel", "richardson_limit", "run_all",
    "run_suite", "sample_on_nodes", "seminorm_gamma", "seminorm_lambda", "seminorm_rho",
    "smooth_step", "taylor_coeffs", "truncation_radius", "unit_index",
    "weak_spectral_check",
}

CLI_OPTIONS = {
    "hankelc": {"--threads": (1, None)},
    "transform": {
        "--spec": (None, None), "--grid": ("0.1:4:64", None), "--quad": (None, None),
        "--direct": (False, None), "--format": ("json", ("json", "csv")), "--out": (None, None),
    },
    "kernel": {"--spec": (None, None), "--degree": (None, None), "--skip-weak": (False, None), "--out": (None, None)},
    "verify": {"suites": (None, None), "--negative-controls": (False, None), "--json": (False, None), "--out": (None, None)},
    "seminorm": {
        "--spec": (None, None), "--kind": (None, ("gamma", "lambda", "rho")), "-m": (None, None),
        "-k": (None, None), "--order": (None, None), "--out": (None, None),
    },
    "taylor": {
        "--spec": (None, None), "--order": (None, None),
        "--method": ("exact", ("exact", "extrapolate")), "--out": (None, None),
    },
    "pair-delta": {
        "--spec": (None, None), "-k": (None, None), "--method": ("exact", ("exact", "extrapolate")),
        "--transform-check": (False, None), "--out": (None, None),
    },
    "multiplier": {"--spec": (None, None), "--max-order": (None, None), "--out": (None, None)},
}


def _public_callables():
    for name, obj in sorted(vars(hankelc).items()):
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, val in vars(obj).items():
                fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def _options(fn) -> dict:
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # a builtin without a signature
        return {}
    return {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}


def test_every_option_is_pinned():
    found = {}
    for name, fn in _public_callables():
        opts = _options(fn)
        if opts:
            found[name] = opts
    assert found == OPTIONS


def test_every_export_is_pinned():
    found = {n for n, obj in vars(hankelc).items() if not n.startswith("_") and not inspect.ismodule(obj)}
    assert found == PUBLIC


def test_direct_is_keyword_only():
    # perfbench's tracer reads hankel_nd's arguments by position, so
    # direct must be named to be read as what it is
    param = inspect.signature(hankelc.hankel_nd).parameters["direct"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


def _cli_options(parser) -> dict:
    return {
        (a.option_strings[0] if a.option_strings else a.dest): (a.default, a.choices)
        for a in parser._actions
        if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    }


def test_every_cli_option_is_pinned():
    parser = build_parser()
    found = {"hankelc": _cli_options(parser)}
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        found[name] = _cli_options(subparser)
    assert found == CLI_OPTIONS
