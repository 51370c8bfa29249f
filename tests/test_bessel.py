"""Special-function layer against independent references.

scipy.special serves as an oracle here only; the library never imports
it for Bessel evaluation.  A 140-digit decimal series is the oracle of
the tightest Bessel gates.  Gamma is checked against exact factorials.

Run as a script (with src/ on the path), the file prints the kernel key
and both digests for this machine: [simd key, other digest, series digest].
"""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sps
from numpy.lib.introspect import opt_func_info

from hankelc import (
    DimensionMismatch,
    DomainError,
    EvenPolynomial,
    MuVector,
    bessel_j,
    build_quadrature,
    c_k_mu,
    c_mu,
    gamma_fn,
    reduced_bessel,
)
from hankelc import bessel as bessel_module
from fractions import Fraction


SQRT_PI = Decimal("1.7724538509055160272981674833411451827975494561224")


def test_gamma_against_math():
    # exact values at x = 1/2, 1, ..., 171.5: Gamma(n + 1) = n! and
    # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), rounded once from 40 digits
    want = {n + 1.0: float(math.factorial(n)) for n in range(171)}
    with localcontext() as ctx:
        ctx.prec = 40
        for n in range(172):
            ratio = Decimal(math.factorial(2 * n)) / (Decimal(4) ** n * math.factorial(n))
            want[n + 0.5] = float(ratio * SQRT_PI)
    rel = [abs(gamma_fn(x) - g) / g for x, g in want.items()]
    assert max(rel) <= 2e-15


def test_gamma_recurrence():
    for x in np.linspace(0.2, 80.0, 101):
        x = float(x)
        assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-12 * gamma_fn(x + 1.0)


def test_gamma_half_integer():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(gamma_fn(1.5) - 0.5 * math.sqrt(math.pi)) < 1e-13


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.0)
    with pytest.raises(DomainError):
        gamma_fn(200.0)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0])
def test_bessel_vs_scipy(nu):
    z = np.concatenate([np.linspace(1e-6, 11.9, 150), np.linspace(12.0, 60.0, 200), np.linspace(61.0, 199.0, 120)])
    ours = bessel_j(nu, z)
    ref = sps.jv(nu, z)
    assert float(np.max(np.abs(ours - ref))) < 1e-10


HALF_INTEGER_ORDERS = [(2 * n + 1) / 2 for n in range(-1, 21)]  # -1/2 .. 41/2


def _finite_range(nu):
    """The z in (12, 200] that a half-integer order's terminating expansion serves."""
    z = np.linspace(12.0, 200.0, 9401)[1:]
    return z[z >= bessel_module._finite_cutoff(nu, bessel_module._finite_terms(nu))]


def _finite_error(evaluate, nu):
    z = _finite_range(nu)
    return float(np.max(np.abs(evaluate(nu, z) - sps.jv(nu, z))))


@pytest.mark.parametrize("nu", HALF_INTEGER_ORDERS)
def test_half_integer_orders_match_scipy_where_the_expansion_terminates(nu, monkeypatch):
    assert bessel_module._finite_terms(nu) == abs(nu) + 0.5
    z = _finite_range(nu)
    # every z > 12 up to 27/2, and most of the sweep for the higher orders
    assert z.size >= (9400 if nu <= 13.5 else 8000)

    def refuse(nu, z):
        raise AssertionError("Miller's recurrence served a point of the expansion's range")

    monkeypatch.setattr(bessel_module, "_miller_j", refuse)
    assert _finite_error(bessel_j, nu) <= 1e-13


def test_a_cut_expansion_fails_the_half_integer_check():
    # one routine sums every order's expansion: without a term count it
    # takes the growth stop that truncates other orders, which ends 15/2's
    # sum after j = 1 near z = 12, where its second term exceeds its first
    assert _finite_error(bessel_module._asymptotic_j, 7.5) > 1e-13
    for nu in (1.5, 7.5, 20.5):
        short = bessel_module._finite_terms(nu) - 1
        assert _finite_error(lambda n, z: bessel_module._asymptotic_j(n, z, short), nu) > 1e-13


@functools.lru_cache(maxsize=None)
def _oracle_j(nu: Fraction, z: float) -> float:
    """J_nu(z) for an integer or half-integer nu, in decimal at 140 digits.

    From the exact binary z and the exact nu: the series
    sum_m (-z^2/4)^m / (m! (nu+1)_m), whose terms peak near 1e84 at z = 200
    and so keep more than 50 digits, stops past its largest term once a
    term is below 1e-40 of the sum; then (z/2)^nu / Gamma(nu + 1), with
    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), is applied in decimal too.
    """
    with localcontext() as ctx:
        ctx.prec = 140
        x, n = Decimal(z), Decimal(nu.numerator) / nu.denominator
        ratio = -(x * x) / 4
        term = total = Decimal(1)
        m = 0
        while m * (n + m) <= -ratio or abs(term) > abs(total) * Decimal("1e-40"):
            m += 1
            term *= ratio / (m * (n + m))
            total += term
        if nu.denominator == 1:
            gamma = Decimal(math.factorial(int(nu)))
        else:
            k = int(nu + Fraction(1, 2))
            gamma = SQRT_PI * math.factorial(2 * k) / (4**k * math.factorial(k))
        return float((x / 2) ** n / gamma * total)


ORACLE_ORDERS = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(15, 2)]
# (0, 200], densest below 12, where the series hands over to the expansion
ABSOLUTE_Z = np.concatenate([np.linspace(0.0, 12.0, 241)[1:], np.linspace(12.0, 200.0, 48)[1:]])
RELATIVE_Z = np.geomspace(1e-8, 2.0, 50)


def _oracle(nu, z):
    return np.array([_oracle_j(nu, float(v)) for v in z])


def _absolute_error(evaluate, nu, z):
    """max |J - oracle| / max(1, |oracle|) over z."""
    want = _oracle(nu, z)
    return float(np.max(np.abs(evaluate(float(nu), z) - want) / np.maximum(1.0, np.abs(want))))


def _relative_error(evaluate, nu, z):
    want = _oracle(nu, z)
    return float(np.max(np.abs(evaluate(float(nu), z) / want - 1.0)))


def test_decimal_oracle_reproduces_the_closed_forms():
    # J_{1/2} = sqrt(2/(pi z)) sin z and J_{-1/2} = sqrt(2/(pi z)) cos z in
    # floats, a few ulp from the truth, against the oracle's decimal series
    for z in (1e-6, 0.375, 7.0, 131.5, 199.9):
        amp = math.sqrt(2.0 / (math.pi * z))
        for nu, form in ((Fraction(1, 2), amp * math.sin(z)), (Fraction(-1, 2), amp * math.cos(z))):
            assert abs(_oracle_j(nu, z) - form) <= 2e-16 * max(1.0, amp)


@pytest.mark.parametrize("nu", ORACLE_ORDERS, ids=str)
def test_half_integer_orders_match_the_decimal_oracle(nu):
    # absolute (scaled by |J| where that exceeds 1) on (0, 200], and
    # relative on [1e-8, 2], where the expansion would lose digits
    assert _absolute_error(bessel_j, nu, ABSOLUTE_Z) <= 1e-14
    assert _relative_error(bessel_j, nu, RELATIVE_Z) <= 1e-14


@pytest.mark.parametrize("nu", ORACLE_ORDERS, ids=str)
def test_the_series_fails_the_oracle_gate_below_12(nu):
    # cancellation in the alternating series costs it digits on (8, 12],
    # which is why the half-integer orders leave it there
    z = ABSOLUTE_Z[(ABSOLUTE_Z > 8.0) & (ABSOLUTE_Z <= 12.0)]
    assert _absolute_error(bessel_module._series_j, nu, z) > 1e-14


def test_the_expansion_fails_the_relative_gate_near_zero():
    # the terminating expansion of 3/2 cancels toward z = 0, which is why
    # the series keeps z < 2
    z = RELATIVE_Z[(RELATIVE_Z >= 1e-4) & (RELATIVE_Z <= 0.1)]
    assert _relative_error(lambda nu, z: bessel_module._asymptotic_j(nu, z, 2), Fraction(3, 2), z) > 1e-14


@pytest.mark.parametrize("nu", [Fraction(0), Fraction(1), Fraction(2)], ids=str)
def test_other_orders_match_the_decimal_oracle_from_30(nu):
    # the expansion's phase turns cos z and sin z by scalars, with no
    # rounded multiple of pi in z - (nu/2 + 1/4) pi, so above A(nu) = 30
    # the error is about two ulp of |J| <= 0.15 (a rounded phase read 13-32)
    z = np.linspace(30.0, 200.0, 171)
    assert float(np.max(np.abs(bessel_j(nu, z) - _oracle(nu, z)))) <= 1e-16


@pytest.mark.parametrize("nu", [*ORACLE_ORDERS, Fraction(41, 2), 0, Fraction(1, 4), Fraction(7, 3), 10], ids=str)
def test_a_sweep_across_the_crossovers_warns_of_nothing(nu):
    # each regime boundary, its two neighbours, 0 and the smallest
    # subnormal, as one array and one scalar at a time (one regime each)
    nuf = float(nu)
    edges = {2.0, 12.0, *bessel_module._crossovers(nuf, bessel_module._finite_terms(nuf))}
    z = [0.0, 5e-324] + [w for e in edges if e <= 200.0 for w in (math.nextafter(e, 0.0), e, math.nextafter(e, 1e3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [bessel_j(nu, np.array(z)), [bessel_j(nu, v) for v in z], reduced_bessel(nu, np.array(z))]
    assert not np.isnan(values).any()


def test_bessel_keeps_the_shape_of_a_2d_argument():
    # one regime for the whole array, and several: each as the flat array
    for nu in (0.5, 7.5, 0.0):
        for z in ([[0.5, 1.0], [1.5, 0.25]], [[3.0, 150.0], [60.0, 8.0]], [[15.0, 20.0], [13.0, 16.0]], [[0.1, 20.0], [100.0, 5.0]]):
            z = np.array(z)
            got = bessel_j(nu, z)
            assert got.shape == (2, 2)
            assert np.array_equal(got.ravel(), bessel_j(nu, z.ravel()))


# numpy picks a SIMD kernel per float64 ufunc at run time, and its exp,
# log, log1p, power and tan kernels differ in the last bits, so each digest
# is recorded per tuple of the kernels numpy dispatches for those five
# (numpy 2.4, x86-64): all "X86_V4" on AVX-512, and the AVX2 tuple that
# NPY_DISABLE_CPU_FEATURES = AVX2_ONLY selects there
_UFUNC_SIGNATURES = {"exp": "dd", "log": "dd", "log1p": "dd", "power": "ddd", "tan": "dd"}
_AVX512 = ("X86_V4", "X86_V4", "X86_V4", "X86_V4", "X86_V4")
_AVX2 = ("X86_V3", "X86_V3", "baseline(X86_V2)", "baseline(X86_V2)", "baseline(X86_V2)")
AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"
OTHER_ORDERS_DIGESTS = {
    _AVX512: "04226fee8ac9992e321bc77e739eb7589323d4af",
    _AVX2: "58b9ca311f145300bd72c3d9bd023ffa5e4ae34c",
}
SERIES_STOP_DIGESTS = {
    _AVX512: "b37b2229f7d92d301477500c106654b2561a327c",
    _AVX2: "9912020459f9eb1a7841bc858b212152fd517e95",
}


def _simd_key():
    info = opt_func_info(func_name="^(exp|log|log1p|power|tan)$", signature="float64")
    return tuple(info[name][sig]["current"] for name, sig in _UFUNC_SIGNATURES.items())


def _recorded(digests, key):
    if key not in digests:
        pytest.fail(f"no digest recorded for numpy's float64 exp, log, log1p, power and tan kernels {key}")
    return digests[key]


def _other_orders_digest():
    z = np.linspace(0.0, 200.0, 200001)
    digest = hashlib.sha1()
    for nu in (0, 1, Fraction(1, 4), Fraction(7, 3), 10):
        digest.update(bessel_j(nu, z).tobytes())
        digest.update(reduced_bessel(nu, z).tobytes())
    return digest.hexdigest()


def _series_stop_digest():
    nodes = build_quadrature(8.0).nodes
    middle = np.random.default_rng(23).uniform(0.0, 9.0, 201)
    middle[100] = 11.5
    inputs = [np.outer(np.linspace(0.1, top / 8.0, 9), nodes).ravel() for top in (3.0, 8.0, 12.0)]
    inputs += [middle, np.array([0.0, 4.0, 0.0, 10.5, 0.0, 0.25]), np.array([6.75])]
    digest = hashlib.sha1()
    for nu in (Fraction(-1, 2), 0, Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(15, 2), Fraction(7, 3)):
        for z in inputs:
            digest.update(bessel_j(nu, z).tobytes())
            digest.update(reduced_bessel(nu, z).tobytes())
    return digest.hexdigest()


def test_other_orders_keep_their_routes_bit_for_bit():
    # the digest of bessel_j and reduced_bessel before half-integer orders
    # got the terminating expansion, re-taken when Gamma became math.gamma
    # (series and Miller outputs moved by at most 1.1e-15 of their size)
    # and when every order's expansion went through one routine, whose
    # phase rounds no multiple of pi: of the 200,001 values of bessel_j,
    # only z >= A(nu) = 30 moved (none at nu = 10, where A = 206), with
    # count, first z moved, largest change and worst error on [A, 200]
    # against mpmath at 60 digits before -> after, on AVX-512 kernels:
    #   nu = 0:   166,468  30.0    3.9e-16  3.6e-16 -> 2.8e-17
    #   nu = 1:   166,919  30.0    6.3e-16  5.8e-16 -> 5.6e-17
    #   nu = 1/4: 167,849  30.0    7.2e-16  6.8e-16 -> 4.2e-17
    #   nu = 7/3: 165,419  30.001  4.8e-16  4.5e-16 -> 4.2e-17
    assert _other_orders_digest() == _recorded(OTHER_ORDERS_DIGESTS, _simd_key())
    assert bessel_module._finite_terms(0.25) == bessel_module._finite_terms(10.0) == 0


def test_series_stop_is_pinned_below_the_cutoff():
    # the digest of bessel_j and reduced_bessel while the series' stop test
    # still formed max|term| and max|total| on every term, re-taken when
    # Gamma became math.gamma (outputs moved by at most 1.9e-15 of their
    # size) and when half-integer orders left the series at z_h (bessel_j
    # moved by at most 5.4e-13 and its worst error against the decimal
    # oracle fell to 5.8e-16; reduced_bessel did not move): kernel
    # arguments of a radius-8 rule reaching about 3, 8 and just under 12,
    # an unsorted array with its largest entry in the middle, exact zeros
    # and a single point
    assert _series_stop_digest() == _recorded(SERIES_STOP_DIGESTS, _simd_key())


def test_both_digests_hold_on_the_avx2_kernels():
    # recompute both digests in a process that numpy runs on its AVX2
    # kernels, so that every run checks the second recorded entry too
    src = str(Path(bessel_module.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX2_ONLY, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    key, other, series = json.loads(proc.stdout)
    assert other == _recorded(OTHER_ORDERS_DIGESTS, tuple(key))
    assert series == _recorded(SERIES_STOP_DIGESTS, tuple(key))


def test_bessel_half_order_closed_forms():
    z = np.linspace(0.01, 150.0, 700)
    sin_form = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
    cos_form = np.sqrt(2.0 / (math.pi * z)) * np.cos(z)
    assert float(np.max(np.abs(bessel_j(0.5, z) - sin_form))) < 1e-14
    assert float(np.max(np.abs(bessel_j(-0.5, z) - cos_form))) < 1e-14


def test_bessel_three_halves_closed_form():
    z = np.linspace(0.1, 100.0, 500)
    form = np.sqrt(2.0 / (math.pi * z)) * (np.sin(z) / z - np.cos(z))
    assert float(np.max(np.abs(bessel_j(1.5, z) - form))) < 1e-14


def test_bessel_derivative_identity():
    # 2 J_nu' = J_{nu-1} - J_{nu+1}, checked against central differences
    h = 1e-5
    for nu in (0.5, 1.0, 2.5, 4.0):
        z = np.linspace(0.3, 80.0, 300)
        fd = (bessel_j(nu, z + h) - bessel_j(nu, z - h)) / (2 * h)
        exact = 0.5 * (bessel_j(nu - 1.0, z) - bessel_j(nu + 1.0, z))
        assert float(np.max(np.abs(fd - exact))) < 1e-6


def test_bessel_at_zero():
    # J_0(0) = 1 up to the last ulp of Gamma(1); J_nu(0) = 0 exactly
    assert bessel_j(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.5, 0.0) == 0.0


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0.5, -0.1)
    with pytest.raises(DomainError):
        bessel_j(0.5, 250.0)


@pytest.mark.parametrize("fn", [bessel_j, reduced_bessel])
@pytest.mark.parametrize("z", [math.nan, np.array([1.0, math.nan, 20.0])], ids=["scalar", "array"])
def test_nan_argument_is_a_domain_error(fn, z):
    with pytest.raises(DomainError):
        fn(0.5, z)


def test_reduced_bessel_finite_at_zero():
    for nu in (-0.5, 0.0, 0.5, 2.0):
        want = 1.0 / (2.0**nu * math.gamma(nu + 1.0))
        assert reduced_bessel(nu, 0.0) == pytest.approx(want, rel=1e-13)


def test_reduced_bessel_matches_quotient():
    z = np.linspace(0.5, 40.0, 100)
    for nu in (0.5, 1.5, 3.0):
        assert float(
            np.max(np.abs(reduced_bessel(nu, z) - sps.jv(nu, z) / z**nu))
        ) < 1e-12


def test_mu_vector_validation():
    mu = MuVector(["1/2", "3/4"])
    assert mu.is_rational
    assert mu.dim == 2
    with pytest.raises(DomainError):
        MuVector(["-3/4"])
    assert not MuVector([0.25]).is_rational


@pytest.mark.parametrize(
    "entries",
    ["12", {"1": 0}, None, np.array([["1/2"]])],
    ids=["str", "dict", "none", "2d-array"],
)
def test_mu_vector_refuses_what_is_not_a_list(entries):
    # a string or a mapping iterates as its characters or keys
    with pytest.raises(DomainError):
        MuVector(entries)


def test_mu_vector_reads_a_list_a_tuple_or_a_1d_array():
    want = (Fraction(1, 2), Fraction(3, 4))
    for entries in (["1/2", "3/4"], ("1/2", "3/4"), np.array(["1/2", "3/4"])):
        assert tuple(MuVector(entries)) == want


def test_mu_shifted():
    mu = MuVector(["1/2"])
    assert tuple(mu.shifted((2,))) == (Fraction(5, 2),)


def test_index_of_the_wrong_dimension_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        MuVector(["1/2"]).shifted((1, 1))
    with pytest.raises(DimensionMismatch):
        c_k_mu(["1/2"], (1, 1))


def test_numpy_scalar_coefficients():
    # integers of any type are exact, other reals floats; booleans are not numbers
    for value, want in [(np.int64(2), Fraction(2)), (np.uint8(3), Fraction(3)), (np.float32(0.5), 0.5)]:
        poly = EvenPolynomial(1, {(0,): value})
        assert poly.constant_term() == want
        assert type(poly.constant_term()) is type(want)
        assert MuVector([value])[0] == want
    for value in (True, np.bool_(True)):
        with pytest.raises(DomainError):
            EvenPolynomial(1, {(0,): value})
        with pytest.raises(DomainError):
            MuVector([value])


def test_integer_beyond_the_float_range_is_refused():
    # as the same value written as a string is; 10^5000 has no repr
    for value in (10**400, -(10**400), 10**5000):
        with pytest.raises(DomainError):
            MuVector([value])
        with pytest.raises(DomainError):
            EvenPolynomial(1, {(0,): value})


def test_c_mu_refuses_an_order_whose_gamma_overflows():
    # 2^mu would overflow first; gamma_fn's refusal comes before it
    with pytest.raises(DomainError):
        c_mu([100000000000])


def test_c_mu_value():
    # 2^(1/2) Gamma(3/2) = sqrt(2) sqrt(pi)/2 = sqrt(pi/2)
    assert c_mu(MuVector(["1/2"])) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)


def test_c_k_mu_exact_fraction():
    mu = MuVector(["1/2"])
    # (-1) / (2 (mu+1)) = -1/3
    assert c_k_mu(mu, (1,)) == Fraction(-1, 3)
    # k=2: 1 / (4 (mu+1)(mu+2)) = 1/15
    assert c_k_mu(mu, (2,)) == Fraction(1, 15)
    mu2 = MuVector(["1/2", "1/2"])
    assert c_k_mu(mu2, (1, 1)) == Fraction(1, 9)


def test_c_k_mu_matches_gamma_ratio():
    mu = MuVector(["3/4", "1/2"])
    k = (2, 1)
    exact = float(c_k_mu(mu, k))
    ratio = -c_mu(mu) / c_mu(mu.shifted(k))
    assert exact == pytest.approx(ratio, rel=1e-12)


if __name__ == "__main__":
    # the values the digest pins record, on the kernels numpy picks here;
    # NPY_DISABLE_CPU_FEATURES = AVX2_ONLY gives the AVX2 entry
    print(json.dumps([_simd_key(), _other_orders_digest(), _series_stop_digest()]))
