"""Special-function layer against independent references.

scipy.special serves as an oracle here only; the library never imports
it for Bessel evaluation.  Gamma is checked against exact factorials.
"""

import hashlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special as sps

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
    # the growth stop that truncates other orders ends 15/2's sum after
    # j = 1 near z = 12, where its second term is larger than its first
    assert _finite_error(bessel_module._asymptotic_j, 7.5) > 1e-13
    for nu in (1.5, 7.5, 20.5):
        short = bessel_module._finite_terms(nu) - 1
        assert _finite_error(lambda n, z: bessel_module._asymptotic_j(n, z, short), nu) > 1e-13


def test_other_orders_keep_their_routes_bit_for_bit():
    # the digest of bessel_j and reduced_bessel before half-integer orders
    # got the terminating expansion, re-taken when Gamma became math.gamma:
    # series and Miller outputs moved by at most 1.1e-15 of their size and
    # the asymptotic ones not at all (numpy 2.4, x86-64)
    z = np.linspace(0.0, 200.0, 200001)
    digest = hashlib.sha1()
    for nu in (0, 1, Fraction(1, 4), Fraction(7, 3), 10):
        digest.update(bessel_j(nu, z).tobytes())
        digest.update(reduced_bessel(nu, z).tobytes())
    assert digest.hexdigest() == "7903972c52f0395fa05140f70b5bb0998cce4231"
    assert bessel_module._finite_terms(0.25) == bessel_module._finite_terms(10.0) == 0


def test_series_stop_is_pinned_below_the_cutoff():
    # the digest of bessel_j and reduced_bessel while the series' stop test
    # still formed max|term| and max|total| on every term, re-taken when
    # Gamma became math.gamma, which moved outputs by at most 1.9e-15 of
    # their size (numpy 2.4, x86-64): kernel arguments of a radius-8 rule
    # reaching about 3, 8 and just under 12, an unsorted array with its
    # largest entry in the middle, exact zeros and a single point
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
    assert digest.hexdigest() == "5d7b7d61dfb7d27a4f833f13280dc5c4ca705f19"


def test_bessel_half_order_closed_forms():
    z = np.linspace(0.01, 150.0, 700)
    sin_form = np.sqrt(2.0 / (math.pi * z)) * np.sin(z)
    cos_form = np.sqrt(2.0 / (math.pi * z)) * np.cos(z)
    assert float(np.max(np.abs(bessel_j(0.5, z) - sin_form))) < 1e-10
    assert float(np.max(np.abs(bessel_j(-0.5, z) - cos_form))) < 1e-10


def test_bessel_three_halves_closed_form():
    z = np.linspace(0.1, 100.0, 500)
    form = np.sqrt(2.0 / (math.pi * z)) * (np.sin(z) / z - np.cos(z))
    assert float(np.max(np.abs(bessel_j(1.5, z) - form))) < 1e-10


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
