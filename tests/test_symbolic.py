"""Exact operator calculus: every identity here holds with zero tolerance."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    DomainError,
    EvenPolynomial,
    EvenRational,
    GaussianPolynomial,
    MuVector,
    MultiIndex,
    OperatorPoly,
    SymbolicHFunction,
    apply_L,
    apply_S,
    apply_Sk,
    apply_T,
    apply_Tk,
    check_hypothesis,
    kernel_basis,
    koh_zemanian_coeffs,
    koh_zemanian_coeffs_nd,
    leibniz_Tk,
)
from hankelc.multiindex import mi_graded_enumerate
from hankelc.symbolic import _simplex_lattice


def _random_poly(rng, dim, degree, density=0.6):
    coeffs = {}
    for k in mi_graded_enumerate(dim, degree):
        if rng.random() < density:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if c:
                coeffs[k] = c
    if not coeffs:
        coeffs[MultiIndex([0] * dim)] = Fraction(1)
    return EvenPolynomial(dim, coeffs)


# ---------------------------------------------------------------------------
# polynomial and u-part basics


def test_even_polynomial_algebra():
    p = EvenPolynomial(2, {(1, 0): 2, (0, 0): 1})
    q = EvenPolynomial(2, {(0, 1): 1})
    assert (p * q).coefficient((1, 1)) == 2
    assert (p + q).coefficient((0, 1)) == 1
    assert p.shift((1, 1)).coefficient((2, 1)) == 2
    assert (p - p).is_zero
    assert p.degree == 1


def test_even_polynomial_evaluation():
    p = EvenPolynomial(1, {(0,): 1, (2,): Fraction(1, 2)})
    # value at s = 4: 1 + 16/2 = 9
    assert p.evaluate([4.0]) == pytest.approx(9.0)


def test_gaussian_polynomial_decay_mismatch():
    a = GaussianPolynomial(EvenPolynomial.constant(1, 1), Fraction(1, 2))
    b = GaussianPolynomial(EvenPolynomial.constant(1, 1), Fraction(1, 3))
    with pytest.raises(DomainError):
        a + b


def test_symbolic_function_json_roundtrip():
    mu = MuVector(["1/2", "3/4"])
    f = SymbolicHFunction(
        mu, EvenPolynomial(2, {(0, 0): 1, (2, 1): Fraction(-3, 7)}), Fraction(1, 2)
    )
    assert SymbolicHFunction.from_json(f.to_json()) == f


def test_zero_members_hash_alike_whatever_the_decay():
    zero = EvenPolynomial.zero(1)
    a = GaussianPolynomial(zero, Fraction(1, 2))
    b = GaussianPolynomial(zero, Fraction(1, 3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, zero, Fraction(1, 2))
    g = SymbolicHFunction(mu, zero, Fraction(1, 3))
    assert f == g and len({f, g}) == 1
    # nonzero members still tell decays apart
    one = EvenPolynomial.constant(1, 1)
    assert len({GaussianPolynomial(one, Fraction(1, 2)), GaussianPolynomial(one, Fraction(1, 3))}) == 2


# ---------------------------------------------------------------------------
# T monomial rules


def test_t_on_pure_monomial():
    # T s^p = 2p s^(p-1) for decay-free u-parts
    u = GaussianPolynomial(EvenPolynomial.monomial((3,)), 0)
    out = apply_T(0, u)
    assert out.poly == EvenPolynomial(1, {(2,): 6})


def test_t_power_factorial_rule():
    # T^r s^p = 2^r p!/(p-r)! s^(p-r); at r = p the image is the constant 2^p p!
    for p in range(0, 5):
        for r in range(0, p + 1):
            u = GaussianPolynomial(EvenPolynomial.monomial((p,)), 0)
            out = apply_Tk((r,), u)
            want = 2**r * math.factorial(p) // math.factorial(p - r)
            assert out.poly == EvenPolynomial(1, {(p - r,): want})
    u = GaussianPolynomial(EvenPolynomial.monomial((4,)), 0)
    assert apply_Tk((4,), u).poly.constant_term() == 2**4 * math.factorial(4)


def test_t_on_gaussian():
    # T e^{-c s} = -2c e^{-c s}
    u = GaussianPolynomial(EvenPolynomial.constant(1, 1), Fraction(1, 2))
    out = apply_T(0, u)
    assert out.poly == EvenPolynomial(1, {(0,): -1})
    assert out.decay == Fraction(1, 2)


def test_t_commutativity_random():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(2, 3)
        u = GaussianPolynomial(_random_poly(rng, dim, 4), Fraction(rng.randint(0, 2), 2))
        a, b = rng.randrange(dim), rng.randrange(dim)
        lhs = apply_T(a, apply_T(b, u))
        rhs = apply_T(b, apply_T(a, u))
        assert lhs.poly == rhs.poly


def test_leibniz_exact_random():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randint(1, 3)
        theta = GaussianPolynomial(_random_poly(rng, dim, 3), 0)
        phi = GaussianPolynomial(_random_poly(rng, dim, 3), Fraction(1, 2))
        k = MultiIndex(rng.randint(0, 2) for _ in range(dim))
        direct = apply_Tk(k, theta * phi)
        viaprod = leibniz_Tk(k, theta, phi)
        assert direct.poly == viaprod.poly
        assert direct.decay == viaprod.decay


# ---------------------------------------------------------------------------
# the one-axis operator


def test_s_monomial_rule():
    # on u-parts, S_i s^k = 4 k_i (k_i + mu_i) s^(k - e_i)
    mu = MuVector(["3/4", "1/2"])
    for k in [(1, 0), (2, 1), (3, 2)]:
        f = SymbolicHFunction(mu, EvenPolynomial.monomial(k), 0)
        out = apply_S(0, f)
        ki = k[0]
        want = EvenPolynomial(
            2, {(ki - 1, k[1]): 4 * ki * (ki + Fraction(3, 4))}
        )
        assert out.poly == want


def test_s_kills_constants():
    mu = MuVector(["1/2"])
    f = SymbolicHFunction(mu, EvenPolynomial.constant(1, 1), 0)
    assert apply_S(0, f).poly.is_zero


def test_s_matches_second_derivative_numerically():
    """The conjugated image equals f'' - (4 mu^2 - 1)/(4 x^2) f pointwise."""
    mu = MuVector(["3/4"])
    f = SymbolicHFunction(
        mu, EvenPolynomial(1, {(0,): 1, (1,): Fraction(1, 2)}), Fraction(1, 2)
    )
    g = apply_S(0, f)
    xs = np.linspace(0.5, 2.5, 21)
    h = 1e-4
    vals = lambda x: f.evaluate([x])
    second = (vals(xs + h) - 2 * vals(xs) + vals(xs - h)) / (h * h)
    m = float(mu[0])
    direct = second - (4 * m * m - 1) / (4 * xs * xs) * vals(xs)
    assert float(np.max(np.abs(direct - g.evaluate([xs])))) < 1e-6


def test_s_axes_commute():
    rng = random.Random(3)
    mu = MuVector(["1/2", "3/4"])
    f = SymbolicHFunction(mu, _random_poly(rng, 2, 3), Fraction(1, 2))
    ab = apply_S(0, apply_S(1, f))
    ba = apply_S(1, apply_S(0, f))
    assert ab.poly == ba.poly


# ---------------------------------------------------------------------------
# normal-ordered expansion


def test_kz_first_order():
    # k=1: b_0 = 2 (mu + 1), b_1 = 1
    table = koh_zemanian_coeffs(1, Fraction(1, 2))
    assert table == {0: 3, 1: 1}


def test_kz_leading_coefficient():
    # b_{0,k} = 2^k (mu+1)(mu+2)...(mu+k)
    mu = Fraction(1, 2)
    for k in range(1, 5):
        table = koh_zemanian_coeffs(k, mu)
        want = Fraction(2**k)
        for j in range(1, k + 1):
            want *= mu + j
        assert table[0] == want
        assert table[k] == 1


def test_kz_expansion_matches_s_power():
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.randint(1, 2)
        mu = MuVector([Fraction(rng.randint(0, 3), 2) for _ in range(dim)])
        f = SymbolicHFunction(mu, _random_poly(rng, dim, 3), Fraction(1, 2))
        k = MultiIndex(rng.randint(0, 2) for _ in range(dim))
        lhs = apply_Sk(k, f).poly
        rhs = EvenPolynomial.zero(dim)
        for l, b in koh_zemanian_coeffs_nd(k, mu).items():
            rhs = rhs + apply_Tk(k + l, f.u).poly.shift(l).scale(b)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# operator polynomials and kernels


def test_apply_l_signs():
    # L for P = x: a single -S term
    mu = MuVector(["1/2"])
    P = OperatorPoly(1, {(1,): 1})
    f = SymbolicHFunction(mu, EvenPolynomial.monomial((1,)), 0)
    direct = apply_S(0, f)
    assert apply_L(P, f).poly == -direct.poly


def test_operator_json_roundtrip():
    P = OperatorPoly(2, {(1, 0): 1, (0, 2): Fraction(2, 3)})
    assert OperatorPoly.from_json(P.to_json()) == P


def test_kernel_basis_1d():
    mu = MuVector(["1/2"])
    P = OperatorPoly(1, {(1,): 1})
    basis = kernel_basis(P, mu, 3)
    assert len(basis) == 1
    assert basis[0].poly == EvenPolynomial.constant(1, 1)


def test_kernel_basis_2d_degree1():
    mu = MuVector(["1/2", "1/2"])
    P = OperatorPoly(2, {(1, 0): 1, (0, 1): 1})
    basis = kernel_basis(P, mu, 1)
    polys = [b.poly for b in basis]
    assert len(polys) == 2
    assert EvenPolynomial.constant(2, 1) in polys
    diff = EvenPolynomial(2, {(1, 0): 1, (0, 1): -1})
    assert any(p == diff or p == -diff for p in polys)


def test_kernel_identity_operator_trivial():
    mu = MuVector(["1/2"])
    P = OperatorPoly(1, {(0,): 1})
    assert kernel_basis(P, mu, 4) == []


def test_kernel_images_vanish():
    mu = MuVector(["1/2", "1/2"])
    P = OperatorPoly(2, {(1, 0): 1, (0, 1): 1})
    for b in kernel_basis(P, mu, 3):
        assert apply_L(P, b).poly.is_zero


def test_kernel_requires_rational_orders():
    P = OperatorPoly(1, {(1,): 1})
    with pytest.raises(DomainError):
        kernel_basis(P, MuVector([0.3]), 2)


# ---------------------------------------------------------------------------
# hypothesis checks


@pytest.mark.parametrize(
    "coeffs,dim",
    [
        ({(0,): 1}, 1),
        ({(1,): 1}, 1),
        ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 2),
        ({(2, 0): 1, (0, 2): 1}, 2),
        ({(1,): -2, (3,): -1}, 1),  # all-negative also counts as same sign
    ],
)
def test_hypothesis_accepts(coeffs, dim):
    assert check_hypothesis(OperatorPoly(dim, coeffs)).passed


@pytest.mark.parametrize(
    "coeffs,dim",
    [
        ({(1, 0): 1, (0, 1): -1}, 2),  # sign change
        ({(1, 1): 1}, 2),  # vanishes on each axis
        ({(1, 0): 1, (1, 1): 1}, 2),  # no pure power in x2
    ],
)
def test_hypothesis_rejects(coeffs, dim):
    report = check_hypothesis(OperatorPoly(dim, coeffs))
    assert not report.passed
    assert report.reason


def _fraction_lattice(n, target):
    """Reference lattice: the compositions of m into n parts as Fractions,
    in lexicographic order."""
    if n == 1:
        return [(Fraction(1),)]
    m = 1
    while math.comb(m + n - 1, n - 1) < target:
        m += 1
    pts = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            pts.append(prefix + (Fraction(remaining, m),))
            return
        for v in range(remaining + 1):
            rec(prefix + (Fraction(v, m),), remaining - v, slots - 1)

    rec((), m, n)
    return pts


@pytest.mark.parametrize(
    "n, target, count",
    [(1, 10000, 1), (2, 10000, 10000), (3, 10000, 10011), (4, 500, 560)],
)
def test_simplex_lattice_matches_fraction_reference(n, target, count):
    got = _simplex_lattice(n, target)
    want = np.array([[float(c) for c in p] for p in _fraction_lattice(n, target)])
    assert got.shape == (count, n)
    np.testing.assert_array_equal(got, want)


def test_hypothesis_report_fields():
    report = check_hypothesis(OperatorPoly(2, {(1, 0): 1, (0, 1): 1}))
    assert report.same_sign and report.sign == 1
    assert report.orthant_nonvanishing
    assert report.grid_min_abs > 0
    data = report.to_json()
    assert data["passed"] is True


# ---------------------------------------------------------------------------
# exact rational functions


def test_even_rational_quotient_rule():
    # T (1 / (1 + s)) = -2 / (1 + s)^2
    numer = EvenPolynomial.constant(1, 1)
    denom = EvenPolynomial(1, {(0,): 1, (1,): 1})
    r = EvenRational(numer, denom)
    d = r.t_derivative(0)
    assert d.numer == EvenPolynomial.constant(1, -2)
    assert d.power == 2


def test_even_rational_vs_fd():
    numer = EvenPolynomial(2, {(1, 0): 1})
    denom = EvenPolynomial(2, {(0, 0): 1, (1, 0): 2, (0, 1): 1})
    r = EvenRational(numer, denom)
    d = r.t_power((1, 1))
    x1, x2 = 0.7, 1.3
    h = 1e-5

    def val(a, b):
        return float(r.evaluate([np.array(a * a), np.array(b * b)]))

    # T1 T2 via nested central differences in x, divided by coordinates
    def t2(a):
        return (val(a, x2 + h) - val(a, x2 - h)) / (2 * h * x2)

    fd = (t2(x1 + h) - t2(x1 - h)) / (2 * h * x1)
    got = float(d.evaluate([np.array(x1 * x1), np.array(x2 * x2)]))
    assert got == pytest.approx(fd, rel=1e-5)
