"""Weighted sup-seminorms: frozen closed-form values and the domination bound.

Reference values, all for f = x e^{-x^2/2} on one axis with order 1/2:

  gamma_{0,0} = sup e^{-v/2} = 1                          (v = x^2)
  gamma_{1,0} = sup (1+v) e^{-v/2} = 2 e^{-1/2}           (argmax v = 1)
  lambda_{0,0} = 1
  lambda_{0,1} = sup |S f|-part = 4 * 1 * (1 + 1/2) ... see below
  lambda_{1,1} = sup (1+v)|3 - v| e^{-v/2} = (3-v)(1+v)e^{-v/2} at v = 3 - 2 sqrt 2
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hankelc import seminorms
from hankelc import (
    DecayRequired,
    DomainError,
    EvenPolynomial,
    GridSpec,
    MuVector,
    SymbolicHFunction,
    apply_Tk,
    lambda_gamma_bound_terms,
    seminorm_gamma,
    seminorm_lambda,
    seminorm_rho,
)

HALF = Fraction(1, 2)


def _f1():
    return SymbolicHFunction(MuVector(["1/2"]), EvenPolynomial.constant(1, 1), HALF)


def test_gamma_unweighted():
    # u = e^{-v/2} peaks at the origin
    assert seminorm_gamma(0, (0,), ["1/2"], _f1()) == pytest.approx(1.0, abs=1e-12)


def test_gamma_weighted():
    # (1+v) e^{-v/2} peaks at v = 1 with value 2 e^{-1/2}
    got = seminorm_gamma(1, (0,), ["1/2"], _f1())
    assert got == pytest.approx(2 * math.exp(-0.5), rel=1e-13)


def test_gamma_of_a_slow_decay_reaches_its_far_hump():
    # (1 + |x|^2)^2 (1 + s1 s2) e^(-(s1 + s2)/1000), s = x^2, peaks on the
    # diagonal s1 = s2 = s at the largest root of
    # 4c s^3 + (2c - 8) s^2 + (4c - 2) s + 2c - 4 (|x_a| near 44.7)
    f = SymbolicHFunction(MuVector([HALF, HALF]), EvenPolynomial(2, {(0, 0): 1, (1, 1): 1}), Fraction(1, 1000))
    c = 1e-3
    s = max(r.real for r in np.roots([4 * c, 2 * c - 8, 4 * c - 2, 2 * c - 4]) if abs(r.imag) < 1e-9)
    want = (1 + 2 * s) ** 2 * (1 + s * s) * math.exp(-2 * c * s)
    assert seminorm_gamma(2, (0, 0), [HALF, HALF], f) == pytest.approx(want, rel=1e-12)


def test_gamma_with_derivative():
    # T e^{-v/2} = -e^{-v/2}; same sup as order 0
    got = seminorm_gamma(0, (1,), ["1/2"], _f1())
    assert got == pytest.approx(1.0, abs=1e-12)


def test_lambda_order_zero():
    assert seminorm_lambda(0, (0,), ["1/2"], _f1()) == pytest.approx(1.0, abs=1e-12)


def test_lambda_first_order():
    # S f has u-part (v - 3) e^{-v/2} for mu = 1/2, u = e^{-v/2}:
    # x^2 T^2 + 2(mu+1) T gives v e^{-v/2}/4*4 ... frozen: sup |v - 3| e^{-v/2} = 3
    got = seminorm_lambda(0, (1,), ["1/2"], _f1())
    assert got == pytest.approx(3.0, abs=1e-9)


def test_lambda_weighted_first_order():
    # sup (1+v)|v-3|e^{-v/2} on v >= 0 is at v = 3 - 2 sqrt 2
    v = 3 - 2 * math.sqrt(2)
    want = (1 + v) * (3 - v) * math.exp(-v / 2)
    got = seminorm_lambda(1, (1,), ["1/2"], _f1())
    assert got == pytest.approx(want, rel=1e-13)


def test_lambda_dominated_by_gamma():
    f = SymbolicHFunction(
        MuVector(["1/2", "3/4"]),
        EvenPolynomial(2, {(0, 0): 1, (1, 1): Fraction(-1, 3)}),
        HALF,
    )
    for m in range(2):
        for k in [(0, 0), (1, 0), (1, 1), (2, 0)]:
            lam, bound, terms = lambda_gamma_bound_terms(m, k, f.mu, f)
            assert lam <= bound * (1 + 1e-12)
            assert len(terms) >= 1


def test_rho_is_lambda_sum():
    f = _f1()
    total = 0.0
    for k in [(0,), (1,), (2,)]:
        for m in range(3):
            total += seminorm_lambda(m, k, f.mu, f)
    got = seminorm_rho(2, f.mu, f)
    assert got == pytest.approx(total, rel=1e-12)


def test_validation_errors():
    f = _f1()
    with pytest.raises(DomainError):
        seminorm_gamma(-1, (0,), ["1/2"], f)
    with pytest.raises(DomainError):
        seminorm_gamma(0, (0, 0), ["1/2"], f)  # index dimension
    with pytest.raises(DomainError):
        seminorm_gamma(0, (0,), ["3/2"], f)  # mismatched orders
    g = SymbolicHFunction(MuVector(["1/2"]), EvenPolynomial.constant(1, 1), 0)
    with pytest.raises(DecayRequired):
        seminorm_gamma(0, (0,), ["1/2"], g)
    with pytest.raises(DecayRequired):
        seminorm_rho(1, ["1/2"], g)
    for order, mu in [(-1, ["1/2"]), (1, ["3/2"]), (1, ["1/2", "1/2"])]:
        with pytest.raises(DomainError):
            seminorm_rho(order, mu, f)


def test_gamma_finds_supremum_on_a_face():
    # u = Q(s) e^{-(s1+s2)/2}; T_2 u on the face s1 = 0 is
    # (s2^2/2 - 11 s2/4 - 5/2) e^{-s2/2}, and the weighted supremum lies on
    # that face, above an interior local maximum about 6e-4 lower
    terms = {(0, 0): 4, (0, 1): Fraction(3, 4), (0, 2): -HALF, (1, 1): Fraction(-1, 4)}
    f = SymbolicHFunction(MuVector(["3/2", "0"]), EvenPolynomial(2, terms), HALF)
    s2 = np.linspace(0.0, 10.0, 2_000_001)
    face = (1 + s2) ** 2 * np.abs(s2 * s2 / 2 - 11 * s2 / 4 - 2.5) * np.exp(-s2 / 2)
    want = float(face.max())
    got = seminorm_gamma(2, (0, 1), ["3/2", "0"], f)
    assert want * (1 - 1e-9) <= got <= want * (1 + 1e-9)


F = Fraction
# (m, k, mu, decay, terms of Q): gamma_{m,k} of x^(mu+1/2) Q(x^2) e^{-c|x|^2}
# where a search polished only from the grid argmax, by at most about two
# grid steps, stopped short of the supremum: the top lies on another hump
# the grid sampled a little lower, or many grid steps along a flat ridge;
# on the last two a stencil climb in log x stopped short on a flat profile
_MISSED_TOPS = [
    (2, (1, 1), ["3/2", "5/2"], F(1, 3),
     {(0, 1): F(-5, 4), (2, 0): F(-4, 3), (2, 1): F(3), (3, 0): F(4, 3)}),
    (1, (1, 1), ["0", "1/2"], F(1, 3), {(0, 0): F(2), (0, 2): F(-5, 2), (1, 1): F(-1)}),
    (1, (1, 0), ["0", "5/2"], F(1, 3), {(1, 1): F(-5), (1, 2): F(3, 2), (2, 1): F(3)}),
    (2, (1, 1), ["0", "1/2"], F(2), {(0, 0): F(-1), (0, 1): F(-2, 3), (1, 0): F(-5)}),
    (1, (1,), ["3/2"], F(1, 3), {(0,): F(-1, 2), (1,): F(-2), (2,): F(4, 3)}),
    (0, (0, 0), ["1/2", "3/2"], F(1, 3),
     {(0, 1): F(-3, 4), (0, 3): F(1), (1, 2): F(3), (2, 1): F(-3)}),
    (1, (1, 1), ["3/2", "0"], F(2),
     {(0, 1): F(-5, 3), (0, 2): F(-3), (1, 1): F(-1, 2), (2, 0): F(-3, 4)}),
]


def _reaches_dense_grid_supremum(m, k, mu, decay, terms) -> bool:
    """gamma_{m,k} on its default grid reaches, from below, the largest
    sample of the weighted function on a much denser grid."""
    n = len(mu)
    f = SymbolicHFunction(MuVector(mu), EvenPolynomial(n, terms), decay)
    axis = np.geomspace(1e-3, 40.0, 1000 if n == 2 else 100_000)
    mesh = np.meshgrid(*[axis] * n, indexing="ij")
    weight = (1 + sum(c * c for c in mesh)) ** m
    want = float(np.max(weight * np.abs(apply_Tk(k, f.u).evaluate(mesh))))
    got = seminorm_gamma(m, k, mu, f)
    return want * (1 - 1e-9) <= got <= want * (1 + 1e-4)


@pytest.mark.parametrize(
    "m, k, mu, decay, terms",
    _MISSED_TOPS,
    ids=["2d-second-hump", "2d-face-w1", "2d-ridge", "2d-face-w2", "1d",
         "2d-flat-x1", "2d-flat-w1"],
)
def test_gamma_reaches_dense_grid_supremum(m, k, mu, decay, terms):
    assert _reaches_dense_grid_supremum(m, k, mu, decay, terms)


def test_grid_maximum_alone_misses_a_flat_top(monkeypatch):
    # negative control: with no Newton step the value is the grid maximum,
    # which stays below the dense grid's on the flat profile
    monkeypatch.setattr(seminorms, "_MAX_NEWTON", 0)
    assert not _reaches_dense_grid_supremum(*_MISSED_TOPS[5])
