"""Independent routes the benchmark checks the program against.

Nothing here imports hankelc: every reference value is computed from the
plain description of a family member

    f(x) = x^(mu+1/2) Q(x^2) exp(-c |x|^2),  Q = sum_k q_k s^k,  s_i = x_i^2,

given as per-axis orders `mu`, a dict `terms` {k (tuple): q_k} and a decay
`c`.  The routes are

* the Weber-Laguerre closed form of the Hankel transform, with its own
  Laguerre recurrence (no scipy);
* a trigonometric quadrature for windowed members of half-integer order
  -1/2 or 1/2, where sqrt(xy) J(xy) is sqrt(2/pi) cos(xy) or sin(xy);
* exact Taylor data at the origin and the delta pairings derived from it;
* float derivatives T^k u = 2^|k| d^k/ds^k u of the u-part;
* the weighted-boundedness exponents of polynomial and 1/(1+s) multipliers.

Each gate has a negative control in selftest.py that must fail.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

# below this the two routes agree to rounding error, and the digits beyond
# it would only measure rounding noise
DISAGREEMENT_FLOOR = 1e-14


def digits(disagreement: float) -> float:
    """-log10 of a relative disagreement, floored at DISAGREEMENT_FLOOR."""
    return -math.log10(max(float(disagreement), DISAGREEMENT_FLOOR))


def relative_error(got, want) -> float:
    """max |got - want| / max |want| (absolute when want is all zero)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    if not np.all(np.isfinite(got)):
        return math.inf
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    diff = float(np.max(np.abs(got - want))) if want.size else 0.0
    return diff / scale if scale > 0.0 else diff


# ---------------------------------------------------------------------------
# Weber-Laguerre closed form


def laguerre(k: int, alpha: float, t):
    """Generalised Laguerre polynomial L_k^(alpha)(t) by the three-term
    recurrence (j+1) L_{j+1} = (2j+1+alpha-t) L_j - (j+alpha) L_{j-1}."""
    t = np.asarray(t, dtype=float)
    prev = np.ones_like(t)
    if k == 0:
        return prev
    cur = 1.0 + alpha - t
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - t) * cur - (j + alpha) * prev) / (j + 1)
    return cur


def weber_factor(mu: float, k: int, c: float, y):
    """Transform of x^(mu+1/2) s^k e^(-c s) along one axis, at y:

    y^(mu+1/2) k! / (2^(mu+1) c^(mu+k+1)) e^(-y^2/4c) L_k^(mu)(y^2/4c).
    """
    y = np.asarray(y, dtype=float)
    t = y * y / (4.0 * c)
    pref = math.factorial(k) / (2.0 ** (mu + 1.0) * c ** (mu + k + 1.0))
    return y ** (mu + 0.5) * pref * np.exp(-t) * laguerre(k, mu, t)


def weber_laguerre(mu, terms: dict, decay, axes, absolute=False) -> np.ndarray:
    """Closed-form n-D transform of the family member on a tensor grid.

    The kernel and the Gaussian both factor over axes, so each monomial's
    transform is a product of one-axis Weber factors.  absolute=True sums
    the magnitudes of the terms instead: the size against which rounding
    in the sum is measured.
    """
    c = float(decay)
    if c <= 0.0:
        raise ValueError("the closed form needs a positive decay")
    mus = [float(m) for m in mu]
    axes = [np.asarray(a, dtype=float) for a in axes]
    cache = {}

    def factor(a, k):
        key = (a, k)
        if key not in cache:
            cache[key] = weber_factor(mus[a], k, c, axes[a])
        return cache[key]

    out = np.zeros(tuple(a.size for a in axes))
    for k, q in terms.items():
        term = np.asarray(float(q))
        for a, ka in enumerate(k):
            term = np.multiply.outer(term, factor(a, ka))
        out += np.abs(term) if absolute else term
    return out


# ---------------------------------------------------------------------------
# windowed members of order -1/2 or 1/2 (one axis)


def smooth_step(t):
    """0 for t <= 0, 1 for t >= 1, exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))."""
    t = np.asarray(t, dtype=float)
    out = np.where(t >= 1.0, 1.0, 0.0)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def _gauss_legendre_panels(edges, points):
    base_x, base_w = np.polynomial.legendre.leggauss(points)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(lo + half + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def windowed_half_order(mu, terms: dict, decay, inner: float, outer: float, ys):
    """Transform of f(x) * W(x) for an outer window W (0 below `inner`,
    1 beyond `outer`) and mu in {-1/2, 1/2}, by a panel rule aligned with
    the window and a trigonometric kernel."""
    m = Fraction(mu)
    if m not in (Fraction(-1, 2), Fraction(1, 2)):
        raise ValueError("the trigonometric route needs mu = -1/2 or 1/2")
    c = float(decay)
    far = math.sqrt(2.0 * math.log(1e18) / c)
    ramp = np.linspace(inner, outer, 33)
    tail = np.linspace(outer, far, max(2, int(math.ceil((far - outer) / 0.1))) + 1)
    x, w = _gauss_legendre_panels(np.concatenate([ramp, tail[1:]]), 24)
    s = x * x
    poly = sum(float(q) * s ** k[0] for k, q in terms.items())
    fx = x ** (float(m) + 0.5) * poly * np.exp(-c * s)
    fx = fx * smooth_step((x - inner) / (outer - inner))
    z = np.outer(np.asarray(ys, dtype=float), x)
    kern = np.cos(z) if m < 0 else np.sin(z)
    return math.sqrt(2.0 / math.pi) * (kern @ (w * fx))


# ---------------------------------------------------------------------------
# exact Taylor data and delta pairings


def taylor_exact(terms: dict, decay, order: int, dim: int) -> dict:
    """Exact a_k of u = Q(s) e^(-c sum s) = sum_k a_k s^k, |k| <= order.

    Cauchy product of Q with prod_i sum_j (-c s_i)^j / j!.
    """
    c = Fraction(decay)
    out = {}
    for k in product(range(order + 1), repeat=dim):
        if sum(k) > order:
            continue
        total = Fraction(0)
        for j in product(*(range(ki + 1) for ki in k)):
            q = terms.get(tuple(ki - ji for ki, ji in zip(k, j)))
            if not q:
                continue
            e = Fraction(1)
            for ji in j:
                e *= (-c) ** ji / math.factorial(ji)
            total += Fraction(q) * e
        out[k] = total
    return out


def c_mu(mu) -> float:
    """prod_i 2^mu_i Gamma(mu_i + 1)."""
    out = 1.0
    for m in mu:
        out *= 2.0 ** float(m) * math.gamma(float(m) + 1.0)
    return out


def pair_delta_exact(k, mu, terms: dict, decay) -> float:
    """<T^k delta, f> = c_mu lim T^k u = c_mu 2^|k| k! a_k."""
    a = taylor_exact(terms, decay, sum(k), len(mu))[tuple(k)]
    kfact = math.prod(math.factorial(ki) for ki in k)
    return c_mu(mu) * float(2 ** sum(k) * kfact * a)


def pairing_scale(k, mu, terms: dict, decay) -> float:
    """Size of <c^mu_k t^(mu+2k+1/2), f> with |Q| bounded by sum |q_j| s^j:

    |c^mu_k| sum_j |q_j| prod_i G(mu_i+k_i+j_i+1) / (2 c^(mu_i+k_i+j_i+1)),

    using int_0^inf x^(2a-1) e^(-c x^2) dx = G(a) / (2 c^a).  Relative
    comparisons of the two pairing routes use it as the denominator, since
    the pairing itself can cancel to zero."""
    c = float(decay)
    ck = c_mu(mu) / c_mu([float(m) + ki for m, ki in zip(mu, k)])
    total = 0.0
    for j, q in terms.items():
        term = abs(float(q))
        for m, ki, ji in zip(mu, k, j):
            a = float(m) + ki + ji + 1.0
            term *= math.gamma(a) / (2.0 * c**a)
        total += term
    return ck * total


def tk_values(k, terms: dict, decay, points) -> np.ndarray:
    """T^k u at the given points (one array per axis), where T_i = 2 d/ds_i.

    Leibniz: d^k (Q e^(-c sum s)) = sum_j C(k,j) d^(k-j) Q (-c)^|j| e^(-c sum s).
    """
    c = float(decay)
    cols = [np.asarray(p, dtype=float) for p in points]
    squares = [col * col for col in cols]
    total = np.zeros(np.broadcast(*squares).shape)
    for j in product(*(range(ki + 1) for ki in k)):
        binom = math.prod(math.comb(ki, ji) for ki, ji in zip(k, j))
        m = tuple(ki - ji for ki, ji in zip(k, j))
        dq = np.zeros_like(total)
        for a, q in terms.items():
            if any(ai < mi for ai, mi in zip(a, m)):
                continue
            coef = float(q)
            term = np.ones_like(total)
            for ai, mi, sq in zip(a, m, squares):
                coef *= math.perm(ai, mi)
                term = term * sq ** (ai - mi)
            dq = dq + coef * term
        total = total + binom * (-c) ** sum(j) * dq
    return 2.0 ** sum(k) * total * np.exp(-c * sum(squares))


# ---------------------------------------------------------------------------
# multipliers


def polynomial_multiplier_exponents(terms: dict, max_order: int, dim: int) -> dict:
    """Expected exponent of each T^k theta for theta = Q(s) with positive
    coefficients: T^k theta is a positive polynomial of degree
    max |a| - |k| over a >= k (exponent minus that degree), or zero
    (exponent 0)."""
    out = {}
    for k in product(range(max_order + 1), repeat=dim):
        if sum(k) > max_order:
            continue
        degs = [sum(a) - sum(k) for a in terms if all(ai >= ki for ai, ki in zip(a, k))]
        out[k] = -max(degs) if degs else 0
    return out


def inverse_linear_bounds(max_order: int) -> dict:
    """theta = 1/(1+s) on one axis: T^k theta = (-2)^k k! (1+s)^(-1-k),
    so exponent 0 and sup |T^k theta| = 2^k k! at s = 0."""
    return {(k,): (0, float(2**k * math.factorial(k))) for k in range(max_order + 1)}

