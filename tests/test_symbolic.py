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
    LimitExceeded,
    MuVector,
    MultiIndex,
    NumericError,
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
    liouville_solve,
    symbolic,
)
from hankelc.multiindex import mi_graded_enumerate
from hankelc.symbolic import _lowering_rows


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
    zero = EvenPolynomial(1)
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


_HUGE = EvenPolynomial(1, {(0,): 1e308, (1,): 1e308})


@pytest.mark.parametrize(
    "op",
    [
        lambda: _HUGE * _HUGE,
        lambda: _HUGE + _HUGE,
        lambda: _HUGE.scale(10),
        lambda: apply_T(0, GaussianPolynomial(_HUGE, 1e10)),
        lambda: apply_L(OperatorPoly(1, {(0,): 1e300}), SymbolicHFunction([2.5], _HUGE, 0)),
        # both product-rule terms are 1.2e308 s; only their sum overflows
        lambda: leibniz_Tk(
            (1,),
            GaussianPolynomial(EvenPolynomial(1, {(1,): 0.6e308})),
            GaussianPolynomial(EvenPolynomial.monomial((1,))),
        ),
    ],
    ids=["mul", "add", "scale", "apply_T", "apply_L", "leibniz"],
)
def test_float_overflow_is_a_numeric_error(op):
    with pytest.raises(NumericError):
        op()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_input_is_a_domain_error(value):
    with pytest.raises(DomainError):
        EvenPolynomial(1, {(0,): value})


@pytest.mark.parametrize(
    "terms",
    [[5], 7, [{"k": 5, "q": 1}], [{"q": 1}], [{"k": [1]}], [{"k": [0], "q": 1, "a": 2}]],
    ids=["int-term", "not-a-list", "k-not-a-list", "k-missing", "q-missing", "extra-key"],
)
def test_json_terms_schema_is_a_domain_error(terms):
    with pytest.raises(DomainError):
        SymbolicHFunction.from_json({"mu": ["1/2"], "terms": terms})
    with pytest.raises(DomainError):
        OperatorPoly.from_json({"terms": terms})


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


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_kz_rejects_a_non_finite_float_order(mu):
    with pytest.raises(DomainError):
        koh_zemanian_coeffs(2, mu)


def test_kz_keeps_a_finite_float_order():
    assert koh_zemanian_coeffs(1, 0.5) == {0: 3.0, 1: 1}


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


def _compose_1d(A: dict, B: dict) -> dict:
    """Product of normal-ordered 1-D operators sum c[(a,b)] x^(2a) T^b.

    Uses T^b x^(2a) = sum_j C(b,j) 2^j a!/(a-j)! x^(2(a-j)) T^(b-j).
    """
    out: dict[tuple, object] = {}
    for (a1, b1), c1 in A.items():
        for (a2, b2), c2 in B.items():
            for j in range(min(b1, a2) + 1):
                w = math.comb(b1, j) * (2**j) * math.perm(a2, j)
                key = (a1 + a2 - j, b1 - j + b2)
                val = out.get(key, Fraction(0)) + c1 * c2 * w
                if val == 0:
                    out.pop(key, None)
                else:
                    out[key] = val
    return out


def _reference_kz(k: int, mu) -> dict:
    """b_{l,k} by composing S = x^2 T^2 + 2(mu+1) T with itself k times."""
    op = {(0, 0): Fraction(1)}
    base = {(1, 2): Fraction(1), (0, 1): 2 * (mu + 1)}
    for _ in range(k):
        op = _compose_1d(base, op)
    assert all(b - a == k for a, b in op)
    return {a: c for (a, b), c in op.items()}


@pytest.mark.parametrize(
    "mu", [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 3), Fraction(15, 2)]
)
def test_kz_closed_form_matches_composer(mu):
    for k in range(9):
        table = koh_zemanian_coeffs(k, mu)
        assert table == _reference_kz(k, mu)
        assert all(isinstance(b, Fraction) for b in table.values())


def test_kz_expansion_matches_s_power():
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.randint(1, 2)
        mu = MuVector([Fraction(rng.randint(0, 3), 2) for _ in range(dim)])
        f = SymbolicHFunction(mu, _random_poly(rng, dim, 3), Fraction(1, 2))
        k = MultiIndex(rng.randint(0, 2) for _ in range(dim))
        lhs = apply_Sk(k, f).poly
        rhs = EvenPolynomial(dim)
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


@pytest.mark.parametrize("dim, k", [(2.0, [1, 0]), (True, [1])], ids=["float", "bool"])
def test_dimension_must_be_an_int(dim, k):
    # each matches its terms' length, so only its type is wrong
    with pytest.raises(DomainError):
        OperatorPoly.from_json({"dim": dim, "terms": [{"k": k, "a": 1}]})
    with pytest.raises(DomainError):
        EvenPolynomial(dim)


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


def _dense_rref(rows):
    """Reference: dense reduced row echelon form over Fractions; returns
    (rref, pivot columns)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _apply_l_matrix(P, mu, monos):
    """Reference: L's matrix on the monomials, column j from apply_L."""
    row_of = {m: i for i, m in enumerate(monos)}
    matrix = [[Fraction(0)] * len(monos) for _ in monos]
    for j, m in enumerate(monos):
        g = apply_L(P, SymbolicHFunction(mu, EvenPolynomial.monomial(m), 0))
        for key, v in g.poly.items():
            matrix[row_of[key]][j] = v
    return matrix


def _reference_kernel_basis(P, mu, max_degree):
    """The kernel solve through apply_L columns and a dense RREF."""
    mu = MuVector(mu)
    monos = mi_graded_enumerate(mu.dim, max_degree)
    rref, pivots = _dense_rref(_apply_l_matrix(P, mu, monos))
    basis = []
    for fcol in (j for j in range(len(monos)) if j not in pivots):
        vec = {monos[fcol]: Fraction(1)}
        for r, p in enumerate(pivots):
            vec[monos[p]] = -rref[r][fcol]
        basis.append(EvenPolynomial(mu.dim, vec))
    return basis


F = Fraction
_SOLVE_CASES = [
    ({(1,): 1}, [F(1, 3)], 8),
    ({(0,): 2, (3,): F(1, 2)}, [F(-1, 2)], 8),
    ({(1, 0): 1, (0, 1): 1}, [F(1, 2), F(1, 2)], 8),
    ({(1, 0): 3, (0, 1): 1, (2, 0): 2, (1, 1): 5, (0, 2): 1}, [F(1, 3), F(-1, 4)], 8),
    ({(0, 0): F(1, 5), (1, 0): 1, (0, 1): 2}, [F(3, 2), F(2)], 6),
    ({(2, 0): 1, (0, 2): F(7, 3)}, [F(0), F(5, 2)], 8),
    ({(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}, [F(1, 8), F(1, 2), F(5, 2)], 6),
    ({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}, [F(1, 2)] * 3, 4),
    (
        {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): F(1, 2), (0, 0, 0, 2): 1},
        [F(0), F(1, 2), F(3, 4), F(-1, 2)],
        6,
    ),
]


@pytest.mark.parametrize(
    "coeffs, mu, degree",
    _SOLVE_CASES,
    ids=["1d", "1d-const", "2d", "2d-mixed", "2d-const", "2d-squares", "3d", "3d-const", "4d"],
)
def test_kernel_basis_matches_dense_reference(coeffs, mu, degree):
    P = OperatorPoly(len(mu), coeffs)
    got = [b.poly for b in kernel_basis(P, MuVector(mu), degree)]
    assert got == _reference_kernel_basis(P, mu, degree)
    assert got or any(sum(k) == 0 for k in coeffs)


def test_lowering_rows_match_apply_l_columns():
    """The closed-form matrix equals the one apply_L builds from powers of
    apply_S, entry by entry, for random operators, orders and monomials."""
    rng = random.Random(29)
    for _ in range(16):
        dim = rng.randint(1, 3)
        mu = MuVector([F(rng.randint(-2, 9), rng.randint(4, 8)) for _ in range(dim)])
        coeffs = dict(_random_poly(rng, dim, 3).items()) or {(1,) * dim: 1}
        P = OperatorPoly(dim, coeffs)
        monos = mi_graded_enumerate(dim, rng.randint(2, 5))
        row_of = {m: i for i, m in enumerate(monos)}
        want = {
            (i, j): v
            for i, row in enumerate(_apply_l_matrix(P, mu, monos))
            for j, v in enumerate(row)
            if v != 0
        }
        got = {
            (row_of[r], j): v
            for r, row in _lowering_rows(P, mu, monos).items()
            for j, v in row.items()
        }
        assert got == want


def test_kernel_basis_reads_float_coefficients_exactly():
    mu = MuVector(["1/2", "3/2"])
    floats = OperatorPoly(2, {(1, 0): 0.1, (0, 1): 1 / 3, (1, 1): 1e-300})
    exact = OperatorPoly(2, {k: Fraction(v) for k, v in floats.items()})
    got = kernel_basis(floats, mu, 4)
    assert got == kernel_basis(exact, mu, 4)
    assert all(isinstance(v, Fraction) for b in got for _, v in b.poly.items())


def _wrong_lowering_rows(P, mu, monos):
    """_lowering_rows with the coefficient 4k(k + mu + 1) in place of
    4k(k + mu)."""
    return _lowering_rows(P, MuVector([m + 1 for m in mu]), monos)


def test_wrong_lowering_rule_fails_apply_l(monkeypatch):
    """Negative control: a kernel solved from a wrong lowering rule is
    caught by apply_L, through kernel_basis and liouville_solve alike."""
    mu = MuVector(["1/2", "3/2"])
    P = OperatorPoly(2, {(1, 0): 1, (0, 1): 2})
    assert all(apply_L(P, b).poly.is_zero for b in kernel_basis(P, mu, 4))
    monkeypatch.setattr(symbolic, "_lowering_rows", _wrong_lowering_rows)
    assert not all(apply_L(P, b).poly.is_zero for b in kernel_basis(P, mu, 4))
    _, cert = liouville_solve(P, mu, 4, skip_weak=True)
    assert not cert.consistent


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
        # 10^-400 is 0.0 as a double, but still a pure power of x_2
        ({(1, 0): 1, (0, 2): Fraction(1, 10**400)}, 2),
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


def test_hypothesis_report_fields():
    report = check_hypothesis(OperatorPoly(2, {(1, 0): 1, (0, 1): 1}))
    assert report.same_sign and report.sign == 1
    assert report.orthant_nonvanishing
    data = report.to_json()
    assert data["passed"] is True
    assert set(data) == {
        "passed", "same_sign", "sign", "orthant_nonvanishing", "failing_axis", "reason",
    }


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


def test_operator_powers_are_capped_before_the_first_step():
    k = (100000000000,)
    f = SymbolicHFunction(["1/2"], EvenPolynomial.constant(1, 1), 0)
    with pytest.raises(LimitExceeded):
        apply_Tk(k, f.u)
    with pytest.raises(LimitExceeded):
        apply_Sk(k, f)
    with pytest.raises(LimitExceeded):
        EvenRational(f.poly).t_power(k)
