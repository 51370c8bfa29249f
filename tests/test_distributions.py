"""Delta pairings, Taylor germs, functional reconstruction, multipliers."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hankelc import (
    CutoffSpec,
    DeltaCombination,
    DomainError,
    EvenPolynomial,
    EvenRational,
    ExtrapolationDiverged,
    HypothesisFailed,
    LimitExceeded,
    MultiIndex,
    MultiplierForm,
    MuVector,
    OuterWindow,
    SupportViolation,
    SymbolicHFunction,
    WindowedHFunction,
    c_k_mu,
    c_mu,
    default_rule_for,
    multiplier_check,
    orthant_pair,
    pair_delta,
    pair_delta_transform,
    pair_s_delta,
    reconstruct_point_supported,
    richardson_limit,
    sample_on_nodes,
    taylor_coeffs,
)
from hankelc import cli
from hankelc import distributions as distributions_module
from hankelc.bessel import reduced_bessel
from hankelc.multiindex import mi_below, mi_graded_enumerate

HALF = Fraction(1, 2)
SQRT_PI_2 = math.sqrt(math.pi / 2)


def _gauss(mu, poly=None, decay=HALF):
    mu = MuVector(mu)
    poly = poly if poly is not None else EvenPolynomial.constant(mu.dim, 1)
    return SymbolicHFunction(mu, poly, decay)


def _series_coeff(poly, decay, k):
    """Taylor coefficient of v^k for Q(v) e^{-decay (v_1+..+v_n)}, exactly."""
    k = MultiIndex(k)
    total = Fraction(0)
    for j in mi_below(k):
        q = poly.coefficient(j)
        if q == 0:
            continue
        piece = Fraction(q)
        for a in range(len(k)):
            r = k[a] - j[a]
            piece *= (-Fraction(decay)) ** r / math.factorial(r)
        total += piece
    return total


# ---------------------------------------------------------------------------
# extrapolation


def test_richardson_geometric_sequence():
    # v_j = 3 + 4^-j + 0.2 * 16^-j
    vals = [3 + 4.0**-j + 0.2 * 16.0**-j for j in range(7)]
    est, err = richardson_limit(vals)
    assert est == pytest.approx(3.0, abs=1e-12)
    assert err < 1e-10


def test_richardson_divergence():
    with pytest.raises(ExtrapolationDiverged):
        richardson_limit([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    with pytest.raises(ExtrapolationDiverged):
        richardson_limit([1.0, 1.1, math.nan, 1.0, 1.0])
    with pytest.raises(DomainError):
        richardson_limit([1.0, 1.0])  # too short for the default levels


def test_richardson_noise_floor():
    # growing differences within the floor are rounding noise, not divergence
    noise = [1e-22, -3e-22, 5e-22, -9e-22, 2e-21, -5e-21]
    with pytest.raises(ExtrapolationDiverged):
        richardson_limit(noise)
    est, _ = richardson_limit(noise, floor=1e-20)
    assert abs(est) < 1e-19
    # a ladder that grows above the floor still diverges
    with pytest.raises(ExtrapolationDiverged):
        richardson_limit([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], floor=1.0)


# ---------------------------------------------------------------------------
# delta pairings


def test_pair_delta_plain():
    # (delta, x e^{-x^2/2}) = C_mu * 1 = sqrt(pi/2) at mu = 1/2
    phi = _gauss(["1/2"])
    assert pair_delta((0,), ["1/2"], phi) == pytest.approx(SQRT_PI_2, rel=1e-12)
    # T u = -u at the origin
    assert pair_delta((1,), ["1/2"], phi) == pytest.approx(-SQRT_PI_2, rel=1e-12)


def test_pair_delta_methods_agree():
    phi = _gauss(["1/2", "3/4"], EvenPolynomial(2, {(0, 0): 1, (1, 1): -HALF}))
    for k in mi_graded_enumerate(2, 2):
        exact = pair_delta(k, phi.mu, phi, method="exact")
        extr = pair_delta(k, phi.mu, phi, method="extrapolate")
        assert extr == pytest.approx(exact, abs=1e-8 * max(1, abs(exact)))


def test_pair_delta_windowed():
    phi = _gauss(["1/2"])
    plateau = WindowedHFunction(phi, CutoffSpec(1.0, 2.0))
    far = WindowedHFunction(phi, OuterWindow(1.0, 2.0))
    want = pair_delta((1,), ["1/2"], phi)
    assert pair_delta((1,), ["1/2"], plateau) == want
    assert pair_delta((1,), ["1/2"], far) == 0.0


def test_pair_delta_validation():
    phi = _gauss(["1/2"])
    with pytest.raises(DomainError):
        pair_delta((0, 0), ["1/2", "1/2"], phi)  # wrong orders for phi
    with pytest.raises(DomainError):
        pair_delta((0, 0), ["1/2"], phi)  # index dimension
    with pytest.raises(DomainError):
        pair_delta((0,), ["1/2"], phi, method="mystery")


def test_pair_s_delta_scaling():
    # only the l = 0 term of the normal-ordered expansion survives at 0:
    # (S^k delta, phi) = prod_i 2^{k_i} (mu_i+1)..(mu_i+k_i) (T^k delta, phi)
    mu = MuVector(["1/2", "0"])
    phi = _gauss(mu, EvenPolynomial(2, {(0, 0): 1, (1, 0): HALF}))
    for k in [(1, 0), (1, 1), (2, 1)]:
        ratio = Fraction(1)
        for a in range(2):
            for j in range(1, k[a] + 1):
                ratio *= 2 * (mu[a] + j)
        got = pair_s_delta(k, mu, phi)
        want = float(ratio) * pair_delta(k, mu, phi)
        assert got == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# Taylor germs


def test_taylor_exact_matches_series_oracle():
    poly = EvenPolynomial(1, {(0,): 1, (1,): -HALF})
    phi = _gauss(["1/2"], poly)
    report = taylor_coeffs(phi.mu, phi, 4, method="exact")
    assert report.method == "exact"
    for k, got in report.coefficients.items():
        assert got == _series_coeff(poly, HALF, k)


def test_taylor_exact_matches_series_oracle_2d():
    poly = EvenPolynomial(2, {(0, 0): 2, (1, 1): Fraction(1, 3)})
    phi = _gauss(["1/2", "3/2"], poly)
    report = taylor_coeffs(phi.mu, phi, 3, method="exact")
    for k, got in report.coefficients.items():
        assert got == _series_coeff(poly, HALF, k)


def test_taylor_extrapolated_close_to_exact():
    poly = EvenPolynomial(1, {(0,): 1, (1,): 1})
    phi = _gauss(["1/2"], poly)
    exact = taylor_coeffs(phi.mu, phi, 3, method="exact").coefficients
    extr = taylor_coeffs(phi.mu, phi, 3, method="extrapolate").coefficients
    for k in exact:
        assert float(extr[k]) == pytest.approx(float(exact[k]), abs=1e-8)


def test_taylor_remainder_decays():
    phi = _gauss(["1/2"])
    report = taylor_coeffs(phi.mu, phi, 3)
    assert report.remainder_nonincreasing()
    assert abs(report.remainder_samples[-1][1]) < 1e-6
    assert report.tk_final_max() < 1e-6
    data = report.to_json()
    assert data["order"] == 3 and len(data["coefficients"]) == 4


def test_taylor_validation():
    phi = _gauss(["1/2"])
    with pytest.raises(DomainError):
        taylor_coeffs(["1/2"], phi, -1)
    with pytest.raises(DomainError):
        taylor_coeffs(["3/2"], phi, 2)


# ---------------------------------------------------------------------------
# transforms of deltas


def test_hankel_delta_structure():
    mu = MuVector(["1/2"])
    g = DeltaCombination(mu, {(1,): 1}).transform()
    assert g.decay == 0
    assert g.poly.coefficient((1,)) == c_k_mu(mu, (1,))
    assert g.poly.coefficient((1,)) == Fraction(-1, 3)


def test_delta_transform_refuses_an_index_above_the_power_cap():
    # c_k_mu loops k_i times per axis, so the cap comes before the loop;
    # |k| = 101 returns quickly without it, 10^11 would run unbounded
    mu = MuVector(["1/2"])
    assert c_k_mu(mu, (100,)) != 0
    for k in [(101,), (10**11,)]:
        with pytest.raises(LimitExceeded):
            c_k_mu(mu, k)
        with pytest.raises(LimitExceeded):
            DeltaCombination(mu, {k: 1}).transform()


def test_pair_delta_transform_closed_value():
    # (T delta, h phi) = -sqrt(pi/2) for phi = x e^{-x^2/2} at mu = 1/2
    phi = _gauss(["1/2"])
    out = pair_delta_transform((1,), ["1/2"], phi)
    assert out["lhs"] == pytest.approx(-SQRT_PI_2, abs=1e-6)
    assert out["rhs"] == pytest.approx(-SQRT_PI_2, abs=1e-9)
    assert abs(out["lhs"] - out["rhs"]) <= 1e-5 * abs(out["rhs"])
    assert out["ladder_error"] < 1e-6


def test_pair_delta_transform_refuses_a_windowed_function():
    windowed = WindowedHFunction(_gauss(["1/2"]), CutoffSpec(1.0, 2.0))
    with pytest.raises(DomainError):
        pair_delta_transform((1,), ["1/2"], windowed)


def test_pair_delta_transform_2d():
    mu = MuVector(["1/2", "0"])
    phi = _gauss(mu, EvenPolynomial(2, {(0, 0): 1, (1, 0): -HALF}))
    for k in [(0, 0), (1, 1)]:
        out = pair_delta_transform(k, mu, phi)
        assert abs(out["lhs"] - out["rhs"]) <= 1e-5 * max(abs(out["rhs"]), 1e-12)


@pytest.mark.parametrize(
    "k, mu, decay, terms",
    [
        ((1, 1), ["0", "-1/2"], Fraction(1, 3), {(0, 0): Fraction(3, 2), (0, 1): 1, (1, 0): -1}),
        ((1, 2), ["5/2", "3/2"], Fraction(2), {(0, 1): -2, (1, 0): 2}),
    ],
    ids=["k11", "k12"],
)
def test_pair_delta_transform_zero_identity(k, mu, decay, terms):
    """When the identity's value is 0 the ladder is pure rounding noise,
    which must not read as divergence."""
    phi = SymbolicHFunction(MuVector(mu), EvenPolynomial(2, terms), decay)
    out = pair_delta_transform(k, mu, phi)
    assert abs(out["lhs"]) < 1e-12 and abs(out["rhs"]) < 1e-12


def _reference_pair_delta_transform(k, mu, phi):
    """The node-grid route: phi sampled on the full N^n node grid, the
    ladder summed over the grid, rhs paired with the delta's transform."""
    mu = MuVector(mu)
    k = MultiIndex(k)
    rule = default_rule_for(float(phi.decay))
    n = mu.dim
    rhs = orthant_pair(DeltaCombination(mu, {k: 1}).transform(), phi, rule)
    vals = sample_on_nodes(phi, [rule.nodes] * n)
    for a in range(n):
        power = float(mu[a]) + 2 * k[a] + 0.5
        shape = [1] * n
        shape[a] = rule.size
        vals = vals * (rule.nodes**power * rule.weights).reshape(shape)
    sign = -1.0 if k.order % 2 else 1.0
    floor = 64.0 * np.finfo(float).eps * float(np.sum(np.abs(vals)))
    floor /= c_mu(mu.shifted(k))
    ladder_vals = []
    for j in distributions_module._TRANSFORM_LADDER:
        h = 2.0**-j
        acc = vals
        for a in range(n):
            r = reduced_bessel(float(mu[a]) + k[a], h * rule.nodes)
            acc = np.tensordot(acc, r, axes=(0, 0))
        ladder_vals.append(sign * float(acc))
    est, err = richardson_limit(ladder_vals, floor=floor)
    return {"lhs": c_mu(mu) * est, "rhs": rhs, "ladder_error": c_mu(mu) * err}


def _pairing_scale(k, mu, terms, decay):
    """sum_j |q_j| |c^mu_k| prod_a G(mu_a+k_a+j_a+1) / (2 c^(mu_a+k_a+j_a+1)),
    the size of <c^mu_k t^(mu+2k+1/2), phi> with every term taken positive."""
    c = float(decay)
    ck = abs(float(c_k_mu(MuVector(mu), k)))
    total = 0.0
    for j, q in terms.items():
        term = abs(float(q)) * ck
        for m, ka, ja in zip(mu, k, j):
            a = float(Fraction(m)) + ka + ja + 1
            term *= math.gamma(a) / (2.0 * c**a)
        total += term
    return total


def _matches_reference(out, ref, scale):
    return all(abs(out[side] - ref[side]) <= 1e-13 * scale for side in ("lhs", "rhs"))


_REFERENCE_CASES = [
    ((0,), ["-1/2"], Fraction(1, 3), {(0,): 1, (1,): Fraction(-2, 3)}),
    ((1,), ["1/4"], HALF, {(1,): 3}),
    ((2,), ["15/2"], Fraction(2), {(0,): 1, (2,): Fraction(1, 4)}),
    ((2,), ["0"], Fraction(1), {(0,): -1, (1,): 2, (2,): Fraction(1, 5)}),
    ((0, 0), ["1/2", "0"], HALF, {(0, 0): 1, (1, 0): -HALF}),
    ((2, 2), ["0", "1/4"], Fraction(1), {(0, 0): 1, (1, 1): -HALF, (2, 0): Fraction(1, 3)}),
    ((1, 2), ["-1/2", "15/2"], Fraction(1, 3), {(0, 1): 2, (1, 0): -1}),
    ((0, 1), ["1/4", "-1/2"], Fraction(2), {(0, 0): 1, (2, 1): Fraction(3, 4)}),
    # the two zero-identity cases: the ladder is rounding noise around 0
    ((1, 1), ["0", "-1/2"], Fraction(1, 3), {(0, 0): Fraction(3, 2), (0, 1): 1, (1, 0): -1}),
    ((1, 2), ["5/2", "3/2"], Fraction(2), {(0, 1): -2, (1, 0): 2}),
]


@pytest.mark.parametrize("k, mu, decay, terms", _REFERENCE_CASES)
def test_pair_delta_transform_matches_the_node_grid_route(k, mu, decay, terms):
    phi = SymbolicHFunction(MuVector(mu), EvenPolynomial(len(mu), terms), decay)
    out = pair_delta_transform(k, mu, phi)
    ref = _reference_pair_delta_transform(k, mu, phi)
    assert _matches_reference(out, ref, _pairing_scale(k, mu, terms, decay))


def test_swapped_axis_factors_fail_the_reference_comparison(monkeypatch):
    # pairing axis 0's moments with axis 1's factors must not pass unseen
    k, mu, decay, terms = (1, 0), ["0", "3/2"], HALF, {(0, 0): 1, (1, 1): -HALF}
    phi = SymbolicHFunction(MuVector(mu), EvenPolynomial(2, terms), decay)
    ref = _reference_pair_delta_transform(k, mu, phi)
    scale = _pairing_scale(k, mu, terms, decay)
    assert _matches_reference(pair_delta_transform(k, mu, phi), ref, scale)
    family_factors = distributions_module._family_factors

    def swapped(f, axes):
        coeffs, factors = family_factors(f, axes)
        return coeffs, factors[::-1]

    monkeypatch.setattr(distributions_module, "_family_factors", swapped)
    assert not _matches_reference(pair_delta_transform(k, mu, phi), ref, scale)


def test_pair_delta_transform_3d_stays_off_the_node_grid():
    # the node-grid route held the 384^3 grid several times over (~1.3 GB)
    k, mu, decay, terms = (1, 0, 1), ["1/2", "0", "3/2"], HALF, {(0, 0, 0): 1, (1, 0, 1): Fraction(-2, 3)}
    phi = SymbolicHFunction(MuVector(mu), EvenPolynomial(3, terms), decay)
    tracemalloc.start()
    try:
        out = pair_delta_transform(k, mu, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert abs(out["lhs"] - out["rhs"]) <= 1e-13 * _pairing_scale(k, mu, terms, decay)


# ---------------------------------------------------------------------------
# combinations and reconstruction


def test_delta_combination_drops_zero_terms():
    comb = DeltaCombination(["1/2"], {(0,): 1.0, (1,): 0.0})
    assert list(comb.terms) == [MultiIndex((0,))]


@pytest.mark.parametrize("c", [math.nan, True], ids=["nan", "bool"])
def test_delta_combination_rejects_bad_coefficients(c):
    with pytest.raises(DomainError):
        DeltaCombination(["1/2"], {(0,): c})


def test_delta_combination_reads_rational_strings():
    comb = DeltaCombination(["1/2"], {(0,): "1/2"})
    assert comb.terms == {MultiIndex((0,)): Fraction(1, 2)}
    assert type(comb.terms) is dict


@pytest.mark.parametrize(
    "terms", [[{"k": [0]}], [{"c": 1}], [3], {"k": [0], "c": 1}],
    ids=["c-missing", "k-missing", "int-term", "not-a-list"],
)
def test_delta_combination_json_schema_is_a_domain_error(terms):
    # a JSON term list with coefficient key "c" is read by the spec term reader
    with pytest.raises(DomainError):
        DeltaCombination(["1/2"], cli._require_terms(terms, "terms", "c"))


def test_delta_combination_pair_linear():
    phi = _gauss(["1/2"])
    comb = DeltaCombination(["1/2"], {(0,): 2.0, (1,): 3.0})
    want = 2.0 * pair_delta((0,), ["1/2"], phi) + 3.0 * pair_delta((1,), ["1/2"], phi)
    assert comb.pair(phi) == pytest.approx(want, rel=1e-12)


def test_delta_combination_transform():
    mu = MuVector(["1/2"])
    comb = DeltaCombination(mu, {(0,): 1.0, (1,): -2.0})
    g = comb.transform()
    assert g.poly.coefficient((0,)) == c_k_mu(mu, (0,))
    assert g.poly.coefficient((1,)) == -2.0 * c_k_mu(mu, (1,))


def test_reconstruct_recovers_coefficients():
    mu = MuVector(["1/2", "0"])
    truth = DeltaCombination(mu, {(0, 0): 1.5, (1, 0): -0.5, (0, 2): Fraction(1, 3)})
    got = reconstruct_point_supported(truth.pair, mu, 2, CutoffSpec(1.0, 2.0))
    assert set(got.terms) == set(truth.terms)
    for k, c in truth.terms.items():
        assert got.terms[k] == pytest.approx(float(c), abs=1e-12)


def test_reconstruct_rejects_spread_out_functional():
    mu = MuVector(["1/2"])

    def point_mass_away_from_zero(phi):
        return float(phi.evaluate([np.array(3.0)]))

    with pytest.raises(SupportViolation):
        reconstruct_point_supported(
            point_mass_away_from_zero, mu, 1, CutoffSpec(1.0, 2.0)
        )


# ---------------------------------------------------------------------------
# multipliers


def test_multiplier_polynomial():
    form = MultiplierForm.polynomial(EvenPolynomial.monomial((1,)))  # x^2
    report = multiplier_check(form, 2)
    assert report.bounded
    assert report.entries[MultiIndex((0,))]["exponent"] == -1
    assert report.entries[MultiIndex((1,))]["exponent"] == 0
    assert report.entries[MultiIndex((1,))]["bound"] == pytest.approx(2.0, rel=1e-6)
    assert report.entries[MultiIndex((2,))]["bound"] == 0.0


def test_multiplier_quotient_bounds():
    # 1/(1+v): T -> -2/(1+v)^2, T^2 -> 8/(1+v)^3; suprema 1, 2, 8 at v -> 0
    one = EvenPolynomial.constant(1, 1)
    denom = EvenPolynomial(1, {(0,): 1, (1,): 1})
    report = multiplier_check(MultiplierForm.quotient(one, denom), 2)
    assert report.bounded
    for k, want in [((0,), 1.0), ((1,), 2.0), ((2,), 8.0)]:
        entry = report.entries[MultiIndex(k)]
        assert entry["exponent"] == 0
        assert entry["bound"] == pytest.approx(want, rel=1e-4)
    data = report.to_json()
    assert data["bounded"] is True and len(data["entries"]) == 3


def test_multiplier_gate_rejects_vanishing_denominator():
    one = EvenPolynomial.constant(1, 1)
    s = EvenPolynomial.monomial((1,))
    with pytest.raises(HypothesisFailed):
        multiplier_check(MultiplierForm.quotient(one, s), 1)


def test_multiplier_gate_rejects_sign_change():
    one = EvenPolynomial.constant(1, 1)
    denom = EvenPolynomial(1, {(0,): 1, (1,): -1})  # 1 - x^2 vanishes at x = 1
    with pytest.raises(HypothesisFailed):
        multiplier_check(MultiplierForm.quotient(one, denom), 0)


_GATE_CASES = [
    # (denominator terms in 2-D, window, refused)
    ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, None, False),
    ({(0, 0): -1, (1, 0): -2}, None, False),  # all-negative is one sign
    ({(0, 0): 1, (1, 0): 1, (0, 1): -1}, None, True),  # sign change
    ({(0, 0): 1, (1, 0): 1, (0, 1): -1}, "outer", True),
    ({(1, 0): 1, (0, 1): 1}, None, True),  # zero constant term, no window
    ({(1, 0): 1, (0, 1): 1}, "cutoff", True),  # a cutoff keeps the origin
    ({(1, 0): 1, (0, 1): 1}, "outer", False),
    ({(2, 0): 1, (0, 3): 4}, "outer", False),
    ({(1, 0): 1, (1, 1): 1}, "outer", True),  # no pure power of x_2
    ({(1, 1): 1}, "outer", True),
]


@pytest.mark.parametrize("terms, window, refused", _GATE_CASES)
def test_multiplier_denominator_gate(terms, window, refused):
    windows = {None: None, "outer": OuterWindow(1.0, 2.0), "cutoff": CutoffSpec(1.0, 3.0)}
    one = EvenPolynomial.constant(2, 1)
    form = MultiplierForm(EvenRational(one, EvenPolynomial(2, terms)), windows[window])
    if refused:
        with pytest.raises(HypothesisFailed):
            distributions_module._denominator_gate(form)
    else:
        distributions_module._denominator_gate(form)


@pytest.mark.parametrize("power", [1.5, 0.5])
def test_multiplier_gate_refuses_a_fractional_power_of_a_negative_denominator(power):
    # -1 - s passes the hypothesis with sign -1, and (-1 - s)^power is not real
    one = EvenPolynomial.constant(1, 1)
    denom = EvenPolynomial(1, {(0,): -1, (1,): -1})
    with pytest.raises(DomainError, match="negative denominator"):
        multiplier_check(MultiplierForm(EvenRational(one, denom, power)), 1)
    assert multiplier_check(MultiplierForm(EvenRational(one, denom, 1)), 1).bounded


def test_multiplier_gate_reads_a_tiny_coefficient_exactly():
    # x_1^2 + 10^-400 x_2^2 is 0.0 at x = (0, 1) in doubles, but not exactly
    denom = EvenPolynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 10**400)})
    form = MultiplierForm(EvenRational(EvenPolynomial.constant(2, 1), denom), OuterWindow(1.0, 2.0))
    distributions_module._denominator_gate(form)


def test_multiplier_windowed_inverse_power():
    # 1/x^2 is fine once a far-field window removes the origin
    one = EvenPolynomial.constant(1, 1)
    s = EvenPolynomial.monomial((1,))
    form = MultiplierForm(EvenRational(one, s), OuterWindow(1.0, 2.0))
    report = multiplier_check(form, 2)
    assert report.bounded
    assert all(e["exponent"] == 0 for e in report.entries.values())


def test_multiplier_window_only():
    form = MultiplierForm(EvenRational(EvenPolynomial.constant(1, 1)), CutoffSpec(1.0, 3.0))
    report = multiplier_check(form, 2)
    assert report.bounded
    assert report.entries[MultiIndex((0,))]["bound"] == pytest.approx(1.0, rel=1e-9)


def test_multiplier_order_cap_for_windows():
    form = MultiplierForm(EvenRational(EvenPolynomial.constant(1, 1)), CutoffSpec(1.0, 3.0))
    with pytest.raises(DomainError):
        multiplier_check(form, 5)
