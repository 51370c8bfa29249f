"""The built-in check suites themselves."""

import pytest

from hankelc import SUITES, run_all, run_suite, verify
from hankelc.errors import DomainError


def test_suite_names():
    assert SUITES == ("identities", "roundtrip", "taylor", "seminorms", "liouville")


@pytest.mark.parametrize("name", ["identities", "taylor", "seminorms"])
def test_fast_suites_pass(name):
    result = run_suite(name)
    assert result["suite"] == name
    assert result["passed"]
    assert result["checks"]
    for chk in result["checks"]:
        assert chk["passed"], chk
        assert chk["value"] <= chk["tolerance"]
        assert not chk["expected_fail"]


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite("made_up")


def test_negative_controls_exceed_threshold():
    result = run_suite("liouville", negative_controls=True)
    controls = [c for c in result["checks"] if c["expected_fail"]]
    assert len(controls) == 2
    for chk in controls:
        # an expected-fail check passes exactly when the value is large
        assert chk["passed"]
        assert chk["value"] > chk["tolerance"]
    assert result["passed"]


def test_the_half_order_series_route_catches_a_shifted_argument(monkeypatch):
    # bessel_j read at z (1 + 1e-9) is off by about 1e-9 on [2, 12], which
    # the series behind reduced_bessel must see; the closed forms see it too
    shifted = verify.bessel_j
    monkeypatch.setattr(verify, "bessel_j", lambda nu, z: shifted(nu, z * (1.0 + 1e-9)))
    checks = {c["name"]: c for c in verify._chk_half_order()}
    assert checks["bessel_half_order_series"]["value"] > 1e-10
    assert not checks["bessel_half_order_series"]["passed"]


def test_run_all_threaded():
    results = run_all(["taylor", "seminorms"], False, threads=2)
    assert [r["suite"] for r in results] == ["taylor", "seminorms"]
    assert all(r["passed"] for r in results)
