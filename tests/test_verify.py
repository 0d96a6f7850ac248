import decimal

import numpy as np
import pytest

from icam import cam, verify
from icam.model import build_fixture_model
import oracles


@pytest.fixture(scope="module")
def all_checks():
    # what `icam verify --model` runs on a seed-7 fixture file, before the
    # file rounds its weights to float32
    return verify.derivative_identity_suite(build_fixture_model(7))


def test_every_check_passes(all_checks):
    failed = [c for c in all_checks if not c.passed]
    assert failed == []


def test_four_derivative_identity_checks(all_checks):
    assert [(c.suite, c.name) for c in all_checks] == [
        ("derivative-identity", f"{smooth} n={order}")
        for smooth in ("exp", "softmax") for order in (2, 3)]


def test_worst_errors_are_finite_and_reported(all_checks):
    for c in all_checks:
        assert np.isfinite(c.worst_error)
        assert c.worst_error >= 0.0
        assert c.tolerance >= 0.0
        assert c.name


class TestNegativeControl:
    """Corrupting the analytic derivative tables must be caught."""

    @staticmethod
    def _broken_table(name, s_c, y):
        y, f1, f2, f3 = cam.smooth_table(name, s_c, y)
        if name == "softmax":
            return (y, f1, -f2, f3)  # wrong sign on the second derivative
        return (y, f1, f2, f3)

    def test_flipped_f2_fails_derivative_identity(self):
        checks = verify.derivative_identity_suite(
            build_fixture_model(7), trials=5, table_fn=self._broken_table)
        by_name = {c.name: c for c in checks}
        assert not by_name["softmax n=2"].passed
        assert by_name["exp n=2"].passed  # untouched smooth still passes

    def test_flipped_f2_fails_polynomial_suite(self):
        checks = oracles.softmax_polynomial_suite(
            trials=10, table_fn=self._broken_table)
        by_name = {c.name: c for c in checks}
        assert not by_name["f^(2) finite differences"].passed
        assert by_name["f^(1) finite differences"].passed


class TestDecimalContext:
    """The 60-digit oracle must not leak its precision to the caller."""

    # run under a distinctive precision, so an earlier suite in this
    # process that leaked prec = 60 cannot make the check pass by accident
    CALLER_PREC = 17

    def test_prec_unchanged_after_the_suite(self):
        with decimal.localcontext() as ctx:
            ctx.prec = self.CALLER_PREC
            oracles.softmax_polynomial_suite(trials=2)
            assert decimal.getcontext().prec == self.CALLER_PREC

    def test_prec_unchanged_after_the_suite_raises(self):
        def failing_table(name, s_c, y):
            assert decimal.getcontext().prec == 60  # raised mid-oracle
            raise RuntimeError("table failed")

        with decimal.localcontext() as ctx:
            ctx.prec = self.CALLER_PREC
            with pytest.raises(RuntimeError, match="table failed"):
                oracles.softmax_polynomial_suite(trials=2,
                                                 table_fn=failing_table)
            assert decimal.getcontext().prec == self.CALLER_PREC


class TestFrozenSoftmaxScalar:
    def test_matches_full_softmax_at_the_base_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=4)
            c = int(rng.integers(0, 4))
            f = verify._frozen_softmax_scalar(logits, c)
            full = np.exp(logits - logits.max())
            assert abs(f(logits[c]) - full[c] / full.sum()) < 1e-14

    def test_monotone_in_own_logit(self):
        f = verify._frozen_softmax_scalar(np.array([0.3, -0.2, 1.1]), 1)
        assert f(-0.2) < f(0.5) < f(2.0)


class TestCentralDiff:
    def test_exact_on_cubic(self):
        # x^3: f' = 3x^2, f'' = 6x, f''' = 6 (the 3rd-order stencil is exact)
        f = lambda x: x ** 3
        assert abs(oracles.central_diff(f, 2.0, 1, 1e-5) - 12.0) < 1e-6
        assert abs(verify._central_diff(f, 2.0, 2, 1e-4) - 12.0) < 1e-5
        assert abs(verify._central_diff(f, 2.0, 3, 1e-2) - 6.0) < 1e-7

    def test_bad_order(self):
        with pytest.raises(ValueError):
            verify._central_diff(lambda x: x, 0.0, 4, 1e-5)


def test_kl_divergence_hand_value():
    x = np.array([0.5, 0.5])
    y = np.array([0.25, 0.75])
    expected = 0.5 * np.log(2.0) + 0.5 * np.log(0.5 / 0.75)
    assert abs(oracles.kl(x, y) - expected) < 1e-15
    assert oracles.kl(x, x) == 0.0
