"""Sleeping-expert and Hedge rule tests with hand-computed oracles."""

import math

import numpy as np
import pytest

from congames.experts import (
    HedgeState,
    SleepingExpertState,
    ada_predict,
    ada_update,
    hedge_predict,
    hedge_update,
)


class TestAdaWeight:
    """The potential weight w(R, C), seen through ada_predict's ratios."""

    def test_hand_values(self):
        # w(0, 0) = 0.5*(e^(1/3) - 1), w(2, 0) = 0.5*(e^3 - e^(1/3))
        w0 = 0.5 * (math.exp(1.0 / 3.0) - 1.0)
        w2 = 0.5 * (math.exp(3.0) - math.exp(1.0 / 3.0))
        assert w0 == pytest.approx(0.19780, abs=1e-5)
        assert w2 == pytest.approx(9.34496, abs=5e-6)
        p = ada_predict(SleepingExpertState(np.array([0.0, 2.0]), np.zeros(2)))
        assert p[1] / p[0] == pytest.approx(w2 / w0, rel=1e-12)
        assert p[1] / p[0] == pytest.approx(9.34496 / 0.19780, rel=1e-4)
        # w(-2, 1) = 0: regret below -1 earns no mass
        p = ada_predict(
            SleepingExpertState(np.array([-2.0, 0.0]), np.array([1.0, 0.0]))
        )
        assert p[0] == 0.0

    def test_nonnegative_and_monotone_in_regret(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            C = float(rng.uniform(0, 10))
            state = SleepingExpertState(
                regrets=np.sort(rng.uniform(-5, 5, size=2)),
                magnitudes=np.full(2, C),
            )
            p = ada_predict(state)
            assert p[0] >= 0.0
            assert p[0] <= p[1] + 1e-12

    def test_overflow_guard_finite(self):
        # exponents far beyond float range must still yield a finite ratio
        state = SleepingExpertState(
            regrets=np.array([1e4, 1e4 - 1.0]),
            magnitudes=np.array([1e4, 1e4]),
        )
        p = ada_predict(state)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[0] > p[1]
        p = ada_predict(SleepingExpertState(np.array([1e4, 0.0]), np.zeros(2)))
        np.testing.assert_array_equal(p, [1.0, 0.0])


class TestAdaPredict:
    def test_fresh_is_uniform(self):
        p = ada_predict(SleepingExpertState.fresh(5))
        np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-12)

    def test_hand_two_expert_case(self):
        state = SleepingExpertState(
            regrets=np.array([2.0, -2.0]), magnitudes=np.array([0.0, 1.0])
        )
        np.testing.assert_allclose(ada_predict(state), [1.0, 0.0], atol=1e-12)

    def test_valid_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            state = SleepingExpertState(
                regrets=rng.uniform(-3, 3, size=4),
                magnitudes=rng.uniform(0, 5, size=4),
            )
            p = ada_predict(state)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestAdaUpdate:
    def test_all_asleep_unchanged(self):
        state = SleepingExpertState.fresh(3)
        awake = np.zeros(3, dtype=bool)
        new = ada_update(state, awake, np.array([1.0, 0.5, 0.0]), np.zeros(3))
        np.testing.assert_array_equal(new.regrets, state.regrets)
        np.testing.assert_array_equal(new.magnitudes, state.magnitudes)

    def test_hand_update(self):
        state = SleepingExpertState.fresh(2)
        new = ada_update(
            state,
            np.array([True, True]),
            np.array([1.0, 0.0]),
            np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(new.regrets, [0.5, -0.5], atol=1e-12)
        np.testing.assert_allclose(new.magnitudes, [0.5, 0.5], atol=1e-12)

    def test_asleep_entries_untouched(self):
        state = SleepingExpertState.fresh(3)
        awake = np.array([True, False, True])
        new = ada_update(
            state, awake, np.array([1.0, 0.7, 0.0]), np.array([0.5, 0.0, 0.5])
        )
        assert new.regrets[1] == 0.0
        assert new.magnitudes[1] == 0.0

    def test_mass_on_asleep_rejected(self):
        state = SleepingExpertState.fresh(2)
        with pytest.raises(ValueError):
            ada_update(
                state,
                np.array([True, False]),
                np.array([1.0, 0.0]),
                np.array([0.5, 0.5]),
            )

    def test_magnitude_dominates_regret(self):
        rng = np.random.default_rng(2)
        state = SleepingExpertState.fresh(4)
        for _ in range(30):
            awake = rng.random(4) < 0.7
            if not awake.any():
                continue
            p = np.where(awake, rng.random(4), 0.0)
            p = p / p.sum() if p.sum() > 0 else awake / awake.sum()
            state = ada_update(state, awake, rng.random(4), p)
            assert np.all(np.abs(state.regrets) <= state.magnitudes + 1e-12)


class TestHedge:
    def test_fresh_uniform(self):
        np.testing.assert_allclose(
            hedge_predict(HedgeState.fresh(4)), np.full(4, 0.25), atol=1e-12
        )

    def test_single_update_hand_value(self):
        state = hedge_update(HedgeState.fresh(2), np.array([1.0, 0.0]))
        eta = 2.0 * math.sqrt(math.log(2.0))
        expected = np.exp([eta, 0.0])
        expected /= expected.sum()
        np.testing.assert_allclose(hedge_predict(state), expected, atol=1e-12)
        np.testing.assert_allclose(hedge_predict(state), [0.8400, 0.1600], atol=1e-3)

    def test_equal_rewards_no_change(self):
        state = HedgeState.fresh(3)
        state = hedge_update(state, np.full(3, 0.7))
        np.testing.assert_allclose(
            hedge_predict(state), np.full(3, 1.0 / 3.0), atol=1e-12
        )

    def test_step_size_decays(self):
        # the same reward vector moves the prediction less at later rounds
        r = np.array([1.0, 0.0])
        first = hedge_predict(hedge_update(HedgeState.fresh(2), r))
        later_state = HedgeState(log_weights=np.zeros(2), rounds_seen=99)
        later = hedge_predict(hedge_update(later_state, r))
        assert first[0] > later[0]

    def test_rounds_seen_increments(self):
        state = HedgeState.fresh(2)
        for t in range(1, 4):
            state = hedge_update(state, np.array([0.3, 0.6]))
            assert state.rounds_seen == t
