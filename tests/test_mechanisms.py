"""Unit tests for the DP primitives in repro.algorithms.mechanisms."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mechanisms import (
    BudgetExceededError,
    PrivacyBudget,
    as_rng,
    exponential_mechanism,
    laplace_noise,
)
from reference.exponential_mechanism import exponential_mechanism_reference


class TestAsRng:
    def test_passthrough_generator(self):
        rng = np.random.default_rng(1)
        assert as_rng(rng) is rng

    def test_seed_is_deterministic(self):
        assert as_rng(7).normal() == as_rng(7).normal()

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_rng("not a seed")


class TestLaplaceNoise:
    def test_zero_scale_is_exact(self):
        noise = laplace_noise(0.0, (10,), as_rng(0))
        assert np.all(noise == 0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0, (3,), as_rng(0))

    def test_infinite_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(float("inf"), (3,), as_rng(0))

    def test_mean_and_variance(self):
        noise = laplace_noise(2.0, 200_000, as_rng(0))
        assert abs(noise.mean()) < 0.05
        # Var of Laplace(b) is 2 b^2 = 8.
        assert abs(noise.var() - 8.0) < 0.3

    def test_shape(self):
        assert laplace_noise(1.0, (4, 5), as_rng(0)).shape == (4, 5)


class TestExponentialMechanism:
    def test_infinite_epsilon_returns_argmax(self):
        scores = np.array([1.0, 5.0, 3.0])
        assert exponential_mechanism(scores, float("inf"), rng=0) == 1

    def test_prefers_high_scores(self):
        scores = np.array([0.0, 0.0, 50.0, 0.0])
        picks = [exponential_mechanism(scores, 2.0, rng=np.random.default_rng(i))
                 for i in range(200)]
        assert np.mean(np.array(picks) == 2) > 0.9

    def test_low_epsilon_is_close_to_uniform(self):
        scores = np.array([0.0, 1.0])
        picks = [exponential_mechanism(scores, 1e-6, rng=np.random.default_rng(i))
                 for i in range(2000)]
        frequency = np.mean(np.array(picks) == 1)
        assert 0.4 < frequency < 0.6

    def test_rejects_empty_scores(self):
        with pytest.raises(ValueError):
            exponential_mechanism(np.array([]), 1.0)

    def test_rejects_bad_epsilon_and_sensitivity(self):
        with pytest.raises(ValueError):
            exponential_mechanism(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            exponential_mechanism(np.array([1.0]), 1.0, sensitivity=0.0)

    def test_numerically_stable_with_huge_scores(self):
        scores = np.array([1e9, 1e9 + 1])
        index = exponential_mechanism(scores, 1.0, rng=0)
        assert index in (0, 1)


def _seeded(seed: int) -> np.random.Generator:
    # The stream-contract tests race two draws from one pinned seed and
    # compare the generator states they leave behind.
    return np.random.default_rng(seed)  # privlint: disable=PL001


@st.composite
def _scores(draw):
    """Score vectors of 1 to ~3000 entries spanning 1e-300 to 1e300, with
    ties (values from a small pool) and ``-inf`` entries mixed in."""
    n = draw(st.integers(1, 3000))
    rng = _seeded(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scores = rng.choice(rng.random(draw(st.integers(1, 4))), size=n)
    else:
        scores = rng.random(n)
    scores *= 10.0 ** draw(st.integers(-300, 300))
    if draw(st.booleans()):
        scores[rng.random(n) < draw(st.floats(0.0, 1.0))] = -np.inf
    return scores


def _draw(mechanism, scores, epsilon, sensitivity, seed):
    """The mechanism's pick (or its ValueError) and the generator state after."""
    rng = _seeded(seed)
    try:
        outcome = mechanism(scores, epsilon, sensitivity=sensitivity, rng=rng)
    except ValueError:
        outcome = ValueError
    return outcome, rng.bit_generator.state


class TestExponentialMechanismStream:
    """The one-uniform draw is ``Generator.choice(n, p=...)`` bit for bit:
    same index, same generator state afterwards, same ValueError cases."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scores=_scores(), log_epsilon=st.floats(-6.0, 6.0),
           sensitivity=st.sampled_from([1.0, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_generator_choice(self, scores, log_epsilon, sensitivity, seed):
        epsilon = 10.0 ** log_epsilon
        with np.errstate(invalid="ignore", over="ignore"):
            got = _draw(exponential_mechanism, scores, epsilon, sensitivity, seed)
            want = _draw(exponential_mechanism_reference, scores, epsilon,
                         sensitivity, seed)
        assert got == want

    @pytest.mark.parametrize("scores", [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0],
                                        [-np.inf, -np.inf]],
                             ids=["nan", "+inf", "all -inf"])
    def test_nan_probabilities_raise_before_drawing(self, scores):
        rng = _seeded(0)
        before = rng.bit_generator.state
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            exponential_mechanism(np.array(scores), 1.0, rng=rng)
        assert rng.bit_generator.state == before


class TestPrivacyBudget:
    def test_accounting(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.25, "stage1")
        assert budget.spent == pytest.approx(0.25)
        assert budget.remaining == pytest.approx(0.75)
        budget.spend_all("stage2")
        assert budget.remaining == pytest.approx(0.0)

    def test_overspend_raises(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.8)
        with pytest.raises(BudgetExceededError):
            budget.spend(0.3)

    def test_spend_all_twice_raises(self):
        budget = PrivacyBudget(1.0)
        budget.spend_all()
        with pytest.raises(BudgetExceededError):
            budget.spend_all()

    def test_fractional_spending_sums_to_total(self):
        budget = PrivacyBudget(2.0)
        budget.spend_fraction(0.25)
        budget.spend_fraction(0.75)
        assert budget.remaining == pytest.approx(0.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        budget = PrivacyBudget(1.0)
        with pytest.raises(ValueError):
            budget.spend(-0.1)
        with pytest.raises(ValueError):
            budget.spend_fraction(1.5)

    def test_log_records_labels(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.4, "partition")
        budget.spend(0.6, "counts")
        assert budget.log == [("partition", 0.4), ("counts", 0.6)]

    def test_float_drift_tolerated(self):
        budget = PrivacyBudget(1.0)
        for _ in range(10):
            budget.spend(0.1)
        assert budget.remaining == pytest.approx(0.0, abs=1e-9)
