"""The Gaussian-mixture oracle behind ``theory-verify``."""

import math

import numpy as np
import oracles
import pytest

from oodbench import gmm_theory
from oodbench.config import TheoryConfig
from oodbench.errors import NumericError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_bound_rhs_hand_values():
    # (16 - 1*8 - 1*(6-2)/2) / (2 sqrt(1/1 * (8 + 1) + 16)) = 6 / 10
    assert gmm_theory.bound_rhs(4.0, 1.0, n=1, d=8, alpha=6.0, tau=2.0) == 0.6
    # (1 - 1 - 2/2) / (2 sqrt(2 + 2)) = -1/4
    assert gmm_theory.bound_rhs(1.0, 1.0, n=1, d=2, alpha=2.0, tau=0.0) == -0.25
    # sigma != 1 weighs the sigma^(1/2), sigma^2 and sigma^2/n terms.
    expected = (4.0 - 2.0 * 2.0 ** 1.5 - 16.0 * 0.5 / 2.0) / (2.0 * math.sqrt(2.0 * 3.25 + 4.0))
    assert gmm_theory.bound_rhs(2.0, 4.0, n=8, d=3, alpha=1.0, tau=0.5) == pytest.approx(
        expected, rel=1e-15)


def test_theta_star_and_alignment_ratio_hand_sets():
    theta = gmm_theory.theta_star([[1.0, 0.0], [3.0, 2.0]], [[-1.0, 0.0]])
    np.testing.assert_allclose(theta, [5.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
    # mu^T theta / (sigma ||theta||) = 3 / (2 * 5)
    assert gmm_theory.alignment_ratio([3.0, 4.0], [1.0, 0.0], 2.0) == pytest.approx(0.3)
    assert gmm_theory.alignment_ratio(theta, [1.0, 0.0], 1.0) == pytest.approx(5.0 / math.sqrt(29.0))
    with pytest.raises(NumericError):
        gmm_theory.alignment_ratio([0.0, 0.0], [1.0, 0.0], 1.0)


def test_constrained_outliers_meet_the_level():
    spec = gmm_theory.GmmSpec(mu=np.array([1.0, -2.0, 0.5]), sigma=1.5)
    level = 0.8
    x = gmm_theory.sample_constrained_outliers(spec, 500, level, _rng(3))
    assert x.shape == (500, 3)
    assert np.all(np.abs(2.0 * x @ spec.mu) <= spec.sigma ** 2 * level)


def test_constrained_outliers_match_the_full_vector_oracle():
    # Rejecting on the projection and adding the orthogonal part leaves the
    # distribution of the full-vector rejection sampler: compare the mean vector
    # and every covariance entry, each within 4 two-sample standard errors.
    spec = gmm_theory.GmmSpec(mu=np.array([1.0, -2.0, 0.5]), sigma=1.5)
    n = 20_000
    fast = gmm_theory.sample_constrained_outliers(spec, n, 0.8, _rng(1))
    full = oracles.constrained_outliers_full(spec, n, 0.8, _rng(2))

    def within(a, b):
        se = np.sqrt(a.var(axis=0) / a.shape[0] + b.var(axis=0) / b.shape[0])
        return np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4.0 * se)

    def products(x):
        c = x - x.mean(axis=0)
        return (c[:, :, None] * c[:, None, :]).reshape(x.shape[0], -1)

    assert within(fast, full)
    assert within(products(fast), products(full))


def test_verify_bound_mean_ratio_matches_the_oracle_sampler(monkeypatch):
    t = TheoryConfig()
    spec = gmm_theory.GmmSpec(mu=np.full(t.dim, t.mu_norm / math.sqrt(t.dim)), sigma=t.sigma)
    params = gmm_theory.TheoryParams(n1=t.n1, n2=t.n2, alpha=t.alpha, tau=t.tau,
                                     trials=t.trials)
    fast = gmm_theory.verify_bound(spec, params, _rng(5))
    monkeypatch.setattr(gmm_theory, "sample_constrained_outliers",
                        oracles.constrained_outliers_full)
    full = gmm_theory.verify_bound(spec, params, _rng(5))
    # Over 100 trials each mean has a standard error of about 0.0012.
    mean = [np.mean([trial.ratio for trial in check.trials]) for check in (fast, full)]
    assert abs(mean[0] - mean[1]) <= 0.006


def test_infeasible_level_raises(monkeypatch):
    monkeypatch.setattr(gmm_theory, "MAX_REJECTION_DRAWS", 10_000)
    spec = gmm_theory.GmmSpec(mu=np.array([1.0, 1.0]), sigma=1.0)
    # Level 0 accepts only x^T mu == 0 exactly, which a continuous draw never hits.
    with pytest.raises(NumericError, match="exhausted 10000 draws"):
        gmm_theory.sample_constrained_outliers(spec, 5, 0.0, _rng(0))


def test_verify_bound_is_deterministic_and_counts_violations():
    # One sample a side in 2-D: theta* is noisy enough that some trials fall below rhs.
    spec = gmm_theory.GmmSpec(mu=np.full(2, 1.2 / math.sqrt(2.0)), sigma=1.0)
    params = gmm_theory.TheoryParams(n1=1, n2=1, alpha=0.5, tau=0.0, trials=40)
    a = gmm_theory.verify_bound(spec, params, _rng(11))
    b = gmm_theory.verify_bound(spec, params, _rng(11))
    assert a == b
    assert [t.trial for t in a.trials] == list(range(40))
    below = sum(t.ratio < t.rhs for t in a.trials)
    assert 0 < below < 40
    assert a.violation_fraction == below / 40
    assert all(t.satisfied == (t.ratio >= t.rhs) for t in a.trials)


@pytest.mark.parametrize("n", [1, 40])
def test_min_margin_is_the_smallest_ratio_minus_rhs(n):
    spec = gmm_theory.GmmSpec(mu=np.full(2, 1.2 / math.sqrt(2.0)), sigma=1.0)
    params = gmm_theory.TheoryParams(n1=n, n2=n, alpha=0.5, tau=0.0, trials=40)
    check = gmm_theory.verify_bound(spec, params, _rng(11))
    assert check.min_margin == min(t.ratio - t.rhs for t in check.trials)
    assert (check.min_margin < 0) == (check.violation_fraction > 0)
