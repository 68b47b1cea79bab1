"""Executable oracle for the Gaussian-mixture sample-complexity story.

ID data is N(mu, sigma^2 I), surrogate outliers are N(-mu, sigma^2 I),
and the classifier is the scaled mean difference theta*. The lower bound
on mu^T theta* / (sigma ||theta*||) is checked by Monte Carlo over
outlier sets built to satisfy the boundary-margin constraint point by
point. The constraint reads only a point's coordinate along mu, so the
sampler rejects on that one coordinate and then adds the independent
orthogonal part of the Gaussian.

Callers pass parameters the run configuration has already checked (see
``config.TheoryConfig``); ``GmmSpec`` and ``TheoryParams`` are plain records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

MAX_REJECTION_DRAWS = 2_000_000


def chunk_rows(n: int) -> int:
    """Candidates the sampler draws at a time for ``n`` points, each of ``dim`` values."""
    return max(2048, 4 * n)


@dataclass(frozen=True)
class GmmSpec:
    """Mixture parameters: component mean mu (the other component is -mu), shared sigma."""

    mu: np.ndarray   # (d,)
    sigma: float

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class TheoryParams:
    """Bound parameters: sample counts, constraint level alpha, diversity gain tau."""

    n1: int
    n2: int
    alpha: float
    tau: float
    trials: int


def theta_star(x_id, x_out) -> np.ndarray:
    """(sum of ID rows - sum of outlier rows) / (n1 + n2)."""
    x_id = np.asarray(x_id, dtype=np.float64)
    x_out = np.asarray(x_out, dtype=np.float64)
    return (x_id.sum(axis=0) - x_out.sum(axis=0)) / (x_id.shape[0] + x_out.shape[0])


def alignment_ratio(theta, mu, sigma: float) -> float:
    """mu^T theta / (sigma ||theta||), the quantity the bound controls."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        raise NumericError("theta is zero, so its alignment with mu is undefined")
    return float(mu @ theta) / (sigma * norm)


def bound_rhs(mu_norm: float, sigma: float, n: int, d: int, alpha: float, tau: float) -> float:
    """Displayed lower bound:
    (||mu||^2 - sigma^(1/2) ||mu||^(3/2) - sigma^2 (alpha - tau)/2)
      / (2 sqrt(sigma^2/n (d + 1/sigma) + ||mu||^2)).
    """
    numerator = mu_norm ** 2 - sigma ** 0.5 * mu_norm ** 1.5 - sigma ** 2 * (alpha - tau) / 2.0
    denominator = 2.0 * math.sqrt(sigma ** 2 / n * (d + 1.0 / sigma) + mu_norm ** 2)
    return numerator / denominator


def sample_constrained_outliers(spec: GmmSpec, n: int, level: float,
                                rng: np.random.Generator) -> np.ndarray:
    """Sample n points from N(-mu, sigma^2 I) with |2 x^T mu| <= sigma^2 * level.

    With u = mu / ||mu||, a point of N(-mu, sigma^2 I) is s u plus an
    independent orthogonal part N(0, sigma^2 (I - u u^T)), where
    s ~ N(-||mu||, sigma^2) and x^T mu = s ||mu||. So candidates are scalar
    draws of s, rejected on |s ||mu||| <= sigma^2 * level / 2; each accepted
    s gets its orthogonal part sigma (z - (z^T u) u), z ~ N(0, I). The built
    rows are checked again on x^T mu itself, so rounding cannot let a row
    past the constraint. The per-point condition is sufficient for the
    summed boundary-margin constraint. Raises NumericError when
    MAX_REJECTION_DRAWS candidates yield too few points, which signals
    infeasible parameters.
    """
    mu_norm = float(np.linalg.norm(spec.mu))
    u = spec.mu / mu_norm
    threshold = spec.sigma ** 2 * level / 2.0
    accepted: list[np.ndarray] = []
    kept = 0
    drawn = 0
    chunk = chunk_rows(n)
    while kept < n:
        if drawn >= MAX_REJECTION_DRAWS:
            raise NumericError(
                f"rejection sampler exhausted {MAX_REJECTION_DRAWS} draws "
                f"(acceptance too rare for level={level})")
        s = -mu_norm + spec.sigma * rng.standard_normal(chunk)
        drawn += chunk
        s = s[np.abs(s * mu_norm) <= threshold]
        if s.size:
            z = rng.standard_normal((s.size, spec.dim))
            x = np.outer(s, u) + spec.sigma * (z - np.outer(z @ u, u))
            x = x[np.abs(x @ spec.mu) <= threshold]
            accepted.append(x)
            kept += x.shape[0]
    return np.concatenate(accepted)[:n]


@dataclass
class BoundTrial:
    trial: int
    ratio: float
    rhs: float
    satisfied: bool


@dataclass
class BoundCheck:
    trials: list[BoundTrial]
    violation_fraction: float
    min_margin: float   # smallest ratio - rhs over the trials; negative iff some trial fails


def verify_bound(spec: GmmSpec, params: TheoryParams, rng: np.random.Generator) -> BoundCheck:
    """Monte Carlo check of the bound over constraint-feasible outlier sets.

    Each trial draws ID samples from the mixture, builds outliers by
    rejection at level (alpha - tau), and compares the alignment ratio of
    theta* against the displayed right-hand side.
    """
    mu_norm = float(np.linalg.norm(spec.mu))
    rhs = bound_rhs(mu_norm, spec.sigma, params.n2, spec.dim, params.alpha, params.tau)
    trials = []
    violations = 0
    for t in range(params.trials):
        x_id = spec.mu + spec.sigma * rng.standard_normal((params.n1, spec.dim))
        x_out = sample_constrained_outliers(spec, params.n2, params.alpha - params.tau, rng)
        ratio = alignment_ratio(theta_star(x_id, x_out), spec.mu, spec.sigma)
        ok = ratio >= rhs
        violations += 0 if ok else 1
        trials.append(BoundTrial(trial=t, ratio=ratio, rhs=rhs, satisfied=ok))
    return BoundCheck(trials=trials, violation_fraction=violations / params.trials,
                      min_margin=min(t.ratio - t.rhs for t in trials))

