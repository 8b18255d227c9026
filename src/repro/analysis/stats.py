"""Statistics for Monte-Carlo experiment reporting.

The paper's Fig. 5 is an empirical CDF over 1000 chips; these helpers
compute the CDF plus uncertainty measures (Wilson binomial intervals for
the P(N = 0) anchors, bootstrap intervals for arbitrary statistics) so
EXPERIMENTS.md can report paper-vs-measured with error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class CdfResult:
    """Empirical CDF evaluated on the integer grid ``0..support_max``.

    Attributes
    ----------
    values:
        ``values[n] = P(X <= n)`` for ``n = 0..support_max``.
    sample_size:
        Number of observations behind the estimate.
    """

    values: np.ndarray
    sample_size: int

    def probability_at_most(self, n: int) -> float:
        """Return ``P(X <= n)``, clamping ``n`` to the evaluated grid."""
        n = min(max(int(n), 0), len(self.values) - 1)
        return float(self.values[n])

    @property
    def probability_zero(self) -> float:
        """``P(X = 0)`` — the headline anchor reported by the paper."""
        return float(self.values[0])


def empirical_cdf(samples: Sequence[int], support_max: int) -> CdfResult:
    """Empirical CDF of non-negative integer ``samples`` on ``0..support_max``.

    Parameters
    ----------
    samples:
        Observed counts (e.g. erroneous messages per chip).
    support_max:
        Largest ``n`` at which to evaluate the CDF (inclusive).
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if (arr < 0).any():
        raise ValueError("samples must be non-negative counts")
    if support_max < 0:
        raise ValueError("support_max must be non-negative")
    # Mass above the grid is excluded (not clamped into the last bin), so
    # the reported CDF stays honest: values[-1] < 1 if any sample exceeds
    # support_max.
    within = arr[arr <= support_max]
    counts = np.bincount(within, minlength=support_max + 1)
    cdf = np.cumsum(counts) / arr.size
    return CdfResult(values=cdf, sample_size=int(arr.size))


def binomial_confidence_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because Fig. 5 anchors sit
    near 1.0 where the Wald interval is badly behaved.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def bootstrap_confidence_interval(
    samples: Sequence[float],
    statistic: Callable[[np.ndarray], float],
    n_resamples: int = 2000,
    confidence: float = 0.95,
    random_state: RandomState = None,
) -> Tuple[float, float]:
    """Percentile bootstrap interval of ``statistic`` over ``samples``."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if n_resamples < 1:
        raise ValueError("n_resamples must be positive")
    rng = as_generator(random_state)
    stats = np.empty(n_resamples, dtype=float)
    n = arr.size
    for i in range(n_resamples):
        stats[i] = statistic(arr[rng.integers(0, n, size=n)])
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(stats, alpha)), float(np.quantile(stats, 1.0 - alpha)))


def summarize_counts(samples: Sequence[int]) -> dict:
    """Summary statistics block for a vector of per-chip error counts."""
    arr = np.asarray(samples, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    zero = int((arr == 0).sum())
    lo, hi = binomial_confidence_interval(zero, arr.size)
    return {
        "chips": int(arr.size),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "max": int(arr.max()),
        "p_zero": zero / arr.size,
        "p_zero_ci_low": lo,
        "p_zero_ci_high": hi,
    }
