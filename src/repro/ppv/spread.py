"""JoSIM-style parameter spread sampling.

"Each circuit parameter (such as the critical current of JJs,
inductance, and resistance) is assigned a specified deviation from the
nominal parameter value" (paper Section IV).  Fig. 5 uses "up to +/-20%
variation in process parameters".

:class:`SpreadSpec` captures the deviation law.  The default is the
bounded uniform distribution implied by "up to +/-20%"; a truncated
normal (sigma = spread/3, clipped at +/-spread) is provided as the
smoother alternative real fabs exhibit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.utils.rng import RandomState, as_generator

Distribution = Literal["uniform", "truncnormal"]


@dataclass(frozen=True)
class SpreadSpec:
    """A bounded random deviation law for circuit parameters.

    Attributes
    ----------
    fraction:
        Maximum fractional deviation (0.20 for the paper's Fig. 5).
    distribution:
        ``"uniform"`` on [-fraction, +fraction] (default, matching the
        paper's "up to +/-20%") or ``"truncnormal"``.
    """

    fraction: float = 0.20
    distribution: Distribution = "uniform"

    def __post_init__(self):
        if self.fraction < 0:
            raise ValueError(f"spread fraction must be >= 0, got {self.fraction}")
        if self.distribution not in ("uniform", "truncnormal"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def sample(self, rng_or_seed: RandomState, size: int) -> np.ndarray:
        """Draw ``size`` independent deviations."""
        rng = as_generator(rng_or_seed)
        if self.fraction == 0.0:
            return np.zeros(size)
        if self.distribution == "uniform":
            return rng.uniform(-self.fraction, self.fraction, size=size)
        sigma = self.fraction / 3.0
        draws = rng.normal(0.0, sigma, size=size)
        return np.clip(draws, -self.fraction, self.fraction)

    def exceedance_probability(self, threshold: float) -> float:
        """P(|deviation| > threshold) for one parameter (analytic).

        Used by the calibration's closed-form marginal-cell
        probabilities.
        """
        if threshold >= self.fraction:
            return 0.0
        if threshold < 0:
            return 1.0
        if self.distribution == "uniform":
            return 1.0 - threshold / self.fraction
        # Clipping moves out-of-range mass onto the bounds, which still
        # exceed any threshold < fraction, so the exceedance equals the
        # raw normal two-sided tail, 2 Q(t / sigma) = erfc(t / (sigma sqrt 2)).
        sigma = self.fraction / 3.0
        return math.erfc(threshold / (sigma * math.sqrt(2)))

    def describe(self) -> str:
        return f"+/-{self.fraction * 100:.0f}% {self.distribution}"
