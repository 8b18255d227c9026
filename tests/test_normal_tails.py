"""The standard-library normal tails, pinned to ``scipy.stats.norm``.

The receiver, the AWGN flux channel, the spread exceedance and the
Wilson interval compute Gaussian tails with ``math.erfc`` and
``statistics.NormalDist`` so that importing the codec service needs no
scipy.  These tests hold each of them to scipy's reference on a fixed
grid reaching the deep tails (|x| up to 12, tails down to ~1e-33), at a
relative tolerance of 1e-12 fixed before the grid was run.
"""

import numpy as np
import pytest
from scipy.stats import norm

from repro.analysis.stats import binomial_confidence_interval
from repro.link.awgn import AwgnFluxChannel
from repro.link.receiver import CmosReceiver
from repro.ppv.spread import SpreadSpec

RTOL = 1e-12

#: Standardised arguments: a dense core plus the deep tails.
GRID = np.concatenate(
    [np.linspace(-12.0, 12.0, 97), [-10.5, -7.25, -0.001, 0.0, 0.001, 7.25, 10.5]]
)
POSITIVE = GRID[GRID > 0]


def close(actual, expected, abs_tol=0.0):
    return actual == pytest.approx(expected, rel=RTOL, abs=abs_tol)


def test_receiver_flip_probabilities_match_scipy():
    # Unit noise and a threshold x above the low level: P(0->1) is the
    # upper tail at x, P(1->0) the lower tail at x - 1.
    for x in GRID:
        receiver = CmosReceiver(input_noise_mv_rms=1.0, threshold_mv=float(x))
        p01, p10 = receiver.flip_probabilities(0.0, 1.0)
        assert close(p01, norm.sf(x)), x
        assert close(p10, norm.cdf(x - 1.0)), x


def test_receiver_mid_eye_matches_scipy():
    # Mid-eye threshold, noise added in quadrature (sigma = 0.5): both
    # tails are Q(half-eye / sigma), here Q(x).
    receiver = CmosReceiver(input_noise_mv_rms=0.3)
    for x in POSITIVE:
        half_eye = 0.5 * float(x)
        p01, p10 = receiver.flip_probabilities(
            -half_eye, half_eye, extra_noise_mv_rms=0.4
        )
        assert close(p01, norm.sf(half_eye, scale=0.5)), x
        assert close(p10, norm.cdf(-half_eye, scale=0.5)), x


def test_awgn_flip_probability_matches_scipy():
    for x in POSITIVE:
        channel = AwgnFluxChannel(sigma=0.5 / float(x))
        assert close(channel.flip_probability(), norm.sf(0.5 / channel.sigma)), x


@pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5])
def test_spread_exceedance_matches_scipy(fraction):
    spec = SpreadSpec(fraction=fraction, distribution="truncnormal")
    sigma = fraction / 3.0
    # The exceedance is defined for thresholds in [0, fraction).
    for threshold in np.linspace(0.0, fraction, 41)[:-1]:
        expected = 2.0 * norm.sf(threshold, scale=sigma)
        assert close(spec.exceedance_probability(threshold), expected), threshold


@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999999, 1 - 1e-12])
@pytest.mark.parametrize("successes,trials", [(0, 1), (3, 10), (997, 1000), (50, 50)])
def test_wilson_interval_matches_scipy(successes, trials, confidence):
    z = float(norm.ppf(0.5 + confidence / 2.0))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    low, high = binomial_confidence_interval(successes, trials, confidence)
    # With no successes the low end is 0 in exact arithmetic and only
    # rounding noise in floating point, so it gets an absolute floor.
    assert close(low, max(0.0, center - half), abs_tol=1e-15)
    assert close(high, min(1.0, center + half))
