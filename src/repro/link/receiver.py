"""Room-temperature CMOS receiver (comparator + sampler).

"CMOS amplifier circuits (not shown) may be included on the CMOS chip
to boost the amplitude of the received signals" (paper Fig. 1
caption).  The model is a thresholding comparator with input-referred
noise; its decision-error probabilities are Gaussian Q-function tails,
which :func:`repro.link.channel.link_budget_channel` turns into an
asymmetric binary channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionError
from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class CmosReceiver:
    """Threshold receiver on the warm side.

    Attributes
    ----------
    input_noise_mv_rms:
        Input-referred noise of the comparator/amplifier chain.
    threshold_mv:
        Decision threshold; ``None`` places it mid-eye per link budget.
    """

    input_noise_mv_rms: float = 0.35
    threshold_mv: float | None = None

    def decision_threshold(self, low_mv: float, high_mv: float) -> float:
        """The threshold actually used for a given eye."""
        if self.threshold_mv is not None:
            return self.threshold_mv
        return 0.5 * (low_mv + high_mv)

    def flip_probabilities(
        self, low_mv: float, high_mv: float, extra_noise_mv_rms: float = 0.0
    ) -> tuple[float, float]:
        """(P(0->1), P(1->0)) for the given received levels.

        ``extra_noise_mv_rms`` adds cable/driver noise in quadrature
        with the receiver's own.
        """
        if high_mv <= low_mv:
            # Collapsed eye: the comparator output is a coin flip.
            return 0.5, 0.5
        sigma = float(np.hypot(self.input_noise_mv_rms, extra_noise_mv_rms))
        threshold = self.decision_threshold(low_mv, high_mv)
        if sigma <= 0:
            p01 = 0.0 if low_mv < threshold else 1.0
            p10 = 0.0 if high_mv > threshold else 1.0
            return p01, p10
        # Gaussian tails: Q(x) = erfc(x / sqrt 2) / 2 and Phi(x) = Q(-x).
        scale = sigma * math.sqrt(2)
        p01 = 0.5 * math.erfc((threshold - low_mv) / scale)
        p10 = 0.5 * math.erfc((high_mv - threshold) / scale)
        return p01, p10

    def decide_batch(
        self,
        received_mv: np.ndarray,
        low_mv: float,
        high_mv: float,
        extra_noise_mv_rms: float = 0.0,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Slice a batch of analog samples into bits, noise included.

        The vectorised waveform-level receiver used by the frame-stream
        pipeline: Gaussian noise (the comparator's input-referred noise
        combined in quadrature with ``extra_noise_mv_rms``) is added to
        every sample and the result is compared against
        :meth:`decision_threshold` in one pass.

        Parameters
        ----------
        received_mv : numpy.ndarray
            ``(batch, n)`` array of received analog levels in mV (after
            cable attenuation).
        low_mv, high_mv : float
            Nominal received levels for a transmitted 0 and 1; they set
            the decision threshold when :attr:`threshold_mv` is None.
        extra_noise_mv_rms : float, optional
            Cable/driver noise added in quadrature with the receiver's
            own input-referred noise.
        random_state : int, numpy.random.Generator or None, optional
            Noise source; see :func:`repro.utils.rng.as_generator`.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` ``uint8`` array of sliced bits.
        """
        samples = np.asarray(received_mv, dtype=float)
        if samples.ndim != 2:
            raise DimensionError(
                f"expected a (batch, n) sample array, got {samples.shape}"
            )
        rng = as_generator(random_state)
        if high_mv <= low_mv:
            # Collapsed eye: match flip_probabilities — a coin flip per bit.
            return rng.integers(0, 2, size=samples.shape, dtype=np.uint8)
        sigma = float(np.hypot(self.input_noise_mv_rms, extra_noise_mv_rms))
        if sigma > 0:
            samples = samples + rng.normal(0.0, sigma, size=samples.shape)
        threshold = self.decision_threshold(low_mv, high_mv)
        return (samples > threshold).astype(np.uint8)

    def decide_soft_batch(
        self,
        received_mv: np.ndarray,
        low_mv: float,
        high_mv: float,
        extra_noise_mv_rms: float = 0.0,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Soft counterpart of :meth:`decide_batch`: confidences, not bits.

        Instead of committing each noisy sample to 0/1 at the
        threshold, the distance to the threshold is normalised by the
        half-eye into a BPSK-style confidence: +1 at the nominal low
        level, -1 at the nominal high level, 0 exactly on the
        threshold.  Hard-slicing the result (``confidence < 0``) is
        bit-identical to :meth:`decide_batch` for the same noise draws,
        so hard and soft receivers can be compared on the very same
        channel realisation.

        Parameters
        ----------
        received_mv : numpy.ndarray
            ``(batch, n)`` array of received analog levels in mV.
        low_mv, high_mv : float
            Nominal received levels for a transmitted 0 and 1.
        extra_noise_mv_rms : float, optional
            Cable/driver noise added in quadrature with the receiver's
            own input-referred noise.
        random_state : int, numpy.random.Generator or None, optional
            Noise source; see :func:`repro.utils.rng.as_generator`.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` float64 confidences.
        """
        samples = np.asarray(received_mv, dtype=float)
        if samples.ndim != 2:
            raise DimensionError(
                f"expected a (batch, n) sample array, got {samples.shape}"
            )
        rng = as_generator(random_state)
        if high_mv <= low_mv:
            # Collapsed eye: sign-only coin flips (no reliability), with
            # the same draw pattern as decide_batch's coin flip.
            bits = rng.integers(0, 2, size=samples.shape, dtype=np.uint8)
            return 1.0 - 2.0 * bits.astype(np.float64)
        sigma = float(np.hypot(self.input_noise_mv_rms, extra_noise_mv_rms))
        if sigma > 0:
            samples = samples + rng.normal(0.0, sigma, size=samples.shape)
        threshold = self.decision_threshold(low_mv, high_mv)
        half_eye = 0.5 * (high_mv - low_mv)
        return (threshold - samples) / half_eye
