"""AWGN flux channel: per-bit soft confidences from noisy flux windows.

The SFQ driver integrates ~one flux quantum per transmitted 1 and ~zero
per transmitted 0 into each bit window; thermal and amplifier noise
smear that integral.  :class:`AwgnFluxChannel` models the smearing as
additive white Gaussian noise on the flux amplitude and emits per-bit
*confidences* in the BPSK convention the soft decoders consume
(positive = looks like 0, magnitude = reliability).  The scalar
reference for the flux -> confidence map is
:func:`repro.coding.decoders.soft.soft_confidences_from_flux`; this
class is its vectorised, noise-generating counterpart for whole frame
batches.

A hard receiver slicing the same windows at the mid-eye threshold is
exactly ``confidence < 0``, which is what makes hard-vs-soft coding
gain comparisons (``experiments/soft_gain.py``) paired: both decision
policies see the very same noise draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.coding.decoders.soft import soft_confidences_from_flux
from repro.utils.rng import RandomState, as_generator


@dataclass(frozen=True)
class AwgnFluxChannel:
    """Additive-Gaussian noise on the per-window flux integral.

    Attributes
    ----------
    sigma:
        Noise RMS as a fraction of the full flux-quantum amplitude
        (``sigma=0.3`` means the window integral wobbles by 30% of the
        0-to-1 eye).
    amplitude_scale:
        PPV-style scaling of the full flux amplitude (1.0 = nominal),
        forwarded to the flux -> confidence normalisation.
    """

    sigma: float = 0.0
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.amplitude_scale <= 0:
            raise ValueError(
                f"amplitude_scale must be positive, got {self.amplitude_scale}"
            )

    def transmit_soft(
        self, codewords: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Per-bit confidences for a ``(batch, n)`` codeword array.

        Each bit's flux window integrates to ``full * bit`` plus
        Gaussian noise of RMS ``full * sigma``, then normalises through
        :func:`soft_confidences_from_flux`: a clean 0 maps to +1, a
        clean 1 to -1.

        Parameters
        ----------
        codewords : numpy.ndarray
            ``(batch, n)`` array of 0/1 transmitted bits.
        random_state : int, numpy.random.Generator or None, optional
            Noise source; see :func:`repro.utils.rng.as_generator`.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` float64 confidences.
        """
        from repro.coding.decoders.soft import full_flux_amplitude_uv_ps

        bits = np.asarray(codewords, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {bits.shape}")
        full = full_flux_amplitude_uv_ps(self.amplitude_scale)
        flux = bits.astype(np.float64) * full
        if self.sigma > 0:
            rng = as_generator(random_state)
            flux = flux + rng.normal(0.0, self.sigma * full, size=flux.shape)
        return soft_confidences_from_flux(flux, amplitude_scale=self.amplitude_scale)

    @staticmethod
    def harden(confidences: np.ndarray) -> np.ndarray:
        """Mid-eye hard slice of a confidence array (``conf < 0`` -> 1)."""
        return (np.asarray(confidences, dtype=np.float64) < 0).astype(np.uint8)

    def transmit_hard(
        self, codewords: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Hard-sliced bits after the same noise as :meth:`transmit_soft`."""
        return self.harden(self.transmit_soft(codewords, random_state=random_state))

    def flip_probability(self) -> float:
        """Hard-decision crossover probability of this channel.

        The mid-eye slicer misreads a bit when the Gaussian noise
        crosses half the eye: ``Q(1 / (2 sigma))``.
        """
        if self.sigma == 0:
            return 0.0
        return 0.5 * math.erfc(0.5 / (self.sigma * math.sqrt(2)))
