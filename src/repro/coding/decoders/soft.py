"""Soft-decision FHT decoding of RM(1, m).

The paper's Ref. [34] (Be'ery & Snyders) shows first-order Reed-Muller
codes admit optimal *soft* maximum-likelihood decoding through the fast
Hadamard transform: feed per-bit confidences (LLR-like reals, positive
= looks like 0) into the WHT and pick the largest-magnitude
coefficient.  Against the waveform layer this means decoding straight
from per-window flux values instead of first slicing to bits — worth
several dB at the noise levels where the hard slicer starts failing
(demonstrated in ``tests/test_soft_decoding.py``).

The batched kernels (``decode_soft_batch`` /
``decode_soft_batch_detailed``) are the dense Hadamard product of
:class:`~repro.coding.decoders.fht.FhtDecoder`; the scalar
``decode_soft`` delegates to the one-row batch so both paths are
bit-identical by construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.decoders.base import DecodeResult
from repro.coding.decoders.fht import FhtDecoder


class SoftFhtDecoder(FhtDecoder):
    """Soft-input ML decoder for RM(1, m) via the Hadamard spectrum.

    Input confidences follow the BPSK convention: value > 0 means "bit
    looks like 0", value < 0 means "bit looks like 1", magnitude is the
    reliability.  The soft batched kernels are inherited from
    :class:`~repro.coding.decoders.fht.FhtDecoder` — the two strategies
    share one spectrum implementation and differ only in what
    ``decode`` accepts: here hard bits are a *degenerate soft input*
    (mapped to ±1 and decoded through the soft path), so
    ``decode_soft`` is the real entry point and hard batches gather
    from a table of its answers.
    """

    strategy_name = "soft-fht"

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Decode hard bits as degenerate ±1 confidences.

        Maps 0/1 to +1/−1 and runs the soft spectrum path, so hard
        input through this strategy matches the hard FHT decoder's
        commitments on the same word.
        """
        word = self._check_received(received)
        return self.decode_soft(1.0 - 2.0 * word.astype(np.float64))


def full_flux_amplitude_uv_ps(amplitude_scale: float = 1.0) -> float:
    """The flux integral of a clean transmitted 1, in µV·ps.

    One shared constant for every flux-domain channel
    (:class:`repro.link.awgn.AwgnFluxChannel`,
    :class:`repro.link.burst.BurstyFluxChannel` and their scalar
    references): a pulse window integrates to Phi_0 times the PPV
    amplitude scale.  Sharing it keeps the channels' normalisations in
    lock-step, which the hard-slice pairing across channels relies on.
    """
    from repro.sfq.waveform import PHI0_MV_PS

    return PHI0_MV_PS * 1000.0 * amplitude_scale


def soft_confidences_from_flux(
    flux_uv_ps: np.ndarray, amplitude_scale: float = 1.0
) -> np.ndarray:
    """Map per-window flux integrals to BPSK-style confidences.

    A window carrying a pulse integrates to ~Phi_0 * scale; an empty
    one to ~0.  Centre and normalise so 0 flux -> +1 (confident zero)
    and full flux -> -1 (confident one).  This is the scalar reference
    of :class:`repro.link.awgn.AwgnFluxChannel`.
    """
    full = full_flux_amplitude_uv_ps(amplitude_scale)
    return 1.0 - 2.0 * np.asarray(flux_uv_ps, dtype=float) / full
