"""Burst-error channels: correlated flips from two-state flux dynamics.

Every channel the stack modelled before this module is *memoryless* —
:class:`~repro.link.channel.BinaryChannel` flips bits independently and
:class:`~repro.link.awgn.AwgnFluxChannel` draws independent Gaussian
noise per window.  The failure mode that motivates lightweight encoders
on superconducting links is different: a trapped flux quantum or a
thermal event degrades the link for a *dwell time*, so errors arrive in
bursts.  The classic model for that regime is the **Gilbert–Elliott
channel** — a hidden two-state Markov chain (``good``/``bad``) whose
state selects the per-bit flip probability — and its soft counterpart
here modulates the AWGN noise RMS instead of the flip probability.

Both channels expose the same two-level API as the rest of the link
layer:

* a vectorised batch kernel (:meth:`GilbertElliottChannel.transmit_batch`,
  :meth:`BurstyFluxChannel.transmit_soft_batch`) that evolves every
  frame's state chain in parallel across the batch axis, and
* a pure scalar reference (:func:`gilbert_elliott_reference`,
  :func:`bursty_flux_reference`) — a per-bit Python loop over the *same*
  pre-drawn uniforms — that the batch kernel is **bit-identical** to
  (checked by the tests up to batch 4096).

Draw discipline: a transmit call consumes exactly two ``rng`` blocks in
a fixed order — state uniforms, then noise draws — each of the frame
shape.  Paired experiments (``experiments/burst.py``) rely on this:
two arms that pre-draw the blocks once see identical channel
realisations, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.coding.decoders.soft import (
    full_flux_amplitude_uv_ps,
    soft_confidences_from_flux,
)
from repro.link.awgn import AwgnFluxChannel
from repro.utils.rng import RandomState, as_generator, check_probability

#: State labels of the hidden chain (index 0 = good, 1 = bad).
STATES: Tuple[str, str] = ("good", "bad")


def _stationary_bad_probability(p_g2b: float, p_b2g: float) -> float:
    """Stationary probability of the bad state, ``p_g2b/(p_g2b+p_b2g)``.

    A frozen chain (both transition probabilities zero) is defined to
    start — and stay — in the good state.
    """
    total = p_g2b + p_b2g
    if total == 0.0:
        return 0.0
    return p_g2b / total


def _evolve_states(
    state_draws: np.ndarray, p_g2b: float, p_b2g: float, stationary_bad: float
) -> np.ndarray:
    """Boolean bad-state matrix from a ``(batch, n)`` block of uniforms.

    Column 0's draw selects each frame's initial state from the
    stationary distribution (``draw < stationary_bad`` -> bad); column
    ``j >= 1`` applies the transition from column ``j - 1``'s state
    (from bad: stay iff ``draw >= p_b2g``; from good: leave iff
    ``draw < p_g2b``).  The per-bit loop is over the (short) frame
    axis, vectorised across the batch axis, and performs exactly the
    comparisons of the scalar references — which is what makes batch
    and scalar paths bit-identical.
    """
    draws = np.asarray(state_draws, dtype=np.float64)
    bad = np.empty(draws.shape, dtype=bool)
    if draws.shape[1] == 0:
        return bad
    bad[:, 0] = draws[:, 0] < stationary_bad
    for j in range(1, draws.shape[1]):
        prev = bad[:, j - 1]
        bad[:, j] = np.where(prev, draws[:, j] >= p_b2g, draws[:, j] < p_g2b)
    return bad


@dataclass(frozen=True)
class GilbertElliottChannel:
    """Two-state Markov burst channel (Gilbert–Elliott).

    A hidden chain visits ``good`` and ``bad`` states; each transmitted
    bit flips with the probability of the current state.  Dwell times
    are geometric: the mean burst (bad dwell) length is ``1 / p_b2g``
    and the mean gap (good dwell) length is ``1 / p_g2b``.  The initial
    state of every frame is drawn from the stationary distribution, so
    frames are exchangeable and the average flip probability is
    independent of frame length.

    Attributes
    ----------
    p_good:
        Flip probability while the chain is in the good state.
    p_bad:
        Flip probability while the chain is in the bad state.
    p_g2b:
        Per-bit probability of a good -> bad transition.
    p_b2g:
        Per-bit probability of a bad -> good transition (the reciprocal
        of the mean burst length).
    """

    p_good: float = 0.0
    p_bad: float = 0.5
    p_g2b: float = 0.05
    p_b2g: float = 0.25

    def __post_init__(self):
        for name in ("p_good", "p_bad", "p_g2b", "p_b2g"):
            check_probability(getattr(self, name), name)

    @classmethod
    def from_burst_profile(
        cls,
        burst_len: float,
        density: float,
        p_bad: float = 0.5,
        p_good: float = 0.0,
    ) -> "GilbertElliottChannel":
        """Build a channel from its burst geometry instead of raw rates.

        Parameters
        ----------
        burst_len:
            Mean burst (bad-state dwell) length in bits; must be >= 1.
            Sets ``p_b2g = 1 / burst_len``.
        density:
            Stationary probability of the bad state, in [0, 1).  The
            good -> bad rate is derived so the chain spends exactly this
            fraction of bits in the bad state — sweeping ``burst_len``
            at fixed ``density`` changes the error *correlation* while
            keeping the average raw flip rate constant, which is the
            comparison the burst-resilience experiment makes.
        p_bad, p_good:
            Per-state flip probabilities.
        """
        if burst_len < 1:
            raise ValueError(f"burst_len must be >= 1, got {burst_len}")
        if not 0.0 <= density < 1.0:
            raise ValueError(f"density must lie in [0, 1), got {density}")
        p_b2g = 1.0 / float(burst_len)
        p_g2b = density / (1.0 - density) * p_b2g
        if p_g2b > 1.0:
            raise ValueError(
                f"density {density} is unreachable with burst_len {burst_len} "
                f"(would need p_g2b = {p_g2b:.3f} > 1)"
            )
        return cls(p_good=p_good, p_bad=p_bad, p_g2b=p_g2b, p_b2g=p_b2g)

    # -- derived geometry ----------------------------------------------
    def stationary_bad_probability(self) -> float:
        """Long-run fraction of bits spent in the bad state."""
        return _stationary_bad_probability(self.p_g2b, self.p_b2g)

    def mean_burst_length(self) -> float:
        """Mean bad-state dwell in bits (``inf`` when bursts never end)."""
        return float("inf") if self.p_b2g == 0.0 else 1.0 / self.p_b2g

    def mean_gap_length(self) -> float:
        """Mean good-state dwell in bits (``inf`` when bursts never start)."""
        return float("inf") if self.p_g2b == 0.0 else 1.0 / self.p_g2b

    def average_flip_probability(self) -> float:
        """Stationary per-bit flip probability (the memoryless equivalent)."""
        pi_bad = self.stationary_bad_probability()
        return (1.0 - pi_bad) * self.p_good + pi_bad * self.p_bad

    def is_noiseless(self) -> bool:
        """True iff no reachable state ever flips a bit.

        The bad state is unreachable exactly when ``p_g2b == 0`` (the
        stationary initial draw then never lands there either).
        """
        return self.p_good == 0.0 and (self.p_bad == 0.0 or self.p_g2b == 0.0)

    # -- transmission --------------------------------------------------
    def apply_draws(
        self, bits: np.ndarray, state_draws: np.ndarray, flip_draws: np.ndarray
    ) -> np.ndarray:
        """Corrupt ``(batch, n)`` bits from pre-drawn uniform blocks.

        The pure (draw-free) core of :meth:`transmit_batch`: given the
        state uniforms and the flip uniforms, the output is a
        deterministic function — which is what lets paired experiment
        arms and the scalar reference consume identical draws.

        Parameters
        ----------
        bits : numpy.ndarray
            ``(batch, n)`` array of 0/1 transmitted bits.
        state_draws, flip_draws : numpy.ndarray
            ``(batch, n)`` uniforms in [0, 1); see
            :func:`_evolve_states` for how ``state_draws`` is consumed.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` ``uint8`` received bits.
        """
        words = np.asarray(bits, dtype=np.uint8)
        if words.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {words.shape}")
        if state_draws.shape != words.shape or flip_draws.shape != words.shape:
            raise ValueError(
                f"draw blocks must match the frame shape {words.shape}, got "
                f"{state_draws.shape} / {flip_draws.shape}"
            )
        bad = _evolve_states(
            state_draws, self.p_g2b, self.p_b2g, self.stationary_bad_probability()
        )
        flip_probability = np.where(bad, self.p_bad, self.p_good)
        flips = np.asarray(flip_draws, dtype=np.float64) < flip_probability
        return words ^ flips.astype(np.uint8)

    def transmit_batch(
        self, bits: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Corrupt a ``(batch, n)`` bit array with bursty flips.

        Consumes exactly two uniform blocks of the frame shape from the
        generator — state draws, then flip draws — and applies
        :meth:`apply_draws`.  Bit-identical to running
        :func:`gilbert_elliott_reference` row by row on the same
        blocks.

        Parameters
        ----------
        bits : numpy.ndarray
            ``(batch, n)`` array of 0/1 transmitted bits.
        random_state : int, numpy.random.Generator or None, optional
            Randomness for the state chain and the flips.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` ``uint8`` received bits.
        """
        words = np.asarray(bits, dtype=np.uint8)
        if words.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {words.shape}")
        rng = as_generator(random_state)
        state_draws = rng.random(words.shape)
        flip_draws = rng.random(words.shape)
        return self.apply_draws(words, state_draws, flip_draws)

    def transmit(
        self, bits: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Alias of :meth:`transmit_batch` matching the
        :class:`~repro.link.channel.BinaryChannel` interface, so a
        Gilbert–Elliott channel drops straight into
        :class:`~repro.link.channel.FrameStreamPipeline`."""
        return self.transmit_batch(bits, random_state=random_state)


def gilbert_elliott_reference(
    bits: np.ndarray,
    state_draws: np.ndarray,
    flip_draws: np.ndarray,
    channel: GilbertElliottChannel,
) -> np.ndarray:
    """Scalar per-bit reference of :meth:`GilbertElliottChannel.apply_draws`.

    Walks one frame's state chain in a plain Python loop, performing
    the same comparisons on the same uniforms as the vectorised kernel.
    This is the ground truth the tests check the batch path against.

    Parameters
    ----------
    bits : numpy.ndarray
        ``(n,)`` array of 0/1 transmitted bits (one frame).
    state_draws, flip_draws : numpy.ndarray
        ``(n,)`` uniforms, one row of the blocks
        :meth:`~GilbertElliottChannel.transmit_batch` draws.
    channel : GilbertElliottChannel
        The channel parameters.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` ``uint8`` received bits.
    """
    word = np.asarray(bits, dtype=np.uint8).copy()
    stationary_bad = channel.stationary_bad_probability()
    bad = False
    for j in range(word.shape[0]):
        if j == 0:
            bad = bool(state_draws[0] < stationary_bad)
        elif bad:
            bad = bool(state_draws[j] >= channel.p_b2g)
        else:
            bad = bool(state_draws[j] < channel.p_g2b)
        flip_probability = channel.p_bad if bad else channel.p_good
        if flip_draws[j] < flip_probability:
            word[j] ^= 1
    return word


@dataclass(frozen=True)
class BurstyFluxChannel:
    """Correlated-flux AWGN: burst-modulated noise RMS on flux windows.

    The soft-output sibling of :class:`GilbertElliottChannel`: the same
    hidden two-state chain selects the Gaussian noise RMS of each bit's
    flux-window integral — quiet windows in the good state, smeared
    windows while a flux-trapping or thermal event dwells — and the
    noisy integrals normalise to BPSK confidences through
    :func:`repro.coding.decoders.soft.soft_confidences_from_flux`,
    exactly like the memoryless
    :class:`~repro.link.awgn.AwgnFluxChannel`.

    Attributes
    ----------
    sigma_good:
        Noise RMS (fraction of the flux eye) in the good state.
    sigma_bad:
        Noise RMS in the bad state.
    p_g2b, p_b2g:
        State-chain transition probabilities per bit, as in
        :class:`GilbertElliottChannel`.
    amplitude_scale:
        PPV-style scaling of the full flux amplitude (1.0 = nominal).
    """

    sigma_good: float = 0.1
    sigma_bad: float = 0.6
    p_g2b: float = 0.05
    p_b2g: float = 0.25
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.sigma_good < 0 or self.sigma_bad < 0:
            raise ValueError("sigma_good and sigma_bad must be >= 0")
        check_probability(self.p_g2b, "p_g2b")
        check_probability(self.p_b2g, "p_b2g")
        if self.amplitude_scale <= 0:
            raise ValueError(
                f"amplitude_scale must be positive, got {self.amplitude_scale}"
            )

    def stationary_bad_probability(self) -> float:
        """Long-run fraction of bits spent in the bad (noisy) state."""
        return _stationary_bad_probability(self.p_g2b, self.p_b2g)

    def apply_draws(
        self, codewords: np.ndarray, state_draws: np.ndarray, noise: np.ndarray
    ) -> np.ndarray:
        """Confidences from pre-drawn uniforms and standard normals.

        The pure core of :meth:`transmit_soft_batch`: ``state_draws``
        evolves the chain (same kernel as the hard channel), ``noise``
        holds *standard* normal draws that are scaled by the per-bit
        state's sigma.

        Parameters
        ----------
        codewords : numpy.ndarray
            ``(batch, n)`` array of 0/1 transmitted bits.
        state_draws : numpy.ndarray
            ``(batch, n)`` uniforms in [0, 1).
        noise : numpy.ndarray
            ``(batch, n)`` standard normal draws.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` float64 BPSK confidences.
        """
        bits = np.asarray(codewords, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {bits.shape}")
        if state_draws.shape != bits.shape or noise.shape != bits.shape:
            raise ValueError(
                f"draw blocks must match the frame shape {bits.shape}, got "
                f"{state_draws.shape} / {noise.shape}"
            )
        bad = _evolve_states(
            state_draws, self.p_g2b, self.p_b2g, self.stationary_bad_probability()
        )
        sigma = np.where(bad, self.sigma_bad, self.sigma_good)
        full = full_flux_amplitude_uv_ps(self.amplitude_scale)
        flux = bits.astype(np.float64) * full + noise * sigma * full
        return soft_confidences_from_flux(flux, amplitude_scale=self.amplitude_scale)

    def transmit_soft_batch(
        self, codewords: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Per-bit confidences for a ``(batch, n)`` codeword array.

        Consumes one uniform block (state draws) and one standard
        normal block from the generator, in that order, then applies
        :meth:`apply_draws` — bit-identical to
        :func:`bursty_flux_reference` row by row on the same blocks.

        Parameters
        ----------
        codewords : numpy.ndarray
            ``(batch, n)`` array of 0/1 transmitted bits.
        random_state : int, numpy.random.Generator or None, optional
            Randomness for the state chain and the flux noise.

        Returns
        -------
        numpy.ndarray
            ``(batch, n)`` float64 confidences (positive = looks like
            0, magnitude = reliability).
        """
        bits = np.asarray(codewords, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {bits.shape}")
        rng = as_generator(random_state)
        state_draws = rng.random(bits.shape)
        noise = rng.normal(0.0, 1.0, size=bits.shape)
        return self.apply_draws(bits, state_draws, noise)

    #: Mid-eye hard slice, shared with the memoryless flux channel so
    #: the two channels' hard decisions can never drift apart.
    harden = staticmethod(AwgnFluxChannel.harden)

    def transmit_hard_batch(
        self, codewords: np.ndarray, random_state: RandomState = None
    ) -> np.ndarray:
        """Hard-sliced bits after the same noise as :meth:`transmit_soft_batch`."""
        return self.harden(
            self.transmit_soft_batch(codewords, random_state=random_state)
        )


def bursty_flux_reference(
    codeword: np.ndarray,
    state_draws: np.ndarray,
    noise: np.ndarray,
    channel: BurstyFluxChannel,
) -> np.ndarray:
    """Scalar per-bit reference of :meth:`BurstyFluxChannel.apply_draws`.

    Same contract as :func:`gilbert_elliott_reference`, for the soft
    channel: one frame, a plain Python state walk, one confidence per
    bit computed through the scalar
    :func:`~repro.coding.decoders.soft.soft_confidences_from_flux` map.

    Parameters
    ----------
    codeword : numpy.ndarray
        ``(n,)`` array of 0/1 transmitted bits (one frame).
    state_draws, noise : numpy.ndarray
        ``(n,)`` uniforms and standard normals, one row of the blocks
        :meth:`~BurstyFluxChannel.transmit_soft_batch` draws.
    channel : BurstyFluxChannel
        The channel parameters.

    Returns
    -------
    numpy.ndarray
        ``(n,)`` float64 confidences.
    """
    bits = np.asarray(codeword, dtype=np.uint8)
    stationary_bad = channel.stationary_bad_probability()
    full = full_flux_amplitude_uv_ps(channel.amplitude_scale)
    out = np.empty(bits.shape[0], dtype=np.float64)
    bad = False
    for j in range(bits.shape[0]):
        if j == 0:
            bad = bool(state_draws[0] < stationary_bad)
        elif bad:
            bad = bool(state_draws[j] >= channel.p_b2g)
        else:
            bad = bool(state_draws[j] < channel.p_g2b)
        sigma = channel.sigma_bad if bad else channel.sigma_good
        flux = float(bits[j]) * full + noise[j] * sigma * full
        out[j] = soft_confidences_from_flux(
            np.asarray(flux), amplitude_scale=channel.amplitude_scale
        )
    return out
