"""Binary channel abstraction over the analog link.

:class:`BinaryChannel` applies (possibly asymmetric, possibly
per-channel) bit-flip probabilities to transmitted words;
:func:`link_budget_channel` derives those probabilities from the
driver/cable/receiver models, closing the Fig. 1 signal path; and
:class:`FrameStreamPipeline` runs a whole stream of frames through
encode -> corrupt -> decode as one vectorised batch on the table-gather
hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.coding.decoders import Decoder, default_decoder_for
from repro.coding.decoders.base import BatchDecodeResult
from repro.coding.linear import LinearBlockCode
from repro.errors import DimensionError
from repro.link.cable import CryogenicCable
from repro.link.driver import SuzukiStackDriver
from repro.link.receiver import CmosReceiver
from repro.utils.rng import RandomState, as_generator, check_probability


@dataclass(frozen=True)
class BinaryChannel:
    """Memoryless binary channel with asymmetric flip probabilities.

    ``p01``/``p10`` may be scalars (shared by all output channels) or
    per-channel arrays.
    """

    p01: Union[float, np.ndarray] = 0.0
    p10: Union[float, np.ndarray] = 0.0

    def __post_init__(self):
        noiseless = True
        for name, value in (("p01", self.p01), ("p10", self.p10)):
            arr = np.atleast_1d(np.asarray(value, dtype=float))
            # Written so that NaN, which compares false, fails too.
            if not ((arr >= 0) & (arr <= 1)).all():
                raise ValueError(f"{name} must lie in [0, 1]")
            noiseless &= not arr.any()
        # Frozen dataclass: cache the flag so the transmit fast path
        # doesn't re-inspect the probability arrays on every call.
        object.__setattr__(self, "_noiseless", bool(noiseless))

    def transmit(self, bits: np.ndarray, random_state: RandomState = None) -> np.ndarray:
        """Flip bits of a ``(batch, n)`` array independently.

        A noiseless channel (``p01 == p10 == 0`` everywhere) returns a
        copy of the input without drawing any random numbers, so hot
        paths that thread a shared generator through a mix of noisy and
        noiseless channels pay nothing for the latter.  Consequently a
        seeded stream yields the same draws as earlier releases only for
        *noisy* channels; noiseless transmits no longer consume from it.
        """
        words = np.asarray(bits, dtype=np.uint8)
        if words.ndim != 2:
            raise ValueError(f"expected a (batch, n) bit array, got {words.shape}")
        # Shape-check per-channel probabilities even on the fast path, so
        # a misconfigured channel fails loudly regardless of noise level.
        p01 = np.broadcast_to(np.asarray(self.p01, dtype=float), words.shape[1:])
        p10 = np.broadcast_to(np.asarray(self.p10, dtype=float), words.shape[1:])
        if self.is_noiseless():
            return words.copy()
        rng = as_generator(random_state)
        draws = rng.random(words.shape)
        flip = np.where(words == 0, draws < p01[None, :], draws < p10[None, :])
        return words ^ flip.astype(np.uint8)

    def crossover_probability(self) -> float:
        """Average flip probability assuming equiprobable inputs."""
        return float(
            0.5 * np.mean(np.asarray(self.p01, dtype=float))
            + 0.5 * np.mean(np.asarray(self.p10, dtype=float))
        )

    def is_noiseless(self) -> bool:
        """True iff every flip probability is exactly zero.

        Cached at construction; gates the draw-free fast path of
        :meth:`transmit`.
        """
        return self._noiseless


def _received_eye(
    driver: SuzukiStackDriver, cable: CryogenicCable, driver_deviation: float
) -> tuple:
    """Received eye after the cable: ``(low_mv, high_mv, extra_noise_mv_rms)``.

    The shared physics of the Fig. 1 path — driver swing (optionally
    degraded by PPV) -> cable attenuation, with cable thermal noise and
    amplified driver noise combined in quadrature.
    """
    high = cable.propagate_level_mv(driver.output_high_mv(driver_deviation))
    low = cable.propagate_level_mv(driver.output_low_mv(driver_deviation))
    extra = float(
        np.hypot(
            cable.thermal_noise_mv_rms(),
            driver.output_noise_mv_rms * cable.gain,
        )
    )
    return low, high, extra


def link_budget_channel(
    driver: Optional[SuzukiStackDriver] = None,
    cable: Optional[CryogenicCable] = None,
    receiver: Optional[CmosReceiver] = None,
    driver_deviation: float = 0.0,
) -> BinaryChannel:
    """Derive the per-bit flip probabilities of one output channel.

    Walks the Fig. 1 path: driver swing (optionally degraded by PPV)
    -> cable attenuation + warm-stage thermal noise -> comparator
    decision.
    """
    driver = driver or SuzukiStackDriver()
    cable = cable or CryogenicCable()
    receiver = receiver or CmosReceiver()
    low, high, extra = _received_eye(driver, cable, driver_deviation)
    p01, p10 = receiver.flip_probabilities(low, high, extra_noise_mv_rms=extra)
    return BinaryChannel(p01=p01, p10=p10)


@dataclass(frozen=True)
class FrameStreamResult:
    """Everything a frame-stream run produced, aligned row-for-row.

    Attributes
    ----------
    messages : numpy.ndarray
        ``(batch, k)`` transmitted messages.
    codewords : numpy.ndarray
        ``(batch, n)`` transmitted codewords.
    received : numpy.ndarray
        ``(batch, n)`` words after the channel.
    decoded : repro.coding.decoders.BatchDecodeResult
        Per-frame decoder outputs (messages, flags, correction counts).
    """

    messages: np.ndarray
    codewords: np.ndarray
    received: np.ndarray
    decoded: BatchDecodeResult

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def delivered(self) -> np.ndarray:
        """``(batch, k)`` message estimates delivered to the warm side."""
        return self.decoded.messages

    @property
    def message_errors(self) -> np.ndarray:
        """Per-frame booleans: delivered message differs from sent."""
        return (self.decoded.messages != self.messages).any(axis=1)

    @property
    def message_error_rate(self) -> float:
        """Fraction of frames delivered wrong (Fig. 5's MER numerator)."""
        return float(self.message_errors.mean()) if len(self) else 0.0

    @property
    def channel_bit_errors(self) -> np.ndarray:
        """Per-frame count of raw bit flips the channel injected."""
        return (self.received ^ self.codewords).sum(axis=1, dtype=np.int64)

    @property
    def raw_bit_error_rate(self) -> float:
        """Channel bit-flip fraction before any decoding."""
        total = self.codewords.size
        return float(self.channel_bit_errors.sum() / total) if total else 0.0

    @property
    def flagged_rate(self) -> float:
        """Fraction of frames the decoder flagged detected-uncorrectable."""
        if not len(self):
            return 0.0
        return float(self.decoded.detected_uncorrectable.mean())


class FrameStreamPipeline:
    """Vectorised encode -> corrupt -> decode for a stream of frames.

    One object wires the three batched hot paths together: the
    table-gather :meth:`~repro.coding.linear.LinearBlockCode.encode_batch`,
    the vectorised :meth:`BinaryChannel.transmit`, and the decoder's
    :meth:`~repro.coding.decoders.base.Decoder.decode_batch_detailed`.
    A whole frame stream moves through the link without any per-frame
    Python, which is what makes the Monte-Carlo reliability sweeps and
    the throughput benchmarks feasible at production batch sizes.

    Parameters
    ----------
    code : LinearBlockCode
        The code framing each message.
    decoder : Decoder, optional
        Decoder for the warm side; defaults to the paper's pairing via
        :func:`repro.coding.decoders.default_decoder_for`.
    channel : BinaryChannel, optional
        Bit-flip channel between the stages; defaults to noiseless.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.coding import get_code
    >>> pipe = FrameStreamPipeline(get_code("hamming84"),
    ...                            channel=BinaryChannel(p01=0.01, p10=0.01))
    >>> msgs = np.random.default_rng(0).integers(0, 2, (1000, 4)).astype(np.uint8)
    >>> result = pipe.run(msgs, random_state=1)
    >>> result.delivered.shape
    (1000, 4)
    """

    def __init__(
        self,
        code: LinearBlockCode,
        decoder: Optional[Decoder] = None,
        channel: Optional[BinaryChannel] = None,
    ):
        self.code = code
        self.decoder = decoder if decoder is not None else default_decoder_for(code)
        if self.decoder.code is not code and not (
            self.decoder.code.generator == code.generator
        ):
            raise ValueError("decoder was built for a different code")
        self.channel = channel if channel is not None else BinaryChannel()
        # Analog stages remembered by from_link_budget so run() and
        # run_analog() model the same link; None until configured.
        self._driver: Optional[SuzukiStackDriver] = None
        self._cable: Optional[CryogenicCable] = None
        self._receiver: Optional[CmosReceiver] = None
        self._driver_deviation: float = 0.0

    @classmethod
    def from_link_budget(
        cls,
        code: LinearBlockCode,
        decoder: Optional[Decoder] = None,
        driver: Optional[SuzukiStackDriver] = None,
        cable: Optional[CryogenicCable] = None,
        receiver: Optional[CmosReceiver] = None,
        driver_deviation: float = 0.0,
    ) -> "FrameStreamPipeline":
        """Build a pipeline whose channel follows the Fig. 1 link budget.

        Parameters
        ----------
        code : LinearBlockCode
            The code framing each message.
        decoder : Decoder, optional
            Defaults to the paper's pairing for ``code``.
        driver, cable, receiver : optional
            Analog stages; defaults match :func:`link_budget_channel`.
        driver_deviation : float, optional
            PPV-induced deviation of the driver's output swing.

        Returns
        -------
        FrameStreamPipeline
        """
        channel = link_budget_channel(
            driver=driver,
            cable=cable,
            receiver=receiver,
            driver_deviation=driver_deviation,
        )
        pipeline = cls(code, decoder=decoder, channel=channel)
        pipeline._driver = driver
        pipeline._cable = cable
        pipeline._receiver = receiver
        pipeline._driver_deviation = driver_deviation
        return pipeline

    def _check_messages(self, messages: np.ndarray) -> np.ndarray:
        msgs = np.asarray(messages, dtype=np.uint8)
        if msgs.ndim != 2 or msgs.shape[1] != self.code.k:
            raise DimensionError(
                f"expected (batch, {self.code.k}) messages, got {msgs.shape}"
            )
        return msgs

    def run(
        self, messages: np.ndarray, random_state: RandomState = None
    ) -> FrameStreamResult:
        """Push a batch of messages through the whole link at once.

        Parameters
        ----------
        messages : numpy.ndarray
            ``(batch, k)`` array of 0/1 message bits.
        random_state : int, numpy.random.Generator or None, optional
            Randomness for the channel's bit flips.

        Returns
        -------
        FrameStreamResult
            Transmitted, corrupted and decoded views of the stream plus
            derived error-rate statistics.
        """
        msgs = self._check_messages(messages)
        codewords = self.code.encode_batch(msgs)
        received = self.channel.transmit(codewords, random_state=random_state)
        decoded = self.decoder.decode_batch_detailed(received)
        return FrameStreamResult(
            messages=msgs,
            codewords=codewords,
            received=received,
            decoded=decoded,
        )

    def run_analog(
        self,
        messages: np.ndarray,
        driver: Optional[SuzukiStackDriver] = None,
        cable: Optional[CryogenicCable] = None,
        receiver: Optional[CmosReceiver] = None,
        driver_deviation: Optional[float] = None,
        random_state: RandomState = None,
    ) -> FrameStreamResult:
        """Run the stream at waveform level instead of flip probabilities.

        Codeword bits become driver output levels, propagate through the
        cable, and are sliced back to bits by the receiver's vectorised
        :meth:`~repro.link.receiver.CmosReceiver.decide_batch` — the
        same physics :func:`link_budget_channel` integrates analytically,
        here sampled per bit so waveform-level effects can be added.

        Parameters
        ----------
        messages : numpy.ndarray
            ``(batch, k)`` array of 0/1 message bits.
        driver, cable, receiver : optional
            Analog stages.  Default to the stages this pipeline was
            configured with via :meth:`from_link_budget` (so ``run`` and
            ``run_analog`` model the same link), else to the
            :func:`link_budget_channel` defaults.
        driver_deviation : float, optional
            PPV-induced deviation of the driver's output swing; defaults
            to the configured deviation.
        random_state : int, numpy.random.Generator or None, optional
            Noise source for the receiver's comparator.

        Returns
        -------
        FrameStreamResult
        """
        msgs = self._check_messages(messages)
        driver = driver or self._driver or SuzukiStackDriver()
        cable = cable or self._cable or CryogenicCable()
        receiver = receiver or self._receiver or CmosReceiver()
        if driver_deviation is None:
            driver_deviation = self._driver_deviation
        codewords = self.code.encode_batch(msgs)
        low, high, extra = _received_eye(driver, cable, driver_deviation)
        levels = np.where(codewords.astype(bool), high, low)
        received = receiver.decide_batch(
            levels, low, high, extra_noise_mv_rms=extra, random_state=random_state
        )
        decoded = self.decoder.decode_batch_detailed(received)
        return FrameStreamResult(
            messages=msgs,
            codewords=codewords,
            received=received,
            decoded=decoded,
        )
