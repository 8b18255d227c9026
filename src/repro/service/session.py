"""Codec sessions: (code x decoder x channel policy) served by one server.

A :class:`CodecSession` binds a registered code, a decoder strategy and
an optional error-injection channel into the unit the micro-batching
scheduler dispatches to.  The :class:`SessionRegistry` hands out small
integer ids so the wire protocol can reference sessions in two bytes,
and is built directly on :mod:`repro.coding.registry` — any code/decoder
the experiments can name, the service can serve.

Error injection exists for fault-drill scenarios: with ``p01``/``p10``
set, every *encode* response is corrupted by a
:class:`~repro.link.channel.BinaryChannel` drawn from the session's own
seeded stream, so a load generator can rehearse the full
encode -> corrupt -> decode loop against a live server.  Injection draws
depend on frame *arrival order* at the scheduler, so under concurrency
they are reproducible only in aggregate, not frame-for-frame.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from dataclasses import dataclass
from typing import Container, Dict, Iterator, Optional, Set, Tuple

import numpy as np

from repro.coding.decoders.base import Decoder
from repro.coding.registry import (
    available_codes,
    available_decoders,
    canonical_code_name,
    get_codec,
)
from repro.coding.stream import stream_span
from repro.errors import CodingError, ServiceError, SessionError
from repro.gf2.vectors import read_only
from repro.link.channel import BinaryChannel
from repro.service import protocol
from repro.service.telemetry import ServiceTelemetry, SessionTelemetry, decode_outcomes
from repro.utils.rng import as_generator

#: Session ids travel as uint16 in batch headers.
MAX_SESSION_ID = 0xFFFF

#: Most sessions one registry or pool holds open at once.  Far below
#: ``MAX_SESSION_ID``, so a free id always exists.
MAX_SESSIONS = 1024

#: Most soft values a stream window may hold: ``stream_span * n``
#: float64s, 1 MiB.
MAX_STREAM_WINDOW_VALUES = 1 << 17


#: Widest code whose DECODE replies come from a :func:`reply_table`:
#: one request byte per frame.
REPLY_TABLE_N_LIMIT = 8

#: Reply tables by decoder object (see :func:`reply_table`).
_REPLY_TABLES: Dict[Decoder, Tuple[np.ndarray, np.ndarray]] = {}


def reply_table(decoder: Decoder) -> Tuple[np.ndarray, np.ndarray]:
    """The DECODE reply and outcome counts of every request byte.

    For a code with n <= :data:`REPLY_TABLE_N_LIMIT` a frame travels as
    one byte, so a decoder can be sent only 256 distinct frames.  The
    first array, ``(ceil(k / 8) + 2, 256)`` ``uint8``, holds in column
    ``b`` the :func:`~repro.service.protocol.decode_reply_rows` row of
    request byte ``b``: what ``parse_batch_body`` ->
    ``decode_batch_detailed`` -> ``build_decode_response_body`` give for
    it, the byte's spare low bits ignored as ``unpack_bits`` ignores
    them.  The second, ``(256, 4)`` ``int64``, holds in row ``b`` the
    :func:`~repro.service.telemetry.decode_outcomes` of that frame.

    Both are filled by the decoder's own ``decode_batch_detailed`` on
    all 256 bytes unpacked, so they are bit-identical to it by
    construction.  Built once per decoder object, memoised
    process-wide and read-only: every session of a
    :func:`~repro.coding.registry.get_codec` pair shares them.
    """
    tables = _REPLY_TABLES.get(decoder)
    if tables is None:
        request = np.arange(256, dtype=np.uint8)[:, None]
        result = decoder.decode_batch_detailed(
            np.unpackbits(request, axis=1, count=decoder.code.n)
        )
        replies = protocol.decode_reply_rows(
            result.messages, result.corrected_errors, result.detected_uncorrectable
        )
        outcomes = decode_outcomes(
            result.corrected_errors, result.detected_uncorrectable
        )
        tables = _REPLY_TABLES[decoder] = (
            read_only(np.ascontiguousarray(replies.T)),
            read_only(outcomes),
        )
    return tables


def free_session_id(start: int, live: Container[int]) -> int:
    """The first id from ``start`` on that no live session holds.

    Ids cycle through ``[1, MAX_SESSION_ID]``: a ``start`` past the top
    wraps to 1, and live ids are skipped, so a new session never takes
    the wire id of an open one.  A closed id comes back only once the
    cursor has cycled past every other id.
    """
    session_id = (start - 1) % MAX_SESSION_ID + 1
    while session_id in live:
        session_id = session_id % MAX_SESSION_ID + 1
    return session_id


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to (re)build one codec session.

    A config is canonical from construction: without ``stream_depth``
    the other stream fields change nothing and take their defaults, so
    configs that serve alike compare alike everywhere.

    Attributes
    ----------
    code : str
        Short code name accepted by :func:`repro.coding.registry.get_code`.
    decoder : str, optional
        Decoder strategy name; ``None`` picks the paper's pairing.
    p01, p10 : float
        Error-injection flip probabilities applied to *encode* responses
        (0/0 disables injection entirely — no RNG is consumed).
    seed : int, optional
        Seed of the session's injection stream; ``None`` draws fresh
        entropy per session.
    stream_depth : int, optional
        Enables the streaming decode lane (``OP_DECODE_STREAM``): the
        cross-frame interleaving depth of the session's
        :class:`~repro.coding.stream.SlidingWindowDecoder`.  ``None``
        (the default) leaves the session batch-only.
    stream_shift : int
        Extra frame delay per bit class of the stream layout; only
        meaningful with ``stream_depth``.
    stream_deadline_us : float, optional
        Per-session latency deadline of the streaming lane: open
        codewords older than this are forced to best-effort decisions
        and counted as deadline misses.  ``None`` defers to the
        server-wide default (which may itself be unbounded).
    memory_lines : int, optional
        Enables the memory lane (``OP_MEM_*``): the session becomes a
        :class:`~repro.memory.frontend.MemoryEccFrontend` of this many
        ECC-protected lines plus a :class:`~repro.memory.scrub.Scrubber`.
        ``None`` (the default) leaves the session memory-less.
    memory_rot : float
        Retention-rot rate: before each scrub step, every bit of the
        swept window flips independently with this probability, drawn
        from the session's seeded stream.  Only meaningful with
        ``memory_lines``; ``0.0`` injects nothing and consumes no draws.
    """

    code: str
    decoder: Optional[str] = None
    p01: float = 0.0
    p10: float = 0.0
    seed: Optional[int] = None
    stream_depth: Optional[int] = None
    stream_shift: int = 1
    stream_deadline_us: Optional[float] = None
    memory_lines: Optional[int] = None
    memory_rot: float = 0.0

    def __post_init__(self):
        if self.stream_depth is None:
            object.__setattr__(self, "stream_shift", 1)
            object.__setattr__(self, "stream_deadline_us", None)

    def label(self) -> str:
        parts = [self.code, self.decoder or "default"]
        if self.p01 or self.p10:
            parts.append(f"p01={self.p01:g},p10={self.p10:g}")
        if self.stream_depth is not None:
            parts.append(f"stream={self.stream_depth}x{self.stream_shift}")
        if self.memory_lines is not None:
            parts.append(f"mem={self.memory_lines}@{self.memory_rot:g}")
        return ":".join(parts)

    def to_dict(self) -> Dict:
        """Every field, so that ``from_dict(to_dict(c)) == c``: the pool
        ships this dict to the worker that builds the session."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "SessionConfig":
        """The config an OPEN body describes; an absent or ``null`` field
        takes its default.  Fields are type-checked, never converted: one
        that is not a JSON integer, finite number or string as due (a bool
        is none of them) is a :class:`~repro.errors.SessionError` naming it."""

        def field(name, kind, default=None):
            value = payload.get(name)
            if value is None:
                return default
            if kind is float and type(value) is int:
                value = float(value) if abs(value) <= sys.float_info.max else math.inf
            if type(value) is not kind or (kind is float and not math.isfinite(value)):
                due = {int: "an integer", float: "a finite number", str: "a string"}
                raise SessionError(
                    f"session config field {name!r} must be {due[kind]}, "
                    f"got {payload[name]!r}"
                )
            return value

        code = field("code", str)
        if code is None:
            raise SessionError("session config must name a 'code'")
        return cls(
            code=code,
            decoder=field("decoder", str) or None,
            p01=field("p01", float, 0.0),
            p10=field("p10", float, 0.0),
            seed=field("seed", int),
            stream_depth=field("stream_depth", int),
            stream_shift=field("stream_shift", int, 1),
            stream_deadline_us=field("stream_deadline_us", float),
            memory_lines=field("memory_lines", int),
            memory_rot=field("memory_rot", float, 0.0),
        )


def _refusal(exc: Exception) -> SessionError:
    """A config mistake as a SessionError; ``str`` of a KeyError quotes it."""
    return SessionError(exc.args[0] if isinstance(exc, KeyError) else str(exc))


class CodecSession:
    """One served (code, decoder, channel-policy) binding and its state.

    The code and decoder are the process-wide pair
    :func:`~repro.coding.registry.get_codec` memoises, shared with every
    other session of that code.  Everything else that lives and dies
    with the session is its own: the injection channel's RNG, its
    telemetry series, its batch lanes (:attr:`lanes`, one per op, made
    by :meth:`~repro.service.batcher.MicroBatcher.submit`), its stream
    window and memory lane (made on first use by :meth:`stream_lane` and
    :meth:`memory_lane`), the id set of the connection that opened it
    (:attr:`owner`) and, at a pool's front, the index of the worker
    that hosts it (:attr:`worker`).  :meth:`close` ends all of it.  The
    series are created on ``service`` (a private recorder when ``None``)
    and labelled with the code's canonical name, so every spelling of
    one code shares its ``code`` label.
    """

    def __init__(
        self,
        session_id: int,
        config: SessionConfig,
        service: Optional[ServiceTelemetry] = None,
    ):
        # Composite code names make bad configs richer than unknown
        # names: a mis-parameterised composite raises ValueError /
        # DimensionError (via CodingError) and a strategy applied to an
        # incompatible code raises TypeError.  All of them are client
        # configuration mistakes, so all map to SessionError rather
        # than escaping as internal server errors.
        _config_errors = (KeyError, TypeError, ValueError, CodingError)
        try:
            name = canonical_code_name(config.code)
        except _config_errors as exc:
            raise _refusal(exc) from exc
        # Composite codes can be deep (k·depth up to hundreds of bits);
        # the tabulating strategies (coset tables are 2^(n-k) rows,
        # codebooks 2^k) would let one session config OOM the server.
        # Composites are served through their streaming wrapper
        # decoders only — refused by name, before anything is built.
        if ":" in name and config.decoder not in (None, "interleaved", "concatenated"):
            raise SessionError(
                f"composite code {config.code!r} must use its composite "
                f"decoder (got strategy {config.decoder!r}); configure the "
                "constituent decoders library-side instead"
            )
        try:
            self.code, self.decoder = get_codec(name, config.decoder)
        except _config_errors as exc:
            raise _refusal(exc) from exc
        if config.stream_depth is not None and config.stream_depth < 1:
            raise SessionError(
                f"stream_depth must be >= 1, got {config.stream_depth}"
            )
        if config.stream_shift < 0:
            raise SessionError(
                f"stream_shift must be non-negative, got {config.stream_shift}"
            )
        if config.stream_depth is not None:
            span = stream_span(config.stream_depth, config.stream_shift)
            if span * self.code.n > MAX_STREAM_WINDOW_VALUES:
                raise SessionError(
                    f"stream window of (stream_depth - 1) * stream_shift = {span} "
                    f"codewords of {self.code.n} values exceeds "
                    f"MAX_STREAM_WINDOW_VALUES ({MAX_STREAM_WINDOW_VALUES})"
                )
        if config.stream_deadline_us is not None and not config.stream_deadline_us > 0:
            raise SessionError(
                f"stream_deadline_us must be positive, got "
                f"{config.stream_deadline_us}"
            )
        if config.memory_lines is not None:
            from repro.memory.frontend import MAX_MEMORY_LINES

            if not 1 <= config.memory_lines <= MAX_MEMORY_LINES:
                raise SessionError(
                    f"memory_lines must lie in [1, {MAX_MEMORY_LINES}], "
                    f"got {config.memory_lines}"
                )
            if not 0.0 <= config.memory_rot <= 1.0:
                raise SessionError(
                    f"memory_rot must lie in [0, 1], got {config.memory_rot}"
                )
        elif config.memory_rot:
            raise SessionError("memory_rot requires memory_lines")
        self.session_id = session_id
        self.config = config
        #: Open time on the telemetry clock (STATS reports the uptime).
        self.opened_at = time.perf_counter()
        self.channel: Optional[BinaryChannel] = None
        self._rng: Optional[np.random.Generator] = None
        if config.p01 or config.p10:
            # A probability outside [0, 1] or a seed numpy refuses.
            try:
                self.channel = BinaryChannel(p01=config.p01, p10=config.p10)
                self._rng = as_generator(config.seed)
            except _config_errors as exc:
                raise _refusal(exc) from exc
        self.telemetry = (
            SessionTelemetry()
            if service is None
            else service.session(session_id, code=name)
        )
        self.owner: Optional[Set[int]] = None
        self.lanes: Dict[str, "_Lane"] = {}
        self.stream: Optional["StreamLane"] = None
        self.memory: Optional["MemoryLane"] = None
        self.worker: Optional[int] = None

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    def describe(self) -> Dict:
        payload = {
            "session_id": self.session_id,
            "code": self.code.name,
            "n": self.n,
            "k": self.k,
            "d_min": self.code.minimum_distance,
            "decoder": self.decoder.strategy_name,
            "p01": self.config.p01,
            "p10": self.config.p10,
        }
        if self.config.stream_depth is not None:
            payload["stream_depth"] = self.config.stream_depth
            payload["stream_shift"] = self.config.stream_shift
            payload["stream_span"] = stream_span(
                self.config.stream_depth, self.config.stream_shift
            )
            payload["stream_deadline_us"] = self.config.stream_deadline_us
        if self.config.memory_lines is not None:
            payload["memory_lines"] = self.config.memory_lines
            payload["memory_rot"] = self.config.memory_rot
        return payload

    # -- kernels the scheduler dispatches to ---------------------------
    def encode_frames(self, messages: np.ndarray) -> np.ndarray:
        """Encode a ``(batch, k)`` block; inject channel errors if configured."""
        codewords = self.code.encode_batch(messages)
        if self.channel is not None:
            codewords = self.channel.transmit(codewords, random_state=self._rng)
        return codewords

    def decode_frames(self, rows: np.ndarray) -> np.ndarray:
        """Decode a block of packed received words into DECODE reply rows.

        ``rows`` is ``(batch, ceil(n / 8))`` ``uint8``, the words as the
        wire packs them.  Returns :func:`~repro.service.protocol.decode_reply_rows`
        rows, ``(batch, ceil(k / 8) + 2)``.  For a code with n <= 8 each
        frame is one byte, and the block is one gather from the
        decoder's :func:`reply_table`; its outcome counts are a
        ``bincount`` of the same bytes times the table's outcome
        matrix.  Wider codes unpack the words, run
        :meth:`~repro.coding.decoders.base.Decoder.decode_batch_detailed`
        and pack its result.  Either way each row is what
        :func:`~repro.service.protocol.build_decode_response_body`
        writes for ``decode_batch_detailed`` of the unpacked word.
        """
        if self.n <= REPLY_TABLE_N_LIMIT:
            columns, outcomes = reply_table(self.decoder)
            index = rows.reshape(-1)
            self.telemetry.record_decode_counts(
                *(np.bincount(index, minlength=256) @ outcomes)
            )
            # Gathered column-major, so the reply body copies each
            # column whole.
            return columns.take(index, axis=1).T
        result = self.decoder.decode_batch_detailed(
            np.unpackbits(rows, axis=1, count=self.n)
        )
        self.telemetry.record_decode_outcome(
            result.corrected_errors, result.detected_uncorrectable
        )
        return protocol.decode_reply_rows(
            result.messages, result.corrected_errors, result.detected_uncorrectable
        )

    def decode_soft_frames(self, confidences: np.ndarray) -> np.ndarray:
        """Soft-decode a ``(batch, n)`` float confidence block into reply rows.

        Runs the decoder's vectorised soft kernel
        (:meth:`~repro.coding.decoders.base.Decoder.decode_soft_batch_detailed`),
        records the outcome under the telemetry's soft counters, so the
        stats endpoint can report how many frames the soft path
        repaired, and returns its
        :func:`~repro.service.protocol.decode_reply_rows`, as
        :meth:`decode_frames` does.
        """
        result = self.decoder.decode_soft_batch_detailed(confidences)
        self.telemetry.record_decode_outcome(
            result.corrected_errors, result.detected_uncorrectable, soft=True
        )
        return protocol.decode_reply_rows(
            result.messages, result.corrected_errors, result.detected_uncorrectable
        )

    # -- lanes that bypass the batcher, and the close -------------------
    def stream_lane(self) -> "StreamLane":
        """The session's streaming lane, created on first use.

        Its deadline is the session config's ``stream_deadline_us``;
        ``None`` leaves the stream unbounded.
        """
        if self.stream is None:
            from repro.service.stream import StreamLane

            config = self.config
            if config.stream_depth is None:
                raise ServiceError(
                    f"session {self.session_id} is not configured for "
                    "streaming; open it with stream_depth set"
                )
            self.stream = StreamLane(
                self,
                depth=config.stream_depth,
                shift=config.stream_shift,
                deadline_us=config.stream_deadline_us,
            )
        return self.stream

    def memory_lane(self) -> "MemoryLane":
        """The session's memory lane, created on first use.

        Like :meth:`stream_lane`, the lane is built deterministically
        from the session config (store zeroed, rot stream reseeded), so
        a respawned pool worker replaying OP_W_OPEN recovers an
        identical lane for an identical transaction history.
        """
        if self.memory is None:
            from repro.service.memory import MemoryLane

            self.memory = MemoryLane(self)
        return self.memory

    def close(self) -> Dict:
        """End the session's state and return the CLOSE reply.

        Flushes every batch lane (reason ``close``), so no queued frame
        is stranded and no turn flush stays armed; drains the stream,
        whose open windows resolve ``STREAM_ROW_FLUSHED``; and drops the
        memory store.  The session lets go of all three: a lane's kernel
        is a bound method of the session, so holding them would keep a
        closed session alive until the cyclic collector ran.
        """
        lanes, self.lanes = self.lanes, {}
        for lane in lanes.values():
            lane.flush("close")
        stream, self.stream = self.stream, None
        if stream is not None:
            stream.close()
        memory, self.memory = self.memory, None
        return {
            "closed": self.session_id,
            "code": self.code.name,
            "lanes_closed": len(lanes),
            "stream_closed": stream is not None,
            "memory_closed": memory is not None,
        }


class SessionRegistry:
    """Id-indexed store of live sessions; every open builds a new one.

    The one table keyed by session id: all else a session holds lives
    on the :class:`CodecSession` itself.  Each session records into
    ``telemetry`` (a private one by default) from its first request on;
    closing the session folds its series.  A session opened with an
    ``owner`` set is listed in it while live, so the connection that
    opened it can close it when it ends.
    """

    def __init__(self, telemetry: Optional[ServiceTelemetry] = None):
        self._sessions: Dict[int, CodecSession] = {}
        self._next_id = 1
        self._telemetry = telemetry if telemetry is not None else ServiceTelemetry()

    def open(
        self,
        config: SessionConfig,
        session_id: Optional[int] = None,
        owner: Optional[Set[int]] = None,
    ) -> CodecSession:
        """Open a new session for ``config``.

        Two opens of one config are two sessions, each with its own
        injection stream, stream window and memory lane.  ``owner``, if
        given, gets the new id now and loses it on :meth:`close`.

        Without ``session_id`` the session gets the first free id after
        the last one handed out (:func:`free_session_id`).
        ``session_id`` forces the id instead; it must lie in
        ``[1, MAX_SESSION_ID]`` and not be live.  The pooled front end
        owns the id space and uses this to rebuild sessions in a
        respawned worker under their original wire ids; the public
        ``OPEN`` opcode never forces one.
        """
        if session_id is not None and not 1 <= session_id <= MAX_SESSION_ID:
            raise SessionError(
                f"session id {session_id} lies outside [1, {MAX_SESSION_ID}]"
            )
        if session_id in self._sessions:
            raise SessionError(f"session id {session_id} is already bound")
        if len(self._sessions) >= MAX_SESSIONS:
            raise SessionError(
                f"session limit reached ({MAX_SESSIONS}); close the server"
            )
        if session_id is None:
            session_id = free_session_id(self._next_id, self._sessions)
        # Build first: a config the session refuses uses up no id.
        session = CodecSession(session_id, config, self._telemetry)
        self._next_id = session_id + 1
        self._sessions[session_id] = session
        if owner is not None:
            owner.add(session_id)
            session.owner = owner
        return session

    def get(self, session_id: int) -> CodecSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session id {session_id}")

    def admit(self, opcode: int, body: bytes) -> CodecSession:
        """The session a data-plane body names, once its reply fits the cap.

        Reads only the header, so the dispatch core that parses the body
        and the pooled front that forwards it refuse the same requests.
        """
        session_id, n_frames = protocol.peek_batch_header(body)
        session = self.get(session_id)
        protocol.check_reply_fits(opcode, n_frames, session.n, session.k)
        return session

    def close(self, session_id: int) -> Dict:
        """Close a session and return its CLOSE reply (:meth:`CodecSession.close`).

        The session is removed from the registry and from its owner's
        set, so its id is free again, and its telemetry series, the
        close's flushes included, fold into the service's
        ``session=""`` totals.  Unknown ids raise
        :class:`~repro.errors.SessionError`.
        """
        session = self.get(session_id)
        reply = session.close()
        del self._sessions[session_id]
        if session.owner is not None:
            session.owner.discard(session_id)
        self._telemetry.drop_session(session.telemetry)
        return reply

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[CodecSession]:
        """The live sessions, as a snapshot: opens and closes made while
        it is iterated do not disturb it."""
        return iter(list(self._sessions.values()))

    def table(self) -> Dict[int, Dict]:
        """Each live session's config label and uptime, for STATS."""
        now = time.perf_counter()
        return {
            sid: {"config": s.config.label(), "uptime_s": now - s.opened_at}
            for sid, s in self._sessions.items()
        }


def catalog() -> Dict:
    """The discovery payload behind ``repro codes`` and ``OP_CODES``.

    Lists every registered code with its parameters and the paper's
    default decoder pairing, plus the decoder strategies a session
    config may name.
    """
    codes = []
    for name in available_codes():
        code, decoder = get_codec(name)
        codes.append(
            {
                "name": name,
                "display_name": code.name,
                "n": code.n,
                "k": code.k,
                "rate": round(code.rate, 4),
                "d_min": code.minimum_distance,
                "default_decoder": decoder.strategy_name,
            }
        )
    return {"codes": codes, "decoders": available_decoders()}
