"""Per-session memory lane: an ECC frontend + scrubber behind the wire.

Sessions opened with ``memory_lines`` get one of these, created lazily
by :meth:`~repro.service.session.CodecSession.memory_lane` exactly like
the streaming lane.  Memory transactions bypass the micro-batcher: the
store is stateful and order-dependent (an RMW's read phase must see the
preceding write), so requests are applied synchronously in arrival
order, the same discipline :class:`~repro.service.stream.StreamLane`
uses for stream pushes.

Determinism contract: the lane's only randomness is the retention-rot
stream, a generator seeded from the session config's ``seed`` that is
consumed *only* by scrub steps with ``memory_rot > 0`` (one uniform
block per step, drawn by :meth:`~repro.memory.frontend.MemoryEccFrontend.inject_rot`).
Store contents, responses and counters are therefore pure functions of
the config and the transaction order — which is what lets a sequential
client mirror the lane with a local
:class:`~repro.memory.reference.ReferenceMemory` and assert the
service's SEC/DED accounting exact, and what makes worker-pool retries
and ``workers 0`` vs ``workers 2`` bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.coding.decoders.base import BatchDecodeResult
from repro.errors import ServiceError
from repro.memory.frontend import MemoryEccFrontend
from repro.memory.scrub import Scrubber
from repro.service.session import CodecSession
from repro.utils.rng import as_generator

#: Default scrub sweep width when a scrub request asks for 0 lines.
DEFAULT_SCRUB_LINES = 8


class MemoryLane:
    """One session's memory state: frontend, scrubber, rot stream.

    Parameters
    ----------
    session:
        The owning :class:`~repro.service.session.CodecSession`; must
        have been opened with ``memory_lines`` set.
    """

    def __init__(self, session: CodecSession):
        config = session.config
        if config.memory_lines is None:
            raise ServiceError(
                f"session {session.session_id} is not configured as a memory "
                "session; open it with memory_lines set"
            )
        self.session = session
        self.frontend = MemoryEccFrontend(
            session.code, session.decoder, config.memory_lines
        )
        self.scrubber = Scrubber(self.frontend, lines_per_step=DEFAULT_SCRUB_LINES)
        self.rot_rate = config.memory_rot
        self._rng = as_generator(config.seed)

    def write(
        self,
        addresses: np.ndarray,
        messages: np.ndarray,
        masks: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply a whole-line (``masks is None``) or RMW partial write.

        Returns per-line ``(corrected, detected)`` read-phase outcomes —
        all zeros for whole-line writes, which never decode.
        """
        telemetry = self.session.telemetry
        if masks is None:
            self.frontend.write(addresses, messages)
            count = np.asarray(addresses).reshape(-1).shape[0]
            return np.zeros(count, dtype=np.int64), np.zeros(count, dtype=bool)
        result: BatchDecodeResult = self.frontend.write_partial(
            addresses, messages, masks
        )
        telemetry.record_memory_path(
            "rmw", result.corrected_errors, result.detected_uncorrectable
        )
        return result.corrected_errors, result.detected_uncorrectable

    def read(self, addresses: np.ndarray) -> BatchDecodeResult:
        """Decode the addressed lines, charging the read-path telemetry."""
        result = self.frontend.read(addresses)
        self.session.telemetry.record_memory_path(
            "read", result.corrected_errors, result.detected_uncorrectable
        )
        return result

    def scrub_step(self, count: int) -> Dict:
        """Inject one window of retention rot, then sweep it.

        ``count`` lines starting at the scrubber position first rot
        (each bit flips with probability ``memory_rot``, drawn from the
        session's seeded stream — no draw at rate 0), then the scrubber
        decodes and repairs them.  ``count == 0`` uses the default
        width.  Returns the JSON-ready payload of the scrub response:
        the step report, the rot bits injected, and the frontend's
        cumulative counter snapshot.
        """
        if count == 0:
            count = DEFAULT_SCRUB_LINES
        if count < 0:
            raise ServiceError(f"scrub count must be non-negative, got {count}")
        count = min(count, self.frontend.lines)
        rot_bits = 0
        if self.rot_rate > 0.0:
            rot_bits = self.frontend.inject_rot(
                self._rng, self.rot_rate, self.scrubber.window(count)
            )
        report = self.scrubber.step(count)
        self.session.telemetry.record_memory_counts(
            "scrub",
            ops=report.count,
            sec=report.repaired_lines,
            ded=report.detected,
            corrected_bits=report.corrected_bits,
        )
        self.session.telemetry.record_memory_scrub(
            report.count, report.repaired_lines, rot_bits
        )
        return {
            "report": report.to_dict(),
            "rot_bits": rot_bits,
            "counters": self.frontend.counters.to_dict(),
            "position": self.scrubber.position,
        }

    def __repr__(self) -> str:
        return (
            f"<MemoryLane session={self.session.session_id} "
            f"lines={self.frontend.lines} rot={self.rot_rate:g}>"
        )
