"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: coding-theory errors, netlist/synthesis errors, simulation errors
and experiment/configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class CodingError(ReproError):
    """Base class for coding-theory errors."""


class DimensionError(CodingError):
    """A vector or matrix does not have the expected shape."""


class NotBinaryError(CodingError):
    """An array contains values other than 0 and 1."""


class SingularMatrixError(CodingError):
    """A GF(2) matrix inversion was requested for a singular matrix."""


class NetlistError(ReproError):
    """Base class for netlist construction and validation errors."""


class FanOutViolation(NetlistError):
    """An SFQ cell output drives more than one sink without a splitter."""


class UnknownCellError(NetlistError):
    """A cell type name is not present in the cell library."""


class SynthesisError(NetlistError):
    """Logic synthesis could not map the requested function."""


class SimulationError(ReproError):
    """Base class for simulator errors."""


class TimingViolation(SimulationError):
    """A pulse arrived inside a gate's setup/hold window."""


class ServiceError(ReproError):
    """Base class for streaming-codec-service errors."""


class SessionError(ServiceError):
    """A codec session id or configuration is unknown or invalid."""


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""


class CalibrationError(ExperimentError):
    """Sensitivity calibration failed to converge or is inconsistent."""
