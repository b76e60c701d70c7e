"""Shared utilities: units, errors, deterministic RNG, and tabulation."""

from repro.common.units import (
    KB,
    MB,
    GB,
    TB,
    GBIT,
    MBIT,
    format_bytes,
    format_duration,
)
from repro.common.errors import (
    ReproError,
    SimulationError,
    OutOfMemoryError,
    StorageError,
    EngineError,
    ProtocolError,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "GBIT",
    "MBIT",
    "format_bytes",
    "format_duration",
    "ReproError",
    "SimulationError",
    "OutOfMemoryError",
    "StorageError",
    "EngineError",
    "ProtocolError",
]
