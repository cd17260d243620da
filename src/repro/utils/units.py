"""Unit conversions used across the performance and energy models."""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def bytes_to_gib(num_bytes: float) -> float:
    """Convert a byte count to gibibytes."""
    return num_bytes / GIB


def seconds_to_cycles(seconds: float, frequency_hz: float) -> int:
    """Convert seconds to a (ceiling) cycle count at ``frequency_hz``."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    cycles = seconds * frequency_hz
    # Tolerate float representation error (e.g. 7.5 ns × 400 MHz giving
    # 2.9999999999999996) before taking the ceiling.
    return int(-(-(cycles - 1e-9) // 1))
