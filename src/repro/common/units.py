"""Byte, bandwidth, and time units plus human-readable formatting.

All sizes in the code base are plain ``int``/``float`` byte counts and all
bandwidths are bytes per (simulated) second.  These constants keep the
experiment configurations readable, e.g. ``state_size=250 * GB``.
"""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

#: One megabit/gigabit per second expressed in bytes per second.
MBIT = 1_000_000 / 8
GBIT = 1_000_000_000 / 8

_SIZE_STEPS = [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]


def split_bytes(nbytes, cap):
    """Split a byte count into chunk sizes of at most ``cap``.

    >>> split_bytes(5, 2)
    [2, 2, 1]
    >>> split_bytes(0, 2)
    []
    """
    sizes = []
    remaining = nbytes
    while remaining > 0:
        size = min(cap, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


def format_bytes(nbytes):
    """Render a byte count as a short human-readable string.

    >>> format_bytes(250 * GB)
    '250.0 GB'
    >>> format_bytes(512)
    '512 B'
    """
    for step, suffix in _SIZE_STEPS:
        if abs(nbytes) >= step:
            return f"{nbytes / step:.1f} {suffix}"
    return f"{int(nbytes)} B"


def format_duration(seconds):
    """Render a duration in seconds as a short human-readable string.

    >>> format_duration(0.0421)
    '42.1 ms'
    >>> format_duration(192.0)
    '3.2 min'
    """
    if seconds < 0:
        return "-" + format_duration(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < 120.0:
        return f"{seconds:.1f} s"
    if seconds < 7200.0:
        return f"{seconds / 60.0:.1f} min"
    return f"{seconds / 3600.0:.1f} h"
