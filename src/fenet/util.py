"""Small shared helpers: seeded RNG streams, pixel clamping, half-up rounding, type tests, file rewrites,
the process's malloc policy."""

import ctypes
import functools
import math
import numbers
import os

import numpy as np

_MASK64 = (1 << 64) - 1
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h


def rng_from(*keys) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of integers.

    Streams keyed by distinct tuples are independent, so work can be
    distributed per image/layer/sub-model without order effects.
    """
    return np.random.default_rng([int(k) & _MASK64 for k in keys])


def clamp01(a: np.ndarray) -> np.ndarray:
    return np.clip(a, 0.0, 1.0)


def round_half_up(a: np.ndarray) -> np.ndarray:
    # np.round ties to even; the pixel grid wants .5 to go up.
    return np.floor(a + 0.5)


def l2norm(a: np.ndarray):
    """The Euclidean norm of a float array's entries, bit for bit np.linalg.norm(a).

    It is the path np.linalg.norm takes for a real array with no ord or
    axis, without its dispatch: the dot of the entries in memory order.
    """
    f = a.ravel(order="K")
    return np.sqrt(f.dot(f))


def is_int(v) -> bool:
    """An integer of any kind but bool: JSON true is no count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A real number that a float holds finitely: no bool, NaN, inf or huge int."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def rewrite(path, data: bytes) -> None:
    """Make `data` the whole content of the file at `path`, writing over its old bytes in place.

    The same inode, mode and links as truncating and writing, but the file
    is cut to length only after the write: ext4 starts writing back a file
    that was truncated to zero and rewritten as soon as it is closed, which
    makes each such rewrite several times slower and sometimes stalls it
    for milliseconds.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


@functools.cache
def keep_freed_heap() -> bool:
    """Have malloc keep freed memory in this process for the next allocation; True if it was set.

    glibc by default gives the top of the heap back to the OS as soon as a
    few hundred KB of it are free, and maps blocks past its mmap threshold
    afresh, so each SGD step page-faults its numpy temporaries (0.1-3 MB)
    in again. This sets both thresholds to the ceilings that glibc's own
    dynamic thresholds reach on 64-bit: blocks under 32 MiB come from the
    heap, and up to 64 MiB of free heap stays in the process. Larger blocks
    are still mapped and unmapped one by one. Only the allocator's reuse
    changes, never a computed bit.

    It runs once per process; processes forked later inherit the setting.
    It is a no-op where the C library has no mallopt (macOS, for one).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to look in
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    trim_set = mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return bool(mmap_set and trim_set)
