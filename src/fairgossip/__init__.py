"""Fair randomized gossip consensus: protocol core, simulator, and
experiment harness for studying coalition deviations at desk scale."""

import ctypes
import os

from fairgossip.protocol import (
    Certificate,
    ConfigError,
    Params,
    derive_params,
    payoff,
    verify_certificate,
)

__all__ = [
    "Certificate",
    "ConfigError",
    "Params",
    "derive_params",
    "payoff",
    "verify_certificate",
]

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Fix glibc's mmap and trim thresholds (M_MMAP_THRESHOLD = -3 and
    M_TRIM_THRESHOLD = -1 in malloc.h) at 32 and 64 MB. With its adaptive
    defaults, whether the few MB of numpy temporaries of a chunk of trials
    go back to the system, to be faulted in again by the next chunk,
    depends on the heap's layout. Does nothing where there is no mallopt."""
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)
        mallopt(-1, 64 << 20)


# on import, so every caller runs under the same thresholds: the CLI, the
# library and anything that imports it
_keep_freed_memory()
