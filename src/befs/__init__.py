"""Forward-secrecy negotiation toolkit: measurement heuristics and
best-effort client policies for pre-TLS-1.3 version/suite negotiation."""

from .client import (
    ALWAYS_ABORT,
    ALWAYS_PROCEED,
    FallbackStyle,
    PolicyConfig,
    PolicyMode,
    SessionOutcome,
    SessionStatus,
    connect,
    latency_bench,
)
from .suites import (
    DEFAULT,
    FS_AE_ONLY,
    FS_ONLY,
    ProfileKind,
    is_ae,
    is_fs,
)

__version__ = "0.1.0"

__all__ = [
    "ALWAYS_ABORT",
    "ALWAYS_PROCEED",
    "DEFAULT",
    "FS_AE_ONLY",
    "FS_ONLY",
    "FallbackStyle",
    "PolicyConfig",
    "PolicyMode",
    "ProfileKind",
    "SessionOutcome",
    "SessionStatus",
    "connect",
    "is_ae",
    "is_fs",
    "latency_bench",
    "__version__",
]
