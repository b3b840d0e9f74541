"""Ciphersuite registry and client offer profiles.

A suite is its IANA name, ``TLS_<kex>_WITH_<cipher>_<hash>``, and both
properties are read from that name once, into FS_CODEPOINTS and
AE_CODEPOINTS. A suite is forward-secure (FS) when its key exchange is
ephemeral ECDH (``ECDHE_*``), and authenticated-encryption (AE) when its
cipher is an AEAD mode (AES-GCM or ChaCha20-Poly1305). Finite-field DHE
codepoints are kept in the registry so simulated servers can carry them,
but they are never part of a client offer profile and are not counted as
FS here.
"""

from __future__ import annotations

from enum import Enum

# Client-facing order: ECDHE AEAD suites first, then ECDHE CBC, then
# static-RSA.  Filtering this order yields every offer profile, so the
# relative preference of any two suites is identical across profiles.
_OFFERED = (
    (0xC02B, "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256"),
    (0xC02F, "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256"),
    (0xC02C, "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384"),
    (0xC030, "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384"),
    (0xCCA9, "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256"),
    (0xCCA8, "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256"),
    (0xC009, "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA"),
    (0xC013, "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA"),
    (0xC014, "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA"),
    (0x009C, "TLS_RSA_WITH_AES_128_GCM_SHA256"),
    (0x009D, "TLS_RSA_WITH_AES_256_GCM_SHA384"),
    (0x002F, "TLS_RSA_WITH_AES_128_CBC_SHA"),
    (0x0035, "TLS_RSA_WITH_AES_256_CBC_SHA"),
    (0x000A, "TLS_RSA_WITH_3DES_EDE_CBC_SHA"),
)

# Server-side only: present so simulated fleets can carry DHE, never offered.
_SERVER_ONLY = (
    (0x009E, "TLS_DHE_RSA_WITH_AES_128_GCM_SHA256"),
    (0x0033, "TLS_DHE_RSA_WITH_AES_128_CBC_SHA"),
)

REGISTRY: dict[int, str] = dict(_OFFERED + _SERVER_ONLY)


def _kex_and_cipher(name: str) -> tuple[str, str]:
    """The ``<kex>`` and ``<cipher>`` of ``TLS_<kex>_WITH_<cipher>_<hash>``."""
    kex, _, cipher_hash = name.removeprefix("TLS_").partition("_WITH_")
    return kex, cipher_hash.rpartition("_")[0]


_PARTS = {cp: _kex_and_cipher(name) for cp, name in REGISTRY.items()}
FS_CODEPOINTS = frozenset(cp for cp, (kex, _) in _PARTS.items() if kex.startswith("ECDHE_"))
AE_CODEPOINTS = frozenset(
    cp for cp, (_, cipher) in _PARTS.items()
    if cipher in ("AES_128_GCM", "AES_256_GCM", "CHACHA20_POLY1305")
)

# TLS_FALLBACK_SCSV (RFC 7507): a client appends it to a downgraded retry;
# a server that would have negotiated more refuses with alert 86,
# inappropriate_fallback.  It names no algorithms and is never selectable.
FALLBACK_SIGNAL = 0x5600


DEFAULT_ORDER: tuple[int, ...] = tuple(cp for cp, _ in _OFFERED)


class ProfileKind(Enum):
    """A client offer profile: its name is its value, and ``suites`` its offer."""

    DEFAULT = ("DEFAULT", DEFAULT_ORDER)
    FS_ONLY = ("FS_ONLY", tuple(cp for cp in DEFAULT_ORDER if cp in FS_CODEPOINTS))
    FS_AE_ONLY = ("FS_AE_ONLY", tuple(
        cp for cp in DEFAULT_ORDER if cp in FS_CODEPOINTS and cp in AE_CODEPOINTS))

    suites: tuple[int, ...]

    def __new__(cls, value: str, suites: tuple[int, ...]) -> "ProfileKind":
        member = object.__new__(cls)
        member._value_ = value
        member.suites = suites
        return member


DEFAULT = ProfileKind.DEFAULT
FS_ONLY = ProfileKind.FS_ONLY
FS_AE_ONLY = ProfileKind.FS_AE_ONLY


def is_fs(codepoint: int) -> bool:
    return codepoint in FS_CODEPOINTS


def is_ae(codepoint: int) -> bool:
    return codepoint in AE_CODEPOINTS
