"""Ciphersuite registry and client offer profiles.

A suite is forward-secure (FS) when its key exchange is ephemeral ECDH,
and authenticated-encryption (AE) when its cipher is an AEAD mode
(AES-GCM or ChaCha20-Poly1305).  Finite-field DHE codepoints are kept in
the registry so simulated servers can carry them, but they are never part
of a client offer profile and are not counted as FS here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class KeyExchange(Enum):
    ECDHE = "ECDHE"
    DHE = "DHE"
    RSA = "RSA"


class Cipher(Enum):
    AES_128_GCM = "AES_128_GCM"
    AES_256_GCM = "AES_256_GCM"
    CHACHA20_POLY1305 = "CHACHA20_POLY1305"
    AES_128_CBC = "AES_128_CBC"
    AES_256_CBC = "AES_256_CBC"
    TRIPLE_DES_EDE_CBC = "3DES_EDE_CBC"


class HashAlg(Enum):
    SHA = "SHA"
    SHA256 = "SHA256"
    SHA384 = "SHA384"


AEAD_CIPHERS = frozenset(
    {Cipher.AES_128_GCM, Cipher.AES_256_GCM, Cipher.CHACHA20_POLY1305}
)


@dataclass(frozen=True)
class SuiteDescriptor:
    codepoint: int
    name: str
    kex: KeyExchange
    cipher: Cipher
    hash_alg: HashAlg

    @property
    def fs(self) -> bool:
        return self.kex is KeyExchange.ECDHE

    @property
    def ae(self) -> bool:
        return self.cipher in AEAD_CIPHERS


def _d(cp: int, name: str, kex: KeyExchange, cipher: Cipher, h: HashAlg) -> SuiteDescriptor:
    return SuiteDescriptor(cp, name, kex, cipher, h)


_E = KeyExchange.ECDHE
_R = KeyExchange.RSA
_DHE = KeyExchange.DHE

# Client-facing order: ECDHE AEAD suites first, then ECDHE CBC, then
# static-RSA.  Filtering this order yields every offer profile, so the
# relative preference of any two suites is identical across profiles.
_DEFAULT_DESCRIPTORS = (
    _d(0xC02B, "TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256", _E, Cipher.AES_128_GCM, HashAlg.SHA256),
    _d(0xC02F, "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", _E, Cipher.AES_128_GCM, HashAlg.SHA256),
    _d(0xC02C, "TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384", _E, Cipher.AES_256_GCM, HashAlg.SHA384),
    _d(0xC030, "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384", _E, Cipher.AES_256_GCM, HashAlg.SHA384),
    _d(0xCCA9, "TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256", _E, Cipher.CHACHA20_POLY1305, HashAlg.SHA256),
    _d(0xCCA8, "TLS_ECDHE_RSA_WITH_CHACHA20_POLY1305_SHA256", _E, Cipher.CHACHA20_POLY1305, HashAlg.SHA256),
    _d(0xC009, "TLS_ECDHE_ECDSA_WITH_AES_128_CBC_SHA", _E, Cipher.AES_128_CBC, HashAlg.SHA),
    _d(0xC013, "TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA", _E, Cipher.AES_128_CBC, HashAlg.SHA),
    _d(0xC014, "TLS_ECDHE_RSA_WITH_AES_256_CBC_SHA", _E, Cipher.AES_256_CBC, HashAlg.SHA),
    _d(0x009C, "TLS_RSA_WITH_AES_128_GCM_SHA256", _R, Cipher.AES_128_GCM, HashAlg.SHA256),
    _d(0x009D, "TLS_RSA_WITH_AES_256_GCM_SHA384", _R, Cipher.AES_256_GCM, HashAlg.SHA384),
    _d(0x002F, "TLS_RSA_WITH_AES_128_CBC_SHA", _R, Cipher.AES_128_CBC, HashAlg.SHA),
    _d(0x0035, "TLS_RSA_WITH_AES_256_CBC_SHA", _R, Cipher.AES_256_CBC, HashAlg.SHA),
    _d(0x000A, "TLS_RSA_WITH_3DES_EDE_CBC_SHA", _R, Cipher.TRIPLE_DES_EDE_CBC, HashAlg.SHA),
)

# Server-side only: present so simulated fleets can carry DHE, never offered.
_EXTRA_DESCRIPTORS = (
    _d(0x009E, "TLS_DHE_RSA_WITH_AES_128_GCM_SHA256", _DHE, Cipher.AES_128_GCM, HashAlg.SHA256),
    _d(0x0033, "TLS_DHE_RSA_WITH_AES_128_CBC_SHA", _DHE, Cipher.AES_128_CBC, HashAlg.SHA),
)

REGISTRY: dict[int, SuiteDescriptor] = {
    d.codepoint: d for d in _DEFAULT_DESCRIPTORS + _EXTRA_DESCRIPTORS
}

# TLS_FALLBACK_SCSV (RFC 7507): a client appends it to a downgraded retry;
# a server that would have negotiated more refuses with alert 86,
# inappropriate_fallback.  It names no algorithms and is never selectable.
FALLBACK_SIGNAL = 0x5600


DEFAULT_ORDER: tuple[int, ...] = tuple(d.codepoint for d in _DEFAULT_DESCRIPTORS)


class ProfileKind(Enum):
    """A client offer profile: its name is its value, and ``suites`` its offer."""

    DEFAULT = ("DEFAULT", DEFAULT_ORDER)
    FS_ONLY = ("FS_ONLY", tuple(cp for cp in DEFAULT_ORDER if REGISTRY[cp].fs))
    FS_AE_ONLY = ("FS_AE_ONLY", tuple(cp for cp in DEFAULT_ORDER if REGISTRY[cp].fs and REGISTRY[cp].ae))

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
    desc = REGISTRY.get(codepoint)
    return desc is not None and desc.fs


def is_ae(codepoint: int) -> bool:
    desc = REGISTRY.get(codepoint)
    return desc is not None and desc.ae
