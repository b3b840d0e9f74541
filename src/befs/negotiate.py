"""Server-side negotiation as a pure decision function.

Given a server policy and a client offer, compute what the server picks:
a (version, suite) pair or failure.  Failure is a value, mirroring the
fatal handshake_failure alert a live server would send.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence


class SelectionRule(Enum):
    SERVER_PREFERENCE = "SERVER_PREFERENCE"
    CLIENT_PREFERENCE = "CLIENT_PREFERENCE"


class Outcome(Enum):
    SELECTED = "SELECTED"
    FAILURE = "FAILURE"


@dataclass(frozen=True)
class ServerPolicy:
    supported: frozenset[int]
    preference: tuple[int, ...]
    versions: frozenset[int]
    selection_rule: SelectionRule = SelectionRule.SERVER_PREFERENCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "supported", frozenset(self.supported))
        object.__setattr__(self, "preference", tuple(self.preference))
        object.__setattr__(self, "versions", frozenset(self.versions))
        if len(self.preference) != len(self.supported) or set(self.preference) != self.supported:
            raise ValueError("preference must be a permutation of supported")
        if not self.versions:
            raise ValueError("versions must be non-empty")


@dataclass(frozen=True)
class NegotiationResult:
    outcome: Outcome
    version: Optional[int] = None
    suite: Optional[int] = None

    def __post_init__(self) -> None:
        if self.outcome is Outcome.SELECTED and (self.version is None or self.suite is None):
            raise ValueError("SELECTED requires version and suite")

    @property
    def selected(self) -> bool:
        return self.outcome is Outcome.SELECTED


FAILURE = NegotiationResult(Outcome.FAILURE)


@functools.cache
def _selected(version: int, suite: int) -> NegotiationResult:
    """The one SELECTED result of each (version, suite); results are frozen, so shared."""
    return NegotiationResult(Outcome.SELECTED, version=version, suite=suite)


def select(policy: ServerPolicy, offer: Sequence[int], client_max_version: int) -> NegotiationResult:
    """Outcome of one negotiation round.

    Version: highest server version not above the client's maximum.
    Suite: by the policy's selection rule, first preferred suite present
    in the offer (SERVER_PREFERENCE) or first offered suite the server
    supports (CLIENT_PREFERENCE).
    """
    if not offer:
        raise ValueError("offer must be non-empty")
    version = None
    for v in policy.versions:
        if v <= client_max_version and (version is None or v > version):
            version = v
    if version is None:
        return FAILURE
    if policy.selection_rule is SelectionRule.SERVER_PREFERENCE:
        offered = set(offer)
        for suite in policy.preference:
            if suite in offered:
                return _selected(version, suite)
    else:
        supported = policy.supported
        for suite in offer:
            if suite in supported:
                return _selected(version, suite)
    return FAILURE
