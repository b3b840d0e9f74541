"""Server-side negotiation as a pure decision function.

Given a server policy and a client offer, compute what the server picks:
the (version, suite) of the ServerHello it answers with, or None.  None
is the handshake_failure a live server sends.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .records import record


class SelectionRule(Enum):
    SERVER_PREFERENCE = "SERVER_PREFERENCE"
    CLIENT_PREFERENCE = "CLIENT_PREFERENCE"


@record
class ServerPolicy:
    """One server's suites in preference order, its versions and its selection rule.

    A repeated suite is refused.
    """

    preference: tuple[int, ...]
    versions: frozenset[int]
    selection_rule: SelectionRule = SelectionRule.SERVER_PREFERENCE

    def __post_init__(self) -> None:
        if type(self.preference) is not tuple:
            object.__setattr__(self, "preference", tuple(self.preference))
        if type(self.versions) is not frozenset:
            object.__setattr__(self, "versions", frozenset(self.versions))
        if len(set(self.preference)) != len(self.preference):
            raise ValueError("preference must not repeat a suite")
        if not self.versions:
            raise ValueError("versions must be non-empty")


def select(
    policy: ServerPolicy, offer: Sequence[int], client_max_version: int
) -> Optional[tuple[int, int]]:
    """The ``(version, suite)`` one negotiation round answers with.

    Version: highest server version not above the client's maximum.
    Suite: by the policy's selection rule, first preferred suite present
    in the offer (SERVER_PREFERENCE) or first offered suite the server
    supports (CLIENT_PREFERENCE). None is the handshake_failure a live
    server sends.
    """
    if not offer:
        raise ValueError("offer must be non-empty")
    version = None
    for v in policy.versions:
        if v <= client_max_version and (version is None or v > version):
            version = v
    if version is None:
        return None
    if policy.selection_rule is SelectionRule.SERVER_PREFERENCE:
        offered = set(offer)
        for suite in policy.preference:
            if suite in offered:
                return version, suite
    else:
        for suite in offer:
            if suite in policy.preference:
                return version, suite
    return None
