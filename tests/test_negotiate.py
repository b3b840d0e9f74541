"""Selection semantics against a list-scan reference implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from befs import wire
from befs.negotiate import SelectionRule, ServerPolicy, select
from befs.suites import DEFAULT, FS_ONLY, REGISTRY, is_fs

UNIVERSE = sorted(REGISTRY)
ALL_VERSIONS = [wire.TLS1_0, wire.TLS1_1, wire.TLS1_2]


def reference_select(policy, offer, client_max):
    """Plain list-walk restatement of the selection contract."""
    ok_versions = [v for v in sorted(policy.versions) if v <= client_max]
    if not ok_versions:
        return None
    if policy.selection_rule is SelectionRule.SERVER_PREFERENCE:
        picks = [s for s in policy.preference if list(offer).count(s) > 0]
    else:
        picks = [s for s in offer if s in set(policy.preference)]
    if not picks:
        return None
    return (ok_versions[-1], picks[0])


def random_policy(rng):
    size = rng.randint(1, len(UNIVERSE))
    pref = rng.sample(UNIVERSE, size)
    rng.shuffle(pref)
    versions = rng.sample(ALL_VERSIONS, rng.randint(1, 3))
    rule = rng.choice(list(SelectionRule))
    return ServerPolicy(pref, frozenset(versions), rule)


def random_offer(rng):
    return tuple(rng.sample(UNIVERSE, rng.randint(1, len(UNIVERSE))))


def check_against_reference(policy, offer, client_max):
    got = select(policy, offer, client_max)
    want = reference_select(policy, offer, client_max)
    assert got == want


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300)
def test_select_matches_reference(seed):
    rng = random.Random(seed)
    policy = random_policy(rng)
    offer = random_offer(rng)
    check_against_reference(policy, offer, rng.choice(ALL_VERSIONS))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_failure_is_monotone_under_offer_shrinking(seed):
    rng = random.Random(seed)
    policy = random_policy(rng)
    offer = random_offer(rng)
    client_max = rng.choice(ALL_VERSIONS)
    if select(policy, offer, client_max) is None:
        sub = tuple(s for s in offer if rng.random() < 0.5)
        if sub:
            assert select(policy, sub, client_max) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_fs_only_offer_forces_fs_selection_when_possible(seed):
    rng = random.Random(seed)
    policy = random_policy(rng)
    if wire.TLS1_2 not in policy.versions:
        return
    if set(policy.preference) & set(FS_ONLY.suites):
        res = select(policy, FS_ONLY.suites, wire.TLS1_2)
        assert res is not None
        assert is_fs(res[1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_selected_results_satisfy_invariants(seed):
    rng = random.Random(seed)
    policy = random_policy(rng)
    offer = random_offer(rng)
    client_max = rng.choice(ALL_VERSIONS)
    res = select(policy, offer, client_max)
    if res is not None:
        version, suite = res
        assert suite in set(policy.preference)
        assert suite in offer
        assert version in policy.versions
        assert version <= client_max


def test_non_fs_only_server_fails_fs_offer():
    policy = ServerPolicy((0x002F,), frozenset({wire.TLS1_2}))
    assert select(policy, FS_ONLY.suites, wire.TLS1_2) is None


def test_non_fs_preferring_server_picks_non_fs_from_default():
    policy = ServerPolicy((0x002F, 0xC02F), frozenset({wire.TLS1_2}))
    res = select(policy, DEFAULT.suites, wire.TLS1_2)
    assert res == (wire.TLS1_2, 0x002F)


def test_same_server_guided_to_fs_by_narrow_offer():
    policy = ServerPolicy((0x002F, 0xC02F), frozenset({wire.TLS1_2}))
    res = select(policy, FS_ONLY.suites, wire.TLS1_2)
    assert res == (wire.TLS1_2, 0xC02F)


def test_client_preference_rule_takes_offer_order():
    policy = ServerPolicy(
        (0x002F, 0xC02F), frozenset({wire.TLS1_2}), SelectionRule.CLIENT_PREFERENCE
    )
    assert select(policy, (0xC02F, 0x002F), wire.TLS1_2) == (wire.TLS1_2, 0xC02F)


def test_version_is_highest_not_above_client_max():
    policy = ServerPolicy((0x002F,), frozenset({wire.TLS1_0, wire.TLS1_1}))
    assert select(policy, (0x002F,), wire.TLS1_2) == (wire.TLS1_1, 0x002F)


def test_version_mismatch_is_failure():
    policy = ServerPolicy((0x002F,), frozenset({wire.TLS1_2}))
    assert select(policy, (0x002F,), wire.TLS1_0) is None


def test_empty_offer_rejected():
    policy = ServerPolicy((0x002F,), frozenset({wire.TLS1_2}))
    with pytest.raises(ValueError):
        select(policy, (), wire.TLS1_2)


def test_policy_validation():
    with pytest.raises(ValueError):
        ServerPolicy((0x002F, 0x0035, 0x002F), frozenset({wire.TLS1_2}))
    with pytest.raises(ValueError):
        ServerPolicy((0x002F,), frozenset())
