"""Registry and profile invariants.

The expected codepoint lists below were transcribed by hand from the IANA
TLS parameters registry and serve as the oracle for the filter-derived
profiles.
"""

import re

from hypothesis import given
from hypothesis import strategies as st

from befs import suites
from befs.suites import (
    DEFAULT,
    DEFAULT_ORDER,
    FALLBACK_SIGNAL,
    FS_AE_ONLY,
    FS_ONLY,
    REGISTRY,
    ProfileKind,
    is_ae,
    is_fs,
)

# Hand-listed oracle: every ECDHE suite in the default order.
EXPECTED_FS = (
    0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8, 0xC009, 0xC013, 0xC014,
)
# Hand-listed oracle: ECDHE suites whose cipher is GCM or ChaCha20-Poly1305.
EXPECTED_FS_AE = (0xC02B, 0xC02F, 0xC02C, 0xC030, 0xCCA9, 0xCCA8)

EXPECTED_DEFAULT = EXPECTED_FS + (0x009C, 0x009D, 0x002F, 0x0035, 0x000A)
# Hand-listed oracle: every GCM or ChaCha20-Poly1305 suite, static-RSA and
# DHE ones included.
EXPECTED_AE = EXPECTED_FS_AE + (0x009C, 0x009D, 0x009E)

IANA_NAME = re.compile(
    r"TLS_(ECDHE_ECDSA|ECDHE_RSA|DHE_RSA|RSA)_WITH_"
    r"(AES_128_GCM|AES_256_GCM|CHACHA20_POLY1305|AES_128_CBC|AES_256_CBC|3DES_EDE_CBC)_"
    r"(SHA|SHA256|SHA384)"
)


def test_default_profile_size_and_membership():
    assert len(DEFAULT.suites) == 14
    assert sorted(DEFAULT.suites) == sorted(EXPECTED_DEFAULT)


def test_fs_profile_matches_hand_listed_oracle():
    assert FS_ONLY.suites == EXPECTED_FS
    assert len(FS_ONLY.suites) == 9


def test_fs_ae_profile_matches_hand_listed_oracle():
    assert FS_AE_ONLY.suites == EXPECTED_FS_AE
    assert len(FS_AE_ONLY.suites) == 6


def test_profiles_are_order_preserving_filters():
    # Each narrower profile is the wider one with entries removed, never
    # reordered.
    def subsequence(sub, full):
        it = iter(full)
        return all(s in it for s in sub)

    assert subsequence(FS_ONLY.suites, DEFAULT.suites)
    assert subsequence(FS_AE_ONLY.suites, FS_ONLY.suites)


def test_profile_nesting_is_strict():
    assert set(FS_AE_ONLY.suites) < set(FS_ONLY.suites) < set(DEFAULT.suites)


def test_first_default_suite_is_fs_ae():
    assert DEFAULT.suites[0] in REGISTRY
    assert (is_fs(DEFAULT.suites[0]), is_ae(DEFAULT.suites[0])) == (True, True)


def test_is_fs_and_is_ae_match_the_hand_listed_sets_over_every_codepoint():
    every = range(0x10000)
    assert {cp for cp in every if is_fs(cp)} == set(EXPECTED_FS)
    assert {cp for cp in every if is_ae(cp)} == set(EXPECTED_AE)


def test_dhe_is_not_counted_forward_secure():
    assert not suites.is_fs(0x009E)
    assert suites.is_ae(0x009E)
    assert not suites.is_fs(0x0033)
    # DHE codepoints stay out of every client offer.
    for prof in ProfileKind:
        assert 0x009E not in prof.suites
        assert 0x0033 not in prof.suites


def test_registry_names_are_unique_iana_suite_names():
    names = list(REGISTRY.values())
    assert len(names) == len(set(names))
    for name in names:
        assert IANA_NAME.fullmatch(name), name


def test_fallback_signal_is_not_a_real_suite():
    assert FALLBACK_SIGNAL == 0x5600
    assert FALLBACK_SIGNAL not in REGISTRY
    assert not is_fs(FALLBACK_SIGNAL) and not is_ae(FALLBACK_SIGNAL)


def test_classify_codepoint_unknown_returns_none():
    assert REGISTRY.get(0xFFFF) is None
    assert not is_fs(0xFFFF) and not is_ae(0xFFFF)


def test_profile_kinds_are_the_offers():
    assert [(k.name, k.value) for k in ProfileKind] == [
        ("DEFAULT", "DEFAULT"), ("FS_ONLY", "FS_ONLY"), ("FS_AE_ONLY", "FS_AE_ONLY")]
    assert (DEFAULT, FS_ONLY, FS_AE_ONLY) == tuple(ProfileKind)
    assert ProfileKind("FS_ONLY") is FS_ONLY


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_is_fs_is_ae_never_raise(cp):
    fs, ae = suites.is_fs(cp), suites.is_ae(cp)
    if cp not in REGISTRY:
        assert not fs and not ae
