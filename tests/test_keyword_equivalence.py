"""Equivalence of the compiled-regex ``is_valid_keyword`` with the historical
character loop.

PR 24 replaced the loop (one generator step per character, on every
``Operation`` / ``Property`` construction) with one ``fullmatch`` of a
compiled regex.  The accepted language must be *identical* — identifiers are
hashed into persisted fingerprints and validated on every load — so the
original implementation is kept here as a test fixture
(``legacy_is_valid_keyword``, the pattern of ``tests/test_lexer_equivalence.py``)
and compared over hand-picked edge cases and hypothesis-generated text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import is_valid_keyword

_LEGACY_ALLOWED = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ "
)


def legacy_is_valid_keyword(identifier: str) -> bool:
    """The pre-PR-24 implementation, verbatim."""
    if not identifier:
        return False
    if not identifier[0].isalpha():
        return False
    if identifier.endswith(" ") or "  " in identifier:
        return False
    return all(ch in _LEGACY_ALLOWED for ch in identifier)


EDGE_CASES = [
    "", " ", "_", "a", "Z", "9", "a_", "a_1", "_a", "9lives", "abc_123",
    "Full Table Scan", "Full  Table Scan", "Scan ", " Scan", "Scan  ", "a b", "a  b",
    "a _", "a 1", "a _ 1 _", "a\n", "a\nb", "\na", "a\t", "a\tb", "a\r", "a\x0b",
    "a\x00", "a\u00a0b", "a\u2003", "has-dash", "dot.ted", "a->b", "a=b", "a:b",
    # Non-ASCII letters: str.isalpha() says yes, the allowed set says no.
    "é", "éa", "aé", "Ünïcode", "日本語", "aß", "ǅ", "a١", "١a", "ａ", "aＡ",
    "a" * 200, "a " * 50 + "a", "a " * 50,
]


@pytest.mark.parametrize("identifier", EDGE_CASES)
def test_edge_cases_agree(identifier):
    assert is_valid_keyword(identifier) == legacy_is_valid_keyword(identifier)


def test_the_cases_cover_both_verdicts():
    verdicts = {legacy_is_valid_keyword(identifier) for identifier in EDGE_CASES}
    assert verdicts == {True, False}


def test_none_is_still_just_invalid():
    assert is_valid_keyword(None) is False


#: Dense in the interesting region: mostly allowed characters, so that long
#: valid keywords and single-defect strings are both common.
_NEAR_KEYWORDS = st.text(
    alphabet=st.one_of(
        st.sampled_from("abXY09_   "),
        st.sampled_from("\n\t\r\x00-.é١日ａ\u00a0"),
    ),
    max_size=24,
)


@settings(max_examples=600, deadline=None)
@given(identifier=st.one_of(_NEAR_KEYWORDS, st.text(max_size=12)))
def test_generated_text_agrees(identifier):
    assert is_valid_keyword(identifier) == legacy_is_valid_keyword(identifier)


@settings(max_examples=200, deadline=None)
@given(
    words=st.lists(
        st.text(alphabet="abcXYZ019_", min_size=1, max_size=6), min_size=1, max_size=5
    ),
    separator=st.sampled_from([" ", "  ", "\n", "\t", " \n", "_"]),
    lead=st.sampled_from(["", " ", "_", "7", "\n"]),
    trail=st.sampled_from(["", " ", "\n", "_", "  "]),
)
def test_assembled_keywords_agree(words, separator, lead, trail):
    identifier = lead + separator.join(words) + trail
    assert is_valid_keyword(identifier) == legacy_is_valid_keyword(identifier)
