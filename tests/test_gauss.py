"""Unit tests for Gauss/PD code parsing, linking matrices, homotopy moves.

Core claims:
    - the fixture links report linking numbers 0, +1, 0
    - PD parsing agrees with hand-written Gauss codes
    - malformed codes fail with positioned errors
    - reversing a component negates its row and column
    - every move type preserves the linking matrix (fuzzed)
    - each crossing's components, read off the link's visit index, are
      those a scan of every visit finds (fuzzed)
    - text serialization round-trips
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linkhom.errors import ParseError
from linkhom.gauss import (
    GaussLink,
    _link,
    linking_matrix,
    parse_gauss,
    parse_pd,
    random_homotopy_move,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _load(name):
    return parse_gauss((FIXTURES / name).read_text())


def gauss_text(L: GaussLink) -> str:
    """The text format of L, which parse_gauss reads back."""
    signs = dict(L.signs)
    lines = []
    for comp in L.components:
        if not comp:
            lines.append("()")
            continue
        lines.append(" ".join(f"{'+' if signs[cid] > 0 else '-'}{cid}^{role}"
                              for cid, role in comp))
    return "\n".join(lines) + "\n"


def reverse_component(L: GaussLink, i: int) -> GaussLink:
    """Reverse the orientation of component i; mixed crossing signs flip."""
    signs = dict(L.signs)
    comps = [list(c) for c in L.components]
    comps[i] = comps[i][::-1]
    for cid in signs:
        a, b = L.component_of(cid)
        if (a == i) != (b == i):
            signs[cid] = -signs[cid]
    return _link(comps, signs)


# -- Fixtures ------------------------------------------------------------------

def test_unlink_matrix():
    L = _load("unlink2.gauss")
    assert linking_matrix(L) == [[0, 0], [0, 0]]


def test_hopf_matrix():
    L = _load("hopf.gauss")
    assert linking_matrix(L) == [[0, 1], [1, 0]]


def test_whitehead_matrix():
    L = _load("whitehead.gauss")
    assert linking_matrix(L) == [[0, 0], [0, 0]]


def test_pd_agrees_with_gauss():
    pd = parse_pd((FIXTURES / "hopf.pd").read_text())
    gauss = _load("hopf.gauss")
    assert linking_matrix(pd) == linking_matrix(gauss)


# -- Parsing --------------------------------------------------------------------

def test_parse_round_trip():
    L = _load("whitehead.gauss")
    assert parse_gauss(gauss_text(L)) == L


def test_parse_skips_comments_and_blanks():
    L = parse_gauss("# a comment\n\n+1^o +2^u\n+1^u +2^o\n")
    assert L.k == 2


def test_parse_empty_component_marker():
    L = parse_gauss("()\n()\n()\n")
    assert L.k == 3
    assert linking_matrix(L) == [[0] * 3 for _ in range(3)]


def test_parse_error_is_positioned():
    with pytest.raises(ParseError, match=r"line 1, token 2"):
        parse_gauss("+1^o junk\n+1^u\n")


def test_parse_error_sign_conflict():
    with pytest.raises(ParseError, match="sign conflict at crossing 1"):
        parse_gauss("+1^o -1^u\n")


def test_parse_error_wrong_visit_count():
    with pytest.raises(ParseError, match="crossing 1"):
        parse_gauss("+1^o\n")


def test_parse_error_double_over():
    with pytest.raises(ParseError):
        parse_gauss("+1^o +1^o\n")


def test_self_crossing_detection():
    L = parse_gauss("+1^o +1^u\n")
    assert L.is_self_crossing(1)
    H = _load("hopf.gauss")
    assert not H.is_self_crossing(1)


def test_pd_parse_error_bad_arc():
    with pytest.raises(ParseError):
        parse_pd("X[1,2,3,4]\nX[1,2,3,4]\ncomponent: 1 2 3 4\n")


# -- Reversal --------------------------------------------------------------------

def test_reverse_component_negates_row_and_column():
    L = _load("hopf.gauss")
    M = linking_matrix(L)
    R = linking_matrix(reverse_component(L, 0))
    assert R[0][1] == -M[0][1]
    assert R[1][0] == -M[1][0]
    assert R[1][1] == M[1][1]


def test_reverse_twice_is_identity_on_matrix():
    L = _load("whitehead.gauss")
    M = linking_matrix(reverse_component(reverse_component(L, 1), 1))
    assert M == linking_matrix(L)


# -- Moves ------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["unlink2.gauss", "hopf.gauss", "whitehead.gauss"])
@pytest.mark.parametrize("seed", [0, 1])
def test_moves_preserve_linking_matrix(name, seed):
    L = _load(name)
    M = linking_matrix(L)
    rng = random.Random(seed)
    seen = set()
    for _ in range(300):
        L, move = random_homotopy_move(L, rng)
        seen.add(move)
        assert linking_matrix(L) == M
    # the walk actually exercises growth and shrink moves
    assert "r1+" in seen
    assert "r2+" in seen


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_fuzzed_walks_stay_valid(seed):
    rng = random.Random(seed)
    L = _load("hopf.gauss")
    for _ in range(60):
        L, _ = random_homotopy_move(L, rng)
    # the constructor re-validates: two visits per crossing, one of each role
    assert parse_gauss(gauss_text(L)) == L
    assert linking_matrix(L) == [[0, 1], [1, 0]]


@pytest.mark.parametrize("name", ["unlink2.gauss", "hopf.gauss", "whitehead.gauss"])
@pytest.mark.parametrize("seed", [3, 4])
def test_component_of_matches_a_scan(name, seed):
    L = _load(name)
    rng = random.Random(seed)
    for _ in range(120):
        L, _ = random_homotopy_move(L, rng)
        for cid, _ in L.signs:
            scan = tuple(ci for ci, comp in enumerate(L.components) for c, _ in comp if c == cid)
            assert L.component_of(cid) == scan
            assert L.is_self_crossing(cid) == (scan[0] == scan[1])


def test_move_accepts_int_seed():
    L = _load("hopf.gauss")
    out, move = random_homotopy_move(L, 5)
    assert isinstance(out, GaussLink)
    assert isinstance(move, str)
