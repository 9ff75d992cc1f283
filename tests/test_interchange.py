"""Unit tests for the JSON interchange format.

Core claims:
    - serialize/parse round-trips preserve the canonical class of every
      basis forest in budget
    - parse accepts both dicts and JSON text
    - malformed documents fail with positioned ParseError messages
    - chord and bounded documents carry their diagram: a pairing keys to
      the chord key again, and a bounded document read by the reader kept
      here gives the segment orders and graph class of the key's oracle
      representative, and keys to the key again
"""

import json

import pytest

from linkhom.bases import enum_forests
from linkhom.bounded import enum_bounded
from linkhom.chords import enum_chord, pairing_key
from linkhom.diagrams import canonical_diagram, canonicalize, tripod
from linkhom.errors import ParseError
from linkhom.interchange import bounded_doc, chord_doc, parse, serialize
from linkhom.lincomb import terms_doc
from linkhom.relators import star_relators
from test_diagrams import BoundedDiagram, bounded_from_key, bounded_key


def serialize_text(D) -> str:
    """A diagram document as compact JSON text with sorted keys."""
    return json.dumps(serialize(D), sort_keys=True, separators=(",", ":"))


def relator_doc(relator) -> dict:
    """A relator as a JSON-compatible document: its id and its terms."""
    return {"id": relator.rid, "element": terms_doc(relator.element)}


def read_bounded(doc) -> BoundedDiagram:
    """A bounded document read back; BoundedDiagram checks the placement."""
    graph = parse(doc["graph"])
    return BoundedDiagram(doc["k"], graph, tuple(tuple(seg) for seg in doc["order"]))


# -- Round trips -----------------------------------------------------------------

@pytest.mark.parametrize("k,d", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_forest_round_trip(k, d):
    for key in enum_forests(k, d):
        D = canonical_diagram(key)
        assert canonicalize(parse(serialize(D))).key == key


def test_parse_accepts_json_text():
    D = tripod(1, 2, 3, 3)
    text = serialize_text(D)
    assert canonicalize(parse(text)).key == canonicalize(D).key


def test_serialize_text_stable():
    D = tripod(1, 2, 3, 3)
    assert serialize_text(D) == serialize_text(D)
    # sorted keys, no whitespace padding
    assert '"k": ' not in serialize_text(D)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chord_round_trip(d):
    for key in enum_chord(d):
        doc = chord_doc(key)
        assert doc["d"] == d
        assert pairing_key(doc["pairing"]) == key


def test_bounded_round_trip():
    for key in enum_bounded(3, 2):
        B = bounded_from_key(key)
        C = read_bounded(bounded_doc(key))
        assert C.k == B.k
        assert C.order == B.order
        assert canonicalize(C.graph).key == canonicalize(B.graph).key
        assert bounded_key(C.graph, C.order).key == key


def test_relator_doc_shape():
    r = list(star_relators(enum_forests(3, 2)))[0]
    doc = relator_doc(r)
    assert doc["id"] == r.rid
    assert isinstance(doc["element"], list)
    json.dumps(doc)   # serializable as-is


# -- Parse errors -----------------------------------------------------------------

def _base_doc():
    return {
        "k": 3,
        "vertices": [
            {"id": 0, "kind": "uni", "color": 1},
            {"id": 1, "kind": "uni", "color": 2},
            {"id": 2, "kind": "uni", "color": 3},
            {"id": 3, "kind": "tri", "rotation": [0, 1, 2]},
        ],
        "edges": [
            {"id": 0, "ends": [3, 0]},
            {"id": 1, "ends": [3, 1]},
            {"id": 2, "ends": [3, 2]},
        ],
    }


def test_parse_error_color_out_of_range():
    doc = _base_doc()
    doc["vertices"][0]["color"] = 9
    with pytest.raises(ParseError, match=r"color 9 out of range 1\.\.3"):
        parse(doc)


def test_parse_error_names_offending_vertex():
    doc = _base_doc()
    doc["vertices"][0]["color"] = 0
    with pytest.raises(ParseError, match=r"vertices\[0\]"):
        parse(doc)


def test_parse_error_duplicate_vertex_id():
    doc = _base_doc()
    doc["vertices"][1]["id"] = 0
    with pytest.raises(ParseError, match="duplicate"):
        parse(doc)


def test_parse_error_unknown_kind():
    doc = _base_doc()
    doc["vertices"][0]["kind"] = "quad"
    with pytest.raises(ParseError, match="kind"):
        parse(doc)


def test_parse_error_unknown_vertex_in_edge():
    doc = _base_doc()
    doc["edges"][0]["ends"] = [3, 7]
    with pytest.raises(ParseError):
        parse(doc)


def test_parse_error_wrong_valence():
    doc = _base_doc()
    doc["edges"].append({"id": 3, "ends": [0, 1]})
    with pytest.raises(ParseError, match="valence"):
        parse(doc)


def test_parse_error_bad_rotation_shape():
    doc = _base_doc()
    doc["vertices"][3]["rotation"] = [0, 1]
    with pytest.raises(ParseError, match="rotation"):
        parse(doc)


def test_parse_error_invalid_json_text():
    with pytest.raises(ParseError):
        parse("{not json")
