"""JSON-compatible interchange documents for diagrams and derived objects.

A diagram document looks like

    {"k": 3,
     "vertices": [{"id": 0, "kind": "uni", "color": 1},
                  {"id": 3, "kind": "tri", "rotation": [0, 1, 2]}],
     "edges": [{"id": 0, "ends": [0, 3]}]}

Vertex and edge ids are arbitrary integers, unique within their kind.  A
trivalent rotation lists incident edge ids in cyclic order; a self-loop lists
its edge twice.  When the rotation is omitted the incident edges are taken in
ascending id order.  Every integer field is a JSON integer: true and 1.0 are
rejected.  parse/serialize round-trip up to isomorphism: the parsed diagram
has the same canonical key.  parse is the one reader, for reduce and chi; no
command reads the chord and bounded documents that enumerate writes.  Those
are written from keys alone: bounded_doc reads the graph and each segment's
leg order off the slot colors of a bounded key.
"""

from __future__ import annotations

import json

from .diagrams import Diagram, build, canonical_diagram
from .errors import ParseError


def serialize(D: Diagram) -> dict:
    vertices = []
    for v, color in enumerate(D.colors):
        if color is None:
            vertices.append({"id": v, "kind": "tri",
                             "rotation": [h // 2 for h in D.incidence[v]]})
        else:
            vertices.append({"id": v, "kind": "uni", "color": color})
    edges = [{"id": e, "ends": list(D.edge_ends(e))} for e in range(D.n_edges)]
    return {"k": D.k, "vertices": vertices, "edges": edges}


def _require(cond, where, message):
    if not cond:
        raise ParseError(f"{where}: {message}")


def _load(doc):
    """A document given as JSON text, decoded; a dict or list as it is.
    Text that is not JSON, or nests too deeply to decode, is a ParseError."""
    if not isinstance(doc, (str, bytes)):
        return doc
    try:
        return json.loads(doc)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from None


def parse(doc) -> Diagram:
    """Read a diagram document (dict or JSON text); errors name the offender."""
    doc = _load(doc)
    _require(isinstance(doc, dict), "document", "expected an object")
    for field in ("k", "vertices", "edges"):
        _require(field in doc, "document", f"missing field {field!r}")
    k = doc["k"]
    _require(type(k) is int and k >= 1, "k", "must be an integer >= 1")
    for field in ("vertices", "edges"):
        _require(isinstance(doc[field], list), field, "expected an array")

    order = []          # vertex ids in document order
    colors = {}
    rotations = {}
    for i, v in enumerate(doc["vertices"]):
        where = f"vertices[{i}]"
        _require(isinstance(v, dict), where, "expected an object")
        _require(type(v.get("id")) is int, where, "id must be an integer")
        vid = v["id"]
        _require(vid not in colors, where, f"duplicate vertex id {vid}")
        kind = v.get("kind")
        _require(kind in ("uni", "tri"), where, f"kind must be uni or tri, got {kind!r}")
        if kind == "uni":
            color = v.get("color")
            _require(type(color) is int, where, "univalent vertex needs an integer color")
            _require(1 <= color <= k, where, f"color {color} out of range 1..{k}")
            _require("rotation" not in v, where, "rotation belongs to trivalent vertices")
            colors[vid] = color
        else:
            colors[vid] = None
            if "rotation" in v:
                rot = v["rotation"]
                _require(isinstance(rot, list) and len(rot) == 3
                         and all(type(e) is int for e in rot),
                         where, "rotation must list three edge ids")
                rotations[vid] = tuple(rot)
        order.append(vid)

    index = {vid: i for i, vid in enumerate(order)}
    edges = []
    edge_ids = {}
    for i, e in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        _require(isinstance(e, dict), where, "expected an object")
        _require(type(e.get("id")) is int, where, "id must be an integer")
        eid = e["id"]
        _require(eid not in edge_ids, where, f"duplicate edge id {eid}")
        ends = e.get("ends")
        _require(isinstance(ends, list) and len(ends) == 2
                 and all(type(end) is int for end in ends),
                 where, "ends must list two integer vertex ids")
        for end in ends:
            _require(end in index, where, f"unknown vertex id {end}")
        edge_ids[eid] = i
        edges.append((index[ends[0]], index[ends[1]]))

    valence = [0] * len(order)
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
    for vid in order:
        i = index[vid]
        want = 1 if colors[vid] is not None else 3
        _require(valence[i] == want, f"vertex {vid}",
                 f"{'univalent' if want == 1 else 'trivalent'} vertex has valence {valence[i]}")

    built_rotations = {}
    for vid, rot in rotations.items():
        where = f"vertex {vid}"
        for eid in rot:
            _require(eid in edge_ids, where, f"rotation names unknown edge {eid}")
        built_rotations[index[vid]] = tuple(edge_ids[eid] for eid in rot)
    try:
        return build(k, [colors[vid] for vid in order], edges, built_rotations)
    except Exception as exc:
        raise ParseError(str(exc)) from None


# -- documents enumerate writes --------------------------------------------------


def chord_doc(key: bytes) -> dict:
    return {"d": key[1], "pairing": list(key[2:])}


def bounded_doc(key: bytes) -> dict:
    """The graph of a bounded key this library made, its legs colored by
    segment, and each segment's legs top to bottom: slot color p*k + s is
    position p of segment s."""
    k, inner = key[1], canonical_diagram(key[2:])
    colors, order = list(inner.colors), [[] for _ in range(k)]
    for c, v in sorted((c, v) for v, c in enumerate(inner.colors) if c):
        colors[v] = (c - 1) % k + 1
        order[colors[v] - 1].append(v)
    graph = Diagram(k, tuple(colors), inner.incidence)
    return {"k": k, "graph": serialize(graph), "order": order}
