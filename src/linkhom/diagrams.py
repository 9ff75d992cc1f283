"""Colored unitrivalent diagrams and their signed canonical forms.

A diagram is a graph whose vertices are either univalent legs carrying a color
in 1..k or internal trivalent vertices carrying a cyclic order (a rotation) of
their three incident half-edges.  Reversing a rotation negates the diagram, so
a diagram's canonical form is a byte key naming its isomorphism class together
with a sign, +1 or -1, relating the input orientation to the canonical one.

Keys exist only for forests whose trees have distinct leg colors: every
diagram the homotopy quotient keeps, and every slot-colored bounded diagram
without a cycle.  Any other diagram is boring (zero in the quotient), so
inject maps it to 0 before keying and canonicalize rejects it.

A key is a tag byte, k, the vertex count and the edge count, then the vertex
colors in canonical label order (0 for internal vertices), then the edges as
sorted label pairs.  The representative rebuilt from a key puts each edge's
even half-edge at its lower label and takes every rotation in ascending
half-edge order; the sign compares the input with that representative.
The trees' labels are contiguous blocks and each tree's edges sort among
themselves, so a forest's key is joined from its trees' keys: their bodies
sorted by color sequence, labels offset, edges concatenated.  Rotation
parities are local to a tree, so the sign is the product of the trees' signs.

Labels come in linear time, after Aho, Hopcroft and Ullman's rooted tree
isomorphism: each tree is rooted at its least-colored leg, children are
ordered by the least leg color below them, and the trees' preorders are
concatenated in the order of their preorder color sequences.  Such a sequence
determines its tree (it is the tree's Polish notation), so trees with equal
sequences are interchangeable, and since a tree with distinct leg colors has
no nontrivial automorphism the sign is never 0.

Half-edge convention: edge e owns half-edges 2e and 2e+1, the mate of h is
h ^ 1, and every half-edge is incident to exactly one vertex.  All values are
immutable; operations build new diagrams.

Construction paths: Diagram(...), build (and through it canonical_diagram,
which reads keys that may come from a document) validate their input.
representative rebuilds a key the library made; it, disjoint_union,
graft_with_map and other surgeries on valid diagrams assemble the result
with Diagram._assemble, which computes the half-edge owners without
re-checking what the parts guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DiagramError
from .lincomb import LinComb


@dataclass(frozen=True)
class Diagram:
    k: int
    colors: tuple        # per vertex: leg color in 1..k, or None for internal
    incidence: tuple     # per vertex: tuple of half-edge ids; 1 for legs, 3 cyclic for internal

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise DiagramError("k must be a positive integer")
        if len(self.colors) != len(self.incidence):
            raise DiagramError("colors and incidence lengths differ")
        owner = {}
        for v, (c, inc) in enumerate(zip(self.colors, self.incidence)):
            if c is None:
                if len(inc) != 3:
                    raise DiagramError(f"internal vertex {v} must carry exactly 3 half-edges")
            else:
                if not isinstance(c, int) or not 1 <= c <= self.k:
                    raise DiagramError(f"leg {v} has color {c!r} outside 1..{self.k}")
                if len(inc) != 1:
                    raise DiagramError(f"leg {v} must carry exactly 1 half-edge")
            for h in inc:
                if h in owner:
                    raise DiagramError(f"half-edge {h} attached to two vertices")
                owner[h] = v
        if sorted(owner) != list(range(len(owner))) or len(owner) % 2:
            raise DiagramError("half-edge ids must be exactly 0..2E-1")
        object.__setattr__(self, "_owner", tuple(owner[h] for h in range(len(owner))))
        for comp in self._components:
            if not any(self.colors[v] is not None for v in comp):
                raise DiagramError("every component needs at least one leg")

    @classmethod
    def _assemble(cls, k, colors, incidence, components=None) -> "Diagram":
        """A diagram built from parts that are already valid, unchecked: the
        half-edge owners are read off the incidence, and the components are
        taken as given or found when first asked for."""
        owner = [0] * sum(map(len, incidence))
        for v, inc in enumerate(incidence):
            for h in inc:
                owner[h] = v
        D = object.__new__(cls)
        D.__dict__.update(k=k, colors=colors, incidence=incidence, _owner=tuple(owner))
        if components is not None:
            D.__dict__["_components"] = components
        return D

    # -- basic structure -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def n_edges(self) -> int:
        return len(self._owner) // 2

    def vertex_of(self, h: int) -> int:
        return self._owner[h]

    def edge_ends(self, e: int) -> tuple:
        return self._owner[2 * e], self._owner[2 * e + 1]

    def legs(self):
        """(vertex, color) pairs in vertex order."""
        return [(v, c) for v, c in enumerate(self.colors) if c is not None]

    def components(self) -> tuple:
        """Vertex sets of connected components, each sorted, ordered by minimum."""
        return self._components

    @cached_property
    def _components(self) -> tuple:
        owner, inc = self._owner, self.incidence
        seen = [False] * self.n
        comps = []
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            stack, comp = [root], []
            while stack:
                v = stack.pop()
                comp.append(v)
                for h in inc[v]:
                    w = owner[h ^ 1]
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def _defect(self):
        # inject tests boringness and then canonicalizes: one scan serves both
        return _forest_defect(self)

    def degree(self) -> int:
        return self.n // 2


# -- constructors ---------------------------------------------------------


def build(k, vertices, edges, rotations=None) -> Diagram:
    """Assemble a diagram from vertex colors and edges given as vertex pairs.

    vertices: sequence of colors, None marking internal vertices.
    edges: sequence of (u, v) vertex indices; edge i owns half-edges 2i, 2i+1
    with 2i at u.  rotations, when given, maps an internal vertex to a cyclic
    triple of edge indices; a self-loop lists its edge twice and its two
    half-edges are taken in first/second occurrence order.  Without rotations
    the incident half-edges are taken in ascending order.
    """
    n = len(vertices)
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise DiagramError(f"edge {i} references a missing vertex")
        incident[u].append(2 * i)
        incident[v].append(2 * i + 1)
    if rotations:
        for v, rot in rotations.items():
            if vertices[v] is not None:
                raise DiagramError(f"rotation given for leg {v}")
            have = sorted(h // 2 for h in incident[v])
            if sorted(rot) != have:
                raise DiagramError(f"rotation at vertex {v} does not match its incident edges")
            halves, used = [], set()
            for e in rot:
                a, b = edges[e]
                if a == b:      # self-loop: halves in occurrence order
                    h = 2 * e if 2 * e not in used else 2 * e + 1
                else:
                    h = 2 * e if a == v else 2 * e + 1
                used.add(h)
                halves.append(h)
            incident[v] = halves
    return Diagram(k, tuple(vertices), tuple(tuple(inc) for inc in incident))


def empty(k) -> Diagram:
    return Diagram(k, (), ())


def segment(a, b, k) -> Diagram:
    """A single edge with legs colored a and b."""
    return build(k, [a, b], [(0, 1)])


def tripod(a, b, c, k) -> Diagram:
    """One internal vertex with legs a, b, c in rotation order."""
    return build(k, [a, b, c, None], [(3, 0), (3, 1), (3, 2)], {3: (0, 1, 2)})


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    if a.k != b.k:
        raise DiagramError("disjoint union needs equal k")
    shift, n = 2 * a.n_edges, a.n
    inc = a.incidence + tuple(tuple(h + shift for h in t) for t in b.incidence)
    comps = a.components() + tuple(tuple(v + n for v in c) for c in b.components())
    return Diagram._assemble(a.k, a.colors + b.colors, inc, comps)


def graft_with_map(E: Diagram, u: int, w: int):
    """Graft two same-colored legs at a new internal vertex with a fresh leg.

    Legs u and w are deleted, their stems meet a new trivalent vertex whose
    rotation is (stem of u, stem of w, new leg), and the third edge ends in a
    new leg of the same color.  Degree is preserved, and swapping u and w
    negates the class.  Returns the new diagram, the old-to-new vertex map for
    the surviving vertices, and the new leaf's id.
    """
    if u == w or E.colors[u] is None or E.colors[w] is None:
        raise DiagramError("graft needs two distinct legs")
    color = E.colors[u]
    if color != E.colors[w]:
        raise DiagramError("graft needs legs of one color")
    idmap = {}
    colors, incidence = [], []
    for v in range(E.n):
        if v in (u, w):
            continue
        idmap[v] = len(colors)
        colors.append(E.colors[v])
        incidence.append(E.incidence[v])
    stem_u, stem_w = E.incidence[u][0], E.incidence[w][0]
    fresh = 2 * E.n_edges
    leaf = len(colors) + 1
    colors += [None, color]
    incidence += [(stem_u, stem_w, fresh), (fresh + 1,)]
    return Diagram._assemble(E.k, tuple(colors), tuple(incidence)), idmap, leaf


# -- predicates -----------------------------------------------------------


def _forest_defect(D: Diagram):
    """Why D is not a forest of trees with distinct leg colors, or None when
    it is one."""
    comps, colors = D.components(), D.colors
    if D.n_edges != D.n - len(comps):       # a forest has E = V - #components
        return "a cycle"
    for comp in comps:
        legs = [colors[v] for v in comp if colors[v] is not None]
        if len(legs) != len(set(legs)):
            return "a repeated leg color"
    return None


def is_boring(D: Diagram) -> bool:
    """True when some component repeats a leg color or has a cycle."""
    return D._defect is not None


# -- canonical form --------------------------------------------------------


@dataclass(frozen=True)
class SignedCanonicalKey:
    key: bytes
    sign: int

    @property
    def hex(self) -> str:
        return self.key.hex()


_TAG_UNITRI = 0x55

#: Largest value of a one-byte key field.
KEY_BYTE_MAX = 255


def tree_body(key: bytes) -> tuple:
    """The body of a tree's key, (vertex colors, edge label pairs flattened),
    as join_trees takes it."""
    n = key[2]
    return tuple(key[4:4 + n]), tuple(key[4 + n:])


def join_trees(k, trees) -> bytes:
    """The key of the forest of these trees, each given by its key's body;
    with canonical trees the forest's sign is +1."""
    desc, ends = [], []
    # equal color sequences are equal trees, so ties need no further order
    for colors, flat in sorted(trees):
        shift = len(desc)
        desc += colors
        ends += [x + shift for x in flat]
    if max(k, len(desc), len(ends) // 2) > KEY_BYTE_MAX:
        raise DiagramError("diagram too large to encode")
    return bytes([_TAG_UNITRI, k, len(desc), len(ends) // 2, *desc, *ends])


def forest_key(D: Diagram, colors=None, k=None) -> SignedCanonicalKey:
    """Canonical key of a diagram known to be a forest whose trees have
    distinct leg colors, unchecked (canonicalize checks); joined from its
    trees' keys, with the product of their signs.  colors and k, when given,
    stand in for the leg colors and their bound: bounded keys pass each
    leg's slot color this way."""
    if D.n > KEY_BYTE_MAX:      # also bounds the walk's recursion depth
        raise DiagramError("diagram too large to encode")
    if colors is None:
        colors, k = D.colors, D.k
    owner, inc = D._owner, D.incidence
    up_of = [0] * D.n       # the half-edge through which the walk entered
    flips = 0

    def walk(v, up):
        """(least leg color, preorder) of the subtree at v, entered through
        half-edge up; the subtree of the half-edge after up in v's rotation
        comes first unless its least color is the larger one (a flip)."""
        nonlocal flips
        up_of[v] = up
        if colors[v] is not None:
            return colors[v], [v]
        h0, h1, h2 = inc[v]
        x, y = (h1, h2) if up == h0 else (h2, h0) if up == h1 else (h0, h1)
        a, b = walk(owner[x ^ 1], x ^ 1), walk(owner[y ^ 1], y ^ 1)
        if b[0] < a[0]:
            a, b = b, a
            flips += 1
        return a[0], [v, *a[1], *b[1]]

    label = [0] * D.n
    trees = []
    for comp in D.components():
        root = min((v for v in comp if colors[v] is not None), key=colors.__getitem__)
        h = inc[root][0]
        order = [root, *walk(owner[h ^ 1], h ^ 1)[1]]
        for i, v in enumerate(order):
            label[v] = i
        # every edge joins a vertex to its parent, which comes first
        ends = sorted((label[owner[up_of[v] ^ 1]], label[v]) for v in order[1:])
        trees.append((tuple(colors[v] or 0 for v in order), tuple(x for e in ends for x in e)))
    # The representative numbers edges in sorted order and takes rotations in
    # ascending half-edge order; at an internal vertex that is (parent,
    # first child, second child), so the input's rotation has parity -1
    # exactly at a flip.
    sign = -1 if flips & 1 else 1
    return SignedCanonicalKey(join_trees(k, trees), sign)


def canonicalize(D: Diagram) -> SignedCanonicalKey:
    """Canonical byte key and orientation sign (+1 or -1) of a forest whose
    trees have distinct leg colors; any other diagram raises DiagramError."""
    if D._defect:
        raise DiagramError(f"no canonical key: the diagram has {D._defect}")
    return forest_key(D)


def canonical_diagram(key: bytes) -> Diagram:
    """Rebuild the canonical representative encoded by a key, which may come
    from a document: a key that encodes no valid diagram raises DiagramError."""
    if len(key) < 4 or key[0] != _TAG_UNITRI:
        raise DiagramError("not a unitrivalent diagram key")
    k, n, m = key[1], key[2], key[3]
    if len(key) != 4 + n + 2 * m:
        raise DiagramError("truncated diagram key")
    colors = tuple(c if c else None for c in key[4:4 + n])
    edges = [(key[4 + n + 2 * i], key[5 + n + 2 * i]) for i in range(m)]
    return build(k, colors, edges)


def representative(key: bytes) -> Diagram:
    """canonical_diagram of a key this library made, such as a basis key,
    assembled unchecked."""
    n = key[2]
    incidence = [[] for _ in range(n)]
    for h, v in enumerate(key[4 + n:]):
        incidence[v].append(h)
    return Diagram._assemble(key[1], tuple(c if c else None for c in key[4:4 + n]),
                             tuple(map(tuple, incidence)))


def inject(D: Diagram, coeff=1) -> LinComb:
    """Image of a diagram in the homotopy quotient: 0 when boring, otherwise
    its signed canonical term."""
    if is_boring(D):
        return LinComb.zero()
    sk = canonicalize(D)
    return LinComb.term(sk.key, Fraction(coeff) * sk.sign)
