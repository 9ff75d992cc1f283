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
sorted by color sequence, labels offset, edges concatenated (join_trees).
Rotation parities are local to a tree, so the sign is the product of the
trees' signs.  split_trees reads the bodies back off a key, so a change to
one tree is keyed on that tree alone (key_tree) and joined to the others.

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

Construction paths: a Diagram is made one way, by the validating
constructor, directly or through build (and canonical_diagram, which reads
keys that may come from a document).  join_trees, split_trees and recolored
work on keys and tree bodies and build no diagram.  canonicalize and
key_tree share one walk (_walk_tree) over a color per vertex, the owner of
each half-edge and each vertex's rotation: canonicalize reads them off a
Diagram, and key_tree off a tree body, whose ends are its owners and whose
rotations are ascending.  So a surgery on tree bodies (the enumerated trees,
the relators' grafts and exchanges) is keyed without a Diagram.  A Diagram
finds its components and its defect (why it is not such a forest, if it is
not) once, when it is made.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        seen, comps = [False] * len(self.colors), []
        for root in range(len(self.colors)):
            if seen[root]:
                continue
            seen[root] = True
            stack, comp = [root], []
            while stack:
                v = stack.pop()
                comp.append(v)
                for h in self.incidence[v]:
                    w = owner[h ^ 1]
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            if all(self.colors[v] is None for v in comp):
                raise DiagramError("every component needs at least one leg")
            comps.append(tuple(sorted(comp)))
        object.__setattr__(self, "_components", tuple(comps))
        # inject tests boringness and then canonicalizes: one scan serves both
        object.__setattr__(self, "_defect", _forest_defect(self))

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


_TAG_UNITRI = 0x55

#: Largest value of a one-byte key field.
KEY_BYTE_MAX = 255


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


def split_trees(key: bytes) -> list:
    """The trees of a forest key in block order, each as (label offset,
    body): the inverse of join_trees.  A tree's first edge leaves its root,
    whose label is one past every label of the trees before it; every other
    edge leaves a vertex already met."""
    n = key[2]
    colors, ends = key[4:4 + n], key[4 + n:]
    starts, seen = [], -1
    for i in range(0, len(ends), 2):
        if ends[i] > seen:
            starts.append(i)
        seen = max(seen, ends[i + 1])
    trees = []
    for a, b in zip(starts, starts[1:] + [len(ends)]):
        off = ends[a]
        trees.append((off, (tuple(colors[off:off + (b - a) // 2 + 1]),
                            tuple(x - off for x in ends[a:b]))))
    return trees


def _walk_tree(colors, owner, inc, root):
    """(canonical body, sign) of the tree of the leg root: colors per vertex,
    falsy at an internal vertex; owner, the vertex of each half-edge; inc,
    each vertex's half-edges in rotation order."""
    parent = {}
    flips = 0

    def walk(v, up):
        """(least leg color, preorder) of the subtree at v, entered through
        half-edge up; the subtree of the half-edge after up in v's rotation
        comes first unless its least color is the larger one (a flip)."""
        nonlocal flips
        parent[v] = owner[up ^ 1]
        if colors[v]:
            return colors[v], [v]
        h0, h1, h2 = inc[v]
        x, y = (h1, h2) if up == h0 else (h2, h0) if up == h1 else (h0, h1)
        a, b = walk(owner[x ^ 1], x ^ 1), walk(owner[y ^ 1], y ^ 1)
        if b[0] < a[0]:
            a, b = b, a
            flips += 1
        return a[0], [v, *a[1], *b[1]]

    h = inc[root][0]
    order = [root, *walk(owner[h ^ 1], h ^ 1)[1]]
    label = {v: i for i, v in enumerate(order)}
    # every edge joins a vertex to its parent, which comes first
    ends = sorted((label[parent[v]], label[v]) for v in order[1:])
    # The representative numbers edges in sorted order and takes rotations in
    # ascending half-edge order; at an internal vertex that is (parent,
    # first child, second child), so the input's rotation has parity -1
    # exactly at a flip.
    sign = -1 if flips & 1 else 1
    return (tuple(colors[v] or 0 for v in order), tuple(x for e in ends for x in e)), sign


def recolored(body, table) -> tuple:
    """A tree body with its leg colors translated by table, unkeyed."""
    colors, ends = body
    return tuple(bytes(colors).translate(table)), ends


def key_tree(body, keyed: dict) -> tuple:
    """(canonical body, sign) of a tree body whose leg colors are distinct
    but whose labels need not be canonical, keyed once per dict keyed, which
    the caller drops on return.  The body stands for the tree whose
    rotations are in ascending half-edge order, as a key's representative;
    it is walked from its least-colored leg, with no Diagram built."""
    if (made := keyed.get(body)) is None:
        colors, ends = body
        inc = [[] for _ in colors]
        for h, v in enumerate(ends):
            inc[v].append(h)
        root = colors.index(min(c for c in colors if c))
        made = keyed[body] = _walk_tree(colors, ends, inc, root)
    return made


def canonicalize(D: Diagram) -> SignedCanonicalKey:
    """Canonical byte key and orientation sign (+1 or -1) of a forest whose
    trees have distinct leg colors, joined from its trees' keys with the
    product of their signs; any other diagram raises DiagramError."""
    if D._defect:
        raise DiagramError(f"no canonical key: the diagram has {D._defect}")
    if D.n > KEY_BYTE_MAX:      # also bounds the walk's recursion depth
        raise DiagramError("diagram too large to encode")
    colors, trees, sign = D.colors, [], 1
    for comp in D.components():
        root = min((v for v in comp if colors[v] is not None), key=colors.__getitem__)
        tree, s = _walk_tree(colors, D._owner, D.incidence, root)
        trees.append(tree)
        sign *= s
    return SignedCanonicalKey(join_trees(D.k, trees), sign)


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


def inject(D: Diagram) -> LinComb:
    """Image of a diagram in the homotopy quotient: 0 when boring, otherwise
    its signed canonical term."""
    if is_boring(D):
        return LinComb.zero()
    sk = canonicalize(D)
    return LinComb.term(sk.key, sk.sign)
