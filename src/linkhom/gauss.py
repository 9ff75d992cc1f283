"""Signed Gauss codes for links, linking matrices, and homotopy-move fuzzing.

Text format: one line per component.  Each token is `+id^o`, `-id^u` etc.,
naming a crossing, the sign it carries, and whether this visit passes over or
under; an empty component is written `()`.  Every crossing id must occur
exactly twice, once over and once under, with one consistent sign.

PD format: lines `X[a,b,c,d]` list the four arcs counterclockwise from the
incoming under-arc a (so the under strand runs a -> c), then one line per
component `component: a1 a2 ...` giving its arc cycle in orientation order.
The over strand runs d -> b for a positive crossing and b -> d for a negative
one; the direction is read off the component cycles.

Moves: random_homotopy_move reads one table, _MOVES, of (name, site finder,
move) for R1 and R2 addition and removal, R3 and a self-crossing sign flip.
Each finder lists its sites from one walk over the cyclically adjacent visit
pairs; the additions have no finder and always apply.  The move is drawn
uniformly among those that apply, then applies itself at a site drawn from
its list.  A lone visit is adjacent to itself: that is a one-visit component,
not a kink, so R1 removal skips it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import ParseError

_TOKEN = re.compile(r"([+-])(\d+)\^([ou])$")


@dataclass(frozen=True)
class GaussLink:
    components: tuple    # per component, tuple of (crossing id, "o" | "u")
    signs: tuple         # ((crossing id, +1 | -1), ...) sorted

    def __post_init__(self):
        seen, visits = {}, {}
        for ci, comp in enumerate(self.components):
            for i, (cid, role) in enumerate(comp):
                seen.setdefault(cid, []).append(role)
                visits[(cid, role)] = (ci, i)
        sign_ids = {cid for cid, _ in self.signs}
        for cid, roles in seen.items():
            if len(roles) != 2 or sorted(roles) != ["o", "u"]:
                raise ParseError(f"crossing {cid} must appear once over and once under")
            if cid not in sign_ids:
                raise ParseError(f"crossing {cid} has no sign")
        for cid, s in self.signs:
            if s not in (1, -1):
                raise ParseError(f"crossing {cid} has sign {s}")
            if cid not in seen:
                raise ParseError(f"sign given for unknown crossing {cid}")
        # (crossing id, "o" | "u") -> (component, position) of each visit
        object.__setattr__(self, "_visits", visits)

    @property
    def k(self) -> int:
        return len(self.components)

    def component_of(self, cid: int):
        """The components of the crossing's two visits, in ascending order."""
        return tuple(sorted((self._visits[(cid, "o")][0], self._visits[(cid, "u")][0])))

    def is_self_crossing(self, cid: int) -> bool:
        where = self.component_of(cid)
        return where[0] == where[1]


def _link(components, signs) -> GaussLink:
    return GaussLink(tuple(tuple(c) for c in components),
                     tuple(sorted(signs.items())))


def parse_gauss(text: str) -> GaussLink:
    components, signs = [], {}
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("no components")
    for ln, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens == ["()"]:
            components.append([])
            continue
        comp = []
        for ti, tok in enumerate(tokens, start=1):
            m = _TOKEN.match(tok)
            if not m:
                hint = "missing sign" if re.match(r"\d", tok) else "expected +id^o or -id^u"
                raise ParseError(f"line {ln}, token {ti}: {hint}: {tok!r}")
            sign = 1 if m.group(1) == "+" else -1
            cid = int(m.group(2))
            role = m.group(3)
            if signs.setdefault(cid, sign) != sign:
                raise ParseError(f"line {ln}, token {ti}: sign conflict at crossing {cid}")
            comp.append((cid, role))
        components.append(comp)
    return _link(components, signs)


_PD_X = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]$")


def parse_pd(text: str) -> GaussLink:
    crossings = []
    cycles = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("component:"):
            try:
                cycles.append([int(a) for a in line[len("component:"):].split()])
            except ValueError:
                raise ParseError(f"line {ln}: component arcs must be integers") from None
            continue
        m = _PD_X.match(line.replace(" ", ""))
        if not m:
            raise ParseError(f"line {ln}: expected X[a,b,c,d] or component: line")
        crossings.append(tuple(int(g) for g in m.groups()))
    if not crossings or not cycles:
        raise ParseError("need at least one X[...] and one component: line")

    nxt = {}
    for cyc in cycles:
        for i, arc in enumerate(cyc):
            if arc in nxt:
                raise ParseError(f"arc {arc} appears twice in component cycles")
            nxt[arc] = cyc[(i + 1) % len(cyc)]

    # Every walk step (arc, next arc) is one passage through one crossing.
    # Unders are forced (a -> c); overs take whichever direction is left,
    # iterating since a 2-arc cycle offers both directions at first sight.
    passages = {}
    signs = {}
    used = set()
    for cid, (a, b, c, d) in enumerate(crossings, start=1):
        if nxt.get(a) != c:
            raise ParseError(f"crossing {cid}: under strand {a} -> {c} not in component cycles")
        if a in used:
            raise ParseError(f"crossing {cid}: arc {a} already consumed")
        passages[(a, c)] = (cid, "u")
        used.add(a)
    pending = list(enumerate(crossings, start=1))
    while pending:
        stuck = True
        rest = []
        for cid, (a, b, c, d) in pending:
            options = [(src, dst) for src, dst in dict.fromkeys(((d, b), (b, d)))
                       if nxt.get(src) == dst and src not in used]
            if len(options) == 1:
                src, dst = options[0]
                passages[(src, dst)] = (cid, "o")
                used.add(src)
                signs[cid] = 1 if (src, dst) == (d, b) else -1
                stuck = False
            elif not options:
                raise ParseError(f"crossing {cid}: cannot orient over strand from component cycles")
            else:
                rest.append((cid, (a, b, c, d)))
        if stuck and rest:
            raise ParseError(f"crossing {rest[0][0]}: over strand direction is ambiguous")
        pending = rest

    components = []
    for ci, cyc in enumerate(cycles):
        comp = []
        for i, arc in enumerate(cyc):
            step = (arc, cyc[(i + 1) % len(cyc)])
            if step not in passages:
                raise ParseError(f"component {ci + 1}: arcs {step[0]} -> {step[1]} "
                                 "cross no listed crossing")
            comp.append(passages[step])
        components.append(comp)
    return _link(components, signs)


# -- linking numbers -------------------------------------------------------------


def linking_matrix(L: GaussLink):
    """lk(i, j) as half the signed count of visits between components i and j."""
    k = L.k
    twice = [[0] * k for _ in range(k)]
    signs = dict(L.signs)
    for cid in signs:
        i, j = L.component_of(cid)
        if i != j:
            twice[i][j] += signs[cid]
            twice[j][i] += signs[cid]
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if twice[i][j] % 2:
                raise ParseError(f"odd signed count between components {i + 1} and {j + 1}")
            out[i][j] = twice[i][j] // 2
    return out


# -- homotopy moves --------------------------------------------------------------


def _fresh_id(signs) -> int:
    return max(signs, default=0) + 1


def _adjacent(L):
    """(component, position, visit, next visit) for each cyclically adjacent
    pair of visits; a one-visit component pairs its visit with itself."""
    for ci, comp in enumerate(L.components):
        for i, visit in enumerate(comp):
            yield ci, i, visit, comp[(i + 1) % len(comp)]


def _dropped(L, ids):
    """L without the visits and signs of the crossings in ids."""
    return _link([[v for v in comp if v[0] not in ids] for comp in L.components],
                 {cid: s for cid, s in L.signs if cid not in ids})


def _remove(L, rng, sites):
    return _dropped(L, rng.choice(sites))


def _r1_add(L, rng, sites):
    comps = [list(c) for c in L.components]
    signs = dict(L.signs)
    ci = rng.randrange(len(comps))
    pos = rng.randrange(len(comps[ci]) + 1)
    cid = _fresh_id(signs)
    roles = ["o", "u"] if rng.random() < 0.5 else ["u", "o"]
    comps[ci][pos:pos] = [(cid, roles[0]), (cid, roles[1])]
    signs[cid] = rng.choice([1, -1])
    return _link(comps, signs)


def _r1_sites(L):
    """Kinks: both visits of one crossing adjacent.  Equal roles mean a lone
    visit adjacent to itself, a one-visit component and no kink."""
    return [(a[0],) for _, _, a, b in _adjacent(L) if a[0] == b[0] and a[1] != b[1]]


def _r2_add(L, rng, sites):
    comps = [list(c) for c in L.components]
    signs = dict(L.signs)
    ca = rng.randrange(len(comps))
    cb = rng.randrange(len(comps))
    pa = rng.randrange(len(comps[ca]) + 1)
    pb = rng.randrange(len(comps[cb]) + 1)
    x, y = _fresh_id(signs), _fresh_id(signs) + 1
    s = rng.choice([1, -1])
    over = [(x, "o"), (y, "o")]
    under = [(y, "u"), (x, "u")]
    # both pairs into one component: the later position goes first
    if ca == cb and pa < pb:
        comps[cb][pb:pb] = under
        comps[ca][pa:pa] = over
    else:
        comps[ca][pa:pa] = over
        comps[cb][pb:pb] = under
    signs[x], signs[y] = s, -s
    return _link(comps, signs)


def _r2_sites(L):
    """Adjacent same-role pairs whose partners are adjacent with opposite
    order and role, carrying opposite signs."""
    signs, index = dict(L.signs), L._visits
    sites = []
    for _, _, (x, rx), (y, ry) in _adjacent(L):
        if x == y or rx != ry or signs[x] != -signs[y]:
            continue
        flip = "u" if rx == "o" else "o"
        cj, j = index[(y, flip)]
        if index[(x, flip)] == (cj, (j + 1) % len(L.components[cj])):
            sites.append((x, y))
    return sites


def _r3_sites(L):
    """Triangle slides: an adjacent over-over pair whose under visits are each
    adjacent to one visit of a common third crossing."""
    comps, index = L.components, L._visits
    sites = []
    for ci, i, (x, rx), (y, ry) in _adjacent(L):
        if x == y or rx != "o" or ry != "o":
            continue
        xu_ci, xu_i = index[(x, "u")]
        yu_ci, yu_i = index[(y, "u")]
        before_yu = (yu_i - 1) % len(comps[yu_ci])
        nx = comps[xu_ci][(xu_i + 1) % len(comps[xu_ci])]
        py = comps[yu_ci][before_yu]
        if nx[0] == py[0] and nx[0] not in (x, y) and nx[1] != py[1]:
            sites.append(((ci, i), (xu_ci, xu_i), (yu_ci, before_yu)))
    return sites


def _r3_apply(L, rng, sites):
    """Swap each of the three adjacent visit pairs of the slide."""
    comps = [list(c) for c in L.components]
    for ci, i in rng.choice(sites):
        comp = comps[ci]
        j = (i + 1) % len(comp)
        comp[i], comp[j] = comp[j], comp[i]
    return _link(comps, dict(L.signs))


def _self_sites(L):
    return [cid for cid, _ in L.signs if L.is_self_crossing(cid)]


def _self_flip(L, rng, sites):
    cid = rng.choice(sites)
    signs = dict(L.signs)
    signs[cid] = -signs[cid]
    return _link(L.components, signs)


# (name, site finder, move); a move without a finder always applies
_MOVES = (
    ("r1+", None, _r1_add),
    ("r2+", None, _r2_add),
    ("r1-", _r1_sites, _remove),
    ("r2-", _r2_sites, _remove),
    ("r3", _r3_sites, _r3_apply),
    ("flip", _self_sites, _self_flip),
)


def random_homotopy_move(L: GaussLink, rng):
    """One random move among R1/R2 add/remove, R3, and a self-crossing sign
    flip, drawn uniformly among the moves that apply; R1 and R2 additions
    always apply.  Returns (link, move name)."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    moves = [(name, move, sites) for name, find, move in _MOVES
             if (sites := find and find(L)) != []]
    name, move, sites = moves[rng.randrange(len(moves))]
    return move(L, rng, sites), name
