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


def _r1_add(L, rng):
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
    sites = []
    for ci, comp in enumerate(L.components):
        n = len(comp)
        for i in range(n):
            a, b = comp[i], comp[(i + 1) % n]
            if a[0] == b[0] and n >= 2:
                sites.append((ci, i))
    return sites


def _r1_remove(L, rng, sites):
    ci, i = rng.choice(sites)
    comps = [list(c) for c in L.components]
    signs = dict(L.signs)
    comp = comps[ci]
    cid = comp[i][0]
    j = (i + 1) % len(comp)
    for idx in sorted((i, j), reverse=True):
        del comp[idx]
    del signs[cid]
    return _link(comps, signs)


def _r2_add(L, rng):
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
    if ca == cb:
        # inserting both pairs into one component: do the later position first
        if pa < pb:
            comps[ca][pb:pb] = under
            comps[ca][pa:pa] = over
        else:
            comps[ca][pa:pa] = over
            comps[cb][pb:pb] = under
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
    for ci, comp in enumerate(L.components):
        n = len(comp)
        for i in range(n):
            (x, rx), (y, ry) = comp[i], comp[(i + 1) % n]
            if x == y or rx != ry or signs[x] != -signs[y]:
                continue
            flip = "u" if rx == "o" else "o"
            cj, j = index[(y, flip)]
            cj2, j2 = index[(x, flip)]
            if cj == cj2 and (j + 1) % len(L.components[cj]) == j2:
                sites.append(((ci, i), (cj, j)))
    return sites


def _r2_remove(L, rng, sites):
    (ci, i), (cj, j) = rng.choice(sites)
    comps = [list(c) for c in L.components]
    signs = dict(L.signs)
    x = comps[ci][i][0]
    y = comps[ci][(i + 1) % len(comps[ci])][0]
    drop = []
    for cc, comp in enumerate(comps):
        for idx, (cid, _) in enumerate(comp):
            if cid in (x, y):
                drop.append((cc, idx))
    for cc, idx in sorted(drop, reverse=True):
        del comps[cc][idx]
    del signs[x]
    del signs[y]
    return _link(comps, signs)


def _r3_sites(L):
    """Triangle slides: an adjacent over-over pair whose under visits are each
    adjacent to one visit of a common third crossing."""
    index = L._visits
    sites = []
    for ci, comp in enumerate(L.components):
        n = len(comp)
        for i in range(n):
            (x, rx), (y, ry) = comp[i], comp[(i + 1) % n]
            if x == y or rx != "o" or ry != "o":
                continue
            xu_ci, xu_i = index[(x, "u")]
            yu_ci, yu_i = index[(y, "u")]
            nx = L.components[xu_ci][(xu_i + 1) % len(L.components[xu_ci])]
            py = L.components[yu_ci][(yu_i - 1) % len(L.components[yu_ci])]
            if nx[0] == py[0] and nx[0] not in (x, y) and nx[1] != py[1]:
                sites.append(((ci, i), (xu_ci, xu_i),
                              (yu_ci, (yu_i - 1) % len(L.components[yu_ci]))))
    return sites


def _swap_adjacent(comps, ci, i):
    comp = comps[ci]
    j = (i + 1) % len(comp)
    comp[i], comp[j] = comp[j], comp[i]


def _r3_apply(L, rng, sites):
    (ci, i), (cx, ix), (cy, iy) = rng.choice(sites)
    comps = [list(c) for c in L.components]
    _swap_adjacent(comps, ci, i)
    _swap_adjacent(comps, cx, ix)
    _swap_adjacent(comps, cy, iy)
    return _link(comps, dict(L.signs))


def _self_sites(L):
    return [cid for cid, _ in L.signs if L.is_self_crossing(cid)]


def _self_flip(L, rng, sites):
    cid = rng.choice(sites)
    signs = dict(L.signs)
    signs[cid] = -signs[cid]
    return _link([list(c) for c in L.components], signs)


def random_homotopy_move(L: GaussLink, rng):
    """One random move among R1/R2 add/remove, R3, and a self-crossing sign
    flip.  Returns (link, move name) or (L, None) when nothing applies."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    moves = [("r1+", None), ("r2+", None)]
    r1 = _r1_sites(L)
    if r1:
        moves.append(("r1-", r1))
    r2 = _r2_sites(L)
    if r2:
        moves.append(("r2-", r2))
    r3 = _r3_sites(L)
    if r3:
        moves.append(("r3", r3))
    selfs = _self_sites(L)
    if selfs:
        moves.append(("flip", selfs))
    name, sites = moves[rng.randrange(len(moves))]
    if name == "r1+":
        return _r1_add(L, rng), name
    if name == "r2+":
        return _r2_add(L, rng), name
    if name == "r1-":
        return _r1_remove(L, rng, sites), name
    if name == "r2-":
        return _r2_remove(L, rng, sites), name
    if name == "r3":
        return _r3_apply(L, rng, sites), name
    return _self_flip(L, rng, sites), name
