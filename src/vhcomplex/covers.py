"""Finite-sheeted covers as permutation data.

A degree-d cover assigns each edge a permutation of {0..d-1}: the sheet
at the tail maps to the sheet at the head along the edge.  Boundary words
of squares must transport every sheet back to itself.  Covers stay in
permutation form until a caller realizes the total space.

Conventions: sheets are 0-based, the basepoint lift of interest is sheet
0, and covers produced by enumerate_covers give tree edges the identity.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

from . import permutations as perm
from .complexes import (CellularMap, DisjointSet, Edge, EdgePath, Record,
                        SquareComplex, is_signed_index, trace)
from .hyperplanes import Hyperplane, hyperplanes
from .presentations import Pi1Presentation, pi1_presentation


class Cover(Record):
    base: SquareComplex
    degree: int
    perms: tuple   # per edge id, a tuple permutation

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(map(tuple, self.perms)))

    def perm(self, eid: int) -> tuple:
        """Edge eid's permutation.  Raises ValueError unless eid is an
        int, not a bool, in 1..num_edges of the base."""
        if not is_signed_index(eid, self.base.num_edges) or eid < 0:
            raise ValueError("no edge %r in 1..%d"
                             % (eid, self.base.num_edges))
        return self.perms[eid - 1]


def _check_shape(c: Cover):
    perm.check_degree(c.degree)
    if len(c.perms) != c.base.num_edges:
        raise ValueError("%d permutations for %d edges"
                         % (len(c.perms), c.base.num_edges))
    # (True, False) and (1.0, 0) equal (1, 0), so each distinct value is
    # checked once only when every entry, tested for all edges at once,
    # is a plain int; otherwise every edge is checked
    perms = c.perms
    if {int}.issuperset(map(type, chain.from_iterable(perms))):
        perms = dict.fromkeys(perms)    # keeps each value's first tuple
    for p in perms:
        if not perm.is_permutation(p, c.degree):
            eid = next(e for e, q in enumerate(c.perms, start=1) if q is p)
            raise ValueError("edge %d: %r is not a permutation of %d sheets"
                             % (eid, p, c.degree))
    # _dart_maps tables index darts from both ends: a dart outside
    # +-1..num_edges would read another edge's map instead of failing
    bad = c.base._bad_dart
    if bad is not None:
        raise ValueError("square %d: dart %r is not a signed edge id" % bad)


def transport(c: Cover, word: Sequence[int]) -> tuple:
    """Sheet permutation realized by a word of darts.  Raises ValueError
    on a dart outside +-1..num_edges."""
    p = perm.identity(c.degree)
    for d in word:
        if not is_signed_index(d, c.base.num_edges):
            raise ValueError("dart %r is not a signed edge id" % (d,))
        q = c.perms[abs(d) - 1]
        if d < 0:
            q = perm.inverse(q)
        p = perm.compose(p, q)
    return p


def _dart_maps(c: Cover) -> list:
    """maps[e] is edge e's permutation and maps[-e] its inverse: negative
    indices count from the end of the list, so a signed dart indexes its
    map directly.  Each distinct permutation is inverted once."""
    inverses = {p: perm.inverse(p) for p in set(c.perms)}
    return [None, *c.perms, *(inverses[p] for p in reversed(c.perms))]


def _lift(maps: list, d: int, word: Sequence[int], sheet: int):
    """Carry `sheet` along a dart word of the degree-d cover whose
    _dart_maps table is `maps`.  Returns (lifted darts, end sheet); the
    copy of edge e whose tail is on sheet s has id (e-1)*d+s+1, as in
    total_space."""
    lifted = []
    for dart in word:
        if dart > 0:
            lifted.append((dart - 1) * d + sheet + 1)
            sheet = maps[dart][sheet]
        else:
            sheet = maps[dart][sheet]
            lifted.append((dart + 1) * d - sheet - 1)
    return lifted, sheet


def validate_cover(c: Cover) -> bool:
    """True iff every square boundary transports to the identity.
    Malformed permutation data raises instead.

    Each square is checked point by point: every sheet is carried
    through the square's darts by _lift, on one _dart_maps table for the
    whole cover, and must come back.
    """
    _check_shape(c)
    maps, d = _dart_maps(c), c.degree
    return all(_lift(maps, d, w, s)[1] == s
               for w in c.base.squares for s in range(d))


def trivial_cover(cx: SquareComplex) -> Cover:
    return Cover(cx, 1, tuple((0,) for _ in range(cx.num_edges)))


# ---------------------------------------------------------------------------
# realization


class TotalSpace(Record):
    complex: SquareComplex
    cover: Cover
    projection: CellularMap

    def vertex_index(self, v: int, sheet: int) -> int:
        return v * self.cover.degree + sheet

    def edge_index(self, eid: int, sheet: int) -> int:
        return (eid - 1) * self.cover.degree + sheet + 1

    def vertex_fiber(self, zv: int) -> tuple:
        return divmod(zv, self.cover.degree)

    def edge_fiber(self, ze: int) -> tuple:
        e, s = divmod(ze - 1, self.cover.degree)
        return e + 1, s


def total_space(c: Cover) -> TotalSpace:
    """Realize the covering complex with d copies of every cell.

    Vertex (v, s) gets index v*d+s, edge (e, s) gets id (e-1)*d+s+1, and
    square (i, s) index i*d+s, where s is the sheet at the cell's start.
    Lifting the squares checks the cover: each lift must close up.
    """
    _check_shape(c)
    base, d = c.base, c.degree
    maps = _dart_maps(c)
    squares = []
    for w in base.squares:
        for s in range(d):
            lifted, t = _lift(maps, d, w, s)
            if t != s:
                raise ValueError("square relations fail; not a cover")
            squares.append(tuple(lifted))
    verts = base.num_vertices * d
    edges = []
    for e, p in zip(base.edges, c.perms):
        for s in range(d):
            edges.append(Edge(e.tail * d + s, e.head * d + p[s], e.label))
    z = SquareComplex(verts, tuple(edges), tuple(squares))
    proj = CellularMap(
        z, base,
        tuple(v // d for v in range(verts)),
        tuple(((ze - 1) // d + 1,) for ze in range(1, len(edges) + 1)),
        tuple(i // d for i in range(len(squares))))
    return TotalSpace(z, c, proj)


def is_connected(c: Cover) -> bool:
    """Connectivity of the total space, computed without realizing it."""
    _check_shape(c)
    d = c.degree
    ds = DisjointSet(range(c.base.num_vertices * d))
    for eid, e in enumerate(c.base.edges, start=1):
        p = c.perms[eid - 1]
        for s in range(d):
            ds.union(e.tail * d + s, e.head * d + p[s])
    return len(ds.classes()) <= 1


def lift_path(c: Cover, p: EdgePath, start_sheet: int = 0):
    """The unique lift from (start vertex, start_sheet).

    Returns (path in the total-space indexing, end sheet); a based loop
    lifts closed iff the end sheet equals the start sheet.
    """
    _check_shape(c)
    if not (0 <= start_sheet < c.degree):
        raise ValueError("no sheet %r" % (start_sheet,))
    trace(c.base, p)   # reject invalid base paths
    d = c.degree
    word, end = _lift(_dart_maps(c), d, p.word, start_sheet)
    return EdgePath(p.start * d + start_sheet, tuple(word)), end


# ---------------------------------------------------------------------------
# monodromy, normality, regular closure


def monodromy(c: Cover, basepoint: int = 0):
    """Images of the spanning-tree generators: one sheet permutation per
    generator loop (tree path out, edge, tree path back)."""
    pres = pi1_presentation(c.base, basepoint)
    gens = []
    for k in range(1, len(pres.generators) + 1):
        gens.append(transport(c, pres.generator_loop(k).word))
    return pres, tuple(gens)


def is_normal(c: Cover, basepoint: int = 0) -> bool:
    """Deck transformations act transitively on fibers iff the monodromy
    stabilizers of all sheets coincide."""
    if not is_connected(c):
        raise ValueError("normality is only defined for connected covers")
    _, gens = monodromy(c, basepoint)
    group = perm.mulclose(gens, c.degree)
    stab0 = frozenset(g for g in group if g[0] == 0)
    return all(frozenset(g for g in group if g[s] == s) == stab0
               for s in range(1, c.degree))


class RegularClosure(Record):
    cover: Cover
    group: tuple    # monodromy group elements, sorted; the closure's sheets
    factor: tuple   # closure sheet -> sheet of the original basepoint fiber


def regular_closure(c: Cover, basepoint: int = 0) -> RegularClosure:
    """The normal cover from the monodromy group acting on itself.

    Sheets are the elements of the monodromy group G in sorted order; a
    non-tree edge moves g to g * (its generator's monodromy), tree edges
    stay put.  The result has degree |G| (dividing d!), is normal, and
    factors through c on the basepoint fiber by evaluation at sheet 0.
    """
    if not is_connected(c):
        raise ValueError("regular closure needs a connected cover")
    pres, gens = monodromy(c, basepoint)
    group = sorted(perm.mulclose(gens, c.degree))
    index = {g: i for i, g in enumerate(group)}
    ident = perm.identity(len(group))
    by_edge = tuple(
        ident if k is None
        else tuple(index[perm.compose(g, gens[k])] for g in group)
        for k in pres.edge_generator)
    closure = Cover(c.base, len(group), by_edge)
    return RegularClosure(closure, tuple(group),
                          tuple(g[0] for g in group))


# ---------------------------------------------------------------------------
# hyperplane preimages


def preimage_hyperplane_components(c: Cover, y: Hyperplane):
    """Components of the preimage of a base hyperplane, each a hyperplane
    of the realized total space, sorted by least dual edge id."""
    if y.complex != c.base:
        raise ValueError("hyperplane is not from this cover's base")
    ts = total_space(c)
    d = c.degree
    out = []
    for h in hyperplanes(ts.complex):
        base_eid = (h.id - 1) // d + 1
        if base_eid in y.dual_edges:
            out.append(h)
    return tuple(out)


def preimage_cleanness(c: Cover, y: Hyperplane) -> tuple:
    """((component id, clean), ...) for the components of the preimage of
    a base hyperplane, sorted by id, from the permutations alone: the
    cover is validated, then y.carrier.cleanness decides its carrier key,
    or gives the verdict it keeps (see hyperplanes.Carrier).  Agrees with
    is_clean on preimage_hyperplane_components(c, y).  Raises ValueError
    on a non-cover.
    """
    if y.complex != c.base:
        raise ValueError("hyperplane is not from this cover's base")
    if not validate_cover(c):
        raise ValueError("square relations fail; not a cover")
    return y.carrier.cleanness(tuple(c.perm(e) for e in y.carrier.edges))


# ---------------------------------------------------------------------------
# enumeration


def cover_from_assignment(cx: SquareComplex, pres: Pi1Presentation,
                          degree: int, assignment) -> Cover:
    """The cover with identity tree edges and the given non-tree images."""
    ident = perm.identity(degree)
    return Cover(cx, degree, tuple([ident if k is None else assignment[k]
                                    for k in pres.edge_generator]))


def iter_covers(cx: SquareComplex, degree: int,
                connected: bool = False,
                up_to_conjugacy: bool = False,
                budget: Optional[perm.NodeBudget] = None):
    """Stream of degree-d covers with identity on a spanning tree.

    Every cover of a connected complex is isomorphic to one of these.
    Every mode fills a coset table.  Connected covers up to
    conjugacy, one per isomorphism class of (unbased) connected covers,
    come from the low-index search on pres.tables: each is the least
    standard coset table of its class, in the order that search finds
    them.  Every other mode takes each homomorphism, in lexicographic
    order of the generators' images, from the labelled fill
    perm.iter_homs; `up_to_conjugacy` then keeps an assignment only when
    it is the least among its simultaneous sheet relabelings.  `budget`
    passes through to the underlying search, which spends one node per
    definition.  A degree that is not a positive int raises ValueError.
    """
    perm.check_degree(degree)
    pres = pi1_presentation(cx, 0)
    if connected and up_to_conjugacy:
        for assignment in pres.tables.low_index(degree, budget):
            yield cover_from_assignment(cx, pres, degree, assignment)
        return
    for assignment in perm.iter_homs(len(pres.generators), pres.relators,
                                     degree, budget=budget):
        if connected and not perm.is_transitive(assignment, degree):
            continue
        if up_to_conjugacy and not perm.is_canonical(assignment):
            continue
        yield cover_from_assignment(cx, pres, degree, assignment)


def enumerate_covers(cx: SquareComplex, degree: int,
                     connected: bool = False,
                     up_to_conjugacy: bool = False):
    """All degree-d covers with identity on a spanning tree, as a tuple."""
    return tuple(iter_covers(cx, degree, connected=connected,
                             up_to_conjugacy=up_to_conjugacy))


# ---------------------------------------------------------------------------
# pullback


def pullback_cover(c: Cover, f: CellularMap) -> Cover:
    """Pull a cover of f's target back along f.

    Each source edge receives the transport along its image path; edges
    collapsed by f get the identity.  Square relations hold because
    boundary images of squares are null-homotopic in the target.
    """
    if f.target != c.base:
        raise ValueError("map does not land in the cover's base")
    by_edge = tuple(transport(c, f.edge_map[e - 1])
                    for e in range(1, f.source.num_edges + 1))
    pulled = Cover(f.source, c.degree, by_edge)
    if not validate_cover(pulled):
        raise ValueError("pullback failed square relations; "
                         "the map does not commute with boundaries")
    return pulled
