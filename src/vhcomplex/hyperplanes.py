"""Hyperplanes of a square complex and their cleanness.

A hyperplane is a maximal class of edges under "opposite sides of a
square", together with the midcubes realizing the closure: midcube
(i, 0) joins the midpoints of sides 0 and 2 of square i, midcube (i, 1)
joins sides 1 and 3.  Extraction is lenient: it needs structural validity
but not the VH or link conditions, so degenerate inputs (self-crossing
hyperplanes, one-sided behaviour) can be examined rather than rejected.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Optional

from . import permutations as perm
from .complexes import (DisjointSet, Record, SquareComplex, cyclic_reduce,
                        require_structure, square_corners)
from .presentations import pi1_presentation


class Hyperplane(Record):
    complex: SquareComplex
    dual_edges: frozenset
    midcubes: tuple   # (square index, pair in {0,1}), sorted

    @property
    def id(self) -> int:
        # hyperplanes are addressed by their least dual edge id
        return min(self.dual_edges)

    @property
    def orientation_class(self) -> Optional[str]:
        labels = {self.complex.edge(e).label for e in self.dual_edges}
        return labels.pop() if len(labels) == 1 else None

    @cached_property
    def carrier(self) -> Carrier:
        """The compiled carrier, built on first use and kept on this
        object with the cleanness verdicts it has given, so both live
        exactly as long as the hyperplane; equality, hashing and repr
        ignore it."""
        return Carrier(self)


class Carrier:
    """A hyperplane's carrier, compiled for the cleanness of its
    preimages: the one place that verdict is decided (`cleanness`) and
    kept (`verdicts`), for preimage_cleanness and the virtual-cleanness
    search alike.

    edges: the carrier edges, sorted: the dual edges and every edge of
        the crossed squares.  A carrier key is the tuple of permutations
        on them, which is all a verdict reads, so a verdict kept is
        exact for every later cover and search of the hyperplane.
    verdicts: carrier key -> cleanness(key), for every key decided so
        far: the keys of covers, and, from the virtual-cleanness
        search's prune, those of single carrier orbits, renumbered to
        their own degree, which may be below the cover's.  It is never
        bounded or evicted: it grows with every new key until the
        hyperplane is dropped or it is cleared (verdicts.clear()), after
        which keys are decided afresh with the same verdicts.
    degrees: last -> (definitions, least) for every bound `last` that
        least_clean_degree has answered without meeting a node cap: the
        definitions its stream spent and its answer.  Kept, like
        verdicts, as long as the hyperplane; one entry per bound asked.

    The carrier presentation (`tables`) has one letter per carrier edge
    that key_pos names a generator (`letters`), and one relator per
    crossed square: its boundary word with tree darts cut, cyclically
    reduced, dropped when empty.  A component of the hyperplane's
    preimage in a cover lives on one orbit of the carrier edges'
    permutations, and its verdict reads only their action on that
    orbit, which is a transitive action of the carrier presentation.
    So a cover of degree d with a clean component has a clean carrier
    class of degree at most d: where none exists (least_clean_degree),
    no cover of degree at most d has a clean component, in either mode.
    The converse fails (the paper's non-locality): a clean carrier class
    need not extend to a cover of the whole complex.

    Carrier position k is the k-th entry of `edges`, and dual index j
    the j-th entry of `_dual`.  _squares: per crossed square: (darts,
    pairs).  darts has (carrier position, forward) per boundary dart;
    pairs has (pair, parity, dual index of side pair, of side pair + 2)
    per midcube of the hyperplane in the square, with _midcube_parity's
    parity.  _inverted: the carrier positions some crossed square reads
    backwards.  _dual: per dual edge, ascending: (carrier position, edge
    id, tail, head).
    """

    def __init__(self, h: Hyperplane):
        cx = h.complex
        crossed = sorted({i for i, _ in h.midcubes})
        edges = set(h.dual_edges)
        for i in crossed:
            edges.update(abs(dart) for dart in cx.squares[i])
        self.complex = cx
        self.edges = tuple(sorted(edges))
        pos = {e: k for k, e in enumerate(self.edges)}
        duals = sorted(h.dual_edges)
        dual = {e: j for j, e in enumerate(duals)}
        squares = []
        for i in crossed:
            w = cx.squares[i]
            pairs = tuple((pair, _midcube_parity(cx, (i, pair)),
                           dual[abs(w[pair])], dual[abs(w[pair + 2])])
                          for j, pair in h.midcubes if j == i)
            squares.append((tuple((pos[abs(x)], x > 0) for x in w), pairs))
        self._squares = tuple(squares)
        self._inverted = tuple(sorted({k for darts, _ in self._squares
                                       for k, forward in darts
                                       if not forward}))
        self._dual = tuple((pos[e], e, cx.edge(e).tail, cx.edge(e).head)
                           for e in duals)
        self.verdicts = {}
        self.degrees = {}

    @cached_property
    def key_pos(self) -> tuple:
        """Per carrier edge, the position of its generator in
        pi1_presentation(complex, 0), or None for a tree edge, whose
        image is the identity: the virtual-cleanness search's prune
        watches these.  Built on its first call for the hyperplane;
        raises pi1_presentation's ValueError."""
        pres = pi1_presentation(self.complex, 0)
        return tuple(pres.edge_generator[e - 1] for e in self.edges)

    def key(self, d: int, assignment) -> tuple:
        """The carrier key of the degree-d cover with identity tree edges
        whose generators take the images `assignment`, as
        cover_from_assignment builds it."""
        return _key(self.key_pos, d, assignment)

    @cached_property
    def letters(self) -> tuple:
        """Per carrier edge, the 0-based index of its letter in the
        carrier presentation, or None for a tree edge: the edges that
        key_pos names a generator, numbered in carrier order."""
        letters = []
        n = 0
        for k in self.key_pos:
            letters.append(None if k is None else n)
            n += k is not None
        return tuple(letters)

    @cached_property
    def tables(self) -> perm.CosetTables:
        """The carrier presentation, compiled on first use: a letter per
        generator on the carrier (`letters`), and the crossed squares'
        boundary words with tree darts cut, cyclically reduced, the
        empty ones dropped."""
        letters = self.letters
        relators = []
        for darts, _ in self._squares:
            w = cyclic_reduce([letters[k] + 1 if forward else -letters[k] - 1
                               for k, forward in darts
                               if letters[k] is not None])
            if w:
                relators.append(w)
        return perm.CosetTables(len(letters) - letters.count(None),
                                relators)

    def least_clean_degree(self, last: int, budget: perm.NodeBudget):
        """The least degree 2..last of a transitive action of the carrier
        presentation with a clean component, or None when there is none
        or the budget's cap stops the stream tables.classes(2, last)
        first.  Each class's key is the identity on tree edges and the
        letter's image elsewhere, as Carrier.key gives a cover with that
        carrier action.  An answer met under no cap is kept in `degrees`,
        and replayed (NodeBudget.replay) with the fresh stream's answer,
        nodes and cap_hit under every cap."""
        kept = self.degrees.get(last)
        if kept is not None:
            spent, least = kept
            return least if budget.replay(spent) else None
        start = budget.nodes
        least = None
        for d, a in self.tables.classes(2, last, budget):
            if any(ok for _, ok in self.cleanness(_key(self.letters, d, a))):
                least = d
                break
        if least is None and budget.cap_hit:
            return None
        self.degrees[last] = (budget.nodes - start, least)
        return least

    def cleanness(self, key: tuple) -> tuple:
        """((component id, clean), ...) for the components of the
        preimage of the hyperplane, sorted by id, in every cover whose
        permutations on `edges` are `key`.  The key must satisfy the
        relators of the crossed squares; nothing else is read or
        checked, whatever the cover does on the other edges.  Decided
        once per key and kept in `verdicts`.

        Agrees with is_clean on preimage_hyperplane_components without
        realizing the total space.  Lifted edge (e, s) has id
        (e-1)*d+s+1 as in total_space, and a component's id is its least
        lifted edge.  One parity union-find over the lifted dual edges
        gives the components: a lifted midcube keeps its base midcube's
        parity, because lifting keeps dart signs, and a parity conflict
        makes a component one-sided.  Each class is co-oriented by its
        parity to the root; flipping a whole class only swaps its two
        sides, so the pushing collisions are the ones is_clean finds.
        Only the permutations a crossed square reads backwards are
        inverted.  The lift of carrier position k whose tail is on sheet
        s is known as k*d+s, and dual index j on sheet s is slot j*d+s,
        so slots ascend with the lifted edge ids that name the
        components."""
        comps = self.verdicts.get(key)
        if comps is not None:
            return comps
        d = len(key[0])
        sheets = range(d)
        inverses = {k: perm.inverse(key[k]) for k in self._inverted}
        parent = list(range(len(self._dual) * d))
        rel = [0] * len(parent)    # parity between a slot and its parent

        def find(x):
            path = []
            while parent[x] != x:
                path.append(x)
                x = parent[x]
            par = 0
            for node in reversed(path):
                par ^= rel[node]
                rel[node] = par
                parent[node] = x
            return x

        lifted = []      # (darts, tails, pairs) per square and sheet
        conflicts = []
        for darts, pairs in self._squares:
            for s in sheets:
                tails = []    # the sheet at each dart's edge tail
                t = s
                for k, forward in darts:
                    if forward:
                        tails.append(t)
                        t = key[k][t]
                    else:
                        t = inverses[k][t]
                        tails.append(t)
                lifted.append((darts, tails, pairs))
                for pair, p, ja, jb in pairs:
                    a, b = ja * d + tails[pair], jb * d + tails[pair + 2]
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
                        rel[ra] = rel[a] ^ rel[b] ^ p
                    elif rel[a] ^ rel[b] != p:
                        conflicts.append(a)
        dirty = {find(a) for a in conflicts}
        for darts, tails, pairs in lifted:
            if len(pairs) == 2:
                # both midcubes of the square: sides 0 and 1 are dual edges
                r = find(pairs[0][2] * d + tails[0])
                if r == find(pairs[1][2] * d + tails[1]):
                    dirty.add(r)

        # pushing maps: with parity 0, side 0 is at the tail of an edge
        component_id = {}
        pushed = set()
        for j, (k, e, tail, head) in enumerate(self._dual):
            q = key[k]
            for s in sheets:
                x = j * d + s
                r = find(x)
                component_id.setdefault(r, (e - 1) * d + s + 1)
                near, far = tail * d + s, head * d + q[s]
                if rel[x]:
                    near, far = far, near
                for slot in ((r, 0, near), (r, 1, far)):
                    if slot in pushed:
                        dirty.add(r)
                    pushed.add(slot)
        pushed.clear()
        for darts, tails, pairs in lifted:
            for pair, _, ja, _ in pairs:
                x = ja * d + tails[pair]
                r = find(x)
                before, after = (darts[i][0] * d + tails[i]
                                 for i in ((pair + 3) % 4, (pair + 1) % 4))
                if (rel[x] == 0) != darts[pair][1]:
                    before, after = after, before
                for slot in ((r, 0, before), (r, 1, after)):
                    if slot in pushed:
                        dirty.add(r)
                    pushed.add(slot)
        comps = self.verdicts[key] = tuple(sorted(
            (x, r not in dirty) for r, x in component_id.items()))
        return comps


def _key(positions, d: int, assignment) -> tuple:
    """Per position, the identity of S_d for None, else the image
    `assignment` gives that index."""
    ident = perm.identity(d)
    return tuple(ident if k is None else assignment[k] for k in positions)


def midcube_dual_pair(cx: SquareComplex, midcube) -> tuple:
    i, pair = midcube
    w = cx.squares[i]
    return abs(w[pair]), abs(w[pair + 2])


def hyperplanes(cx: SquareComplex) -> tuple:
    """All hyperplanes, sorted by least dual edge id.

    Every edge lies in exactly one class; an edge in no square is a point
    hyperplane with no midcubes.  Raises require_structure's ValueError
    on a structurally invalid complex.
    """
    require_structure(cx)
    ds = DisjointSet(range(1, cx.num_edges + 1))
    for w in cx.squares:
        ds.union(abs(w[0]), abs(w[2]))
        ds.union(abs(w[1]), abs(w[3]))
    cubes = {}
    for i in range(cx.num_squares):
        for pair in (0, 1):
            root = ds.find(abs(cx.squares[i][pair]))
            cubes.setdefault(root, []).append((i, pair))
    out = []
    for cls in ds.classes():
        root = ds.find(min(cls))
        out.append(Hyperplane(cx, cls, tuple(sorted(cubes.get(root, ())))))
    return tuple(sorted(out, key=lambda h: h.id))


def hyperplane_of_edge(hyps, eid: int) -> Hyperplane:
    for h in hyps:
        if eid in h.dual_edges:
            return h
    raise ValueError("no hyperplane contains edge %d" % eid)


def self_crossing(h: Hyperplane) -> bool:
    """True iff both midcubes of some square lie in this hyperplane."""
    cubes = set(h.midcubes)
    return any((i, 0) in cubes and (i, 1) in cubes
               for i, _ in cubes)


# ---------------------------------------------------------------------------
# two-sidedness


class TwoSidedness(Record):
    two_sided: bool
    co_orientation: Optional[dict]  # dual edge -> +1/-1, least edge gets +1
    witness: Optional[tuple]        # midcubes forming an odd flip cycle

    def __bool__(self):
        return self.two_sided


def _midcube_parity(cx: SquareComplex, midcube) -> int:
    """0 when the two dual sides must take the same transverse sign."""
    i, pair = midcube
    w = cx.squares[i]
    return 1 if (w[pair] > 0) == (w[pair + 2] > 0) else 0


def is_two_sided(h: Hyperplane) -> TwoSidedness:
    """Parity union-find over the midcube constraints.

    Every midcube relates the transverse signs of its two dual edges; the
    hyperplane is 2-sided iff no cycle of midcubes forces a sign flip onto
    itself.  No path compression, so a contradiction unwinds to the exact
    odd cycle.
    """
    cx = h.complex
    parent = {e: e for e in h.dual_edges}
    rel = {e: 0 for e in h.dual_edges}    # parity between e and parent[e]
    via = {e: None for e in h.dual_edges}

    def walk(e):
        path = []
        par = 0
        while parent[e] != e:
            path.append((e, via[e]))
            par ^= rel[e]
            e = parent[e]
        return e, par, path

    for m in h.midcubes:
        a, b = midcube_dual_pair(cx, m)
        p = _midcube_parity(cx, m)
        ra, pa, patha = walk(a)
        rb, pb, pathb = walk(b)
        if ra != rb:
            # hang one root under the other, preserving parities
            parent[ra] = rb
            rel[ra] = pa ^ pb ^ p
            via[ra] = m
        elif pa ^ pb != p:
            # odd cycle: paths to the common root plus this midcube,
            # trimmed of their shared tail
            vias_a = [v for _, v in patha]
            vias_b = [v for _, v in pathb]
            while vias_a and vias_b and vias_a[-1] == vias_b[-1]:
                vias_a.pop()
                vias_b.pop()
            cycle = tuple(vias_a + [m] + list(reversed(vias_b)))
            return TwoSidedness(False, None, cycle)

    base = min(h.dual_edges)
    _, base_par, _ = walk(base)
    sigma = {}
    for e in h.dual_edges:
        _, par, _ = walk(e)
        sigma[e] = 1 if par == base_par else -1
    return TwoSidedness(True, sigma, None)


# ---------------------------------------------------------------------------
# pushing maps


class PushingMap(Record):
    """One side of the trivialized carrier, mapped into the 1-skeleton.

    vertices: dual edge -> the endpoint on this side.
    edges: midcube -> the boundary edge of its square on this side.
    """
    hyperplane: Hyperplane
    side: int
    vertices: tuple   # ((edge id, vertex), ...) sorted
    edges: tuple      # ((midcube, edge id), ...) sorted

    def vertex_of(self, eid: int) -> int:
        return dict(self.vertices)[eid]

    def edge_of(self, midcube) -> int:
        return dict(self.edges)[midcube]


def pushing_map(h: Hyperplane, side: int,
                orientation: Optional[dict] = None) -> PushingMap:
    """Push the hyperplane off itself to the given side.

    With the co-orientation sign +1 on an edge, side 0 lies at its tail.
    The parallel boundary edges of a square sit before and after each dual
    side in the boundary word, which is what the index arithmetic reads off.
    """
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    cx = h.complex
    if orientation is None:
        ts = is_two_sided(h)
        if not ts.two_sided:
            raise ValueError("hyperplane %d is one-sided" % h.id)
        orientation = ts.co_orientation
    verts = []
    for e in sorted(h.dual_edges):
        edge = cx.edge(e)
        at_tail = (orientation[e] == 1) == (side == 0)
        verts.append((e, edge.tail if at_tail else edge.head))
    arcs = []
    for m in h.midcubes:
        i, pair = m
        w = cx.squares[i]
        u = orientation[abs(w[pair])] * (1 if w[pair] > 0 else -1)
        before = abs(w[(pair + 3) % 4])
        after = abs(w[(pair + 1) % 4])
        if (u == 1) == (side == 0):
            arcs.append((m, before))
        else:
            arcs.append((m, after))
    return PushingMap(h, side, tuple(verts), tuple(sorted(arcs)))


# ---------------------------------------------------------------------------
# cleanness


class CleanlinessReport(Record):
    hyperplane: Hyperplane
    two_sided: bool
    self_crossing: bool
    self_osculation_witnesses: tuple  # (side, "edges"|"midcubes", (a, b))
    clean: bool


def _collisions(assignments, kind, side):
    by_image = {}
    for key, image in assignments:
        by_image.setdefault(image, []).append(key)
    out = []
    for image in sorted(by_image):
        keys = by_image[image]
        if len(keys) > 1:
            for a, b in combinations(sorted(keys), 2):
                out.append((side, kind, (a, b)))
    return out


def is_clean(h: Hyperplane) -> CleanlinessReport:
    """Both pushing maps must be embeddings.

    Injectivity on pushed vertices and pushed edges is exactly topological
    embedding for maps that send arcs across single edges.  A one-sided
    hyperplane has no pushing maps and is never clean.
    """
    sc = self_crossing(h)
    ts = is_two_sided(h)
    if not ts.two_sided:
        return CleanlinessReport(h, False, sc, (), False)
    witnesses = []
    for side in (0, 1):
        pm = pushing_map(h, side, ts.co_orientation)
        witnesses.extend(_collisions(pm.vertices, "edges", side))
        witnesses.extend(_collisions(pm.edges, "midcubes", side))
    witnesses.sort()
    clean = not sc and not witnesses
    return CleanlinessReport(h, True, sc, tuple(witnesses), clean)


def inter_osculates(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Two distinct hyperplanes inter-osculate iff they cross in some
    square and also meet at a vertex where no square corner pairs their
    two edge-ends."""
    if h1.dual_edges == h2.dual_edges:
        raise ValueError("inter-osculation needs two distinct hyperplanes")
    return (_crosses(h1, h2) and
            _osculation_witness(_ends_by_vertex(h1), _ends_by_vertex(h2),
                                _corners_at(h1.complex)) is not None)


def _crosses(h1: Hyperplane, h2: Hyperplane) -> bool:
    cubes1, cubes2 = set(h1.midcubes), set(h2.midcubes)
    squares1 = {i for i, _ in cubes1}
    for i in squares1:
        if ((i, 0) in cubes1 and (i, 1) in cubes2) or \
           ((i, 1) in cubes1 and (i, 0) in cubes2):
            return True
    return False


def _corners_at(cx: SquareComplex) -> dict:
    """Vertex -> the set of node pairs that some square corner joins."""
    corners_at = {}
    for i in range(cx.num_squares):
        for v, pair in square_corners(cx, i):
            corners_at.setdefault(v, set()).add(pair)
    return corners_at


def _ends_by_vertex(h: Hyperplane) -> dict:
    """Vertex -> the dual edge ends (edge id, end) of h at it."""
    cx = h.complex
    ends = {}
    for e in h.dual_edges:
        edge = cx.edge(e)
        ends.setdefault(edge.tail, []).append((e, 0))
        ends.setdefault(edge.head, []).append((e, 1))
    return ends


def _osculation_witness(ends1: dict, ends2: dict, corners_at: dict):
    """The least vertex contact of two hyperplanes, given their ends by
    vertex, that spans no square corner, as (vertex, node1, node2), or
    None.  Only vertices both hyperplanes reach are compared."""
    found = []
    for v, nodes1 in ends1.items():
        nodes2 = ends2.get(v)
        if not nodes2:
            continue
        corners = corners_at.get(v, ())
        for n1 in nodes1:
            for n2 in nodes2:
                pair = (n1, n2) if n1 <= n2 else (n2, n1)
                if pair not in corners:
                    found.append((v, n1, n2))
    return min(found) if found else None


def is_complex_clean(cx: SquareComplex) -> bool:
    return all(is_clean(h).clean for h in hyperplanes(cx))


def is_special(cx: SquareComplex) -> bool:
    """Clean and free of inter-osculating pairs."""
    hyps = hyperplanes(cx)
    if not all(is_clean(h).clean for h in hyps):
        return False
    return no_inter_osculation(cx, hyps)


def no_inter_osculation(cx: SquareComplex, hyps) -> bool:
    """Whether no two of the complex's hyperplanes, given as
    hyperplanes(cx), inter-osculate.

    Only crossing pairs can inter-osculate, and every crossing shows in
    one square, so the pairs come from the squares; the corner table and
    each hyperplane's ends are built once.
    """
    index = {e: k for k, h in enumerate(hyps) for e in h.dual_edges}
    crossing = set()
    for w in cx.squares:
        a, b = index[abs(w[0])], index[abs(w[1])]
        if a != b:
            crossing.add((min(a, b), max(a, b)))
    corners_at = _corners_at(cx)
    ends = [_ends_by_vertex(h) for h in hyps]
    return not any(
        _osculation_witness(ends[a], ends[b], corners_at) is not None
        for a, b in sorted(crossing))
