"""Finite square complexes with V- and H-labelled edges.

Vertices are integers 0..n-1.  Edges carry 1-based ids given by their
position in the edge tuple; a dart is a signed edge id, +e traversing the
edge from tail to head and -e traversing it from head to tail.  Squares
are boundary words: tuples of darts tracing the attaching cycle, length 4
in a structurally valid complex.

Everything here is immutable and all operations are pure functions, so
values can be shared freely.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Sequence

V_LABEL = "V"
H_LABEL = "H"
LABELS = (V_LABEL, H_LABEL)


def _initializer(name, names, defaults, post_init, setter):
    """The `__init__` of a record class: fields by position or keyword,
    then `post_init` if the class has one.  setter stores one field:
    `object.__setattr__` gets past a frozen class's `__setattr__`, and
    a mutable class takes the cheaper plain `setattr`."""
    n = len(names)
    blank = tuple(map(defaults.get, names)) if len(defaults) == n else None

    def __init__(self, *args, **kwargs):
        if not args and not kwargs and blank is not None:
            args = blank
        elif kwargs or len(args) != n:
            values = list(args)
            for field in names[len(args):]:
                if field in kwargs:
                    values.append(kwargs.pop(field))
                elif field in defaults:
                    values.append(defaults[field])
                else:
                    raise TypeError("%s() is missing the field %r"
                                    % (name, field))
            if kwargs or len(values) != n:
                raise TypeError(
                    "%s(%s) got %d positional arguments and the keywords %s"
                    % (name, ", ".join(names), len(args), sorted(kwargs)))
            args = values
        # every call stores the fields one by one on the fresh instance,
        # which keeps them in its shared-key storage, where attribute
        # reads are fastest
        for i in range(n):
            setter(self, names[i], args[i])
        if post_init is not None:
            post_init(self)
    return __init__


class Record:
    """Base of the package's value types: a class body's annotated names
    are its fields, in order, and a name assigned in the body is that
    field's default.  Fields are not inherited from a record base.

    A record is built from its fields by position or keyword, then runs
    `__post_init__` if the class has one.  Two records are equal when
    they have the same class and equal field tuples, equal records hash
    equal, and the repr reads `Name(field=value, ...)`.  Records are
    frozen: assigning or deleting an attribute raises AttributeError,
    so `__post_init__` normalizes a field with `object.__setattr__`.
    A class declared with `frozen=False` is mutable and unhashable.
    `functools.cached_property` works on records, and equality, hashing
    and repr ignore what it keeps.

    This replaces `dataclasses.dataclass`, which compiles a handful of
    methods per class with `exec` on every interpreter start.
    """

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        # this class's own annotations: on 3.10 `cls.__annotations__`
        # can return a base class's
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        cls._key = attrgetter(*names)
        cls.__init__ = _initializer(cls.__name__, names, defaults,
                                    getattr(cls, "__post_init__", None),
                                    object.__setattr__ if frozen else setattr)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class Edge(Record):
    tail: int
    head: int
    label: str


class SquareComplex(Record):
    """Edges (Edge values or (tail, head, label) triples) and squares
    (dart sequences) are stored as tuples, so every complex hashes, and
    equal complexes hash equal."""
    num_vertices: int
    edges: tuple
    squares: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in self.edges))
        object.__setattr__(self, "squares", tuple(map(tuple, self.squares)))

    @cached_property
    def _pi1(self) -> dict:
        """basepoint -> pi1 presentation, kept by pi1_presentation; it
        dies with the complex, and equality, hashing and repr ignore it."""
        return {}

    @cached_property
    def _bad_dart(self):
        """(square index, dart) of the first dart of a square outside
        +-1..num_edges, or None: checked once and kept like _pi1, for
        every cover of the complex (covers._check_shape)."""
        n = len(self.edges)
        for i, w in enumerate(self.squares):
            for dart in w:
                if not is_signed_index(dart, n):
                    return i, dart
        return None

    @classmethod
    def make(cls, num_vertices, edges, squares=()):
        """Build a complex from (tail, head, label) triples and dart words."""
        return cls(num_vertices, edges, squares)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_squares(self):
        return len(self.squares)

    def edge(self, eid: int) -> Edge:
        return self.edges[eid - 1]

    def dart_tail(self, d: int) -> int:
        e = self.edges[abs(d) - 1]
        return e.tail if d > 0 else e.head

    def dart_head(self, d: int) -> int:
        e = self.edges[abs(d) - 1]
        return e.head if d > 0 else e.tail

    def dart_label(self, d: int) -> str:
        return self.edges[abs(d) - 1].label


def is_signed_index(x, n: int) -> bool:
    """Whether x is an int, not a bool, with 1 <= |x| <= n: a dart of a
    complex with n edges, or a letter over n generators."""
    return (isinstance(x, int) and not isinstance(x, bool)
            and 0 < abs(x) <= n)


def dart_out_end(d: int) -> int:
    """End index (0=tail, 1=head) at which the dart leaves its start vertex."""
    return 0 if d > 0 else 1


def dart_in_end(d: int) -> int:
    """End index at which the dart arrives at its end vertex."""
    return 1 if d > 0 else 0


# ---------------------------------------------------------------------------
# validation


class Violation(Record):
    kind: str
    cell: tuple
    message: str


class ValidationReport(Record):
    ok: bool            # structurally valid
    vh: bool
    npc: bool
    violations: tuple

    @property
    def all_ok(self):
        return self.ok and self.vh and self.npc


def structural_violations(cx: SquareComplex) -> list:
    """Referential integrity, closure, and boundary-length checks."""
    out = []
    n = cx.num_vertices
    ne = cx.num_edges
    for eid, e in enumerate(cx.edges, start=1):
        if e.label not in LABELS:
            out.append(Violation("label", ("edge", eid),
                                 "label %r is not V or H" % (e.label,)))
        if not (0 <= e.tail < n) or not (0 <= e.head < n):
            out.append(Violation("reference", ("edge", eid),
                                 "endpoint out of range"))
    for i, w in enumerate(cx.squares):
        if len(w) != 4:
            out.append(Violation("boundary-length", ("square", i),
                                 "boundary length %d, expected 4" % len(w)))
        bad = False
        for d in w:
            if not is_signed_index(d, ne):
                out.append(Violation("reference", ("square", i),
                                     "dart %r is not a signed edge id" % (d,)))
                bad = True
        if bad or not w:
            continue
        for j in range(len(w)):
            if cx.dart_head(w[j]) != cx.dart_tail(w[(j + 1) % len(w)]):
                out.append(Violation("closure", ("square", i),
                                     "dart %d does not continue dart %d"
                                     % (w[(j + 1) % len(w)], w[j])))
    return out


def require_structure(cx: SquareComplex):
    """Raise ValueError unless structural_violations finds nothing."""
    if structural_violations(cx):
        raise ValueError("complex is structurally invalid; "
                         "run validate for details")


def check_vh(cx: SquareComplex):
    """Label alternation around every square.

    Returns (ok, violations).  Assumes structural validity; squares of the
    wrong length are skipped here because structural_violations already
    reports them.
    """
    out = []
    for i, w in enumerate(cx.squares):
        if len(w) != 4:
            continue
        labels = [cx.dart_label(d) for d in w]
        if labels[0] == labels[1] or labels[0] != labels[2] or labels[1] != labels[3]:
            out.append(Violation("vh-alternation", ("square", i),
                                 "labels %s do not alternate" % "".join(labels)))
    return (not out, out)


def square_corners(cx: SquareComplex, i: int):
    """The four link corners of square i.

    Corner j sits at the start vertex of dart w[j] and pairs the incoming
    end of w[j-1] with the outgoing end of w[j].  Nodes are (edge id, end)
    with end 0 = tail, 1 = head; each pair is returned sorted.
    """
    w = cx.squares[i]
    if len(w) != 4:
        raise ValueError("square %d has boundary length %d" % (i, len(w)))
    corners = []
    for j in range(4):
        prev = w[j - 1]
        cur = w[j]
        a = (abs(prev), dart_in_end(prev))
        b = (abs(cur), dart_out_end(cur))
        pair = (a, b) if a <= b else (b, a)
        corners.append((cx.dart_tail(cur), pair))
    return corners


def check_npc(cx: SquareComplex):
    """Gromov link condition for a square complex.

    The link of each vertex must be a simple graph with no triangles: a
    loop, doubled corner pair, or 3-cycle in a link gives a cone angle
    below 2*pi.  In a VH complex links are bipartite so the triangle check
    never fires, but it is run anyway since hyperplane extraction accepts
    non-VH complexes too.

    Returns (ok, violations).  Assumes structural validity.
    """
    out = []
    by_vertex = {}
    for i in range(cx.num_squares):
        if len(cx.squares[i]) != 4:
            continue
        for vert, pair in square_corners(cx, i):
            by_vertex.setdefault(vert, []).append(pair)
    for v in sorted(by_vertex):
        pairs = by_vertex[v]
        seen = set()
        adj = {}
        for a, b in pairs:
            if a == b:
                out.append(Violation("link-loop", ("vertex", v),
                                     "corner pairs end %r with itself" % (a,)))
                continue
            if (a, b) in seen:
                out.append(Violation("link-bigon", ("vertex", v),
                                     "corner pair %r, %r repeated" % (a, b)))
            seen.add((a, b))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        reported = set()
        for a in sorted(adj):
            for b in sorted(adj[a]):
                if b <= a:
                    continue
                for c in sorted(adj[a] & adj[b]):
                    if c <= b:
                        continue
                    tri = (a, b, c)
                    if tri not in reported:
                        reported.add(tri)
                        out.append(Violation("link-triangle", ("vertex", v),
                                             "link 3-cycle %r %r %r" % tri))
    return (not out, out)


def validate(cx: SquareComplex) -> ValidationReport:
    """Full report: structural integrity, VH alternation, link condition.

    ok refers to structure alone; vh and npc are only meaningful (and only
    computed) when the structure is sound.
    """
    sv = structural_violations(cx)
    if sv:
        return ValidationReport(False, False, False, tuple(sv))
    vh_ok, vv = check_vh(cx)
    npc_ok, nv = check_npc(cx)
    return ValidationReport(True, vh_ok, npc_ok, tuple(vv) + tuple(nv))


# ---------------------------------------------------------------------------
# paths


class EdgePath(Record):
    start: int
    word: tuple

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))

    def __len__(self):
        return len(self.word)


def trace(cx: SquareComplex, p: EdgePath) -> list:
    """Vertex itinerary of a path; raises ValueError if it does not run."""
    ne = cx.num_edges
    at = p.start
    if not (0 <= at < cx.num_vertices):
        raise ValueError("path starts at missing vertex %r" % (at,))
    verts = [at]
    for d in p.word:
        if not is_signed_index(d, ne):
            raise ValueError("dart %r is not a signed edge id" % (d,))
        if cx.dart_tail(d) != at:
            raise ValueError("dart %d starts at %d, path is at %d"
                             % (d, cx.dart_tail(d), at))
        at = cx.dart_head(d)
        verts.append(at)
    return verts


def path_end(cx: SquareComplex, p: EdgePath) -> int:
    return trace(cx, p)[-1]


def is_closed(cx: SquareComplex, p: EdgePath) -> bool:
    return path_end(cx, p) == p.start


def check_path(cx: SquareComplex, p: EdgePath):
    """None if the path runs, else the error message."""
    try:
        trace(cx, p)
    except ValueError as err:
        return str(err)
    return None


def reverse_path(cx: SquareComplex, p: EdgePath) -> EdgePath:
    return EdgePath(path_end(cx, p), tuple(-d for d in reversed(p.word)))


def concatenate(cx: SquareComplex, p: EdgePath, q: EdgePath) -> EdgePath:
    if path_end(cx, p) != q.start:
        raise ValueError("paths do not meet: %d vs %d"
                         % (path_end(cx, p), q.start))
    return EdgePath(p.start, p.word + q.word)


def is_simple_loop(cx: SquareComplex, p: EdgePath) -> bool:
    """Embedded cycle test: closed, nonempty, and no repeated vertex except
    the basepoint, no repeated edge."""
    if not p.word:
        return False
    verts = trace(cx, p)
    if verts[-1] != p.start:
        return False
    interior = verts[1:-1]
    if len(set(interior)) != len(interior) or p.start in interior:
        return False
    eids = [abs(d) for d in p.word]
    return len(set(eids)) == len(eids)


# ---------------------------------------------------------------------------
# words of darts


def free_reduce(word: Sequence[int]) -> tuple:
    out = []
    for d in word:
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def cyclic_reduce(word: Sequence[int]) -> tuple:
    w = list(free_reduce(word))
    while len(w) > 1 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def freely_trivial(word: Sequence[int]) -> bool:
    # a word represents 1 in a free group iff it freely reduces to nothing
    return not free_reduce(word)


def cyclic_equal(a: Sequence[int], b: Sequence[int]) -> bool:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    return any(a[i:] + a[:i] == b for i in range(len(a)))


# ---------------------------------------------------------------------------
# connectivity


class DisjointSet:
    """Plain union-find over arbitrary hashable items."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra
        return ra

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return [frozenset(groups[r]) for r in sorted(groups)]


def components(cx: SquareComplex, labels=None):
    """Vertex components of the 1-skeleton, optionally restricted to edges
    whose label lies in `labels`.  Sorted by least vertex."""
    ds = DisjointSet(range(cx.num_vertices))
    for e in cx.edges:
        if labels is None or e.label in labels:
            ds.union(e.tail, e.head)
    return ds.classes()


def is_connected_complex(cx: SquareComplex) -> bool:
    return len(components(cx)) <= 1


def subgraph_component(cx: SquareComplex, v: int, labels=None):
    """(vertices, edge ids) of the labelled subgraph component through v."""
    if not (0 <= v < cx.num_vertices):
        raise ValueError("no vertex %r" % (v,))
    incident = {}
    for eid, e in enumerate(cx.edges, start=1):
        if labels is None or e.label in labels:
            incident.setdefault(e.tail, []).append((eid, e.head))
            incident.setdefault(e.head, []).append((eid, e.tail))
    seen = {v}
    queue = [v]
    eids = set()
    while queue:
        u = queue.pop()
        for eid, w in incident.get(u, ()):
            eids.add(eid)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen), frozenset(eids)


def euler_characteristic(cx: SquareComplex) -> int:
    return cx.num_vertices - cx.num_edges + cx.num_squares


# ---------------------------------------------------------------------------
# pointed VH pairs


class PointedVHPair(Record):
    """A complex with a distinguished vertical component and basepoint."""
    complex: SquareComplex
    v_edges: frozenset
    basepoint: int


def pointed_pair(cx: SquareComplex, basepoint: int) -> PointedVHPair:
    """The vertical component through the basepoint."""
    _, eids = subgraph_component(cx, basepoint, labels={V_LABEL})
    return PointedVHPair(cx, eids, basepoint)


# ---------------------------------------------------------------------------
# cellular maps


class CellularMap(Record):
    """Combinatorial map between square complexes.

    vertex_map[v] is a target vertex.  edge_map[e-1] is a tuple of target
    darts: a path the edge maps across, possibly empty (the edge collapses
    to a vertex).  square_map[i] is a target square index, or None when
    the square collapses into the 1-skeleton.
    """
    source: SquareComplex
    target: SquareComplex
    vertex_map: tuple
    edge_map: tuple
    square_map: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_map", tuple(self.vertex_map))
        object.__setattr__(self, "edge_map", tuple(map(tuple, self.edge_map)))
        object.__setattr__(self, "square_map", tuple(self.square_map))


def map_dart(m: CellularMap, d: int) -> tuple:
    w = m.edge_map[abs(d) - 1]
    return w if d > 0 else tuple(-x for x in reversed(w))


def map_path(m: CellularMap, p: EdgePath) -> EdgePath:
    word = []
    for d in p.word:
        word.extend(map_dart(m, d))
    return EdgePath(m.vertex_map[p.start], tuple(word))


def validate_cellular_map(m: CellularMap) -> list:
    """List of problems; empty means the map commutes with boundaries."""
    problems = []
    src, tgt = m.source, m.target
    if len(m.vertex_map) != src.num_vertices:
        problems.append("vertex_map has %d entries for %d vertices"
                        % (len(m.vertex_map), src.num_vertices))
        return problems
    if len(m.edge_map) != src.num_edges:
        problems.append("edge_map has %d entries for %d edges"
                        % (len(m.edge_map), src.num_edges))
        return problems
    if len(m.square_map) != src.num_squares:
        problems.append("square_map has %d entries for %d squares"
                        % (len(m.square_map), src.num_squares))
        return problems
    for v in m.vertex_map:
        if not (0 <= v < tgt.num_vertices):
            problems.append("vertex image %r out of range" % (v,))
            return problems
    for eid, e in enumerate(src.edges, start=1):
        img = EdgePath(m.vertex_map[e.tail], m.edge_map[eid - 1])
        err = check_path(tgt, img)
        if err is not None:
            problems.append("edge %d image: %s" % (eid, err))
        elif path_end(tgt, img) != m.vertex_map[e.head]:
            problems.append("edge %d image ends at %d, head maps to %d"
                            % (eid, path_end(tgt, img), m.vertex_map[e.head]))
    for i, w in enumerate(src.squares):
        img = []
        for d in w:
            img.extend(map_dart(m, d))
        j = m.square_map[i]
        if j is None:
            if not freely_trivial(img):
                problems.append("square %d collapses but boundary image "
                                "is not freely trivial" % i)
        else:
            if not (0 <= j < tgt.num_squares):
                problems.append("square %d image %r out of range" % (i, j))
                continue
            t = tgt.squares[j]
            rev = tuple(-x for x in reversed(t))
            if not (cyclic_equal(img, t) or cyclic_equal(img, rev)):
                problems.append("square %d boundary image %r does not match "
                                "square %d" % (i, tuple(img), j))
    return problems


def identity_map(cx: SquareComplex) -> CellularMap:
    return CellularMap(cx, cx,
                       tuple(range(cx.num_vertices)),
                       tuple((eid,) for eid in range(1, cx.num_edges + 1)),
                       tuple(range(cx.num_squares)))


# ---------------------------------------------------------------------------
# edge subdivision


class Subdivision(Record):
    """Refinement of a complex obtained by subdividing edges.

    Old vertices keep their ids.  edge_chains[e-1] is the tuple of new
    darts (all positive) replacing old edge e, tail to head.  square_grids[i]
    is a grid of new square indices, indexed [along side 0][along side 1].
    effective_factors records the per-edge factors actually used after
    lifting the request to be constant on opposite-side classes.
    """
    source: SquareComplex
    complex: SquareComplex
    edge_chains: tuple
    square_grids: tuple
    effective_factors: tuple


def subdivide_edges(cx: SquareComplex, factors) -> Subdivision:
    """Subdivide edges, carrying squares along as grids.

    `factors` maps edge ids to positive counts (unlisted edges get 1).
    Opposite sides of a square must subdivide alike, so the requested
    factors are raised to the lcm over each opposite-side class.  Labels
    are inherited: segments keep their edge's label, interior grid edges
    take the label of the side they run parallel to.
    """
    if structural_violations(cx):
        raise ValueError("cannot subdivide a structurally invalid complex")
    req = {eid: 1 for eid in range(1, cx.num_edges + 1)}
    for eid, k in dict(factors).items():
        if eid not in req:
            raise ValueError("no edge %r" % (eid,))
        if not isinstance(k, int) or k < 1:
            raise ValueError("factor for edge %d must be a positive integer"
                             % eid)
        req[eid] = k

    ds = DisjointSet(req)
    for w in cx.squares:
        ds.union(abs(w[0]), abs(w[2]))
        ds.union(abs(w[1]), abs(w[3]))
    eff = {}
    for cls in ds.classes():
        k = math.lcm(*(req[e] for e in cls))
        for e in cls:
            eff[e] = k

    new_edges = []
    chains = []
    walks = []
    next_vertex = cx.num_vertices
    for eid, e in enumerate(cx.edges, start=1):
        k = eff[eid]
        inner = list(range(next_vertex, next_vertex + k - 1))
        next_vertex += k - 1
        stops = [e.tail] + inner + [e.head]
        chain = []
        for a, b in zip(stops, stops[1:]):
            new_edges.append(Edge(a, b, e.label))
            chain.append(len(new_edges))
        chains.append(tuple(chain))
        walks.append(tuple(stops))

    def dart_chain(d):
        c = chains[abs(d) - 1]
        return c if d > 0 else tuple(-x for x in reversed(c))

    def dart_walk(d):
        w = walks[abs(d) - 1]
        return w if d > 0 else tuple(reversed(w))

    new_squares = []
    grids = []
    for w in cx.squares:
        k0, k1 = eff[abs(w[0])], eff[abs(w[1])]
        cd = [dart_chain(d) for d in w]
        wk = [dart_walk(d) for d in w]
        # grid vertices: boundary from the side walks, interior fresh
        g = {}
        for i in range(k0 + 1):
            g[(i, 0)] = wk[0][i]
            g[(i, k1)] = wk[2][k0 - i]
        for j in range(k1 + 1):
            g[(k0, j)] = wk[1][j]
            g[(0, j)] = wk[3][k1 - j]
        for i in range(1, k0):
            for j in range(1, k1):
                g[(i, j)] = next_vertex
                next_vertex += 1
        # horizontal darts g(i,j) -> g(i+1,j), vertical g(i,j) -> g(i,j+1)
        h = {}
        vv = {}
        for i in range(k0):
            h[(i, 0)] = cd[0][i]
            h[(i, k1)] = -cd[2][k0 - 1 - i]
        for j in range(k1):
            vv[(k0, j)] = cd[1][j]
            vv[(0, j)] = -cd[3][k1 - 1 - j]
        lab0 = cx.edges[abs(w[0]) - 1].label
        lab1 = cx.edges[abs(w[1]) - 1].label
        for i in range(k0):
            for j in range(1, k1):
                new_edges.append(Edge(g[(i, j)], g[(i + 1, j)], lab0))
                h[(i, j)] = len(new_edges)
        for i in range(1, k0):
            for j in range(k1):
                new_edges.append(Edge(g[(i, j)], g[(i, j + 1)], lab1))
                vv[(i, j)] = len(new_edges)
        grid = []
        for i in range(k0):
            row = []
            for j in range(k1):
                new_squares.append((h[(i, j)], vv[(i + 1, j)],
                                    -h[(i, j + 1)], -vv[(i, j)]))
                row.append(len(new_squares) - 1)
            grid.append(tuple(row))
        grids.append(tuple(grid))

    sub = SquareComplex(next_vertex, tuple(new_edges), tuple(new_squares))
    return Subdivision(cx, sub, tuple(chains), tuple(grids),
                       tuple(eff[eid] for eid in range(1, cx.num_edges + 1)))


def subdivide_path(sub: Subdivision, p: EdgePath) -> EdgePath:
    """Carry a path of the source complex into the subdivision."""
    word = []
    for d in p.word:
        c = sub.edge_chains[abs(d) - 1]
        word.extend(c if d > 0 else tuple(-x for x in reversed(c)))
    return EdgePath(p.start, tuple(word))
