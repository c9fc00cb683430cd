"""Gluing constructions on pointed VH pairs.

Two builders do the real work.  attach_relators wedges a circle per
generator of a presentation, then hangs one copy of a core complex per
relator on a squared cylinder joining the relator loop in the wedge to a
chosen vertical loop in the core; lengths are matched by subdividing both
ends.  double_along_loop takes two copies of a complex with a fresh loop
edge appended to a based vertical loop and joins them along an annulus of
squares, producing the distinguished rung hyperplane and the retraction
back onto the original complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import (CellularMap, Edge, EdgePath, H_LABEL, PointedVHPair,
                        SquareComplex, V_LABEL, free_reduce, is_simple_loop,
                        pointed_pair, subdivide_edges, subdivide_path, trace,
                        validate)
from .hyperplanes import Hyperplane, hyperplane_of_edge, hyperplanes
from .presentations import GroupPresentation


def _require_vh(cx: SquareComplex, what: str):
    report = validate(cx)
    if not report.ok or not report.vh:
        raise ValueError("%s is not a valid VH complex" % what)


def _require_vertical_simple_loop(cx: SquareComplex, p: EdgePath, what: str):
    verts = trace(cx, p)
    if verts[-1] != p.start:
        raise ValueError("%s is not closed" % what)
    if not is_simple_loop(cx, p):
        raise ValueError("%s is not simple" % what)
    if any(cx.dart_label(d) != V_LABEL for d in p.word):
        raise ValueError("%s is not vertical" % what)


# ---------------------------------------------------------------------------
# presentation wedge


@dataclass(frozen=True)
class PresentationWedge:
    presentation: GroupPresentation
    pair: PointedVHPair           # the wedge with basepoint 0
    generator_edges: tuple        # edge id of each generator's petal
    relator_paths: tuple          # each relator read as a based loop

    @property
    def complex(self):
        return self.pair.complex


def presentation_complex(pres: GroupPresentation) -> PresentationWedge:
    """One vertex, one vertical loop per generator; relators as loops."""
    if not pres.generators and pres.relators:
        raise ValueError("relators but no generators")
    edges = tuple(Edge(0, 0, V_LABEL) for _ in pres.generators)
    cx = SquareComplex(1, edges, ())
    paths = tuple(EdgePath(0, r) for r in pres.relators)
    return PresentationWedge(pres, pointed_pair(cx, 0),
                             tuple(range(1, len(edges) + 1)), paths)


# ---------------------------------------------------------------------------
# relator-cylinder attachment


@dataclass(frozen=True)
class CrushedDisc:
    """Cells of one core copy and its cylinder, all of which the crushing
    map sends into the formal relator disc of that relator."""
    relator_index: int
    vertices: tuple
    edges: tuple
    rungs: tuple
    squares: tuple


@dataclass(frozen=True)
class CrushMap:
    """Structured record of the crushing map onto the presentation
    complex.  The wedge part maps by collapsing each petal chain to its
    generator: every chain edge but the last carries no letter, the last
    carries the generator.  Core copies, rungs, and cylinder squares fall
    into relator discs, recorded per copy."""
    generator_chains: tuple   # per generator, the petal's edge ids in order
    loop_letters: dict        # wedge edge id -> signed letter, 0 = silent
    discs: tuple


def crush_word(crush: CrushMap, word) -> tuple:
    """Letter image of a dart word that stays in the wedge part."""
    out = []
    for d in word:
        letter = crush.loop_letters.get(abs(d))
        if letter is None:
            raise ValueError("dart %d leaves the wedge" % d)
        if letter:
            out.append(letter if d > 0 else -letter)
    return free_reduce(out)


@dataclass(frozen=True)
class CopyInfo:
    relator_index: int
    core_factor: int
    ring_length: int
    vertex_offset: int
    num_vertices: int
    edge_offset: int       # core edge ids are edge_offset+1 .. +num_edges
    num_edges: int
    rung_edges: tuple
    square_offset: int     # core square indices
    num_squares: int
    ring_squares: tuple
    wedge_path: EdgePath   # the relator side of the cylinder
    core_path: EdgePath    # the core-loop side, in final ids


@dataclass(frozen=True)
class RelatorAttachment:
    complex: SquareComplex
    pair: PointedVHPair
    crush: CrushMap
    wedge_factor: int
    copies: tuple


def attach_relators(pres: GroupPresentation, core: SquareComplex,
                    core_loop: EdgePath) -> RelatorAttachment:
    """Attach one core copy per relator to the presentation wedge.

    The cylinder for relator r needs both boundary circles to have equal
    combinatorial length, so the wedge is subdivided by the least s making
    every |r_j|*s a multiple of |core_loop|, and copy j's loop edges by
    s_j = |r_j|*s/|core_loop|.  Each cylinder becomes a single ring of
    |r_j|*s squares whose rungs are horizontal.
    """
    _require_vh(core, "core")
    _require_vertical_simple_loop(core, core_loop, "core loop")
    wedge = presentation_complex(pres)
    c_len = len(core_loop)
    s = 1
    for r in pres.relators:
        s = math.lcm(s, c_len // math.gcd(c_len, len(r)))

    wedge_sub = subdivide_edges(wedge.complex,
                                {e: s for e in wedge.generator_edges})
    num_vertices = wedge_sub.complex.num_vertices
    edges = list(wedge_sub.complex.edges)
    squares = []
    copies = []

    for j, r in enumerate(pres.relators):
        s_j = len(r) * s // c_len
        n_j = len(r) * s
        sub = subdivide_edges(core, {abs(d): s_j for d in core_loop.word})
        loop_j = subdivide_path(sub, core_loop)

        v_off = num_vertices
        e_off = len(edges)
        num_vertices += sub.complex.num_vertices
        for e in sub.complex.edges:
            edges.append(Edge(e.tail + v_off, e.head + v_off, e.label))
        sq_off = len(squares)
        for w in sub.complex.squares:
            squares.append(tuple(d + e_off if d > 0 else d - e_off
                                 for d in w))

        wedge_path = subdivide_path(wedge_sub, EdgePath(0, r))
        wedge_walk = trace(wedge_sub.complex, wedge_path)
        core_word = tuple(d + e_off if d > 0 else d - e_off
                          for d in loop_j.word)
        core_path = EdgePath(loop_j.start + v_off, core_word)
        core_walk = [v + v_off for v in trace(sub.complex, loop_j)]
        if len(wedge_path.word) != n_j or len(core_word) != n_j:
            raise AssertionError("cylinder ends have unequal lengths")

        rungs = []
        for i in range(n_j):
            edges.append(Edge(wedge_walk[i], core_walk[i], H_LABEL))
            rungs.append(len(edges))
        ring = []
        for i in range(n_j):
            squares.append((wedge_path.word[i], rungs[(i + 1) % n_j],
                            -core_word[i], -rungs[i]))
            ring.append(len(squares) - 1)
        copies.append(CopyInfo(j, s_j, n_j, v_off,
                               sub.complex.num_vertices, e_off,
                               sub.complex.num_edges, tuple(rungs),
                               sq_off, sub.complex.num_squares, tuple(ring),
                               wedge_path, core_path))

    result = SquareComplex(num_vertices, tuple(edges), tuple(squares))

    loop_letters = {}
    gen_chains = []
    for i, eid in enumerate(wedge.generator_edges, start=1):
        chain = wedge_sub.edge_chains[eid - 1]
        gen_chains.append(chain)
        for seg in chain[:-1]:
            loop_letters[seg] = 0
        loop_letters[chain[-1]] = i
    discs = []
    for info in copies:
        discs.append(CrushedDisc(
            info.relator_index,
            tuple(range(info.vertex_offset,
                        info.vertex_offset + info.num_vertices)),
            tuple(range(info.edge_offset + 1,
                        info.edge_offset + info.num_edges + 1)),
            info.rung_edges,
            tuple(range(info.square_offset,
                        info.square_offset + info.num_squares))
            + info.ring_squares))
    crush = CrushMap(tuple(gen_chains), loop_letters, tuple(discs))

    return RelatorAttachment(result, pointed_pair(result, 0), crush, s,
                             tuple(copies))


# ---------------------------------------------------------------------------
# loop attachment and doubling


def attach_loop(pair: PointedVHPair):
    """Append a fresh vertical loop edge at the basepoint.

    Returns (extended pair, new edge id); the vertical component grows by
    the new edge."""
    cx = pair.complex
    alpha = cx.num_edges + 1
    cx2 = SquareComplex(
        cx.num_vertices,
        cx.edges + (Edge(pair.basepoint, pair.basepoint, V_LABEL),),
        cx.squares)
    return (PointedVHPair(cx2, pair.v_edges | {alpha}, pair.basepoint),
            alpha)


@dataclass(frozen=True)
class DoubledComplex:
    complex: SquareComplex
    pair: PointedVHPair        # the input pair (the retraction's target)
    loop: EdgePath             # the doubling loop in the input complex
    alpha: int                 # the appended loop edge, copy-0 id
    edge_shift: int            # copy-1 edge e is e + edge_shift
    vertex_shift: int
    gamma_prime: EdgePath      # loop * alpha, in copy-0 ids
    rungs: tuple
    annulus_squares: tuple
    hyperplane: Hyperplane     # the rung hyperplane
    retraction: CellularMap
    basepoint: int


def double_along_loop(pair: PointedVHPair, loop: EdgePath) -> DoubledComplex:
    """Two copies of the complex-with-appended-loop, glued by an annulus.

    The annulus runs along gamma' = loop * alpha: square i has the copy-0
    dart of gamma'_i on one side, the copy-1 dart opposite, and horizontal
    rungs between the two copies of gamma's i-th vertex before and after.
    The rungs form a single hyperplane, a cycle of length |gamma'|, and
    it is always 2-sided.  The retraction onto the input complex is the
    identity on copy 0, folds copy 1 over, sends alpha across the reversed
    loop, and collapses the rungs.
    """
    cx = pair.complex
    _require_vh(cx, "base complex")
    if loop.start != pair.basepoint:
        raise ValueError("loop is not based at the basepoint")
    _require_vertical_simple_loop(cx, loop, "loop")

    ext, alpha = attach_loop(pair)
    lp = ext.complex
    gamma = EdgePath(loop.start, loop.word + (alpha,))
    walk = trace(lp, gamma)   # closes at the basepoint
    n_v, n_e = lp.num_vertices, lp.num_edges
    big_n = len(gamma)

    def shift(d):
        return d + n_e if d > 0 else d - n_e

    edges = []
    for copy in (0, 1):
        off = copy * n_v
        for e in lp.edges:
            edges.append(Edge(e.tail + off, e.head + off, e.label))
    rungs = []
    for i in range(big_n):
        edges.append(Edge(walk[i], walk[i] + n_v, H_LABEL))
        rungs.append(len(edges))

    squares = []
    for copy in (0, 1):
        for w in lp.squares:
            squares.append(tuple(d if copy == 0 else shift(d) for d in w))
    annulus = []
    for i in range(big_n):
        squares.append((gamma.word[i], rungs[(i + 1) % big_n],
                        -shift(gamma.word[i]), -rungs[i]))
        annulus.append(len(squares) - 1)

    doubled = SquareComplex(2 * n_v, tuple(edges), tuple(squares))

    rev = tuple(-d for d in reversed(loop.word))
    edge_map = []
    for e in range(1, cx.num_edges + 1):
        edge_map.append((e,))
    edge_map.append(rev)                      # alpha
    for e in range(1, cx.num_edges + 1):      # copy 1
        edge_map.append((e,))
    edge_map.append(rev)
    for _ in rungs:
        edge_map.append(())
    square_map = (tuple(range(cx.num_squares)) * 2
                  + (None,) * big_n)
    rho = CellularMap(
        doubled, cx,
        tuple(v % n_v for v in range(2 * n_v)),
        tuple(edge_map),
        square_map)

    y = hyperplane_of_edge(hyperplanes(doubled), rungs[0])
    return DoubledComplex(doubled, pair, loop, alpha, n_e, n_v, gamma,
                          tuple(rungs), tuple(annulus), y, rho,
                          pair.basepoint)


# ---------------------------------------------------------------------------
# loop and pair enumeration


def enumerate_simple_loops(cx: SquareComplex, basepoint: int,
                           labels: Optional[frozenset] = None) -> tuple:
    """All embedded cycles through the basepoint, both directions,
    ordered by (length, word).

    No vertex repeats except the basepoint at the two ends, and no edge
    repeats; `labels` restricts the edges considered.
    """
    if not (0 <= basepoint < cx.num_vertices):
        raise ValueError("no vertex %r" % (basepoint,))
    out_darts = {}
    for eid, e in enumerate(cx.edges, start=1):
        if labels is not None and e.label not in labels:
            continue
        out_darts.setdefault(e.tail, []).append(eid)
        out_darts.setdefault(e.head, []).append(-eid)
    for v in out_darts:
        out_darts[v].sort(key=lambda d: (abs(d), 0 if d > 0 else 1))

    # depth-first on an explicit stack: one dart iterator per vertex of
    # the current path, so long cycles do not hit the recursion limit
    found = []
    word = []
    used_edges = set()
    visited = set()
    stack = [iter(out_darts.get(basepoint, ()))]
    while stack:
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
            if word:
                last = word.pop()
                used_edges.discard(abs(last))
                visited.discard(cx.dart_head(last))
            continue
        if abs(d) in used_edges:
            continue
        to = cx.dart_head(d)
        if to == basepoint:
            found.append(EdgePath(basepoint, tuple(word) + (d,)))
            continue
        if to in visited:
            continue
        visited.add(to)
        used_edges.add(abs(d))
        word.append(d)
        stack.append(iter(out_darts.get(to, ())))
    return tuple(sorted(found, key=lambda p: (len(p.word), p.word)))


@dataclass(frozen=True)
class PairItem:
    index: int                 # position in the enumeration
    presentation_index: int
    loop_index: int
    presentation: GroupPresentation
    attachment: RelatorAttachment
    loop: EdgePath
    double: DoubledComplex


def pair_enumerator(presentations: Iterable[GroupPresentation],
                    core: SquareComplex, core_loop: EdgePath):
    """Diagonal stream over (presentation, simple loop) pairs.

    For source item n the pointed pair is attach_relators(P_n, core,
    core_loop) and the loops run over the vertical simple loops of its
    wedge; pairs (n, k) are emitted by ascending n+k, then ascending n.
    The source is pulled lazily and may be an iterator.
    """
    source = iter(presentations)
    built = []          # (attachment, loops)
    exhausted = False
    m = 0
    t = 0
    while True:
        for n in range(0, t + 1):
            while not exhausted and n >= len(built):
                try:
                    pres = next(source)
                except StopIteration:
                    exhausted = True
                    break
                att = attach_relators(pres, core, core_loop)
                loops = enumerate_simple_loops(att.complex, 0,
                                               labels=frozenset([V_LABEL]))
                built.append((pres, att, loops))
            if n >= len(built):
                break
            pres, att, loops = built[n]
            k = t - n
            if k < len(loops):
                dbl = double_along_loop(att.pair, loops[k])
                yield PairItem(m, n, k, pres, att, loops[k], dbl)
                m += 1
        if exhausted:
            if not built:
                return
            if t >= max(n + len(loops) for n, (_, _, loops)
                        in enumerate(built)):
                return
        t += 1
