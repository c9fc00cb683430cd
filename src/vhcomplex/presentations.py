"""Group presentations and fundamental-group presentations of complexes.

Words over named generators use one lowercase ascii letter per generator,
with the uppercase letter standing for its inverse ("abAB" is the
commutator).  Internally words are tuples of signed 1-based generator
indices, the same convention square boundary words use for edges.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .complexes import (EdgePath, Record, SquareComplex, cyclic_reduce,
                        free_reduce, is_connected_complex, is_index,
                        is_signed_index, require_structure, trace)
from .permutations import CosetTables


def _compiled(pres) -> CosetTables:
    """A presentation's `tables`: its relators compiled for the
    coset-table search on first use, and kept on the presentation."""
    return CosetTables(len(pres.generators), pres.relators)


class GroupPresentation(Record):
    generators: tuple   # single lowercase letters
    relators: tuple     # words: tuples of signed 1-based generator indices

    @classmethod
    def make(cls, generators, relators):
        """Parse and normalize; relator letters are ints, not bools, in
        +-1..len(generators), and relators are cyclically reduced on
        ingest and must not vanish."""
        gens = tuple(generators)
        seen = set()
        for name in gens:
            if (not isinstance(name, str) or len(name) != 1
                    or not name.isascii() or not name.islower()
                    or not name.isalpha()):
                raise ValueError("generator name %r is not a single "
                                 "lowercase letter" % (name,))
            if name in seen:
                raise ValueError("generator %r repeated" % (name,))
            seen.add(name)
        rels = []
        for r in relators:
            word = parse_word(r, gens) if isinstance(r, str) else tuple(r)
            for letter in word:
                if not is_signed_index(letter, len(gens)):
                    raise ValueError("relator letter %r out of range"
                                     % (letter,))
            word = cyclic_reduce(word)
            if not word:
                raise ValueError("relator %r reduces to the empty word"
                                 % (r,))
            rels.append(word)
        return cls(gens, tuple(rels))

    @property
    def num_generators(self):
        return len(self.generators)

    tables = cached_property(_compiled)


def parse_word(s: str, generators: Sequence[str]) -> tuple:
    index = {g: i + 1 for i, g in enumerate(generators)}
    word = []
    for ch in s:
        if ch in index:
            word.append(index[ch])
        elif ch.lower() in index and ch.isupper():
            word.append(-index[ch.lower()])
        else:
            raise ValueError("letter %r is not a generator or an inverse"
                             % (ch,))
    return tuple(word)


def word_to_string(word: Sequence[int], generators: Sequence[str]) -> str:
    out = []
    for letter in word:
        name = generators[abs(letter) - 1]
        out.append(name if letter > 0 else name.upper())
    return "".join(out)


# ---------------------------------------------------------------------------
# pi1 via spanning tree


class Pi1Presentation(Record):
    """Spanning-tree presentation of the fundamental group of a connected
    complex.  Generators are the non-tree edges (by ascending id); relators
    are the square boundary words with tree darts deleted, one per square,
    freely and cyclically reduced (kept even when empty).  Letters in
    relators are signed 1-based positions into `generators`.
    `edge_generator[eid - 1]` is the 0-based position of edge eid in
    `generators`, or None for a tree edge.
    """
    complex: SquareComplex
    basepoint: int
    tree_edges: frozenset
    generators: tuple
    relators: tuple
    edge_generator: tuple
    _tree_path: tuple  # per vertex, dart word from basepoint along the tree

    def loop_word(self, p: EdgePath) -> tuple:
        """Image of a closed path in the generators, collapsing the tree."""
        verts = trace(self.complex, p)
        if verts[-1] != p.start:
            raise ValueError("path is not closed")
        return free_reduce(_letters(self.edge_generator, p.word))

    def generator_loop(self, gen_index: int) -> EdgePath:
        """The based loop realizing a generator: tree path out, the edge,
        tree path back."""
        eid = self.generators[gen_index - 1]
        e = self.complex.edge(eid)
        out = self._tree_path[e.tail]
        back = tuple(-d for d in reversed(self._tree_path[e.head]))
        return EdgePath(self.basepoint, out + (eid,) + back)

    tables = cached_property(_compiled)


def _letters(edge_generator, darts) -> list:
    """A dart word as signed 1-based generator letters, tree darts cut."""
    word = []
    for d in darts:
        k = edge_generator[abs(d) - 1]
        if k is not None:
            word.append(k + 1 if d > 0 else -k - 1)
    return word


def pi1_presentation(cx: SquareComplex, basepoint: int = 0) -> Pi1Presentation:
    """Breadth-first spanning tree from the basepoint, darts tried in
    (edge id, +before-) order.

    Every search reads its complex through here.  Raises ValueError on a
    basepoint that is no vertex (an int in range), then on a structurally
    invalid complex (require_structure's) or a disconnected one.  The
    complex is checked and its presentation built on the first call per
    basepoint, and the presentation is kept on the complex
    (SquareComplex._pi1), so it lives as long as the complex does.
    Errors are not kept.
    """
    if not is_index(basepoint, cx.num_vertices):
        raise ValueError("no vertex %r" % (basepoint,))
    pres = cx._pi1.get(basepoint)
    if pres is not None:
        return pres
    require_structure(cx)
    if not is_connected_complex(cx):
        raise ValueError("complex is not connected")

    out_darts = {v: [] for v in range(cx.num_vertices)}
    for eid, e in enumerate(cx.edges, start=1):
        out_darts[e.tail].append(eid)
        out_darts[e.head].append(-eid)
    for v in out_darts:
        out_darts[v].sort(key=lambda d: (abs(d), 0 if d > 0 else 1))

    tree_path = {basepoint: ()}
    tree_edges = set()
    queue = [basepoint]
    while queue:
        v = queue.pop(0)
        for d in out_darts[v]:
            w = cx.dart_head(d)
            if w not in tree_path:
                tree_path[w] = tree_path[v] + (d,)
                tree_edges.add(abs(d))
                queue.append(w)

    generators = tuple(sorted(eid for eid in range(1, cx.num_edges + 1)
                              if eid not in tree_edges))
    pos = {eid: k for k, eid in enumerate(generators)}
    edge_generator = tuple(pos.get(eid) for eid in range(1, cx.num_edges + 1))
    relators = tuple(cyclic_reduce(_letters(edge_generator, w))
                     for w in cx.squares)
    paths = tuple(tree_path[v] for v in range(cx.num_vertices))
    pres = cx._pi1[basepoint] = Pi1Presentation(
        cx, basepoint, frozenset(tree_edges), generators, relators,
        edge_generator, paths)
    return pres
