"""Permutations of {0..d-1} as tuples, and one coset-table search with
two fills over a presentation compiled once (CosetTables): Sims'
low-index search for transitive actions up to conjugacy (low_index),
which drives every search, runs degree after degree as one stream that
resumes each degree where the one before stopped (classes), and fills
a watched carrier's columns first when it prunes, cutting tables by
their closed carrier orbits, and a labelled fill that yields every
relator-respecting homomorphism to S_d in lexicographic order (homs),
behind the other cover modes.  iter_low_index and iter_homs run them on
relators given as plain data.

Composition is in diagram order: compose(p, q) applies p first, then q.
This matches reading a word left to right and transporting a sheet along
it, so word_image(w, ...) is the permutation "follow w".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .complexes import cyclic_reduce, is_signed_index


def identity(d: int) -> tuple:
    return tuple(range(d))


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_permutation(p, d: int) -> bool:
    """Whether p lists 0..d-1 in some order, each entry an int and not a
    bool (so True, 1.0 and 0.0 are no sheets)."""
    return (len(p) == d
            and all(isinstance(x, int) and not isinstance(x, bool)
                    for x in p)
            and sorted(p) == list(range(d)))


def check_degree(d) -> None:
    """Raise ValueError unless d is an int, not a bool, with d >= 1: a
    number of sheets."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError("degree must be positive (an int >= 1), not %r"
                         % (d,))


@lru_cache(maxsize=None)
def all_permutations(d: int) -> tuple:
    """All of S_d in lexicographic order."""
    return tuple(itertools.permutations(range(d)))


def word_image(word: Sequence[int], images, d: int):
    """Transport along a word of signed 1-based generator indices.

    `images` maps generator index (1-based) to a permutation; negative
    letters use the inverse.
    """
    p = identity(d)
    for letter in word:
        q = images[letter] if letter > 0 else inverse(images[-letter])
        p = compose(p, q)
    return p


def relabel(p, sigma):
    """Conjugate by a sheet relabeling: relabel(p, s)[s[i]] = s[p[i]]."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[sigma[i]] = sigma[p[i]]
    return tuple(out)


def canonical_under_relabeling(perms: Sequence[tuple]) -> tuple:
    """Least simultaneous relabeling of a tuple of permutations."""
    d = len(perms[0]) if perms else 0
    if d == 0:
        return tuple(perms)
    return min(tuple(relabel(p, s) for p in perms)
               for s in all_permutations(d))


def is_canonical(perms: Sequence[tuple]) -> bool:
    """Whether canonical_under_relabeling(perms) == perms.

    Each relabeling is compared with perms one permutation at a time,
    and the test fails at the first relabeling that is smaller.  The
    identity, which comes first, is skipped.
    """
    if not perms:
        return True
    for s in itertools.islice(all_permutations(len(perms[0])), 1, None):
        for p in perms:
            q = relabel(p, s)
            if q != p:
                if q < p:
                    return False
                break
    return True


def orbit(perms: Iterable[tuple], start: int) -> frozenset:
    perms = list(perms)
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def is_transitive(perms: Sequence[tuple], d: int) -> bool:
    if d <= 1:
        return True
    if not perms:
        return False
    return len(orbit(perms, 0)) == d


def mulclose(gens: Iterable[tuple], d: Optional[int] = None) -> frozenset:
    """Closure of a generating set under composition.

    Subgroups of S_d stay small at desk scale, so no cap is needed.
    """
    gens = [tuple(g) for g in gens]
    if not gens:
        return frozenset([identity(d)]) if d is not None else frozenset()
    e = identity(len(gens[0]))
    group = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = compose(g, h)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return frozenset(group)


class NodeBudget:
    """Mutable backtracking-node counter with an optional cap."""

    def __init__(self, cap: Optional[int] = None):
        self.cap = cap
        self.nodes = 0
        self.cap_hit = False

    def spend(self) -> bool:
        """Count one node; False once the cap is exhausted."""
        if self.cap is not None and self.nodes >= self.cap:
            self.cap_hit = True
            return False
        self.nodes += 1
        return True

    def replay(self, n: int) -> bool:
        """Count n nodes at once, as n calls of spend would: False, with
        the cap reached and cap_hit set, when the cap refuses one."""
        if self.cap is not None and self.nodes + n > self.cap:
            self.nodes = self.cap
            self.cap_hit = True
            return False
        self.nodes += n
        return True


# ---------------------------------------------------------------------------
# coset tables


def eliminate_generators(num_gens: int, relators: Sequence[Sequence[int]]):
    """Tietze moves that drop the generators short relators define.

    A relator of length 1 makes its generator trivial.  A relator of
    length 2 in two distinct generators makes the higher-indexed one the
    inverse of the other letter.  Moves repeat until no such relator is
    left; the relators that contain the dropped generator are rewritten,
    cyclically reduced, and dropped once empty.  Returns (kept,
    relators, images): `kept` lists the surviving generators in
    ascending order, the relators are over 1..len(kept), and images[g-1]
    is 0 when generator g is trivial, else a signed 1-based index into
    `kept`.
    """
    image = list(range(num_gens + 1))    # signed letter, 0 = trivial
    rels = [w for w in map(cyclic_reduce, relators) if w]
    while True:
        for w in rels:
            if len(w) == 1:
                g, letter = abs(w[0]), 0
                break
            if len(w) == 2 and abs(w[0]) != abs(w[1]):
                x, y = sorted(w, key=abs)
                # xy = 1 (or yx = 1, a conjugate): y is x inverted
                g, letter = abs(y), (-x if y > 0 else x)
                break
        else:
            break
        image[g] = letter
        sub = {g: letter, -g: -letter}
        # a relator without g or -g is already cyclically reduced, so
        # rewriting it would give it back unchanged
        rewritten = []
        for w in rels:
            if g in w or -g in w:
                w = cyclic_reduce([x for x in map(sub.get, w, w) if x])
                if not w:
                    continue
            rewritten.append(w)
        rels = rewritten

    def resolve(x):
        while x and image[abs(x)] != abs(x):
            x = image[x] if x > 0 else -image[-x]
        return x

    kept = [g for g in range(1, num_gens + 1) if image[g] == g]
    pos = {g: k for k, g in enumerate(kept, start=1)}
    for g in kept:
        pos[-g] = -pos[g]
    pos[0] = 0
    return (tuple(kept),
            tuple(tuple(pos[x] for x in w) for w in rels),
            tuple(pos[resolve(g)] for g in range(1, num_gens + 1)))


def _relator_rotations(relators, ncols: int) -> tuple:
    """Column -> the distinct cyclic rotations of every relator and of
    every inverse relator that begin with that column, as columns."""
    rots = [set() for _ in range(ncols)]
    for w in relators:
        cols = [2 * (abs(x) - 1) + (x < 0) for x in w]
        for word in (cols, [c ^ 1 for c in reversed(cols)]):
            for i in range(len(word)):
                rots[word[i]].add(tuple(word[i:] + word[:i]))
    return tuple(tuple(sorted(r)) for r in rots)


class CosetTables:
    """Relators over generators 1..num_gens compiled for the coset-table
    search when made, read then and not kept; a letter that is not an
    int in +-1..num_gens, or is a bool, raises ValueError.  A
    presentation holds its own (GroupPresentation.tables,
    Pi1Presentation.tables).

    ncols: the table's column count, two per generator that
        eliminate_generators keeps.
    columns: per generator its column, None when the Tietze moves make
        it trivial.  Kept generator k reads column 2k-2 and its inverse
        column 2k-1, and a generator eliminated as another's inverse
        reads that one's inverse column.
    rotations: _relator_rotations of the relators eliminate_generators
        keeps.
    trivial_definitions: the number of definitions the degree-1 fill of
        low_index makes.  That fill has one class, the trivial action,
        and no conflict, so it runs here once, uncapped, and low_index(1)
        only replays its count.
    """

    def __init__(self, num_gens: int, relators: Sequence[Sequence[int]]):
        for w in relators:
            for x in w:
                if not is_signed_index(x, num_gens):
                    raise ValueError("relator letter %r is not a signed "
                                     "generator index in 1..%d"
                                     % (x, num_gens))
        kept, rels, images = eliminate_generators(num_gens, relators)
        self.ncols = 2 * len(kept)
        self.columns = tuple(None if not x else 2 * x - 2 if x > 0
                             else -2 * x - 1 for x in images)
        self.rotations = _relator_rotations(rels, self.ncols)
        budget = NodeBudget()
        for _ in _fill(self, 1, budget, False):
            pass
        self.trivial_definitions = budget.nodes

    def low_index(self, d: int, budget: Optional[NodeBudget] = None, *,
                  prune=None):
        """One transitive assignment of permutations in S_d to the
        generators satisfying every relator, per conjugacy class: Sims'
        low-index subgroups search.

        The stabilizer of sheet 0 is an index-d subgroup, and conjugate
        subgroups give relabeled assignments.  The coset table starts
        with one coset.  Its first undefined entry in the fill's order is
        defined next, as an existing coset in ascending order or as the
        next new one, so every table is in standard form: cosets first
        appear in ascending order when the table is read in that order.
        A complete table with d cosets is kept when no other coset,
        taken as the base, gives a smaller standard table, so each class
        is yielded once, as its least standard table, and the classes
        come in ascending order of it.  The bases are tried in ascending
        order, and a base that an automorphism found on a tie reaches
        from a base already tried is skipped, since both give the same
        re-based table (_is_least): a regular class costs a few
        comparisons, not d - 1, and the kept tables are the same.  The
        order is row-major without `prune`.  The table, deductions,
        budget and errors are those of _fill.

        `prune`, when given, is a triple (watch, dirty, least), which
        _fill describes.  The watched generators' columns are then
        filled first, row by row, so the table closes their orbits one
        at a time, near the root.  dirty is asked about each orbit as
        it closes, as an action of its own degree, until it passes one.
        While it has passed none, a dirty orbit cuts the table, as a
        failed deduction would, and every class below it is skipped,
        once fewer than `least` cosets are left to make: no orbit of
        degree `least` or more fits in them.  So with `least` at most
        the least degree of an orbit dirty passes, every class cut has
        only dirty orbits, and all the others are kept; `least` 1 cuts
        only complete tables, and 0 cuts none.  The classes kept come in
        the order they have with a callback that never cuts.

        Without `prune`, degree 1 spends trivial_definitions nodes at once
        (NodeBudget.replay), then yields the trivial assignment: under
        every cap, the yields, nodes and cap_hit of the fill.  Each call
        searches from the root; `classes` runs consecutive degrees
        without searching the lower ones again.
        """
        return self._search(d, budget, False, prune)

    def classes(self, first: int, last: int,
                budget: Optional[NodeBudget] = None):
        """(d, assignment) for each class low_index(d) yields, for d =
        first..last in turn: the yields, order, nodes and cap_hit of
        those calls one after another on one budget, under every cap,
        ending after the degree whose search the cap stops.

        The search tree of degree d holds that of degree d - 1, in the
        same depth-first order: the two part only where a table with
        d - 1 cosets would open coset d - 1, which degree d - 1 refuses
        and degree d does.  Those refusals are the frontier of degree
        d - 1, and degree d runs only the subtrees below them, from
        copies of their tables (_fill), charging the definitions of
        degree d - 1 between them at once (NodeBudget.replay).  So the
        stream makes as many definitions as a search of degree `last`
        alone, where the calls make those of every degree.  Degree
        `last` keeps no frontier, and one of more than FRONTIER_ENTRIES
        table entries is dropped: the next degree searches from the
        root.  A degree with an empty frontier leaves every later one
        the same tree, without a class, so the stream charges all of
        them at once and ends.  A first degree that check_degree
        rejects, or a last one that is not an int, raises ValueError;
        last below first yields nothing.
        """
        check_degree(first)
        if isinstance(last, bool) or not isinstance(last, int):
            raise ValueError("last degree must be an int, not %r" % (last,))
        return self._classes(first, last, budget)

    def _classes(self, first: int, last: int, budget: Optional[NodeBudget]):
        carry = _Frontier()
        for d in range(first, last + 1):
            for a in _fill(self, d, budget, False, carry=carry,
                           record=d < last):
                yield d, a
            if budget is not None and budget.cap_hit:
                return
            if carry.points is None:
                carry = _Frontier()
            elif not carry.points:
                if budget is not None:
                    budget.replay((last - d) * carry.total)
                return

    def homs(self, d: int, budget: Optional[NodeBudget] = None):
        """All assignments of permutations in S_d to the generators
        satisfying every relator, in lexicographic order.

        This is the labelled fill of the coset table behind low_index:
        it starts with all d cosets and fills the kept generators'
        columns one after another, rows ascending, trying values in
        ascending order; each inverse column fills as its generator's
        mirror.  Every complete table is yielded, so the depth-first
        order is lexicographic in the kept generators' images.  A
        generator eliminate_generators drops is trivial or a function of
        lower-indexed ones, so the order is lexicographic over all
        generators too.  The table, deductions, budget (one node per
        definition tried) and errors are those of _fill.
        """
        return self._search(d, budget, True)

    def _search(self, d: int, budget: Optional[NodeBudget], labelled: bool,
                prune=None):
        """The one entry of both fills, which checks the degree."""
        check_degree(d)
        if d == 1 and not labelled and prune is None:
            return self._trivial_class(budget)
        return _fill(self, d, budget, labelled, prune)

    def _trivial_class(self, budget: Optional[NodeBudget]):
        """low_index(1) without a prune callback."""
        if budget is not None and not budget.replay(self.trivial_definitions):
            return
        yield (identity(1),) * len(self.columns)


# The most table entries the frontier of one degree may hold
# (CosetTables.classes, _Frontier): 8 MiB of list slots in CPython.
FRONTIER_ENTRIES = 1 << 20


class _Frontier:
    """Where _fill resumes a degree, and what it leaves for the next.

    points: the frontier of the previous degree, in the order the fill
        met it, each point (count, entries, entry, n): the definitions
        a search from the root had made before it, a copy of the n
        rows of its table, the entry where coset n would be
        opened, and n.  The root is the one point (0, (), 0, 1), with
        no rows copied.  After a degree's fill, its frontier: an empty
        list when it has none, and None when it held more than
        FRONTIER_ENTRIES entries and was dropped, or was not recorded.
    total: the definitions a search from the root makes in the degree
        the points come from, 0 for the root.
    """

    __slots__ = ("points", "total")

    def __init__(self):
        self.points = [(0, (), 0, 1)]
        self.total = 0


def _rebased_is_smaller(table, ncols: int, d: int, base: int, reads):
    """Whether taking coset `base` as coset 0 and renumbering the others
    by first appearance along `reads` gives a smaller table: True when
    smaller, False when larger, and on a tie the renumbering `order`
    (new coset -> old).  `reads` lists the table's entries in its own
    read order; the re-based table is read in that order too, which is
    its own while the two agree.  A tie is an equal table, so `order`
    then commutes with every column: an automorphism of the table that
    takes coset 0 to `base`."""
    label = [-1] * d
    label[base] = 0
    order = [base]
    for pos in reads:
        row, col = divmod(pos, ncols)
        t = table[order[row] * ncols + col]
        if label[t] < 0:
            label[t] = len(order)
            order.append(t)
        if label[t] != table[pos]:
            return label[t] < table[pos]
    return order


def _is_least(table, ncols: int, d: int, reads) -> bool:
    """Whether no coset, taken as the base, gives a smaller table than
    the complete standard table's own (_rebased_is_smaller).

    The bases are tried in ascending order, and each tie's automorphism
    joins every coset x with order[x] in a union-find over the cosets.
    A base joined to a smaller coset is skipped: an automorphism taking
    b to b' takes the table re-based at b to the one re-based at b',
    entry for entry, so the two re-based tables are equal, in either
    read order, and b' gives the answer of a base already tried (or of
    coset 0, the table itself).  A regular class has an automorphism
    for every coset, so a few ties settle all its bases."""
    root = list(range(d))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for b in range(1, d):
        if find(b) < b:
            continue
        order = _rebased_is_smaller(table, ncols, d, b, reads)
        if order is True:
            return False
        if order is not False:
            for x, y in enumerate(order):
                x, y = find(x), find(y)
                if x != y:
                    root[max(x, y)] = min(x, y)
    return True


def _read_order(table, ncols: int, d: int, first) -> list:
    """The entries of a complete standard table in carrier-first order:
    the `first` columns of each row as soon as the row is discovered,
    and the other columns row-major once no discovered row has one of
    those left."""
    others = (r * ncols + x for r in range(d) for x in range(ncols)
              if x not in first)
    reads = []
    found = 1    # rows 0..found-1 are discovered, the table being standard
    done = 0     # rows whose `first` columns are read
    while len(reads) < d * ncols:
        if done < found:
            batch = [done * ncols + x for x in first]
            done += 1
        else:
            batch = [next(others)]
        for e in batch:
            reads.append(e)
            found = max(found, table[e] + 1)
    return reads


def iter_low_index(num_gens: int, relators: Sequence[Sequence[int]], d: int,
                   budget: Optional[NodeBudget] = None, *, prune=None):
    """CosetTables(num_gens, relators).low_index, compiled afresh."""
    return CosetTables(num_gens, relators).low_index(d, budget, prune=prune)


def iter_homs(num_gens: int, relators: Sequence[Sequence[int]], d: int,
              budget: Optional[NodeBudget] = None):
    """CosetTables(num_gens, relators).homs, compiled afresh."""
    return CosetTables(num_gens, relators).homs(d, budget)


def _fill(tables: CosetTables, d: int, budget: Optional[NodeBudget],
          labelled: bool, prune=None, carry: Optional[_Frontier] = None,
          record: bool = True):
    """Complete coset tables of the compiled relators with d rows, each
    yielded as its assignment to the generators: standard tables for
    low_index, labelled ones for homs.

    The table has one column per generator left by eliminate_generators
    and one per inverse.  It is a flat list in which row c of column x
    is entry c * ncols + x, -1 while unset, with one more -1 after the
    last row.  Each definition sets an entry and its mirror in the
    inverse column.  The entry defined next is the first one unset in
    row-major order, or, in the labelled fill, column by column.  With
    `prune`, it is the first unset entry of the watched generators'
    columns and their inverse columns, rows ascending, while the rows
    of the cosets made so far have one; a complete table is then read
    in the same order, each row's watched columns as soon as the row
    is discovered (_read_order), to compare it with its re-based
    tables; _is_least skips the bases that the automorphisms found on
    ties reach.  After each definition the search scans, from each
    newly set entry (c, x), the rotations beginning with x of every
    relator and inverse relator; a scan with one gap left defines that
    entry, and a scan that closes up on the wrong coset rejects the
    definition.  Eliminated generators get their images back in each
    yielded assignment.

    `prune`, when given, is a triple (watch, dirty, least).  Each
    position of watch names a generator by its 0-based index, read
    through its column or as the identity when the Tietze moves make it
    trivial, or is None for the identity.  The watched columns fill
    first, so the rows are discovered one orbit of the watched
    generators at a time: a definition after which no discovered row
    has a watched entry unset closes an orbit, the rows made since the
    last one closed, `closed`..n-1.  No deduction makes a coset, and no
    entry of those rows can point to an earlier row, whose watched
    entries are set already.  The search then calls dirty(key), key
    having per position of watch its permutation of the orbit, each
    coset less `closed`.  A false answer stops the calls below that
    definition: `closed` becomes d in its frame.  A true one rejects
    the definition like a conflict when d - n < least, and otherwise
    makes the orbit's rows closed.  When watch reads every kept
    generator or none of them, dirty is never called and the fill is
    row-major: a fixed key there leaves the table nothing to branch on,
    or reads no column.

    `carry`, a _Frontier, is given only without prune and labels.  The
    fill then searches below each of its points in turn, the frontier of
    degree d - 1 or the root, and charges what a search from the root
    does between them at once (NodeBudget.replay): the definitions of
    degree d - 1 outside every subtree.  So the yields, nodes and
    cap_hit are a search's from the root.  A frame with d cosets that
    has tried every other coset would open coset d: degree d refuses
    that, and records the frame as a point of its own frontier, to
    leave in carry with its definitions when the fill ends; past
    FRONTIER_ENTRIES stored entries it drops them.  Without `record`,
    the last degree `classes` runs, it records none and leaves None.

    Definitions are undone from a trail, and the frames sit on an
    explicit stack, so the recursion limit does not bound the table.
    `budget`, when given, is spent once per definition tried;
    enumeration stops quietly at the first node it refuses, leaving
    budget.cap_hit set.
    """
    ncols, picks, rots = tables.ncols, tables.columns, tables.rotations
    size = d * ncols
    # one trailing -1 ends every search for the next undefined entry
    table = [-1] * (size + 1)
    trail = []

    trivial = identity(d)
    first = ()    # the columns filled first, row by row

    def assignment():
        return tuple(trivial if k is None else tuple(table[k:size:ncols])
                     for k in picks)

    if prune is not None:
        watch, dirty, least = prune
        key_cols = [None if k is None else picks[k] for k in watch]
        watched = sorted({c for c in key_cols if c is not None})
        if not watched or \
                {c & ~1 for c in watched} == set(range(0, ncols, 2)):
            prune = None
        else:
            first = sorted({c ^ b for c in watched for b in (0, 1)})
            k = len(first)
            rank = {x: i for i, x in enumerate(first)}
            # the entries of the `first` columns, row by row
            ahead = [r * ncols + x for r in range(d) for x in first]

        def orbit_dirty(lo: int, hi: int) -> bool:
            """Whether dirty rejects the orbit on rows lo..hi-1, each
            watched column read as a permutation of 0..hi-lo-1."""
            images = {None: identity(hi - lo)}
            for c in watched:
                column = table[lo * ncols + c:hi * ncols:ncols]
                # most orbits that close are the first, with lo == 0
                images[c] = tuple(t - lo for t in column) if lo \
                    else tuple(column)
            return dirty(tuple(images[c] for c in key_cols))

    def deduce(entry) -> bool:
        """Process deductions from a new entry; False on a conflict."""
        queue = [entry]
        while queue:
            e = queue.pop()
            c, x = divmod(e, ncols)
            # every rotation in rots[x] begins with x, and (c, x) is set
            start = table[e]
            for word in rots[x]:
                f = start
                n = len(word)
                i = 1
                while i < n:
                    t = table[f * ncols + word[i]]
                    if t < 0:
                        break
                    f = t
                    i += 1
                else:
                    if f != c:
                        return False
                    continue
                # back from c along the inverted letters after the gap
                b = c
                j = n - 1
                while j > i:
                    t = table[b * ncols + (word[j] ^ 1)]
                    if t < 0:
                        break
                    b = t
                    j -= 1
                else:
                    y = word[i]
                    mirror = b * ncols + (y ^ 1)
                    if table[mirror] >= 0:
                        return False
                    forward = f * ncols + y
                    table[forward] = b
                    table[mirror] = f
                    trail.append(forward)
                    trail.append(mirror)
                    queue.append(forward)
        return True

    if carry is None:
        root = (0, (), first[0] if first else 0, d if labelled else 1)
        points, total, found = [root], 0, None
    else:
        points, total = carry.points, carry.total
        found = [] if record else None
    if not ncols:
        # no generators left: the table is already complete
        if carry is not None:
            carry.points, carry.total = [], 0
        if labelled or d == 1:
            yield assignment()
        return
    if labelled:
        # the generator columns' entries, column by column, then the
        # trailing -1
        fill = [c * ncols + x for x in range(0, ncols, 2) for c in range(d)]
        fill.append(d * ncols)
    reads = range(d * ncols)
    spent = 0     # the definitions a search from the root would have made
    done = 0      # the previous degree's definitions accounted for
    stored = 0    # the table entries copied into found
    for count, entries, entry, n in points:
        # what the previous degree did between its frontier points is
        # done alike here, and charged at once
        if budget is not None and not budget.replay(count - done):
            return
        spent += count - done
        done = count
        table[:len(entries)] = entries
        # a frame: entry, next coset to try, trail mark, cosets, and the
        # rows in closed watched orbits, d once dirty has passed one.  A
        # frontier point tries only the new coset, the root every one.
        stack = [[entry, len(entries) // ncols, 0, n, 0]]
        while stack:
            frame = stack[-1]
            entry, v, mark, n, closed = frame
            while len(trail) > mark:
                table[trail.pop()] = -1
            c, x = divmod(entry, ncols)
            y = x ^ 1
            while v < n and table[v * ncols + y] >= 0:
                v += 1
            if v > n or v == d:
                # every free coset tried, and no new one fits
                if found is not None and v == n:
                    # coset d would be opened here: a frontier point
                    stored += size
                    if stored > FRONTIER_ENTRIES:
                        found = None
                    else:
                        found.append((spent, table[:size], entry, n))
                stack.pop()
                continue
            frame[1] = v + 1
            if budget is not None and not budget.spend():
                return
            spent += 1
            if v == n:
                n += 1
            mirror = v * ncols + y
            table[entry] = v
            table[mirror] = c
            trail.append(entry)
            trail.append(mirror)
            if not deduce(entry):
                continue
            if labelled:
                i = (x >> 1) * d + c + 1    # the place after entry's in fill
                while table[fill[i]] >= 0:
                    i += 1
                after = fill[i]
            elif first:
                # the entries of `first` before entry's are set, and so
                # are those of every row but the last when entry is in
                # another column; the other entries before entry's are
                # set too
                i = rank.get(x, -1)
                start = c * k + i + 1 if i >= 0 else (n - 1) * k
                after = next((e for e in ahead[start:n * k] if table[e] < 0),
                             None)
                if after is None:
                    if n > closed:
                        # the rows made since the last closure,
                        # closed..n-1, are one watched orbit, and its
                        # action is fixed
                        if not orbit_dirty(closed, n):
                            closed = d
                        elif d - n < least:
                            continue
                        else:
                            closed = n
                    after = table.index(-1, 0 if i >= 0 else entry + 1)
            else:
                after = table.index(-1, entry + 1)
            if after < n * ncols:
                stack.append([after, 0, len(trail), n, closed])
            elif n == d:
                if first:
                    reads = _read_order(table, ncols, d, first)
                if labelled or _is_least(table, ncols, d, reads):
                    yield assignment()
    if budget is not None and not budget.replay(total - done):
        return
    if carry is not None:
        carry.points, carry.total = found, spent + total - done
