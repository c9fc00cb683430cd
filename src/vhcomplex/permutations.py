"""Permutations of {0..d-1} as tuples, plus the relator-respecting
homomorphism enumerator behind the all-homomorphism cover modes, and
Sims' low-index search for transitive actions up to conjugacy, which
drives every search.

Composition is in diagram order: compose(p, q) applies p first, then q.
This matches reading a word left to right and transporting a sheet along
it, so word_image(w, ...) is the permutation "follow w".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .complexes import cyclic_reduce


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
    return len(p) == d and sorted(p) == list(range(d))


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


def _holds(word, images, points) -> bool:
    """Whether every point, carried through the word's letters, comes
    back to itself; stops at the first point that does not."""
    for x in points:
        y = x
        for letter in word:
            y = images[letter][y]
        if y != x:
            return False
    return True


def iter_homs(num_gens: int, relators: Sequence[Sequence[int]], d: int,
              budget: Optional[NodeBudget] = None):
    """All assignments of permutations in S_d to generators 1..num_gens
    satisfying every relator, in lexicographic order.

    Relators are words of signed 1-based generator indices.  A relator is
    checked as soon as every generator it mentions has an image, which
    prunes most of the tree early.  It holds when every point of
    {0..d-1}, carried through its letters, comes back to itself.
    `budget`, when given, is spent once per visited partial assignment;
    enumeration stops quietly at the first node it refuses, leaving
    budget.cap_hit set.  The search keeps one iterator per assigned
    generator on an explicit stack, so the number of generators is not
    bounded by the recursion limit.
    """
    if num_gens == 0:
        # words over no generators are empty, hence satisfied
        yield ()
        return
    check_at = [[] for _ in range(num_gens + 1)]
    inverted = [False] * (num_gens + 1)
    for r in relators:
        check_at[max((abs(x) for x in r), default=1)].append(r)
        for x in r:
            if x < 0:
                inverted[-x] = True
    # images[g] is generator g's image and images[-g] its inverse:
    # negative indices count from the end of the list, so a signed
    # letter indexes its permutation directly.
    images = [None] * (2 * num_gens + 1)
    points = range(d)
    perms = all_permutations(d)
    if budget is not None and not budget.spend():
        return
    stack = [iter(perms)]
    while stack:
        k = len(stack)
        for p in stack[-1]:
            images[k] = p
            if inverted[k]:
                images[-k] = inverse(p)
            for word in check_at[k]:
                if not _holds(word, images, points):
                    break
            else:
                if budget is not None and not budget.spend():
                    return
                if k < num_gens:
                    stack.append(iter(perms))
                    break
                yield tuple(images[1:k + 1])
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# low-index subgroups


def eliminate_generators(num_gens: int, relators: Sequence[Sequence[int]]):
    """Tietze moves that drop the generators short relators define.

    A relator of length 1 makes its generator trivial.  A relator of
    length 2 in two distinct generators makes the higher-indexed one the
    inverse of the other letter.  Moves repeat until no such relator is
    left; relators are rewritten, cyclically reduced, and dropped once
    empty.  Returns (kept, relators, images): `kept` lists the surviving
    generators in ascending order, the relators are over 1..len(kept),
    and images[g-1] is 0 when generator g is trivial, else a signed
    1-based index into `kept`.
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
        words = ([sub.get(x, x) for x in r] for r in rels)
        rels = [w for w in (cyclic_reduce([x for x in word if x])
                            for word in words) if w]

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


def _relator_rotations(relators, ncols: int) -> list:
    """Column -> the distinct cyclic rotations of every relator and of
    every inverse relator that begin with that column, as columns."""
    rots = [set() for _ in range(ncols)]
    for w in relators:
        cols = [2 * (abs(x) - 1) + (x < 0) for x in w]
        for word in (cols, [c ^ 1 for c in reversed(cols)]):
            for i in range(len(word)):
                rots[word[i]].add(tuple(word[i:] + word[:i]))
    return [sorted(r) for r in rots]


def _rebased_is_smaller(table, ncols: int, d: int, base: int) -> bool:
    """Whether taking coset `base` as coset 0 and renumbering the others
    by first appearance in row-major order gives a smaller table."""
    label = [-1] * d
    label[base] = 0
    order = [base]
    pos = 0
    for row in order:
        start = row * ncols
        for col in range(ncols):
            t = table[start + col]
            if label[t] < 0:
                label[t] = len(order)
                order.append(t)
            if label[t] != table[pos]:
                return label[t] < table[pos]
            pos += 1
    return False


def iter_low_index(num_gens: int, relators: Sequence[Sequence[int]], d: int,
                   budget: Optional[NodeBudget] = None):
    """One transitive assignment of permutations in S_d to generators
    1..num_gens satisfying every relator, per conjugacy class: Sims'
    low-index subgroups search.

    The stabilizer of sheet 0 is an index-d subgroup, and conjugate
    subgroups give relabeled assignments.  The search fills a coset
    table with d rows and one column per generator and per inverse,
    after eliminate_generators.  It defines the first undefined entry in
    row-major order, trying the existing cosets in ascending order and
    then the next new one, so every table is in standard form: cosets
    first appear in ascending order.  After each definition it scans,
    from each newly set entry (c, x), the rotations beginning with x of
    every relator and inverse relator; a scan with one gap left defines
    that entry, and a scan that closes up on the wrong coset rejects the
    definition.  A complete table with d cosets is kept when no other
    coset, taken as the base, gives a smaller standard table, so each
    class is yielded once, as its least standard table.  Eliminated
    generators get their images back in each yielded assignment.

    Definitions are undone from a trail, and the frames sit on an
    explicit stack, so the recursion limit does not bound the table.
    `budget`, when given, is spent once per definition tried;
    enumeration stops quietly at the first node it refuses, leaving
    budget.cap_hit set.
    """
    kept, rels, images = eliminate_generators(num_gens, relators)
    ncols = 2 * len(kept)
    rots = _relator_rotations(rels, ncols)
    # one trailing -1 ends every search for the first undefined entry
    table = [-1] * (d * ncols + 1)
    trail = []

    # the columns the assignment reads: generator k is column 2k-2 and
    # its inverse column 2k-1
    starts = {x: 2 * x - 2 if x > 0 else -2 * x - 1 for x in images if x}

    def assignment():
        cols = {x: tuple(table[i:d * ncols:ncols]) for x, i in starts.items()}
        cols[0] = identity(d)
        return tuple(cols[x] for x in images)

    def deduce(entry) -> bool:
        """Process deductions from a new entry; False on a conflict."""
        queue = [entry]
        while queue:
            c, x = divmod(queue.pop(), ncols)
            for word in rots[x]:
                f = c
                n = len(word)
                i = 0
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

    if not ncols:
        # no generators left: the one-coset table is already complete
        if d == 1:
            yield assignment()
        return
    stack = [[0, 0, 0, 1]]    # entry, next coset to try, trail mark, cosets
    while stack:
        frame = stack[-1]
        entry, v, mark, n = frame
        while len(trail) > mark:
            table[trail.pop()] = -1
        c, x = divmod(entry, ncols)
        y = x ^ 1
        while v < n and table[v * ncols + y] >= 0:
            v += 1
        if v > n or v == d:
            # every free coset tried, and no new one fits
            stack.pop()
            continue
        frame[1] = v + 1
        if budget is not None and not budget.spend():
            return
        if v == n:
            n += 1
        mirror = v * ncols + y
        table[entry] = v
        table[mirror] = c
        trail.append(entry)
        trail.append(mirror)
        if not deduce(entry):
            continue
        after = table.index(-1, entry + 1)
        if after < n * ncols:
            stack.append([after, 0, len(trail), n])
        elif n == d and not any(_rebased_is_smaller(table, ncols, d, b)
                                for b in range(1, d)):
            yield assignment()
