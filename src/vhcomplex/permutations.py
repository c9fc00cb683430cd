"""Permutations of {0..d-1} as tuples, plus the relator-respecting
homomorphism enumerator used by cover enumeration and quotient search.

Composition is in diagram order: compose(p, q) applies p first, then q.
This matches reading a word left to right and transporting a sheet along
it, so word_image(w, ...) is the permutation "follow w".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Optional, Sequence


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
              first_images: Optional[Sequence[tuple]] = None,
              budget: Optional[NodeBudget] = None):
    """All assignments of permutations in S_d to generators 1..num_gens
    satisfying every relator, in lexicographic order.

    Relators are words of signed 1-based generator indices.  A relator is
    checked as soon as every generator it mentions has an image, which
    prunes most of the tree early.  It holds when every point of
    {0..d-1}, carried through its letters, comes back to itself.
    `first_images` restricts the images tried for generator 1 (the
    partitioning hook for parallel search).  `budget`, when given, is
    spent once per visited partial assignment; enumeration stops quietly
    at the first node it refuses, leaving budget.cap_hit set.  The search
    keeps one iterator per assigned generator on an explicit stack, so
    the number of generators is not bounded by the recursion limit.
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
    stack = [iter(first_images if first_images is not None else perms)]
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
