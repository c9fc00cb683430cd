"""Closed-form answers the benchmark checks vhcomplex's output against.

None of these calls into vhcomplex, so a defect in the library cannot
make its own check pass.
"""

from math import factorial


def sigma(n: int) -> int:
    """Sum of the divisors of n: the number of connected degree-n covers
    of the torus up to isomorphism (index-n subgroups of Z^2)."""
    return sum(k for k in range(1, n + 1) if n % k == 0)


def partitions(n: int) -> int:
    """Number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def torus_cover_count(d: int) -> int:
    """Number of degree-d covers of the one-vertex torus with identity on
    the (empty) spanning tree: commuting pairs in S_d, which is
    |S_d| times the number of conjugacy classes, d! * p(d)."""
    return factorial(d) * partitions(d)


def grid_hyperplanes(m: int, n: int) -> int:
    """Hyperplanes of the m x n grid torus: one per row and one per column
    of squares, m + n."""
    return m + n
