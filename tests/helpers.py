"""Fixture loading and seeded random generators for the test suite."""

import os
import random

from vhcomplex import (Edge, EdgePath, GroupPresentation, SquareComplex,
                       double_along_loop, pair_enumerator, pi1_presentation,
                       pointed_pair, validate)
from vhcomplex.covers import Cover, cover_from_assignment, is_connected
from vhcomplex import formats
from vhcomplex.permutations import identity, word_image

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

GOOD_FIXTURES = ("torus", "klein", "theta", "wedge2", "circle")
BAD_FIXTURES = ("bad_length", "bad_closure", "bad_vh")

# (seed, loop, vclean definitions): loops of least degree 3 in
# random_vh_complex(Random(seed), max_squares=10), by loop_survives, and
# the definitions vclean spends on the rung of their doubles to degree 3
RUNG_DOUBLES = ((12, (-2, 1), 2055), (40, (3, 2), 8923),
                (60, (1, -2), 1304), (75, (2, 3), 8788),
                (131, (1, 2), 1331), (134, (2, -3), 2396),
                (148, (1, 3), 2532))


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".json")


def load_complex(name) -> SquareComplex:
    return formats.complex_from_doc(formats.read_doc(fixture_path(name)))


def load_presentation(name) -> GroupPresentation:
    return formats.presentation_from_doc(formats.read_doc(fixture_path(name)))


def doubled_complex() -> SquareComplex:
    """The double of the torus along its vertical loop that the pair
    enumerator gives first for the trivial group: 22 vertices, 68 edges,
    42 squares, and 47 generators and 42 relators in its pi1."""
    item = next(pair_enumerator([load_presentation("trivial_group")],
                                load_complex("torus"), EdgePath(0, (1,))))
    return item.double.complex


def rung_double(seed, loop):
    """The double of random_vh_complex(Random(seed), max_squares=10)
    along the loop, at basepoint 0.  tests/fixtures/double75.json is
    that of seed 75 and loop (2, 3)."""
    cx = random_vh_complex(random.Random(seed), max_squares=10)
    return double_along_loop(pointed_pair(cx, 0), EdgePath(0, loop))


def golden_text(name) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def random_vh_complex(rng, max_squares=8) -> SquareComplex:
    """A random valid VH complex, grown square by square.

    Starts from a random labeled graph and repeatedly tries to glue an
    alternating closed square of random darts, keeping each candidate
    only if the complex stays fully valid.  All outputs pass validation;
    the square count varies up to the bound.
    """
    nv = rng.randint(1, 3)
    edges = []
    for label in ("V", "H"):
        for _ in range(rng.randint(1, 3)):
            edges.append(Edge(rng.randrange(nv), rng.randrange(nv), label))
    cx = SquareComplex(nv, tuple(edges), ())
    if not validate(cx).all_ok:
        raise AssertionError("square-free complexes always validate")

    darts_at = {"V": {}, "H": {}}
    for eid, e in enumerate(edges, start=1):
        darts_at[e.label].setdefault(e.tail, []).append(eid)
        darts_at[e.label].setdefault(e.head, []).append(-eid)

    def head(d):
        e = edges[abs(d) - 1]
        return e.head if d > 0 else e.tail

    target = rng.randint(1, max_squares)
    squares = []
    for _ in range(60 * (target + 1)):
        if len(squares) >= target:
            break
        v0 = rng.randrange(nv)
        try:
            d1 = rng.choice(darts_at["V"].get(v0, []))
            d2 = rng.choice(darts_at["H"].get(head(d1), []))
            d3 = rng.choice(darts_at["V"].get(head(d2), []))
            closing = [d for d in darts_at["H"].get(head(d3), [])
                       if head(d) == v0]
            d4 = rng.choice(closing)
        except IndexError:
            continue
        candidate = SquareComplex(nv, tuple(edges),
                                  tuple(squares) + ((d1, d2, d3, d4),))
        if validate(candidate).all_ok:
            squares.append((d1, d2, d3, d4))
    return SquareComplex(nv, tuple(edges), tuple(squares))


def random_permutation(rng, d):
    items = list(range(d))
    rng.shuffle(items)
    return tuple(items)


def random_connected_cover(rng, cx, degree, max_tries=20000) -> Cover:
    """Rejection-sampled connected cover with identity tree edges."""
    pres = pi1_presentation(cx, 0)
    ident = identity(degree)
    for _ in range(max_tries):
        assignment = tuple(random_permutation(rng, degree)
                           for _ in pres.generators)
        images = dict(enumerate(assignment, start=1))
        if any(word_image(r, images, degree) != ident
               for r in pres.relators):
            continue
        cover = cover_from_assignment(cx, pres, degree, assignment)
        if is_connected(cover):
            return cover
    raise AssertionError("no connected cover found in %d tries" % max_tries)


def grid_cover(m, n) -> Cover:
    """The m x n grid cover of the one-square torus: sheet (i, j) is
    i*n + j, edge 1 steps i and edge 2 steps j."""
    v = tuple(((i + 1) % m) * n + j for i in range(m) for j in range(n))
    h = tuple(i * n + (j + 1) % n for i in range(m) for j in range(n))
    return Cover(load_complex("torus"), m * n, (v, h))


def random_presentation(rng, max_generators=3, max_relator_length=6):
    names = ["a", "b", "c"][:rng.randint(1, max_generators)]
    g = len(names)
    for _ in range(100):
        relators = []
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(1, max_relator_length)
            word = []
            for _ in range(length):
                k = rng.randint(1, g)
                word.append(k if rng.random() < 0.5 else -k)
            relators.append("".join(
                names[abs(x) - 1] if x > 0 else names[abs(x) - 1].upper()
                for x in word))
        try:
            return GroupPresentation.make(names, relators)
        except ValueError:
            continue
    raise AssertionError("could not sample a presentation")
