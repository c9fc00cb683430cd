import itertools
import random

import pytest

from vhcomplex import (Edge, EdgePath, GroupPresentation, SquareComplex,
                       attach_loop, attach_relators, crush_word,
                       double_along_loop, enumerate_simple_loops,
                       hyperplanes, is_clean, is_two_sided, pair_enumerator,
                       pointed_pair, presentation_complex, subdivide_edges,
                       trace, validate, validate_cellular_map)
from vhcomplex import formats

import helpers
import oracles


def make(gens, rels):
    return GroupPresentation.make(gens, rels)


def test_presentation_complex_is_a_wedge():
    w = presentation_complex(make(["a", "b"], ["abAB"]))
    cx = w.complex
    assert cx.num_vertices == 1 and cx.num_edges == 2 and not cx.squares
    assert all(e.label == "V" and e.tail == e.head == 0 for e in cx.edges)
    assert w.generator_edges == (1, 2)
    assert w.relator_paths == (EdgePath(0, (1, 2, -1, -2)),)
    assert w.pair.basepoint == 0 and w.pair.v_edges == {1, 2}

    empty = presentation_complex(make([], []))
    assert empty.complex.num_vertices == 1 and empty.complex.num_edges == 0
    with pytest.raises(ValueError):
        presentation_complex(GroupPresentation((), ((1,),)))


def test_attach_relators_without_relators_is_the_wedge():
    att = attach_relators(make(["a", "b"], []),
                          helpers.load_complex("torus"), EdgePath(0, (1,)))
    assert att.complex.num_edges == 2 and not att.complex.squares
    assert att.wedge_factor == 1 and att.copies == ()
    assert att.crush.loop_letters == {1: 1, 2: 2}
    assert att.crush.generator_chains == ((1,), (2,))


def test_attach_relators_commutator_over_torus():
    att = attach_relators(make(["a", "b"], ["abAB"]),
                          helpers.load_complex("torus"), EdgePath(0, (1,)))
    cx = att.complex
    assert (cx.num_vertices, cx.num_edges, len(cx.squares)) == (5, 14, 8)
    report = validate(cx)
    assert report.ok and report.vh
    assert att.wedge_factor == 1
    (copy,) = att.copies
    assert copy.core_factor == 4 and copy.ring_length == 4
    assert len(copy.rung_edges) == 4
    assert all(cx.edge(r).label == "H" for r in copy.rung_edges)
    # the cylinder's two boundary circles
    assert copy.wedge_path.word == (1, 2, -1, -2)
    assert len(copy.core_path.word) == 4
    # the crush map sends the subdivided relator loop back to the relator
    assert crush_word(att.crush, copy.wedge_path.word) == (1, 2, -1, -2)
    # every complex cell is accounted for by wedge + disc
    (disc,) = att.crush.discs
    assert disc.relator_index == 0
    assert set(disc.edges) | set(disc.rungs) | set(att.crush.loop_letters) \
        == set(range(1, cx.num_edges + 1))
    assert set(disc.squares) == set(range(len(cx.squares)))


def test_attach_relators_subdivides_the_wedge_when_needed():
    core2 = subdivide_edges(helpers.load_complex("torus"), {1: 2})
    loop2 = EdgePath(0, (1, 2))
    assert trace(core2.complex, loop2)[-1] == 0
    att = attach_relators(make(["a"], ["a"]), core2.complex, loop2)
    assert att.wedge_factor == 2
    (copy,) = att.copies
    assert copy.core_factor == 1 and copy.ring_length == 2
    assert att.crush.generator_chains == ((1, 2),)
    assert att.crush.loop_letters == {1: 0, 2: 1}
    assert crush_word(att.crush, copy.wedge_path.word) == (1,)
    assert validate(att.complex).ok


def test_crush_word_reduces_and_rejects():
    att = attach_relators(make(["a", "b"], ["abAB"]),
                          helpers.load_complex("torus"), EdgePath(0, (1,)))
    assert crush_word(att.crush, (1, -1)) == ()
    assert crush_word(att.crush, (-2,)) == (-2,)
    with pytest.raises(ValueError):
        crush_word(att.crush, (3,))


def test_attach_relators_rejects_bad_cores():
    pres = make(["a"], ["a"])
    torus = helpers.load_complex("torus")
    with pytest.raises(ValueError):
        attach_relators(pres, torus, EdgePath(0, (2,)))     # horizontal
    with pytest.raises(ValueError):
        attach_relators(pres, torus, EdgePath(0, ()))       # empty
    with pytest.raises(ValueError):
        attach_relators(pres, helpers.load_complex("bad_vh"),
                        EdgePath(0, (1,)))


def test_attach_loop():
    pair = pointed_pair(helpers.load_complex("torus"), 0)
    ext, alpha = attach_loop(pair)
    assert alpha == 3
    e = ext.complex.edge(alpha)
    assert e.label == "V" and e.tail == e.head == 0
    assert ext.v_edges == pair.v_edges | {alpha}
    assert ext.basepoint == 0
    assert len(ext.complex.squares) == len(pair.complex.squares)


def test_double_along_loop_torus():
    pair = pointed_pair(helpers.load_complex("torus"), 0)
    dbl = double_along_loop(pair, EdgePath(0, (1,)))
    z = dbl.complex
    assert (z.num_vertices, z.num_edges, len(z.squares)) == (2, 8, 4)
    assert validate(z).all_ok
    assert dbl.alpha == 3 and dbl.edge_shift == 3 and dbl.vertex_shift == 1
    assert dbl.gamma_prime == EdgePath(0, (1, 3))
    assert dbl.rungs == (7, 8)
    assert dbl.annulus_squares == (2, 3)
    assert all(z.edge(r).label == "H" for r in dbl.rungs)
    # annulus squares read loop side, rung, opposite copy, rung
    assert z.squares[2] == (1, 8, -4, -7)
    assert z.squares[3] == (3, 7, -6, -8)


def test_double_retraction_and_hyperplane():
    pair = pointed_pair(helpers.load_complex("torus"), 0)
    dbl = double_along_loop(pair, EdgePath(0, (1,)))
    rho = dbl.retraction
    assert validate_cellular_map(rho) == []
    assert rho.target is pair.complex
    assert rho.edge_map[dbl.alpha - 1] == (-1,)
    assert all(rho.edge_map[r - 1] == () for r in dbl.rungs)
    assert rho.square_map[2] is None and rho.square_map[0] == 0

    y = dbl.hyperplane
    assert sorted(y.dual_edges) == list(dbl.rungs)
    assert is_two_sided(y).two_sided
    report = is_clean(y)
    assert not report.clean
    assert report.self_osculation_witnesses == (
        (0, "edges", (7, 8)), (1, "edges", (7, 8)))


def test_double_rejects_bad_loops():
    torus = helpers.load_complex("torus")
    pair = pointed_pair(torus, 0)
    with pytest.raises(ValueError):
        double_along_loop(pair, EdgePath(0, (2,)))      # horizontal
    with pytest.raises(ValueError):
        double_along_loop(pair, EdgePath(0, ()))        # empty
    with pytest.raises(ValueError):
        double_along_loop(pair, EdgePath(0, (1, 1)))    # repeats an edge
    two = subdivide_edges(torus, {1: 2}).complex
    with pytest.raises(ValueError):
        double_along_loop(pointed_pair(two, 0), EdgePath(1, (2, 1)))
    with pytest.raises(ValueError):
        double_along_loop(pointed_pair(helpers.load_complex("bad_vh"), 0),
                          EdgePath(0, (1,)))


def test_double_of_longer_loop_validates():
    two = subdivide_edges(helpers.load_complex("torus"), {1: 2}).complex
    dbl = double_along_loop(pointed_pair(two, 0), EdgePath(0, (1, 2)))
    assert validate(dbl.complex).all_ok
    assert len(dbl.rungs) == 3 == len(dbl.annulus_squares)
    assert sorted(dbl.hyperplane.dual_edges) == list(dbl.rungs)
    assert validate_cellular_map(dbl.retraction) == []


def test_enumerate_simple_loops():
    theta = helpers.load_complex("theta")
    loops = enumerate_simple_loops(theta, 0)
    assert [p.word for p in loops] \
        == [(-3,), (-2,), (-1,), (1,), (2,), (3,)]
    v_loops = enumerate_simple_loops(theta, 0, labels=frozenset(["V"]))
    assert [p.word for p in v_loops] == [(-2,), (-1,), (1,), (2,)]

    two = subdivide_edges(helpers.load_complex("torus"), {1: 2}).complex
    v_loops = enumerate_simple_loops(two, 0, labels=frozenset(["V"]))
    assert [p.word for p in v_loops] == [(-2, -1), (1, 2)]
    with pytest.raises(ValueError):
        enumerate_simple_loops(theta, 5)


def test_enumerate_simple_loops_matches_recursive_reference():
    rng = random.Random(8)
    complexes = [helpers.load_complex(name)
                 for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    complexes += [helpers.random_vh_complex(rng) for _ in range(40)]
    for cx in complexes:
        for v in range(cx.num_vertices):
            for labels in (None, frozenset(["V"]), frozenset(["H"])):
                got = [(p.start, p.word)
                       for p in enumerate_simple_loops(cx, v, labels)]
                assert got == oracles.reference_simple_loops(cx, v, labels)


def test_enumerate_simple_loops_on_a_long_cycle():
    n = 1100
    cycle = SquareComplex(n, tuple(Edge(i, (i + 1) % n, "V")
                                   for i in range(n)), ())
    loops = enumerate_simple_loops(cycle, 0)
    assert [p.word for p in loops] == [tuple(range(-n, 0)),
                                       tuple(range(1, n + 1))]


def test_pair_enumerator_diagonal_order():
    pulls = []

    def source():
        for i, pres in enumerate((make(["a"], []), make(["a", "b"], []))):
            pulls.append(i)
            yield pres

    items = pair_enumerator(source(), helpers.load_complex("torus"),
                            EdgePath(0, (1,)))
    first = next(items)
    second = next(items)
    assert pulls == [0]                     # second presentation not built yet
    rest = list(items)
    seq = [first, second] + rest
    assert [(it.presentation_index, it.loop_index) for it in seq] \
        == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert [it.index for it in seq] == list(range(6))
    for it in seq:
        assert it.loop.word \
            == enumerate_simple_loops(it.attachment.complex, 0,
                                      labels=frozenset(["V"]))[
                                          it.loop_index].word
        assert validate(it.double.complex).all_ok


def test_doubled_fixture_is_the_first_double():
    """tests/fixtures/doubled.json, which the command-line checks read,
    is the complex helpers.doubled_complex builds."""
    assert helpers.load_complex("doubled") == helpers.doubled_complex()


def test_double75_fixture_is_the_seed_75_rung_double():
    """tests/fixtures/double75.json, which the command-line checks read,
    is the double helpers.rung_double builds for seed 75, and its rung
    hyperplane has id 15.  base75.json and loop75.json, which those
    checks double, are the complex and loop it doubles."""
    dbl = helpers.rung_double(75, (2, 3))
    assert helpers.load_complex("double75") == dbl.complex
    assert dbl.hyperplane.id == 15
    assert helpers.load_complex("base75") == helpers.random_vh_complex(
        random.Random(75), max_squares=10) == dbl.pair.complex
    loop = formats.path_from_doc(
        formats.read_doc(helpers.fixture_path("loop75")))
    assert loop == dbl.loop == EdgePath(0, (2, 3))


def test_pair_enumerator_empty_source():
    assert list(pair_enumerator(iter(()), helpers.load_complex("torus"),
                                EdgePath(0, (1,)))) == []


def test_pair_enumerator_is_lazy_on_infinite_sources():
    stream = pair_enumerator(
        (make(["a"], []) for _ in itertools.count()),
        helpers.load_complex("torus"), EdgePath(0, (1,)))
    got = [next(stream) for _ in range(5)]
    assert [it.index for it in got] == list(range(5))
    assert {it.loop_index for it in got} <= {0, 1}
