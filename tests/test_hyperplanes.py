import itertools
import random

import pytest

from vhcomplex import (Edge, SquareComplex, hyperplane_of_edge,
                       hyperplanes, inter_osculates, is_clean,
                       is_complex_clean, is_special, is_two_sided,
                       iter_covers, pushing_map, self_crossing, total_space)
from vhcomplex.hyperplanes import (_corners_at, _crosses, _ends_by_vertex,
                                   _osculation_witness, midcube_dual_pair)

import helpers
import oracles


def test_torus_partition():
    t = helpers.load_complex("torus")
    hyps = hyperplanes(t)
    assert [(h.id, sorted(h.dual_edges)) for h in hyps] == [(1, [1]), (2, [2])]
    assert [h.orientation_class for h in hyps] == ["V", "H"]
    assert hyps[0].midcubes == ((0, 0),)
    assert hyps[1].midcubes == ((0, 1),)


def test_midcube_dual_pair():
    t = helpers.load_complex("torus")
    assert midcube_dual_pair(t, (0, 0)) == (1, 1)
    assert midcube_dual_pair(t, (0, 1)) == (2, 2)


def test_hyperplanes_reject_structural_junk():
    with pytest.raises(ValueError):
        hyperplanes(helpers.load_complex("bad_length"))


def test_hyperplane_of_edge():
    theta = helpers.load_complex("theta")
    hyps = hyperplanes(theta)
    assert hyperplane_of_edge(hyps, 2).id == 1
    assert hyperplane_of_edge(hyps, 3).id == 3
    with pytest.raises(ValueError):
        hyperplane_of_edge(hyps, 9)


def test_theta_partition_joins_the_petals():
    theta = helpers.load_complex("theta")
    hyps = hyperplanes(theta)
    assert sorted(tuple(sorted(h.dual_edges)) for h in hyps) \
        == [(1, 2), (3,)]


def test_two_sidedness_fixtures():
    t = helpers.load_complex("torus")
    for h in hyperplanes(t):
        ts = is_two_sided(h)
        assert ts.two_sided and bool(ts)
        assert ts.witness is None
        # canonical co-orientation assigns +1 to the least dual edge
        assert ts.co_orientation[h.id] == 1

    k = helpers.load_complex("klein")
    one_sided = is_two_sided(hyperplane_of_edge(hyperplanes(k), 1))
    assert not one_sided.two_sided
    assert one_sided.co_orientation is None
    # the odd cycle is the single self-gluing midcube
    assert one_sided.witness == ((0, 0),)
    assert is_two_sided(hyperplane_of_edge(hyperplanes(k), 2)).two_sided


def test_pushing_map_torus():
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    side0 = pushing_map(h, 0)
    side1 = pushing_map(h, 1)
    # both sides land on the single vertex and push across edge 2
    assert side0.vertex_of(1) == 0
    assert side0.edge_of((0, 0)) == 2
    assert side1.vertex_of(1) == 0
    assert side1.edge_of((0, 0)) == 2


def test_pushing_map_needs_two_sides():
    k = helpers.load_complex("klein")
    h = hyperplane_of_edge(hyperplanes(k), 1)
    with pytest.raises(ValueError):
        pushing_map(h, 0)
    with pytest.raises(ValueError):
        pushing_map(hyperplane_of_edge(hyperplanes(k), 2), 2)


def test_cleanness_fixtures():
    t = helpers.load_complex("torus")
    assert all(is_clean(h).clean for h in hyperplanes(t))
    assert is_complex_clean(t)
    assert is_special(t)

    theta = helpers.load_complex("theta")
    petals = hyperplane_of_edge(hyperplanes(theta), 1)
    report = is_clean(petals)
    assert not report.clean
    assert report.two_sided
    # both petal endpoints push to the lone vertex on each side
    assert report.self_osculation_witnesses[0] == (0, "edges", (1, 2))
    assert not is_special(theta)

    k = helpers.load_complex("klein")
    assert not is_clean(hyperplane_of_edge(hyperplanes(k), 1)).clean
    assert is_clean(hyperplane_of_edge(hyperplanes(k), 2)).clean


def test_one_sided_is_never_clean():
    k = helpers.load_complex("klein")
    report = is_clean(hyperplane_of_edge(hyperplanes(k), 1))
    assert not report.two_sided
    assert report.self_osculation_witnesses == ()


def test_inter_osculation():
    theta = helpers.load_complex("theta")
    hyps = hyperplanes(theta)
    assert inter_osculates(hyps[0], hyps[1])

    t = helpers.load_complex("torus")
    th = hyperplanes(t)
    assert not inter_osculates(th[0], th[1])
    with pytest.raises(ValueError):
        inter_osculates(th[0], th[0])


def test_self_crossing_possible_without_vh():
    # one vertical loop, square using it twice in both pairs
    cx = SquareComplex(1, (Edge(0, 0, "V"),), ((1, 1, -1, -1),))
    hyps = hyperplanes(cx)
    assert len(hyps) == 1
    assert self_crossing(hyps[0])


def test_agreement_with_boundary_oracle():
    rng = random.Random(20240816)
    for _ in range(40):
        cx = helpers.random_vh_complex(rng)
        for h in hyperplanes(cx):
            assert is_two_sided(h).two_sided \
                == oracles.oracle_two_sided(cx, h.dual_edges)
            assert is_clean(h).clean \
                == oracles.oracle_clean(cx, h.dual_edges)


def _grid_torus(m, n):
    """Total space of the m x n grid cover of the one-square torus."""
    return total_space(helpers.grid_cover(m, n)).complex


def _pairwise_special(cx):
    """is_special as a scan of every hyperplane pair with the oracle."""
    hyps = hyperplanes(cx)
    return all(is_clean(h).clean for h in hyps) and not any(
        _crosses(h1, h2) and
        oracles.reference_osculation_witness(h1, h2) is not None
        for h1, h2 in itertools.combinations(hyps, 2))


def _assert_contacts_agree(cx, pairs):
    corners_at = _corners_at(cx)
    for h1, h2 in pairs:
        expected = oracles.reference_osculation_witness(h1, h2)
        assert _osculation_witness(_ends_by_vertex(h1), _ends_by_vertex(h2),
                                   corners_at) == expected
        assert inter_osculates(h1, h2) == (_crosses(h1, h2)
                                           and expected is not None)


def test_contacts_by_vertex_match_pairwise_oracle():
    complexes = [helpers.load_complex(name)
                 for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    for name in ("theta", "klein"):
        base = helpers.load_complex(name)
        complexes += [total_space(c).complex for c in iter_covers(base, 2)]
    rng = random.Random(1)
    complexes += [helpers.random_vh_complex(rng) for _ in range(60)]
    osculating = 0
    for cx in complexes:
        pairs = list(itertools.combinations(hyperplanes(cx), 2))
        _assert_contacts_agree(cx, pairs)
        osculating += sum(inter_osculates(h1, h2) for h1, h2 in pairs)
        assert is_special(cx) == _pairwise_special(cx)
    assert osculating > 0
    assert any(is_special(cx) for cx in complexes)
    # clean yet not special: the pair scan itself says no
    assert any(is_complex_clean(cx) and not is_special(cx)
               for cx in complexes)


def test_special_grid_tori():
    rng = random.Random(5)
    for m, n in ((24, 24), (32, 16)):
        cx = _grid_torus(m, n)
        hyps = hyperplanes(cx)
        assert len(hyps) == m + n
        assert is_special(cx)
        # the oracle rebuilds the corner table per pair; sample the pairs
        pairs = list(itertools.combinations(hyps, 2))
        _assert_contacts_agree(cx, rng.sample(pairs, 40))
