import itertools
import random
import re

import pytest

from vhcomplex import (Cover, Edge, EdgePath, SquareComplex,
                       cover_from_assignment, enumerate_covers,
                       hyperplane_of_edge, hyperplanes, identity_map,
                       is_clean, is_connected, is_normal,
                       iter_covers, lift_path, monodromy,
                       pi1_presentation, preimage_cleanness,
                       preimage_hyperplane_components, pullback_cover,
                       regular_closure, subdivide_edges, total_space,
                       transport, trivial_cover, validate,
                       validate_cellular_map, validate_cover)
from vhcomplex import permutations as perm
from vhcomplex.complexes import is_connected_complex

import helpers
import oracles

# fixtures that pass the structural checks, so their covers realize
VALID_FIXTURES = helpers.GOOD_FIXTURES + ("bad_vh",)


def torus_cover(pa, pb):
    t = helpers.load_complex("torus")
    return Cover(t, len(pa), (tuple(pa), tuple(pb)))


def test_transport_folds_darts():
    c = torus_cover([1, 2, 0], [0, 1, 2])
    assert transport(c, (1,)) == (1, 2, 0)
    assert transport(c, (-1,)) == (2, 0, 1)
    assert transport(c, (1, 1, 1)) == (0, 1, 2)
    assert transport(c, ()) == (0, 1, 2)


def test_transport_rejects_darts_that_are_not_edges():
    c = torus_cover([1, 2, 0], [0, 2, 1])
    for dart in (0, 3, -3, True, False):
        with pytest.raises(ValueError, match="dart %r is not a signed edge "
                           "id" % dart):
            transport(c, (1, dart))
    # nor may a square of the base read a bool dart
    bad = SquareComplex(1, c.base.edges, ((True, 2, -1, -2),))
    with pytest.raises(ValueError, match="dart True is not a signed edge"):
        validate_cover(Cover(bad, 3, c.perms))


def test_validate_cover():
    assert validate_cover(torus_cover([1, 2, 0], [0, 1, 2]))
    # non-commuting images break the square relation
    assert not validate_cover(torus_cover([1, 2, 0], [1, 0, 2]))
    with pytest.raises(ValueError):
        validate_cover(Cover(helpers.load_complex("torus"), 2, ((0, 1),)))
    with pytest.raises(ValueError):
        validate_cover(Cover(helpers.load_complex("torus"), 2,
                             ((0, 0), (0, 1))))
    # a dart outside +-1..num_edges is rejected, not read from the table;
    # the darts are checked once per complex, which keeps the answer
    for dart in (0, 3, 4, -3):
        cx = SquareComplex(1, (Edge(0, 0, "V"), Edge(0, 0, "H")),
                           ((1, dart, -1, -2),))
        c = Cover(cx, 2, ((1, 0), (0, 1)))
        for f in (validate_cover, total_space,
                  lambda c: lift_path(c, EdgePath(0, (1,)))):
            with pytest.raises(ValueError, match="^square 0: dart %d is not "
                               "a signed edge id$" % dart):
                f(c)
        assert vars(cx)["_bad_dart"] == (0, dart)
    c = torus_cover([1, 2, 0], [0, 1, 2])
    assert validate_cover(c) and vars(c.base)["_bad_dart"] is None


def test_validate_cover_rejects_sheets_that_are_not_ints():
    """(True, False) and (1.0, 0) equal (1, 0) but name no sheets: they
    are rejected with ValueError, also where an equal permutation of
    ints was checked first."""
    torus = helpers.load_complex("torus")
    for perms in (((1.0, 0), (0, 1)), ((True, False), (0, 1)),
                  ((1, 0), (1.0, 0)), ((1, 0), (True, False)),
                  ((0, 1), ("a", 0))):
        with pytest.raises(ValueError, match="is not a permutation"):
            validate_cover(Cover(torus, 2, perms))


def test_validate_cover_rejects_degrees_that_are_not_positive_ints():
    """A degree that is a bool, a float or below 1 is no number of
    sheets: ValueError with iter_covers' message, before any
    permutation is read."""
    torus = helpers.load_complex("torus")
    for degree in (True, False, 2.0, 1.0, 0, -1, "2", None):
        with pytest.raises(ValueError, match=r"degree must be positive "
                           r"\(an int >= 1\), not %s" % re.escape(
                               repr(degree))):
            validate_cover(Cover(torus, degree, ((0,), (0,))))
        with pytest.raises(ValueError, match="degree must be positive"):
            next(iter_covers(torus, degree))


def test_cover_perm_reads_only_edge_ids():
    """Cover.perm(eid) is edge eid's permutation for eid in
    1..num_edges, and a ValueError for anything else: 0 and negative
    ids do not read from the end, and True is not edge 1."""
    c = torus_cover([1, 2, 0], [0, 2, 1])
    assert c.perm(1) == (1, 2, 0) and c.perm(2) == (0, 2, 1)
    for eid in (0, -1, -2, 3, True, False, 1.0, "1", None):
        with pytest.raises(ValueError, match="no edge %s in 1..2"
                           % re.escape(repr(eid))):
            c.perm(eid)


def test_trivial_cover():
    t = helpers.load_complex("torus")
    c = trivial_cover(t)
    assert c.degree == 1 and validate_cover(c) and is_connected(c)


def test_total_space_realizes_a_valid_complex():
    c = torus_cover([1, 2, 0], [0, 1, 2])
    ts = total_space(c)
    z = ts.complex
    assert z.num_vertices == 3 and z.num_edges == 6 and len(z.squares) == 3
    assert validate(z).all_ok
    assert ts.projection.source is z
    assert validate_cellular_map(ts.projection) == []
    # indexing round-trips
    assert ts.edge_fiber(ts.edge_index(2, 1)) == (2, 1)
    assert ts.vertex_fiber(ts.vertex_index(0, 2)) == (0, 2)


def test_total_space_rejects_non_cover():
    with pytest.raises(ValueError):
        total_space(torus_cover([1, 2, 0], [1, 0, 2]))


def test_connectivity():
    assert is_connected(torus_cover([1, 2, 0], [0, 1, 2]))
    assert not is_connected(torus_cover([0, 1], [0, 1]))


def test_lift_path_sheets():
    c = torus_cover([1, 2, 0], [0, 1, 2])
    loop = EdgePath(0, (1,))
    lifted, end = lift_path(c, loop, 0)
    assert end == 1 and lifted.start == 0 and lifted.word == (1,)
    lifted, end = lift_path(c, EdgePath(0, (1, 1, 1)), 0)
    assert end == 0          # a's cube closes up
    _, end = lift_path(c, EdgePath(0, (2,)), 2)
    assert end == 2
    with pytest.raises(ValueError):
        lift_path(c, loop, 3)
    with pytest.raises(ValueError):
        lift_path(c, EdgePath(1, (1,)), 0)
    # malformed permutation data: the error validate_cover raises
    t = helpers.load_complex("torus")
    for perms, word in ((((0, 0), (0, 1)), (1, -1)),
                        (((0, 5), (0, 1)), (-1,))):
        c = Cover(t, 2, perms)
        with pytest.raises(ValueError) as lifting:
            lift_path(c, EdgePath(0, word), 0)
        with pytest.raises(ValueError) as validating:
            validate_cover(c)
        assert str(lifting.value) == str(validating.value)


def test_total_space_matches_reference():
    covers = [c for name in VALID_FIXTURES for d in (1, 2, 3)
              for c in iter_covers(helpers.load_complex(name), d)]
    covers += [helpers.grid_cover(24, 24), helpers.grid_cover(32, 16)]
    for c in covers:
        ts = total_space(c)
        z, proj = oracles.reference_total_space(c)
        assert ts.complex == z and ts.projection == proj, c
        # each square's boundary lifts along the reference's lifted square
        d = c.degree
        for i, w in enumerate(c.base.squares):
            start = c.base.dart_tail(w[0])
            for s in range(d):
                lifted, end = lift_path(c, EdgePath(start, w), s)
                assert end == s
                assert lifted == EdgePath(start * d + s, z.squares[i * d + s])
    assert len(covers) > 100


def test_total_space_inverts_each_permutation_once(monkeypatch):
    c = helpers.grid_cover(24, 24)
    calls = []
    inverse = perm.inverse

    def counted(p):
        calls.append(p)
        return inverse(p)

    monkeypatch.setattr(perm, "inverse", counted)
    total_space(c)
    assert len(calls) <= len(set(c.perms)) == 2


def test_monodromy_images():
    c = torus_cover([1, 2, 0], [2, 0, 1])
    pres, gens = monodromy(c)
    assert pres.generators == (1, 2)
    assert gens == ((1, 2, 0), (2, 0, 1))


def test_normality():
    # abelian covers of the torus are always normal once connected
    for pa, pb in (([1, 0], [0, 1]), ([1, 2, 0], [0, 1, 2])):
        assert is_normal(torus_cover(pa, pb))
    with pytest.raises(ValueError):
        is_normal(torus_cover([0, 1], [0, 1]))


def test_regular_closure_of_regular_cover_keeps_degree():
    c = torus_cover([1, 2, 0], [0, 1, 2])
    rc = regular_closure(c)
    assert rc.cover.degree == 3
    assert is_normal(rc.cover)
    assert len(rc.factor) == 3 and rc.factor[0] == 0


def test_regular_closure_of_non_normal_cover():
    w = helpers.load_complex("wedge2")
    # two transpositions generating S_3: point stabilizers differ
    c = Cover(w, 3, ((1, 0, 2), (0, 2, 1)))
    assert is_connected(c) and not is_normal(c)
    rc = regular_closure(c)
    assert rc.cover.degree == 6 == len(rc.group)
    assert is_normal(rc.cover)
    # evaluation at the basepoint sheet hits the whole original fiber
    assert set(rc.factor) == {0, 1, 2}


def test_preimage_hyperplane_components_split_or_merge():
    t = helpers.load_complex("torus")
    c = torus_cover([1, 0], [0, 1])
    # the carrier of the vertical hyperplane runs in the b direction, so
    # with trivial monodromy on b its preimage falls apart sheet by sheet
    hv = hyperplane_of_edge(hyperplanes(t), 1)
    comps = preimage_hyperplane_components(c, hv)
    assert [sorted(h.dual_edges) for h in comps] == [[1], [2]]
    # while the horizontal one is carried around by a's transposition
    hh = hyperplane_of_edge(hyperplanes(t), 2)
    comps = preimage_hyperplane_components(c, hh)
    assert [sorted(h.dual_edges) for h in comps] == [[3, 4]]
    with pytest.raises(ValueError):
        preimage_hyperplane_components(c, hyperplanes(
            helpers.load_complex("klein"))[0])


def test_cover_from_assignment_uses_identity_on_tree():
    theta = helpers.load_complex("theta")
    sub = subdivide_edges(theta, {3: 2})       # forces a real spanning tree
    cx = sub.complex
    pres = pi1_presentation(cx, 0)
    assert pres.tree_edges
    assn = tuple((1, 0) for _ in pres.generators)
    c = cover_from_assignment(cx, pres, 2, assn)
    for eid in pres.tree_edges:
        assert c.perms[eid - 1] == (0, 1)
    assert validate_cover(c)


def test_enumeration_counts_low_degrees():
    t = helpers.load_complex("torus")
    # all homs Z^2 -> S_2: every pair of involutions commutes
    assert len(enumerate_covers(t, 2)) == 4
    assert len(enumerate_covers(t, 2, connected=True)) == 3
    assert len(enumerate_covers(t, 2, connected=True, up_to_conjugacy=True)) \
        == 3
    assert len(enumerate_covers(t, 3, connected=True, up_to_conjugacy=True)) \
        == 4
    assert len(enumerate_covers(t, 1)) == 1


def test_iter_covers_budget():
    t = helpers.load_complex("torus")
    budget = perm.NodeBudget(3)
    got = list(iter_covers(t, 2, budget=budget))
    assert budget.cap_hit and len(got) < 4
    with pytest.raises(ValueError):
        next(iter_covers(t, 0))


def _classes(covers):
    return {perm.canonical_under_relabeling(c.perms) for c in covers}


COMMUTATOR = [(1, 2, -1, -2)]


@pytest.mark.parametrize("call", [
    lambda: enumerate_covers(helpers.load_complex("torus"), True),
    lambda: enumerate_covers(helpers.load_complex("torus"), 2.0),
    lambda: enumerate_covers(helpers.load_complex("torus"), True,
                             connected=True, up_to_conjugacy=True),
    lambda: list(perm.iter_low_index(2, COMMUTATOR, 2.0)),
    lambda: list(perm.iter_low_index(2, COMMUTATOR, True)),
    lambda: list(perm.iter_homs(2, COMMUTATOR, 2.0)),
    lambda: list(perm.iter_homs(2, COMMUTATOR, True)),
    lambda: perm.CosetTables(2, COMMUTATOR).low_index(True),
    lambda: pi1_presentation(helpers.load_complex("mixed_carrier"), True),
    lambda: pi1_presentation(helpers.load_complex("mixed_carrier"), 1.0),
], ids=["covers-bool", "covers-float", "low-index-covers-bool",
        "low-index-float", "low-index-bool", "homs-float", "homs-bool",
        "tables-bool", "basepoint-bool", "basepoint-float"])
def test_degrees_and_basepoints_must_be_ints(call):
    """A bool or a float is neither a degree nor a vertex, even where it
    equals one; the degree is checked before the degree-1 replay."""
    with pytest.raises(ValueError, match="degree must be positive|no vertex"):
        call()


def test_a_rejected_basepoint_leaves_the_kept_presentations_alone():
    cx = helpers.load_complex("mixed_carrier")
    pres = pi1_presentation(cx, 1)
    with pytest.raises(ValueError, match="no vertex True"):
        pi1_presentation(cx, True)
    assert pi1_presentation(cx, 1) is pres and type(pres.basepoint) is int


def test_connected_covers_up_to_conjugacy_match_brute_force():
    cases = [(helpers.load_complex(name), range(1, 6))
             for name in VALID_FIXTURES]
    cases.append((helpers.doubled_complex(), (1, 2)))
    for cx, degrees in cases:
        for d in degrees:
            got = list(iter_covers(cx, d, connected=True,
                                   up_to_conjugacy=True))
            want = oracles.reference_connected_covers(cx, d)
            assert len(got) == len(want) == len(_classes(got)), (cx, d)
            assert _classes(got) == _classes(want), (cx, d)
            for c in got:
                assert validate_cover(c) and is_connected(c)
    # D's index-2 subgroups: H1(D; Z/2) has rank 9
    assert len(want) == 511


def test_covers_up_to_conjugacy_are_the_euler_transform_of_the_classes():
    """A homomorphism to S_d up to conjugacy is a multiset of transitive
    classes whose degrees sum to d, so iter_covers(up_to_conjugacy=True)
    yields as many covers as the Euler transform of the low-index class
    counts (oracles.euler_transform) gives: 39, 92 and 170 for the torus
    at d = 5, 6 and 7.  Checked on the torus to degree 7 and the other
    valid fixtures to degree 5."""
    for name in VALID_FIXTURES:
        cx = helpers.load_complex(name)
        top = 7 if name == "torus" else 5
        tables = pi1_presentation(cx, 0).tables
        classes = [sum(1 for _ in tables.low_index(d))
                   for d in range(1, top + 1)]
        counts = [sum(1 for _ in iter_covers(cx, d, up_to_conjugacy=True))
                  for d in range(1, top + 1)]
        assert counts == [oracles.euler_transform(classes, d)
                          for d in range(1, top + 1)], name
        if name == "torus":
            assert counts[4:] == [39, 92, 170]


def test_pullback_along_identity():
    t = helpers.load_complex("torus")
    c = torus_cover([1, 2, 0], [2, 0, 1])
    pulled = pullback_cover(c, identity_map(t))
    assert pulled.perms == c.perms
    with pytest.raises(ValueError):
        pullback_cover(c, identity_map(helpers.load_complex("klein")))


def test_random_covers_validate_and_realize():
    rng = random.Random(7)
    for name in ("torus", "klein"):
        cx = helpers.load_complex(name)
        for _ in range(5):
            c = helpers.random_connected_cover(rng, cx, rng.randint(2, 4))
            assert validate_cover(c)
            ts = total_space(c)
            assert validate(ts.complex).all_ok
            assert validate_cellular_map(ts.projection) == []


def test_validate_cover_matches_transport_check():
    rng = random.Random(2026)
    checked = {True: 0, False: 0}
    names = VALID_FIXTURES + ("bad_closure", "bad_length")
    for name in names:
        cx = helpers.load_complex(name)
        for d in range(1, 5):
            candidates = [Cover(cx, d, tuple(helpers.random_permutation(rng, d)
                                             for _ in range(cx.num_edges)))
                          for _ in range(40)]
            if name in VALID_FIXTURES:
                candidates += list(iter_covers(cx, d))[:40]
            for c in candidates:
                expected = oracles.reference_validate_cover(c)
                assert validate_cover(c) == expected
                checked[expected] += 1
        # malformed data: the same errors from both
        for d, perms in ((2, ()), (2, ((0, 0),) * cx.num_edges),
                         (0, ((),) * cx.num_edges),
                         (2, (([0], [1]),) * cx.num_edges),
                         (2, ((0, 1),) * (cx.num_edges - 1)
                          + (([1], [0]),))):
            c = Cover(cx, d, perms)
            with pytest.raises(ValueError) as slow:
                oracles.reference_validate_cover(c)
            with pytest.raises(ValueError) as fast:
                validate_cover(c)
            assert str(fast.value) == str(slow.value)
    assert checked[True] > 100 and checked[False] > 100


def realized_cleanness(c, y):
    """The realize-and-check answer that preimage_cleanness reproduces."""
    return tuple((h.id, is_clean(h).clean)
                 for h in preimage_hyperplane_components(c, y))


def bigon_complex():
    """Two squares sharing three sides, so links have a doubled corner.
    Its V hyperplane pushes two midcubes onto one edge on side 1 only,
    and its H hyperplane collides on edges as well as midcubes."""
    edges = (Edge(0, 1, "V"), Edge(1, 2, "H"), Edge(3, 2, "V"),
             Edge(0, 3, "H"), Edge(0, 3, "H"))
    return SquareComplex(4, edges, ((1, 2, -3, -4), (-1, 5, 3, -2)))


def test_preimage_cleanness_on_fixture_covers():
    seen = set()
    complexes = [helpers.load_complex(name) for name in VALID_FIXTURES]
    for cx in complexes + [bigon_complex()]:
        for d in range(1, 4):
            for c in iter_covers(cx, d):
                for y in hyperplanes(cx):
                    assert preimage_cleanness(c, y) \
                        == realized_cleanness(c, y), (cx, c.perms, y.id)
                    for h in preimage_hyperplane_components(c, y):
                        rep = is_clean(h)
                        seen.add((rep.two_sided, rep.self_crossing,
                                  bool(rep.self_osculation_witnesses)))
    # one-sided, self-crossing, self-osculating and clean components
    assert {(False, False, False), (True, True, True), (True, False, True),
            (True, False, False)} <= seen


def test_preimage_cleanness_on_doubled_complex():
    cx = helpers.doubled_complex()
    assert (cx.num_vertices, cx.num_edges, cx.num_squares) == (22, 68, 42)
    hyps = hyperplanes(cx)
    edge_to_base = {e: y.id for y in hyps for e in y.dual_edges}
    count = 0
    for d in (1, 2):
        for c in iter_covers(cx, d):
            # one total space per cover, split by base hyperplane
            upstairs = {y.id: [] for y in hyps}
            for h in hyperplanes(total_space(c).complex):
                upstairs[edge_to_base[(h.id - 1) // d + 1]].append(
                    (h.id, is_clean(h).clean))
            for y in hyps:
                assert preimage_cleanness(c, y) == tuple(upstairs[y.id])
            count += 1
    assert count == 513
    # the split above is the one preimage_hyperplane_components makes
    y = hyps[0]
    assert preimage_cleanness(c, y) == realized_cleanness(c, y)


def test_preimage_cleanness_on_regular_closures():
    rng = random.Random(41)
    samples = []
    for name in ("klein", "theta", "wedge2"):
        cx = helpers.load_complex(name)
        samples += [helpers.random_connected_cover(rng, cx, rng.randint(2, 3))
                    for _ in range(4)]
    d_covers = list(iter_covers(helpers.doubled_complex(), 3, connected=True,
                                up_to_conjugacy=True,
                                budget=perm.NodeBudget(3000)))
    samples += rng.sample(d_covers, 3)
    degrees = set()
    for c in samples:
        closure = regular_closure(c).cover
        degrees.add(closure.degree)
        for y in hyperplanes(c.base):
            assert preimage_cleanness(closure, y) \
                == realized_cleanness(closure, y)
    assert max(degrees) == 6


def test_compiled_verdict_matches_the_edge_wide_reference():
    """Carrier.cleanness reads the hyperplane's compiled carrier;
    oracles.reference_preimage_cleanness is the verdict over every
    lifted edge that it replaced.  They agree on every hyperplane of the
    structurally valid fixtures, the bigon, D and the first 60 connected
    seeded random complexes, for the carrier permutations of the first
    40 labelled covers of each degree 1 to 3."""
    complexes = [helpers.load_complex(name)
                 for name in VALID_FIXTURES + ("mixed_carrier",)]
    complexes += [bigon_complex(), helpers.doubled_complex()]
    seed, randoms = 0, []
    while len(randoms) < 60:
        cx = helpers.random_vh_complex(random.Random(seed), max_squares=10)
        if is_connected_complex(cx):
            randoms.append(cx)
        seed += 1
    pairs, verdicts = 0, set()
    for cx in complexes + randoms:
        hyps = hyperplanes(cx)
        for d in range(1, 4):
            for c in itertools.islice(iter_covers(cx, d), 40):
                for y in hyps:
                    key = tuple(c.perm(e) for e in y.carrier.edges)
                    comps = y.carrier.cleanness(key)
                    assert comps == oracles.reference_preimage_cleanness(
                        y, d, key), (cx, y.id, key)
                    verdicts.update(clean for _, clean in comps)
                    pairs += 1
    assert verdicts == {False, True}
    assert pairs == 8495


def test_preimage_cleanness_rejects_non_covers():
    t = helpers.load_complex("torus")
    y = hyperplanes(t)[0]
    with pytest.raises(ValueError, match="not a cover"):
        preimage_cleanness(torus_cover([1, 2, 0], [1, 0, 2]), y)
    with pytest.raises(ValueError):
        preimage_cleanness(Cover(t, 2, ((0, 0), (0, 1))), y)
    with pytest.raises(ValueError):
        preimage_cleanness(torus_cover([1, 0], [0, 1]),
                           hyperplanes(helpers.load_complex("klein"))[0])
