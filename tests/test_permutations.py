"""The homomorphism enumerators, the Tietze moves and the canonicity
test against the slower code they replaced: iter_homs against
oracles.backtrack_homs, which in turn against oracles.reference_iter_homs,
eliminate_generators against oracles.reference_eliminate_generators,
is_canonical against canonical_under_relabeling.  The low-index search
against its defining properties; tests/test_covers.py compares its
covers with the brute-force path."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from vhcomplex import hyperplanes, iter_covers, pi1_presentation
from vhcomplex import permutations as perm
from vhcomplex.complexes import is_connected_complex

import helpers
import oracles


def _run(enumerate_homs, pres, d, cap=None, take=None):
    budget = perm.NodeBudget(cap)
    homs = enumerate_homs(pres.num_generators, pres.relators, d,
                          budget=budget)
    homs = list(itertools.islice(homs, take))
    return homs, budget.nodes, budget.cap_hit


def _pi1(cx):
    pres = pi1_presentation(cx, 0)
    return len(pres.generators), pres.relators


def test_iter_homs_matches_reference():
    # oracles.backtrack_homs, which test_iter_homs_matches_backtrack
    # checks iter_homs against, against its own reference
    rng = random.Random(3)
    for _ in range(60):
        pres = helpers.random_presentation(rng)
        for d in range(1, 5):
            for kwargs in ({}, {"cap": 1}, {"cap": 7}, {"cap": 50},
                           {"take": 3}):
                got = _run(oracles.backtrack_homs, pres, d, **kwargs)
                want = _run(oracles.reference_iter_homs, pres, d, **kwargs)
                assert got == want, (pres, d, kwargs)


def _hom_cases():
    rng = random.Random(3)
    for _ in range(60):
        pres = helpers.random_presentation(rng)
        for d in range(1, 5):
            yield (pres.num_generators, pres.relators), d
    for name in helpers.GOOD_FIXTURES + ("bad_vh",):
        for d in range(1, 4):
            yield _pi1(helpers.load_complex(name)), d
    for d in range(4, 7):
        yield _pi1(helpers.load_complex("torus")), d
    for d in (1, 2):
        yield _pi1(helpers.doubled_complex()), d


def test_iter_homs_matches_backtrack():
    for (n, relators), d in _hom_cases():
        want = list(oracles.backtrack_homs(n, relators, d))
        assert list(perm.iter_homs(n, relators, d)) == want, (relators, d)
        for cap in (0, 1, 7, 50, 300):
            budget = perm.NodeBudget(cap)
            got = list(perm.iter_homs(n, relators, d, budget=budget))
            assert got == want[:len(got)] and budget.nodes <= cap
            assert budget.cap_hit or got == want, (relators, d, cap)


def test_iter_homs_definition_counts():
    n, relators = _pi1(helpers.load_complex("torus"))
    for d, homs, nodes in ((5, 840, 2371), (6, 7920, 21132)):
        budget = perm.NodeBudget()
        got = list(perm.iter_homs(n, relators, d, budget=budget))
        assert (len(got), budget.nodes) == (homs, nodes), d


def test_iter_homs_without_generators_spends_nothing():
    budget = perm.NodeBudget(0)
    assert list(perm.iter_homs(0, [], 3, budget=budget)) == [()]
    assert budget.nodes == 0 and not budget.cap_hit


def test_iter_homs_rejects_degree_below_one():
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive"):
            list(perm.iter_homs(2, [], d))


def test_iter_homs_is_not_bounded_by_the_recursion_limit():
    assert list(perm.iter_homs(1200, [], 1)) == [((0,),) * 1200]
    budget = perm.NodeBudget()
    assert next(perm.iter_homs(1200, [], 2, budget=budget)) \
        == ((0, 1),) * 1200
    # one definition per entry of each generator's column
    assert budget.nodes == 2400


def test_is_canonical_on_commuting_pairs():
    for d in range(1, 5):
        ap = perm.all_permutations(d)
        for a in ap:
            for b in ap:
                if perm.compose(a, b) != perm.compose(b, a):
                    continue
                pair = (a, b)
                assert perm.is_canonical(pair) == \
                    (perm.canonical_under_relabeling(pair) == pair), pair


def test_is_canonical_on_random_tuples():
    rng = random.Random(4)
    for _ in range(400):
        d = rng.randint(1, 4)
        perms = tuple(helpers.random_permutation(rng, d)
                      for _ in range(rng.randint(1, 3)))
        assert perm.is_canonical(perms) == \
            (perm.canonical_under_relabeling(perms) == perms), perms
    assert perm.is_canonical(())


def test_eliminate_generators():
    # a = 1; c = b^-1; c d^-1 = 1, so d = c = b^-1; e^2 = 1 stays
    relators = [(1,), (2, 3), (3, -4), (5, 5)]
    assert perm.eliminate_generators(5, relators) \
        == ((2, 5), ((2, 2),), (0, 1, -1, -1, 2))
    # with a = 1, a b e b^-1 reduces to e, which then goes too
    assert perm.eliminate_generators(5, relators + [(1, 2, 5, -2)]) \
        == ((2,), (), (0, 1, -1, -1, 0))
    n, relators = _pi1(helpers.doubled_complex())
    kept, rels, _ = perm.eliminate_generators(n, relators)
    assert (n, len(relators), len(kept), len(rels)) == (47, 42, 27, 22)


def test_eliminate_generators_matches_reference():
    cases = [_pi1(helpers.load_complex(name))
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append(_pi1(helpers.doubled_complex()))
    rng = random.Random(6)
    for _ in range(200):
        pres = helpers.random_presentation(rng)
        cases.append((pres.num_generators, pres.relators))
    for n, relators in cases:
        assert perm.eliminate_generators(n, relators) \
            == oracles.reference_eliminate_generators(n, relators), relators


def _never(key):
    """A prune callback that never cuts: every orbit is clean."""
    return False


def _carrier_cases():
    """(complex, hyperplane, max degree) for every hyperplane of the
    valid fixtures, bad_vh and mixed_carrier to degree 4, of D to degree
    2, and of the connected seeded random complexes to degree 3."""
    cases = [(helpers.load_complex(name), 4)
             for name in helpers.GOOD_FIXTURES + ("bad_vh", "mixed_carrier")]
    cases.append((helpers.doubled_complex(), 2))
    for seed in range(20):
        cx = helpers.random_vh_complex(random.Random(seed))
        if is_connected_complex(cx):
            cases.append((cx, 3))
    for cx, max_degree in cases:
        for h in hyperplanes(cx):
            yield cx, h, max_degree


def _assert_least_and_ascending(got, kept, first, context):
    previous = None
    for a in got:
        table = tuple(a[g - 1] for g in kept)
        assert oracles.is_least_standard_table(table, first), (context, a)
        standard = oracles._standard_table(table, 0, first)
        assert previous is None or previous < standard, (context, a)
        previous = standard


def test_low_index_yields_least_standard_tables():
    """Without a prune, each class comes as its least row-major table,
    in ascending order.  With a prune watching a hyperplane's carrier
    and a callback that never cuts, each comes as its least table with
    the carrier's columns filled first (oracles.carrier_watch), in
    ascending order of that table, and the classes are the same."""
    cases = [(helpers.load_complex(name), 5)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases += [(helpers.load_complex("torus"), 12),
              (helpers.doubled_complex(), 2)]
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        kept, _, _ = perm.eliminate_generators(n, relators)
        for d in range(1, max_degree + 1):
            got = list(perm.iter_low_index(n, relators, d))
            for a in got:
                assert len(a) == n and perm.is_transitive(a, d)
                images = dict(enumerate(a, start=1))
                assert all(perm.word_image(r, images, d) == perm.identity(d)
                           for r in relators)
            _assert_least_and_ascending(got, kept, (), (cx, d))

    carriers = 0
    for cx, h, max_degree in _carrier_cases():
        pres = pi1_presentation(cx, 0)
        kept = oracles.reference_eliminate_generators(
            len(pres.generators), pres.relators)[0]
        watch, first = oracles.carrier_watch(cx, h)
        for d in range(1, max_degree + 1):
            got = list(pres.tables.low_index(d, prune=(watch, _never, 1)))
            _assert_least_and_ascending(got, kept, first, (cx, h.id, d))
            classes = [perm.canonical_under_relabeling(a) for a in got]
            assert sorted(classes) == sorted(
                perm.canonical_under_relabeling(a)
                for a in pres.tables.low_index(d)), (cx, h.id, d)
        carriers += 0 < len(first) < 2 * len(kept)
    assert carriers > 20


def test_low_index_matches_brute_force_on_random_presentations():
    rng = random.Random(5)
    for _ in range(60):
        pres = helpers.random_presentation(rng)
        n = pres.num_generators
        for d in range(1, 5):
            got = list(perm.iter_low_index(n, pres.relators, d))
            want = [a for a in oracles.backtrack_homs(n, pres.relators, d)
                    if perm.is_transitive(a, d) and perm.is_canonical(a)]
            classes = {perm.canonical_under_relabeling(a) for a in got}
            assert len(got) == len(want) == len(classes), (pres, d)
            assert classes == set(want), (pres, d)


def _hall_subgroup_counts(pres, max_degree, prunes):
    """Hall's subgroup counts of pres to max_degree (see the test
    below), after checking that each prune's classes number them."""
    kept = oracles.reference_eliminate_generators(
        len(pres.generators), pres.relators)[0]
    subgroups = oracles.hall_subgroup_counts(
        [sum(1 for _ in pres.tables.homs(d))
         for d in range(1, max_degree + 1)])
    for prune in prunes:
        for d in range(1, max_degree + 1):
            assert sum(Fraction(d, oracles.automorphisms(
                [a[g - 1] for g in kept]))
                for a in pres.tables.low_index(d, prune=prune)) \
                == subgroups[d - 1], (pres, prune, d)
    return subgroups


def test_low_index_class_counts_satisfy_halls_recursion():
    """The subgroups of index d that Hall's recursion counts from the
    homomorphism counts of homs, h_1..h_d, number sum d/|Aut| over the
    classes low_index yields, |Aut| being the centralizer of the action.
    Checked for the row-major fill, and for the carrier-first fill of
    every distinct carrier column set with a callback that never cuts,
    so a class yielded twice or missed breaks the count: on the
    fixtures, bad_vh and mixed_carrier to degree 4, D to degree 2, and
    the connected seeded random complexes to degree 4.  Higman's group
    (tests/fixtures/higman.json) has no nontrivial finite quotient, so
    to degree 6 h_d = 1 and it has one subgroup of index 1 and none of
    higher index, also with generator a's columns filled first."""
    cases = [(helpers.load_complex(name), 4)
             for name in helpers.GOOD_FIXTURES + ("bad_vh", "mixed_carrier")]
    cases.append((helpers.doubled_complex(), 2))
    for seed in range(12):
        cx = helpers.random_vh_complex(random.Random(seed))
        if is_connected_complex(cx):
            cases.append((cx, 4))
    carrier_fills = 0
    for cx, max_degree in cases:
        pres = pi1_presentation(cx, 0)
        kept = oracles.reference_eliminate_generators(
            len(pres.generators), pres.relators)[0]
        fills = {(): None}    # carrier columns -> a prune filling them first
        for h in hyperplanes(cx):
            watch, first = oracles.carrier_watch(cx, h)
            if 0 < len(first) < 2 * len(kept):
                fills.setdefault(tuple(first), (watch, _never, 1))
        _hall_subgroup_counts(pres, max_degree, fills.values())
        carrier_fills += len(fills) - 1
    assert carrier_fills > 20
    assert _hall_subgroup_counts(helpers.load_presentation("higman"), 6,
                                 (None, ((0,), _never, 1))) == [1] + [0] * 5


def test_low_index_class_and_node_counts():
    doubled = _pi1(helpers.doubled_complex())
    torus = _pi1(helpers.load_complex("torus"))
    for (n, relators), d, classes, nodes in ((doubled, 1, 1, 9),
                                             (doubled, 2, 511, 2869),
                                             (torus, 6, 12, 105),
                                             (torus, 10, 18, 325)):
        budget = perm.NodeBudget()
        got = list(perm.iter_low_index(n, relators, d, budget=budget))
        assert (len(got), budget.nodes) == (classes, nodes), d


def test_is_permutation_requires_int_entries():
    assert perm.is_permutation((1, 0), 2)
    for p in ((True, False), (1.0, 0), (0.0, 1), (0, True), ("a", 0),
              (0, 1, 2), (0, 0)):
        assert not perm.is_permutation(p, 2), p


def _two_generator_table(a):
    """The coset table of an assignment a to two generators: per row,
    generator 1, its inverse, generator 2, its inverse."""
    d = len(a[0])
    cols = [a[0], perm.inverse(a[0]), a[1], perm.inverse(a[1])]
    return [cols[x][c] for c in range(d) for x in range(4)]


def test_rebased_ties_are_automorphisms():
    """Z^2 is abelian, so each torus class is regular: every base gives
    the class's own table, and each tie's renumbering is an
    automorphism of the table taking coset 0 to the base."""
    n, relators = _pi1(helpers.load_complex("torus"))
    for d in range(1, 8):
        for a in perm.iter_low_index(n, relators, d):
            table = _two_generator_table(a)
            for b in range(1, d):
                order = perm._rebased_is_smaller(table, 4, d, b,
                                                 range(4 * d))
                assert isinstance(order, list) and order[0] == b, (a, b)
                assert all(table[order[c] * 4 + x] == order[table[c * 4 + x]]
                           for c in range(d) for x in range(4)), (a, b)


def test_orbit_skipping_accepts_what_every_base_accepts():
    """On every transitive labelled table of the torus and the Klein
    bottle to degree 5 and of the free group of rank 2 to degree 4,
    standard or not, the canonicity test that skips the orbits of the
    automorphisms found accepts exactly the tables that trying every
    base to the end accepts: in row-major order, and in carrier-first
    order (generator 1 first) on the tables standard in it."""
    for name, max_degree in (("torus", 5), ("klein", 5), ("wedge2", 4)):
        tables = pi1_presentation(helpers.load_complex(name), 0).tables
        assert (tables.ncols, tables.columns) == (4, (0, 2))
        for d in range(1, max_degree + 1):
            for a in tables.homs(d):
                if not perm.is_transitive(a, d):
                    continue
                table = _two_generator_table(a)
                orders = [range(4 * d)]
                if oracles._read_table(a, 0, [0, 1])[1] == list(range(d)):
                    orders.append(perm._read_order(table, 4, d, [0, 1]))
                for reads in orders:
                    every = not any(perm._rebased_is_smaller(
                        table, 4, d, b, reads) is True for b in range(1, d))
                    assert perm._is_least(table, 4, d, reads) == every, \
                        (name, a)


def test_regular_classes_are_compared_once_per_orbit(monkeypatch):
    """Per torus census degree 1..6, the re-base comparisons the
    low-index search makes.  Trying every base to the end made 0, 3, 8,
    21, 24 and 60; a tie's automorphism now settles the bases in its
    orbit."""
    calls = []
    rebased = perm._rebased_is_smaller

    def counted(*args):
        calls.append(args[3])
        return rebased(*args)

    monkeypatch.setattr(perm, "_rebased_is_smaller", counted)
    torus = helpers.load_complex("torus")
    counts = []
    for d in range(1, 7):
        calls.clear()
        classes = sum(1 for _ in iter_covers(torus, d, connected=True,
                                             up_to_conjugacy=True))
        counts.append((classes, len(calls)))
    # sigma(d) classes
    assert counts == [(1, 0), (3, 3), (4, 4), (7, 9), (6, 6), (12, 17)]


def _oracle_dirty(h):
    """A prune callback for hyperplane h: whether no component of the
    preimage is clean for a carrier key of any degree, by
    oracles.reference_preimage_cleanness."""
    def dirty(key):
        return not any(ok for _, ok in oracles.reference_preimage_cleanness(
            h, len(key[0]), key))
    return dirty


def test_low_index_prune_cuts_only_classes_without_a_clean_component():
    """On every hyperplane of torus, bad_vh and mixed_carrier to degree
    4, a prune watching the carrier with a dirty callback from the
    oracle keeps, in the order the same watch gives with a callback
    that never cuts, exactly the classes with a clean preimage
    component, for `least` 1 (the full-key cut) and for the least degree
    of a clean carrier class (oracles.least_clean_carrier_degree; 1 when
    the trivial one is clean, d + 1 when none is), in no more
    definitions, and fewer for the second on some carriers: a closed
    orbit is cut before all d cosets exist.  With least 0 nothing is
    cut, though the callback is asked.  A carrier that reads every kept
    generator, as bad_vh's do, is never asked, and nothing is cut."""
    early = 0
    for name in ("torus", "bad_vh", "mixed_carrier"):
        cx = helpers.load_complex(name)
        pres = pi1_presentation(cx, 0)
        kept = oracles.reference_eliminate_generators(
            len(pres.generators), pres.relators)[0]
        for h in hyperplanes(cx):
            watch, first = oracles.carrier_watch(cx, h)
            # a watch that reads every kept generator is never asked
            uncut = len(first) == 2 * len(kept)
            dirty = _oracle_dirty(h)
            trivial_clean = not dirty(tuple((0,) for _ in watch))
            for d in range(2, 5):
                full = perm.NodeBudget()
                everything = list(pres.tables.low_index(
                    d, full, prune=(watch, _never, 1)))
                clean = [a for a in everything if not dirty(
                    tuple(perm.identity(d) if k is None else a[k]
                          for k in watch))]
                least = 1 if trivial_clean else (
                    oracles.least_clean_carrier_degree(cx, h, d) or d + 1)
                nodes = []
                for bound in (0, 1, least):
                    budget = perm.NodeBudget()
                    got = list(pres.tables.low_index(
                        d, budget, prune=(watch, dirty, bound)))
                    assert got == (everything if bound == 0 or uncut
                                   else clean), (name, h.id, d, bound)
                    nodes.append(budget.nodes)
                assert nodes[0] == full.nodes >= nodes[1] >= nodes[2], \
                    (name, h.id, d)
                early += nodes[2] < nodes[1]
    assert early > 0


def test_low_index_prune_asks_about_each_closed_orbit():
    """The callback is asked about each carrier orbit the fill closes,
    as a transitive action of its own degree, its rows renumbered from
    0.  The rows of each orbit are consecutive, and a complete table's
    last orbit, that of coset d - 1, is the last key asked before it is
    yielded.  Run with a callback that calls every orbit dirty and
    least 0, so nothing is cut, watching every generator but those that
    read the last kept one."""
    cases = [(helpers.load_complex(name), 4)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append((helpers.doubled_complex(), 2))
    asked = 0
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        kept, _, images = perm.eliminate_generators(n, relators)
        watch = (None,) + tuple(k for k in range(n)
                                if abs(images[k]) != len(kept))
        gens = [k for k in watch if k is not None]
        # the watch reads a kept generator, but not every one
        active = any(images[k] for k in gens)
        for d in range(1, max_degree + 1):
            keys = []

            def record(key):
                m = len(key[0])
                assert 1 <= m <= d and all(
                    perm.is_permutation(p, m) for p in key), key
                assert perm.is_transitive(key, m), key
                keys.append(key)
                return True
            got = []
            for a in perm.iter_low_index(n, relators, d,
                                         prune=(watch, record, 0)):
                got.append(a)
                if not active:
                    continue
                lo = min(perm.orbit([a[k] for k in gens], d - 1))
                assert perm.orbit([a[k] for k in gens], d - 1) \
                    == frozenset(range(lo, d))
                assert keys[-1] == tuple(
                    perm.identity(d - lo) if k is None
                    else tuple(x - lo for x in a[k][lo:]) for k in watch)
            assert got == list(perm.iter_low_index(
                n, relators, d, prune=(watch, _never, 1))), (cx, d)
            assert bool(keys) == (active and bool(got)), (cx, d)
            asked += len(keys)
    assert asked > 100


def test_low_index_prune_cuts_a_dirty_orbit_that_leaves_no_room():
    """On the free group of rank 2 at degree 2, watching generator a:
    a(0) = 0 closes the orbit {0} at the first definition.  Called dirty
    with least 2, it is cut there, since the coset left cannot hold an
    orbit of degree 2; a(0) = 1 then makes coset 1, and A(0) = 1 closes
    the orbit {0, 1} at the third definition, which is cut too.  With
    least 1 the orbit {0} stays, b(0) = 1 makes coset 1, and its orbit
    {1} closes at the fourth definition and is cut, as is {0, 1} at the
    sixth.  Called clean, the orbit {0} stops the calls below it, and
    the three classes of the unpruned search come in its order."""
    unpruned = list(perm.iter_low_index(2, [], 2))
    for least, cut, want, classes in (
            (2, True, [(((0,), (0,)), 1), (((1, 0), (0, 1)), 3)], []),
            (1, True, [(((0,), (0,)), 1), (((0,), (0,)), 4),
                       (((1, 0), (0, 1)), 6)], []),
            (1, False, [(((0,), (0,)), 1), (((1, 0), (0, 1)), 7)],
             unpruned)):
        calls = []
        budget = perm.NodeBudget()

        def record(key):
            calls.append((key, budget.nodes))
            return cut
        got = list(perm.iter_low_index(2, [], 2, budget=budget,
                                       prune=((0, None), record, least)))
        assert (calls, got) == (want, classes)
    assert len(unpruned) == 3


@pytest.mark.parametrize("name", ["torus", "bad_vh"])
def test_low_index_prune_calls_only_while_an_unwatched_generator_is_open(
        name):
    """A watch that reads every kept generator, in any order, with
    repeats and None, or none of them, gets no callback, and the search
    is the unpruned one."""
    n, relators = _pi1(helpers.load_complex(name))
    assert n == 2 and perm.eliminate_generators(n, relators)[0] == (1, 2)
    for d in range(1, 5):
        full = perm.NodeBudget()
        everything = list(perm.iter_low_index(n, relators, d, budget=full))
        for watch in ((0, 1), (1, None, 0, 1), (), (None,)):
            budget = perm.NodeBudget()

            def never(key):
                raise AssertionError("called with %r" % (key,))
            got = list(perm.iter_low_index(n, relators, d, budget=budget,
                                           prune=(watch, never, d + 1)))
            assert (got, budget.nodes) == (everything, full.nodes)


def test_low_index_rejects_degree_below_one():
    for d in (0, -1):
        with pytest.raises(ValueError, match="degree must be positive"):
            list(perm.iter_low_index(2, [], d))


def test_low_index_budget_cap_stops_the_scan():
    n, relators = _pi1(helpers.load_complex("torus"))
    full = perm.NodeBudget()
    everything = list(perm.iter_low_index(n, relators, 6, budget=full))
    assert len(everything) == 12 and not full.cap_hit
    for cap in (0, 1, 5, 50, full.nodes - 1):
        budget = perm.NodeBudget(cap)
        got = list(perm.iter_low_index(n, relators, 6, budget=budget))
        assert budget.cap_hit and budget.nodes == cap
        assert got == everything[:len(got)]
        assert len(got) < 12 or cap == full.nodes - 1
    budget = perm.NodeBudget(full.nodes)
    assert list(perm.iter_low_index(n, relators, 6, budget=budget)) \
        == everything
    assert not budget.cap_hit


@pytest.mark.parametrize("relators", [[(3,)], [(1, -5, 2)], [(0, 1)]])
@pytest.mark.parametrize("enumerate_homs",
                         [perm.iter_low_index, perm.iter_homs])
def test_relator_letters_outside_the_generators_are_rejected(
        enumerate_homs, relators):
    with pytest.raises(ValueError, match="relator letter"):
        list(enumerate_homs(2, relators, 2))


@pytest.mark.parametrize("enumerate_homs",
                         [perm.iter_low_index, perm.iter_homs])
def test_compile_memo_is_invisible(enumerate_homs):
    """A presentation's held CosetTables give, call after call, the
    yields and node counts of tables compiled afresh, for relators as
    tuples and as lists.  Tables read their relators once: a list
    changed between calls is read afresh by the next compile, and not
    by tables already made."""
    method = enumerate_homs.__name__[len("iter_"):]

    def run(search, d):
        budget = perm.NodeBudget()
        return list(search(d, budget=budget)), budget.nodes

    for cx, d in ((helpers.load_complex("torus"), 5),
                  (helpers.doubled_complex(), 2)):
        pres = pi1_presentation(cx, 0)
        n, relators = _pi1(cx)
        held = getattr(pres.tables, method)
        fresh = run(functools.partial(enumerate_homs, n, relators), d)
        as_lists = [list(w) for w in relators]
        assert run(held, d) == run(held, d) == fresh == run(
            functools.partial(enumerate_homs, n, as_lists), d), (n, d)
        assert pi1_presentation(cx, 0).tables is pres.tables

    relators = [[1, 2, -1, -2]]
    tables = perm.CosetTables(2, relators)
    before = list(enumerate_homs(2, relators, 3))
    relators[0][2:] = []
    after = list(enumerate_homs(2, relators, 3))
    assert after == list(enumerate_homs(2, [(1, 2)], 3)) != before
    assert list(getattr(tables, method)(3)) == before


def test_low_index_is_not_bounded_by_the_recursion_limit():
    n = 1200
    for relators in ([], [(g, g) for g in range(1, n + 1)]):
        a = next(perm.iter_low_index(n, relators, 2))
        assert len(a) == n and perm.is_transitive(a, 2)
        if relators:
            assert all(perm.compose(p, p) == (0, 1) for p in a)


def test_degree_one_replays_the_fill():
    """low_index(1) without a prune callback spends the count of
    definitions the fill made when the tables were compiled, then
    yields the trivial class: under every cap it gives the yields,
    nodes and cap_hit of the table fill itself.  The torus fills its
    table in 2 definitions and D in 9."""
    complexes = helpers.GOOD_FIXTURES + ("bad_vh", "mixed_carrier", "doubled")
    presentations = [_pi1(helpers.load_complex(name)) for name in complexes]
    for name in ("trivial_group", "z_squared"):
        pres = helpers.load_presentation(name)
        presentations.append((pres.num_generators, pres.relators))
    rng = random.Random(18)
    for _ in range(200):
        pres = helpers.random_presentation(rng)
        presentations.append((pres.num_generators, pres.relators))
    counts = []
    for n, relators in presentations:
        tables = perm.CosetTables(n, relators)
        full = perm.NodeBudget()
        fill = list(perm._fill(tables, 1, full, False))
        assert fill == [(perm.identity(1),) * n] and not full.cap_hit
        assert tables.trivial_definitions == full.nodes
        assert list(tables.low_index(1)) == fill
        assert list(perm.iter_low_index(n, relators, 1)) == fill
        for cap in [None, *range(full.nodes + 2)]:
            budget, reference = perm.NodeBudget(cap), perm.NodeBudget(cap)
            assert list(tables.low_index(1, budget)) \
                == list(perm._fill(tables, 1, reference, False))
            assert (budget.nodes, budget.cap_hit) \
                == (reference.nodes, reference.cap_hit), (n, relators, cap)
        counts.append(full.nodes)
    by_name = dict(zip(complexes, counts))
    assert by_name["torus"] == 2 and by_name["doubled"] == 9


def _consecutive_low_index(tables, first, last, budget):
    """What CosetTables.classes streams: low_index(d) called for d =
    first..last on one budget, up to the degree the cap stops."""
    out = []
    for d in range(first, last + 1):
        out += [(d, a) for a in tables.low_index(d, budget)]
        if budget.cap_hit:
            break
    return out


def _stream_cases():
    """(tables, first, last): the trivial group to 12, Higman's group to
    6, the torus to 7, pi1 of every valid fixture to 4, and seeded random
    presentations to 4 from degree 1 or 2, some left by the Tietze moves
    with no generator."""
    for name, last in (("trivial_group", 12), ("higman", 6)):
        yield helpers.load_presentation(name).tables, 2, last
    yield pi1_presentation(helpers.load_complex("torus"), 0).tables, 2, 7
    for name in helpers.GOOD_FIXTURES + ("bad_vh",):
        yield pi1_presentation(helpers.load_complex(name), 0).tables, 1, 4
    rng = random.Random(30)
    for i in range(24):
        yield helpers.random_presentation(rng).tables, 1 + i % 2, 4


def test_classes_match_consecutive_low_index_calls():
    """classes(first, last) gives the yields, order, nodes and cap_hit
    of low_index(first), ..., low_index(last) called one after another
    on one budget, under every cap from 0 to the total plus 2 where the
    total is at most 600 definitions, else under 12 caps spread over
    that range, and uncapped.  Under cap c the calls yield the classes
    they had yielded by node c uncapped, and end with min(c, total)
    nodes, having hit the cap when c < total; the calls themselves are
    run under the spread caps."""
    tables_without_columns = starts_at_one = 0
    for tables, first, last in _stream_cases():
        full = perm.NodeBudget()
        log = []    # (nodes spent by the yield, (d, assignment))
        for d in range(first, last + 1):
            log += [(full.nodes, (d, a)) for a in tables.low_index(d, full)]
        total = full.nodes
        spread = {0, 1, total - 1, total, total + 1, total + 2} \
            | set(range(0, total, total // 6 or 1))
        for cap in [None, *(range(total + 3) if total <= 600 else spread)]:
            budget = perm.NodeBudget(cap)
            got = list(tables.classes(first, last, budget))
            if cap is None:
                assert got == [item for _, item in log] and not full.cap_hit
                assert budget.nodes == total and not budget.cap_hit
                continue
            assert got == [item for k, item in log if k <= cap], cap
            assert (budget.nodes, budget.cap_hit) \
                == (min(cap, total), cap < total), (first, cap)
            if cap in spread:
                reference = perm.NodeBudget(cap)
                assert got == _consecutive_low_index(tables, first, last,
                                                     reference)
                assert (budget.nodes, budget.cap_hit) \
                    == (reference.nodes, reference.cap_hit), (first, cap)
        tables_without_columns += tables.ncols == 0
        starts_at_one += first == 1
    assert tables_without_columns >= 2 and starts_at_one >= 12


def test_classes_make_only_the_definitions_of_the_last_degree(monkeypatch):
    """Each degree resumes from where the one before refused a new coset,
    and replays the definitions below, so the stream spends one node per
    definition of the last degree's search alone: the trivial group to
    degree 6 in 42 spend calls for 119 nodes and to 12 in 71 for 512,
    Higman's group to 6 in 14,506 for 18,259.  With the frontier bound
    at 0 every degree starts from the root, with the same yields and
    nodes, and spends them all; only the empty frontier of the trivial
    group at degree 10 still replays degrees 11 and 12."""
    trivial = helpers.load_presentation("trivial_group").tables
    higman = helpers.load_presentation("higman").tables
    cases = ((trivial, 6, 42, 119), (trivial, 12, 71, 512),
             (higman, 6, 14_506, 18_259))
    streams = []
    for tables, last, spends, nodes in cases:
        budget, alone = helpers.CountingBudget(), perm.NodeBudget()
        streams.append(list(tables.classes(2, last, budget)))
        assert (budget.spends, budget.nodes) == (spends, nodes)
        assert list(tables.low_index(last, alone)) == [] \
            and alone.nodes == spends
    monkeypatch.setattr(perm, "FRONTIER_ENTRIES", 0)
    for (tables, last, _, nodes), stream in zip(cases, streams):
        budget = helpers.CountingBudget()
        assert list(tables.classes(2, last, budget)) == stream
        assert budget.nodes == nodes
        assert budget.spends == (nodes - 2 * 71 if last == 12 else nodes)


def test_classes_keep_no_frontier_for_the_last_degree(monkeypatch):
    """Only the next degree reads a degree's frontier, so the stream
    stores none for its last: the torus to degree 4 stores the points
    of degrees 1 to 3, each a copy of a table with that many rows, and
    none of degree 4, with the yields and nodes of the calls."""
    tables = pi1_presentation(helpers.load_complex("torus"), 0).tables
    stored = set()    # the row counts of the points stored

    class Spy(perm._Frontier):
        @property
        def points(self):
            return self._points

        @points.setter
        def points(self, value):
            self._points = value
            stored.update(len(p[1]) // tables.ncols for p in value or ())
    monkeypatch.setattr(perm, "_Frontier", Spy)
    budget, reference = perm.NodeBudget(), perm.NodeBudget()
    assert list(tables.classes(1, 4, budget)) \
        == _consecutive_low_index(tables, 1, 4, reference)
    assert budget.nodes == reference.nodes
    assert stored == {0, 1, 2, 3}


def test_an_empty_frontier_ends_the_stream():
    """From degree 10 on the trivial group's search tree no longer grows:
    no table with d cosets is left open, so every later degree searches
    the same 71 definitions and finds no class.  The stream charges
    them all at once, as the calls would spend them one degree after
    another, also under a cap that the replayed degrees meet, and ends:
    to degree 10^6 that is 512 + (10^6 - 12) * 71 definitions, of which
    it makes 71."""
    tables = helpers.load_presentation("trivial_group").tables
    last = 30
    full = perm.NodeBudget()
    assert _consecutive_low_index(tables, 2, last, full) == []
    assert full.nodes == 512 + (last - 12) * 71
    for cap in (512, 600, 1000, full.nodes - 1, full.nodes, None):
        budget, reference = helpers.CountingBudget(cap), perm.NodeBudget(cap)
        assert list(tables.classes(2, last, budget)) == []
        _consecutive_low_index(tables, 2, last, reference)
        assert (budget.nodes, budget.cap_hit) \
            == (reference.nodes, reference.cap_hit), cap
        assert budget.spends == 71
    budget = helpers.CountingBudget()
    assert list(tables.classes(2, 10 ** 6, budget)) == []
    assert (budget.nodes, budget.spends) == (70_999_660, 71)
    assert not budget.cap_hit


def test_classes_check_their_degrees():
    tables = perm.CosetTables(2, [])
    for first in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="degree must be positive"):
            tables.classes(first, 3)
    for last in (True, 3.0, None):
        with pytest.raises(ValueError, match="last degree must be an int"):
            tables.classes(1, last)
    assert list(tables.classes(3, 2)) == []
    assert [d for d, _ in tables.classes(1, 3)] == [1] + [2] * 3 + [3] * 7
