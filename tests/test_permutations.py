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

from vhcomplex import hyperplanes, pi1_presentation
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
    """A prune callback that never cuts."""
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
    cases += [(helpers.load_complex("torus"), 8),
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
            got = list(pres.tables.low_index(d, prune=(watch, _never)))
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
                fills.setdefault(tuple(first), (watch, _never))
        _hall_subgroup_counts(pres, max_degree, fills.values())
        carrier_fills += len(fills) - 1
    assert carrier_fills > 20
    assert _hall_subgroup_counts(helpers.load_presentation("higman"), 6,
                                 (None, ((0,), _never))) == [1] + [0] * 5


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


def test_low_index_prune_cuts_exactly_the_classes_below():
    """A prune watching generator 1 whose callback rejects every key
    that maps coset 0 to a given coset removes exactly the classes whose
    first image sends 0 there from those the same watch yields with a
    callback that never cuts, and keeps the others in order, as a
    failed deduction would; it is asked only while some other kept
    generator exists, gets a permutation of the d points, and never
    spends more of the budget."""
    cases = [_pi1(helpers.load_complex(name)) for name in
             helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append(_pi1(helpers.doubled_complex()))
    rng = random.Random(8)
    for _ in range(20):
        pres = helpers.random_presentation(rng)
        cases.append((pres.num_generators, pres.relators))
    for n, relators in cases:
        kept, _, images = perm.eliminate_generators(n, relators)
        watch = (0,) if n else ()
        # generator 1 reads at most one kept generator, or none if trivial
        called = len(kept) > (1 if n and images[0] else 0)
        for d in range(1, 4 if len(kept) <= 4 else 3):
            full = perm.NodeBudget()
            everything = list(perm.iter_low_index(n, relators, d,
                                                  budget=full,
                                                  prune=(watch, _never)))
            for target in range(d):
                seen = []

                def dirty(key):
                    assert len(key) == 1 and perm.is_permutation(key[0], d)
                    seen.append(d)
                    return key[0][0] == target
                budget = perm.NodeBudget()
                got = list(perm.iter_low_index(n, relators, d, budget=budget,
                                               prune=(watch, dirty)))
                assert got == [a for a in everything
                               if not (called and a[0][0] == target)]
                assert budget.nodes <= full.nodes
                assert bool(seen) == (called and bool(everything))


def test_low_index_prune_key_reads_the_assignments():
    """The key the callback gets at the last table before each yield,
    the complete one, is the yielded assignment's images of the watched
    generators, with the identity for None: every generator but those
    that read the last kept one is watched."""
    cases = [(helpers.load_complex(name), 4)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append((helpers.doubled_complex(), 2))
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        kept, _, images = perm.eliminate_generators(n, relators)
        watch = (None,) + tuple(k for k in range(n)
                                if abs(images[k]) != len(kept))
        for d in range(1, max_degree + 1):
            keys = []

            def record(key):
                keys.append(key)
                return False
            for a in perm.iter_low_index(n, relators, d,
                                         prune=(watch, record)):
                assert keys and keys[-1] == tuple(
                    perm.identity(d) if k is None else a[k]
                    for k in watch), (cx, d)
            assert keys or not kept


def test_low_index_prune_fills_the_point_left():
    """On the free group of rank 2 at degree 2, watching generator 1,
    the first call comes after 3 definitions: a(0) = 0, then b(0) = 0,
    undone, and b(0) = 1, which makes coset 1.  a(1) is still unset,
    so the key reads the point left, 1."""
    calls = []
    budget = perm.NodeBudget()

    def record(key):
        calls.append((key, budget.nodes))
        return False
    for _ in perm.iter_low_index(2, [], 2, budget=budget,
                                 prune=((0, None), record)):
        pass
    assert calls[0] == (((0, 1), (0, 1)), 3)


@pytest.mark.parametrize("name", ["torus", "bad_vh"])
def test_low_index_prune_calls_only_while_an_unwatched_generator_is_open(
        name):
    """A watch that reads every kept generator, in any order, with
    repeats and None, gets no callback, and the search is the unpruned
    one."""
    n, relators = _pi1(helpers.load_complex(name))
    assert n == 2 and perm.eliminate_generators(n, relators)[0] == (1, 2)
    for d in range(1, 5):
        full = perm.NodeBudget()
        everything = list(perm.iter_low_index(n, relators, d, budget=full))
        for watch in ((0, 1), (1, None, 0, 1)):
            budget = perm.NodeBudget()

            def never(key):
                raise AssertionError("called with %r" % (key,))
            got = list(perm.iter_low_index(n, relators, d, budget=budget,
                                           prune=(watch, never)))
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
