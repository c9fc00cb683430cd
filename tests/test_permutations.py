"""The homomorphism enumerators, the Tietze moves and the canonicity
test against the slower code they replaced: iter_homs against
oracles.backtrack_homs, which in turn against oracles.reference_iter_homs,
eliminate_generators against oracles.reference_eliminate_generators,
is_canonical against canonical_under_relabeling.  The low-index search
against its defining properties; tests/test_covers.py compares its
covers with the brute-force path."""

import itertools
import random

import pytest

from vhcomplex import permutations as perm
from vhcomplex import pi1_presentation

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


def test_low_index_yields_least_standard_tables():
    cases = [(helpers.load_complex(name), 5)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases += [(helpers.load_complex("torus"), 8),
              (helpers.doubled_complex(), 2)]
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        kept, _, _ = perm.eliminate_generators(n, relators)
        for d in range(1, max_degree + 1):
            previous = None
            for a in perm.iter_low_index(n, relators, d):
                assert len(a) == n and perm.is_transitive(a, d)
                images = dict(enumerate(a, start=1))
                assert all(perm.word_image(r, images, d) == perm.identity(d)
                           for r in relators)
                table = tuple(a[g - 1] for g in kept)
                assert oracles.is_least_standard_table(table), (cx, d, a)
                # yielded in ascending row-major order
                standard = oracles._standard_table(table, 0)
                assert previous is None or previous < standard, (cx, d, a)
                previous = standard


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
    """A prune callback that rejects every table with all d cosets whose
    coset 0 generator 1 maps to a given coset removes exactly the classes
    whose first image sends 0 there, and keeps the others in order, as
    a failed deduction would; it sees only tables with all d cosets, and
    never spends more of the budget."""
    cases = [_pi1(helpers.load_complex(name)) for name in
             helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append(_pi1(helpers.doubled_complex()))
    rng = random.Random(8)
    for _ in range(20):
        pres = helpers.random_presentation(rng)
        cases.append((pres.num_generators, pres.relators))
    for n, relators in cases:
        ncols, columns = perm.generator_columns(n, relators)
        col = columns[0] if n else None
        for d in range(1, 4 if ncols <= 8 else 3):
            full = perm.NodeBudget()
            everything = list(perm.iter_low_index(n, relators, d,
                                                  budget=full))
            for target in range(d):
                seen = []

                def prune(table):
                    assert len(table) == d * ncols + 1
                    assert d - 1 in table
                    seen.append(d)
                    return col is not None and table[col] == target
                budget = perm.NodeBudget()
                got = list(perm.iter_low_index(n, relators, d,
                                               budget=budget, prune=prune))
                assert got == [a for a in everything
                               if col is None or a[0][0] != target]
                assert budget.nodes <= full.nodes
                assert seen or not (ncols and everything)


def test_generator_columns_read_the_assignments():
    """Read through generator_columns and fixed_column, the last
    complete table a prune callback sees before each yield is the
    assignment yielded."""
    cases = [(helpers.load_complex(name), 4)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases.append((helpers.doubled_complex(), 2))
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        ncols, columns = perm.generator_columns(n, relators)
        assert len(columns) == n
        for d in range(1, max_degree + 1):
            complete = []

            def prune(table):
                if table.count(-1) == 1:
                    complete.append(tuple(
                        perm.identity(d) if c is None
                        else perm.fixed_column(table, ncols, c)
                        for c in columns))
                return False
            for a in perm.iter_low_index(n, relators, d, prune=prune):
                assert complete and complete[-1] == a, (cx, d)


def test_fixed_column_fills_the_point_left():
    # degree 3, one generator: columns 0 and 1, then the trailing -1
    assert perm.fixed_column([1, 2, 2, 0, 0, 1, -1], 2, 0) == (1, 2, 0)
    assert perm.fixed_column([1, 2, -1, 0, 0, -1, -1], 2, 0) == (1, 2, 0)
    assert perm.fixed_column([1, 2, -1, 0, 0, -1, -1], 2, 1) == (2, 0, 1)
    assert perm.fixed_column([-1, -1, -1, -1, 0, -1, -1], 2, 0) is None


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
    # twice: the compile memo keeps no errors
    for _ in range(2):
        with pytest.raises(ValueError, match="relator letter"):
            list(enumerate_homs(2, relators, 2))


@pytest.mark.parametrize("enumerate_homs",
                         [perm.iter_low_index, perm.iter_homs])
def test_compile_memo_is_invisible(enumerate_homs):
    """Yields and node counts are the same from an empty memo and from a
    full one, for relators as tuples and as lists; a list mutated
    between calls is read afresh."""
    def run(n, relators, d):
        budget = perm.NodeBudget()
        return list(enumerate_homs(n, relators, d, budget=budget)), \
            budget.nodes

    for cx, d in ((helpers.load_complex("torus"), 5),
                  (helpers.doubled_complex(), 2)):
        n, relators = _pi1(cx)
        perm._compile.cache_clear()
        cold = run(n, relators, d)
        warm = run(n, relators, d)
        as_lists = run(n, [list(w) for w in relators], d)
        perm._compile.cache_clear()
        assert cold == warm == as_lists == run(n, relators, d), (n, d)

    relators = [[1, 2, -1, -2]]
    before = list(enumerate_homs(2, relators, 3))
    relators[0][2:] = []
    after = list(enumerate_homs(2, relators, 3))
    assert after == list(enumerate_homs(2, [(1, 2)], 3)) != before


def test_low_index_is_not_bounded_by_the_recursion_limit():
    n = 1200
    for relators in ([], [(g, g) for g in range(1, n + 1)]):
        a = next(perm.iter_low_index(n, relators, 2))
        assert len(a) == n and perm.is_transitive(a, 2)
        if relators:
            assert all(perm.compose(p, p) == (0, 1) for p in a)


def test_degree_one_replays_the_fill():
    """iter_low_index at degree 1 without a prune callback spends the
    count of definitions _compile's fill made, then yields the trivial
    class: under every cap it gives the yields, nodes and cap_hit of the
    table fill itself.  The torus fills its table in 2 definitions and
    D in 9."""
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
        full = perm.NodeBudget()
        fill = list(perm._coset_tables(n, relators, 1, full, labelled=False))
        assert fill == [(perm.identity(1),) * n] and not full.cap_hit
        assert list(perm.iter_low_index(n, relators, 1)) == fill
        for cap in [None, *range(full.nodes + 2)]:
            budget, reference = perm.NodeBudget(cap), perm.NodeBudget(cap)
            assert list(perm.iter_low_index(n, relators, 1, budget=budget)) \
                == list(perm._coset_tables(n, relators, 1, reference,
                                           labelled=False))
            assert (budget.nodes, budget.cap_hit) \
                == (reference.nodes, reference.cap_hit), (n, relators, cap)
        counts.append(full.nodes)
    by_name = dict(zip(complexes, counts))
    assert by_name["torus"] == 2 and by_name["doubled"] == 9
