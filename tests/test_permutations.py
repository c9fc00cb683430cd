"""The homomorphism enumerator and the canonicity test against the
slower code they replaced: iter_homs against oracles.reference_iter_homs,
is_canonical against canonical_under_relabeling.  The low-index search
against its defining properties; tests/test_covers.py compares its
covers with the brute-force path."""

import itertools
import random

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


def test_iter_homs_matches_reference():
    rng = random.Random(3)
    for _ in range(60):
        pres = helpers.random_presentation(rng)
        for d in range(1, 5):
            for kwargs in ({}, {"cap": 1}, {"cap": 7}, {"cap": 50},
                           {"take": 3}):
                got = _run(perm.iter_homs, pres, d, **kwargs)
                want = _run(oracles.reference_iter_homs, pres, d, **kwargs)
                assert got == want, (pres, d, kwargs)


def test_iter_homs_without_generators_spends_nothing():
    budget = perm.NodeBudget(0)
    assert list(perm.iter_homs(0, [], 3, budget=budget)) == [()]
    assert budget.nodes == 0 and not budget.cap_hit


def test_iter_homs_is_not_bounded_by_the_recursion_limit():
    assert list(perm.iter_homs(1200, [], 1)) == [((0,),) * 1200]
    budget = perm.NodeBudget()
    assert next(perm.iter_homs(1200, [], 2, budget=budget)) \
        == ((0, 1),) * 1200
    assert budget.nodes == 1201


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


def _pi1(cx):
    pres = pi1_presentation(cx, 0)
    return len(pres.generators), pres.relators


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


def test_low_index_yields_least_standard_tables():
    cases = [(helpers.load_complex(name), 5)
             for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    cases += [(helpers.load_complex("torus"), 8),
              (helpers.doubled_complex(), 2)]
    for cx, max_degree in cases:
        n, relators = _pi1(cx)
        kept, _, _ = perm.eliminate_generators(n, relators)
        for d in range(1, max_degree + 1):
            for a in perm.iter_low_index(n, relators, d):
                assert len(a) == n and perm.is_transitive(a, d)
                images = dict(enumerate(a, start=1))
                assert all(perm.word_image(r, images, d) == perm.identity(d)
                           for r in relators)
                assert oracles.is_least_standard_table(
                    tuple(a[g - 1] for g in kept)), (cx, d, a)


def test_low_index_matches_brute_force_on_random_presentations():
    rng = random.Random(5)
    for _ in range(60):
        pres = helpers.random_presentation(rng)
        n = pres.num_generators
        for d in range(1, 5):
            got = list(perm.iter_low_index(n, pres.relators, d))
            want = [a for a in perm.iter_homs(n, pres.relators, d)
                    if perm.is_transitive(a, d) and perm.is_canonical(a)]
            classes = {perm.canonical_under_relabeling(a) for a in got}
            assert len(got) == len(want) == len(classes), (pres, d)
            assert classes == set(want), (pres, d)


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


def test_low_index_is_not_bounded_by_the_recursion_limit():
    n = 1200
    for relators in ([], [(g, g) for g in range(1, n + 1)]):
        a = next(perm.iter_low_index(n, relators, 2))
        assert len(a) == n and perm.is_transitive(a, 2)
        if relators:
            assert all(perm.compose(p, p) == (0, 1) for p in a)
