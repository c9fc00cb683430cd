import copy
import gc
import itertools
import json
import pickle
import random
import weakref

import pytest

from vhcomplex import (Cover, Edge, EdgePath, GroupPresentation, Hyperplane,
                       LoopWitness,
                       QuotientWitness, SearchBudget, SearchStats,
                       SquareComplex, VCleanWitness,
                       clean_cover_from_survival, double_along_loop,
                       element_survives, hyperplane_of_edge, hyperplanes,
                       is_clean, iter_covers, loop_survives, pi1_presentation,
                       pointed_pair,
                       probe_profinite_triviality, regular_closure,
                       revalidate_witness, semi_decide_virtually_clean,
                       survival_from_clean_cover, transport)
from vhcomplex import permutations as perm
from vhcomplex import search
from vhcomplex.complexes import is_connected_complex
from vhcomplex.constructions import enumerate_simple_loops
from vhcomplex.covers import cover_from_assignment, enumerate_covers
from vhcomplex.formats import canonical_json, outcome_to_doc
from vhcomplex.hyperplanes import Carrier

import helpers
import oracles


FREE2 = GroupPresentation.make(["a", "b"], [])


def test_element_survives_in_free_group():
    out = element_survives(FREE2, "a", SearchBudget(max_degree=3))
    assert out.found and out.status == "FOUND"
    w = out.witness
    assert isinstance(w, QuotientWitness)
    assert w.degree == 2 and w.word == (1,)
    assert w.images == ((1, 0), (0, 1))
    # the classes at degree 2 are (id, swap), then (swap, id)
    assert out.stats.homs_tried == 2
    assert revalidate_witness(w, pres=FREE2)


def test_element_survives_word_forms():
    out1 = element_survives(FREE2, "aB", SearchBudget(max_degree=2))
    out2 = element_survives(FREE2, (1, -2), SearchBudget(max_degree=2))
    assert out1.witness == out2.witness


def test_empty_word_is_exhausted_without_scanning():
    out = element_survives(FREE2, "", SearchBudget(max_degree=4))
    assert not out.found and out.stats.homs_tried == 0
    out = element_survives(FREE2, "aA", SearchBudget(max_degree=4))
    assert not out.found and out.stats.homs_tried == 0


def test_budget_cap_reports_honestly():
    # the trivial group's presentation survives the Tietze moves, so
    # the low-index search spends definitions on it at every degree
    pres = helpers.load_presentation("trivial_group")
    for cap in (0, 2, 50):
        out = element_survives(pres, "a",
                               SearchBudget(max_degree=6, max_nodes=cap))
        assert not out.found
        assert out.stats.cap_hit and out.stats.nodes <= cap + 1
    out = element_survives(pres, "a", SearchBudget(max_degree=6))
    assert not out.found and not out.stats.cap_hit and out.stats.nodes > 50


def test_searches_reject_a_missing_budget():
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    calls = [lambda: element_survives(FREE2, "a", None),
             lambda: element_survives(FREE2, "aA", None),
             lambda: probe_profinite_triviality(FREE2),
             lambda: loop_survives(t, EdgePath(0, (1,)), None),
             lambda: loop_survives(t, EdgePath(0, (1, -1)), None),
             lambda: semi_decide_virtually_clean(t, h, "some", None)]
    for call in calls:
        with pytest.raises(ValueError, match="SearchBudget"):
            call()


def test_element_survives_rejects_letters_outside_the_generators():
    for word, letter in (((3,), "3"), ((1, -3), "-3"), ((0,), "0"),
                         (("a",), "'a'")):
        with pytest.raises(ValueError, match="letter %s is not" % letter):
            element_survives(FREE2, word, SearchBudget(3))


@pytest.mark.parametrize("call", [
    lambda: element_survives(FREE2, [True], SearchBudget(2)),
    lambda: GroupPresentation.make("ab", [(True, 2)]),
    lambda: perm.CosetTables(2, [(True, -2)]),
], ids=["element_survives", "make", "CosetTables"])
def test_bool_letters_are_rejected(call):
    """True is an int equal to 1, but not a generator index."""
    with pytest.raises(ValueError, match="letter True"):
        call()


def test_budget_rejects_negative_bounds():
    with pytest.raises(ValueError):
        SearchBudget(max_degree=-3)
    with pytest.raises(ValueError):
        SearchBudget(max_degree=2, max_nodes=-1)
    assert SearchBudget(max_degree=0, max_nodes=0).max_nodes == 0


@pytest.mark.parametrize("bounds", [{"max_degree": 2.0},
                                    {"max_degree": True},
                                    {"max_degree": "3"},
                                    {"max_degree": None},
                                    {"max_degree": 2, "max_nodes": 1.5},
                                    {"max_degree": 2, "max_nodes": False}])
def test_budget_rejects_bounds_that_are_not_ints(bounds):
    with pytest.raises(ValueError, match="must be an int"):
        SearchBudget(**bounds)


def test_probe_profinite_triviality():
    tg = helpers.load_presentation("trivial_group")
    out = probe_profinite_triviality(tg, budget=SearchBudget(max_degree=4))
    assert not out.found
    # no transitive action of degree 2 or more exists
    assert out.stats.homs_tried == 0

    z2 = helpers.load_presentation("z_squared")
    out = probe_profinite_triviality(z2, budget=SearchBudget(max_degree=4))
    assert out.found
    w = out.witness
    assert w.degree == 2 and w.images == ((1, 0),) and w.word == (1,)
    assert revalidate_witness(w, pres=z2)


def test_quotient_witness_images_must_be_int_permutations():
    z2 = helpers.load_presentation("z_squared")
    assert revalidate_witness(QuotientWitness(2, ((1, 0),), (1,)), pres=z2)
    for images in (((True, False),), ((1.0, 0),)):
        assert not search.revalidate_quotient_witness(
            z2, QuotientWitness(2, images, (1,))), images


def test_probe_with_word_delegates():
    z2 = helpers.load_presentation("z_squared")
    out = probe_profinite_triviality(z2, word="a",
                                     budget=SearchBudget(max_degree=2))
    assert out.found and out.witness.word == (1,)


def test_loop_survives_on_torus():
    t = helpers.load_complex("torus")
    out = loop_survives(t, EdgePath(0, (1,)), SearchBudget(max_degree=4))
    assert out.found
    w = out.witness
    assert isinstance(w, LoopWitness)
    assert w.cover.degree == 2 and w.sheet == 0
    assert w.cover.perms == ((1, 0), (0, 1))
    # the classes at degree 2 are (id, swap), then (swap, id)
    assert out.stats.homs_tried == 2 and out.stats.covers_realized == 1
    assert revalidate_witness(w, complex=t)


def _degree(witness):
    if witness is None:
        return None
    if isinstance(witness, QuotientWitness):
        return witness.degree
    return witness.cover.degree


def _assert_matches_reference(outcome, reference, **context):
    """Same verdict and least degree as the homomorphism scan, and a
    witness that revalidates."""
    assert outcome.found == (reference is not None)
    assert _degree(outcome.witness) == _degree(reference)
    if outcome.found:
        assert revalidate_witness(outcome.witness, **context)


def test_quotient_searches_match_homomorphism_scan():
    rng = random.Random(6)
    presentations = [helpers.load_presentation(name)
                     for name in ("trivial_group", "z_squared")]
    # least degrees 3, 5 and 5 (A_5 has no transitive action on fewer
    # than five points), and BS(1, 2)
    presentations += [GroupPresentation.make(gens, rels) for gens, rels in (
        (["a"], ["aaa"]), (["a"], ["aaaaa"]),
        (["a", "b"], ["aa", "bbb", "ababababab"]),
        (["a", "b"], ["baBAA"]))]
    presentations += [helpers.random_presentation(rng, max_generators=2)
                      for _ in range(60)]
    for pres in presentations:
        n = pres.num_generators
        out = probe_profinite_triviality(pres, budget=SearchBudget(5))
        _assert_matches_reference(out, oracles.reference_probe(pres, 5),
                                  pres=pres)
        # each generator, each relator (trivial in the group) and two
        # random words
        words = [(k,) for k in range(1, n + 1)] + list(pres.relators)
        words += [tuple(rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 5)))
                  for _ in range(2)]
        for word in words:
            out = element_survives(pres, word, SearchBudget(5))
            ref = oracles.reference_element_survives(pres, word, 5)
            _assert_matches_reference(out, ref, pres=pres)


def test_loop_survival_matches_homomorphism_scan():
    complexes = [helpers.load_complex(name)
                 for name in helpers.GOOD_FIXTURES + ("bad_vh",)]
    # the torus again, built from lists and a triple: it is stored as
    # tuples of Edge values and tuples, so the searches can hash it
    listed = SquareComplex(1, [Edge(0, 0, "V"), (0, 0, "H")],
                           [[1, 2, -1, -2]])
    assert listed == helpers.load_complex("torus")
    for cx in complexes + [listed]:
        loops = [loop for v in range(cx.num_vertices)
                 for loop in enumerate_simple_loops(cx, v)]
        loops += [EdgePath(cx.dart_tail(w[0]), w) for w in cx.squares]
        assert loops
        for loop in loops:
            out = loop_survives(cx, loop, SearchBudget(4))
            ref = oracles.reference_loop_survives(cx, loop, 4)
            _assert_matches_reference(out, ref, complex=cx)


def test_relator_loop_never_survives():
    t = helpers.load_complex("torus")
    out = loop_survives(t, EdgePath(0, (1, 2, -1, -2)),
                        SearchBudget(max_degree=3))
    assert not out.found and out.witness is None


def test_vclean_on_already_clean_complex():
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    out = semi_decide_virtually_clean(t, h, "some", SearchBudget(1))
    assert out.found
    w = out.witness
    assert w.cover.degree == 1 and w.component_id == 1 and w.mode == "some"
    assert revalidate_witness(w, complex=t, hyperplane=h)


def test_vclean_theta_needs_a_double_cover():
    theta = helpers.load_complex("theta")
    h = hyperplane_of_edge(hyperplanes(theta), 1)
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(theta, h, mode,
                                          SearchBudget(max_degree=4))
        assert out.found
        w = out.witness
        assert w.mode == mode and w.cover.degree == 2
        assert w.cover.perms == ((0, 1), (0, 1), (1, 0))
        assert w.component_id == (1 if mode == "some" else None)
        assert revalidate_witness(w, complex=theta, hyperplane=h)
        assert out.stats.covers_realized == 2


def test_found_vclean_outcome_survives_pickle_and_deepcopy():
    """A FOUND outcome nests records (a VCleanWitness holding a Cover
    over a SquareComplex); a pickled or deep-copied one is equal, is
    made of new objects, and its witness still revalidates."""
    theta = helpers.load_complex("theta")
    h = hyperplane_of_edge(hyperplanes(theta), 1)
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(theta, h, mode,
                                          SearchBudget(max_degree=4))
        assert out.found and isinstance(out.witness, VCleanWitness)
        for back in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert back == out and repr(back) == repr(out)
            w = back.witness
            assert w is not out.witness and w.cover.base is not theta
            assert w.cover == out.witness.cover and w.cover.base == theta
            assert revalidate_witness(w, complex=theta, hyperplane=h)
            # the copy's own complex and hyperplane revalidate it too
            assert revalidate_witness(
                w, complex=w.cover.base,
                hyperplane=hyperplane_of_edge(hyperplanes(w.cover.base), 1))
            assert outcome_to_doc(back) == outcome_to_doc(out)


def test_vclean_klein_one_sided_base():
    k = helpers.load_complex("klein")
    h = hyperplane_of_edge(hyperplanes(k), 1)
    out = semi_decide_virtually_clean(k, h, "some", SearchBudget(4))
    assert out.found and out.witness.cover.degree == 2
    assert revalidate_witness(out.witness, complex=k, hyperplane=h)


def _count_checked_covers(monkeypatch):
    """Count the covers the vclean scan is handed, one per class its
    low-index search yields."""
    checked = [0]
    real = search._quotients

    def counting(pres, **kwargs):
        quotients = real(pres, **kwargs)

        def candidates(d, node_budget):
            for assignment in quotients(d, node_budget):
                checked[0] += 1
                yield assignment
        return candidates
    monkeypatch.setattr(search, "_quotients", counting)
    return checked


def test_vclean_counts_covers_checked(monkeypatch):
    checked = _count_checked_covers(monkeypatch)
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    out = semi_decide_virtually_clean(t, h, "some", SearchBudget(2))
    assert out.found
    assert out.stats.homs_tried == checked[0] == 1
    assert out.stats.covers_realized == 1

    # an exhausted scan checks every class of every degree that the
    # certificate does not skip and the prune does not cut.  bad_vh has
    # 11 classes of degree 1 to 3, and no carrier class of degree 2 or 3
    # of its hyperplane 1 is clean, so only the trivial cover is checked.
    # Its carrier presentation is pi1's, free on two letters, so the
    # carrier classes cost the definitions the scan of pi1 cost: 68
    checked[0] = 0
    cx = helpers.load_complex("bad_vh")
    h = hyperplanes(cx)[0]
    out = semi_decide_virtually_clean(cx, h, "some", SearchBudget(3))
    assert not out.found
    assert 11 == sum(
        len(enumerate_covers(cx, d, connected=True, up_to_conjugacy=True))
        for d in (1, 2, 3))
    assert out.stats.homs_tried == checked[0] == 1
    assert out.stats.covers_realized == 1 and out.stats.nodes == 68
    assert h.carrier.degrees == {2: (11, False), 3: (55, False)}


def _vclean_tasks():
    """(fixture name, complex, hyperplane, mode, budget) for every
    hyperplane of the valid fixtures, bad_vh and mixed_carrier to degree
    4, of the doubled complex D to degree 2, and of three hyperplanes of
    D to degree 3 under a node cap.  In S_3 some carrier assignments of
    mixed_carrier's hyperplanes 2 and 4 have clean components, but none
    has only clean ones; both first have a clean component in degree
    3."""
    cases = [(name, None, SearchBudget(4))
             for name in helpers.GOOD_FIXTURES + ("bad_vh", "mixed_carrier")]
    cases.append(("doubled", None, SearchBudget(2)))
    cases.append(("doubled", (13, 33, 67),
                  SearchBudget(3, max_nodes=20_000)))
    for name, ids, budget in cases:
        cx = helpers.load_complex(name)
        for h in hyperplanes(cx):
            if ids is None or h.id in ids:
                for mode in ("some", "each"):
                    yield name, cx, h, mode, budget


def _assert_matches_but_for_fewer_stats(doc, reference):
    """The outcome document equals the reference's once the statistics
    are set aside, and no statistic is larger: the scan prunes dirty
    carrier keys, so it may check fewer classes in fewer definitions,
    and hit a node cap the reference hits later or not at all."""
    doc, reference = dict(doc), dict(reference)
    stats, ref_stats = doc.pop("stats"), reference.pop("stats")
    assert canonical_json(doc) == canonical_json(reference)
    for name in ("homs_tried", "covers_realized", "nodes", "cap_hit"):
        assert stats[name] <= ref_stats[name], (name, stats, ref_stats)


def test_vclean_matches_per_cover_scan():
    """Keeping verdicts per carrier restriction and pruning dirty
    carrier keys change no outcome document but the statistics, and none
    of those exceeds the per-cover scan's, which takes each degree's
    classes in the order of their least carrier-first tables."""
    tasks = 0
    for name, cx, h, mode, budget in _vclean_tasks():
        out = semi_decide_virtually_clean(cx, h, mode, budget)
        ref = oracles.reference_vclean(cx, h, mode, budget)
        _assert_matches_but_for_fewer_stats(outcome_to_doc(out),
                                            outcome_to_doc(ref))
        if out.found:
            assert revalidate_witness(out.witness, complex=cx,
                                      hyperplane=h)
        tasks += 1
    assert tasks == 58


def test_vclean_outcomes_do_not_depend_on_the_memos(monkeypatch):
    """A complex keeps its pi1 presentation, the presentation its
    compiled coset tables, and each hyperplane its compiled carrier with
    the cleanness verdicts it has given, its carrier presentation's
    tables and the degrees it has certified.  The 26 vclean scans of D
    to degree 2, run in shuffled orders on fresh hyperplanes, again on
    the same hyperplanes, on fresh ones equal to them but distinct, and
    on deep copies of ones that have run, give byte-identical outcome
    documents, equal to the per-cover reference but for statistics no
    larger than its own.  The first run compiles D's tables and the
    carrier presentations of the 5 hyperplanes that reach degree 2, and
    decides 32 carrier keys, whatever its order: the two modes share
    each verdict and each degree.  A run on hyperplanes that have run
    decides none, and a deep copy carries its own verdicts and degrees.
    With its verdicts cleared, a carrier still replays its kept degrees,
    so only the 20 keys of the scanned covers and their closed orbits
    are decided again: the 13 trivial covers' and 7 of the rung's at
    degree 2, where the orbit {0} of one carrier action is cut before a
    second coset exists; with its degrees cleared too, all 32."""
    compiles = []
    decided = []
    real_init = perm.CosetTables.__init__
    real_cleanness = Carrier.cleanness

    def counting(self, *args):
        compiles.append(args)
        real_init(self, *args)

    def deciding(self, key):
        if key not in self.verdicts:
            decided.append((id(self), key))
        return real_cleanness(self, key)
    monkeypatch.setattr(perm.CosetTables, "__init__", counting)
    monkeypatch.setattr(Carrier, "cleanness", deciding)
    cx = helpers.doubled_complex()
    budget = SearchBudget(2)

    def run(seed, hyps):
        """Outcome document per task, and the numbers of tables
        compiled and of carrier keys decided."""
        tasks = [(h, mode) for h in hyps for mode in ("some", "each")]
        random.Random(seed).shuffle(tasks)
        docs = {}
        del compiles[:], decided[:]
        for h, mode in tasks:
            out = semi_decide_virtually_clean(cx, h, mode, budget)
            docs[h.id, mode] = canonical_json(outcome_to_doc(out))
        runs.append(docs)
        assert len(set(decided)) == len(decided)
        return len(compiles), len(decided)

    runs = []
    hyps = hyperplanes(cx)
    assert run(1, hyps) == (6, 32)
    assert {h.id for h in hyps if h.carrier.degrees} == {13, 28, 46, 61, 67}
    assert run(2, hyps) == (0, 0)
    fresh = hyperplanes(helpers.doubled_complex())
    assert fresh == hyps and not any(f is h for f, h in zip(fresh, hyps))
    assert run(3, fresh) == (5, 32)
    copies = copy.deepcopy(hyps)
    for c, h in zip(copies, hyps):
        for name in ("verdicts", "degrees"):
            kept = getattr(h.carrier, name)
            assert getattr(c.carrier, name) == kept
            assert getattr(c.carrier, name) is not kept
    assert run(4, copies) == (0, 0)
    for c in copies:
        c.carrier.verdicts.clear()
    assert run(5, copies) == (0, 20)
    for c in copies:
        c.carrier.verdicts.clear()
        c.carrier.degrees.clear()
    assert run(6, copies) == (0, 32)
    assert sum(len(h.carrier.verdicts) for h in hyps) == 32
    assert all(r == runs[0] for r in runs) and len(runs[0]) == 26
    for h in hyps:
        for mode in ("some", "each"):
            ref = oracles.reference_vclean(cx, h, mode, budget)
            _assert_matches_but_for_fewer_stats(
                json.loads(runs[0][h.id, mode]), outcome_to_doc(ref))


def test_prepared_data_dies_with_its_complex():
    """The presentation, coset tables, carriers and verdicts a search
    prepares are kept on the objects they come from and nowhere else:
    once a complex and its hyperplanes are dropped, the complex is
    freed.  Run on two hyperplanes of D in both modes, and on the rung
    of a helpers.RUNG_DOUBLES double, whose "each" witness is a regular
    closure, so that its verdicts come from the scan and the closure."""
    cx = helpers.doubled_complex()
    hyps = hyperplanes(cx)
    for h in hyps[:2]:
        for mode in ("some", "each"):
            semi_decide_virtually_clean(cx, h, mode, SearchBudget(2))
    loop_survives(cx, pi1_presentation(cx, 0).generator_loop(1),
                  SearchBudget(2))
    for connected in (False, True):
        list(itertools.islice(iter_covers(cx, 2, connected=connected,
                                          up_to_conjugacy=connected), 3))
    seed, loop, _ = helpers.RUNG_DOUBLES[2]
    dbl = helpers.rung_double(seed, loop)
    out = semi_decide_virtually_clean(dbl.complex, dbl.hyperplane, "each",
                                      SearchBudget(3))
    assert out.witness.cover.degree == 6
    assert any(len(key[0]) == 6 for key in dbl.hyperplane.carrier.verdicts)
    alive = [weakref.ref(cx), weakref.ref(dbl.complex)]
    del cx, hyps, h, dbl, out
    gc.collect()
    assert [ref() for ref in alive] == [None, None]


def test_vclean_decides_covers_satisfying_the_carrier_relators(
        monkeypatch):
    """Every carrier key whose cleanness the search decides satisfies the
    relators of the squares its hyperplane crosses."""
    real = Carrier.cleanness
    decided = []

    def checking(self, key):
        assert self is h.carrier
        if key not in self.verdicts:
            images = dict(zip(self.edges, key))
            ident = perm.identity(len(key[0]))
            for i, _ in h.midcubes:
                p = ident
                for dart in h.complex.squares[i]:
                    q = images[abs(dart)]
                    p = perm.compose(p, q if dart > 0 else perm.inverse(q))
                assert p == ident
            decided.append(len(key[0]))
        return real(self, key)
    monkeypatch.setattr(Carrier, "cleanness", checking)
    for name in ("doubled", "mixed_carrier"):
        cx = helpers.load_complex(name)
        for h in hyperplanes(cx):
            semi_decide_virtually_clean(cx, h, "each",
                                        SearchBudget(3, max_nodes=20_000))
    assert 3 in decided


def test_vclean_checks_a_subsequence_of_the_classes_skipping_dirty_ones(
        monkeypatch):
    """The classes the vclean scan checks in a degree are an in-order
    subsequence of those the low-index search yields when it watches
    the same carrier with a callback that never cuts, and every class it
    skips, up to its witness, has no clean component on its realized
    cover.  The degrees scanned are 1 and every degree from the least
    one of a clean carrier class (oracles.least_clean_carrier_degree) up
    to the witness's; every class of a degree skipped before it is
    skipped.  Status and witness are the per-cover reference's, byte for
    byte.  Run over
    _vclean_tasks() and every hyperplane of the seeded random complexes
    to degree 4.  The uncut search is walked within the task's node
    cap, once per complex, carrier and degree unless the walk hits the
    cap (oracles.carrier_first_classes), which only D's hyperplane 13 at
    degree 3 does: D has
    163,121 classes of degree 3, which the row-major search lists in
    22.9 M definitions, and the scan checks none of them."""
    scanned = []    # the degrees the scan asks for
    checked = []    # (degree, assignment) handed to the scan's check
    real = search._quotients

    def recording(pres, **kwargs):
        quotients = real(pres, **kwargs)

        def candidates(d, node_budget):
            scanned.append(d)
            for assignment in quotients(d, node_budget):
                checked.append((d, assignment))
                yield assignment
        return candidates
    monkeypatch.setattr(search, "_quotients", recording)
    tasks = [(cx, h, mode, budget)
             for _, cx, h, mode, budget in _vclean_tasks()]
    for seed in range(45):
        cx = helpers.random_vh_complex(random.Random(seed))
        if is_connected_complex(cx):
            tasks += [(cx, h, mode, SearchBudget(4, max_nodes=20_000))
                      for h in hyperplanes(cx) for mode in ("some", "each")]
    skipped = capped = 0
    for cx, h, mode, budget in tasks:
        del scanned[:], checked[:]
        out = semi_decide_virtually_clean(cx, h, mode, budget)
        assert not out.stats.cap_hit
        reached = max(scanned) if out.found else budget.max_degree
        first = oracles.least_clean_carrier_degree(cx, h, reached)
        assert scanned == [1] + ([] if first is None
                                 else list(range(first, reached + 1)))
        ref = oracles.reference_vclean(cx, h, mode, budget)
        doc, ref_doc = outcome_to_doc(out), outcome_to_doc(ref)
        for name in ("status", "witness"):
            assert canonical_json(doc[name]) == canonical_json(ref_doc[name])
        pres = pi1_presentation(cx, 0)
        watch = oracles.carrier_watch(cx, h)[0]
        for d in range(1, reached + 1):
            classes, cap_hit = oracles.carrier_first_classes(
                cx, watch, d, budget.max_nodes)
            unpruned = iter(classes)
            passed = []
            for a in (a for dd, a in checked if dd == d):
                for b in unpruned:
                    if b == a:
                        break
                    passed.append(b)
                else:
                    raise AssertionError("%r is not yielded in order" % (a,))
            if not out.found or d < reached:
                passed.extend(unpruned)
                capped += cap_hit
            for b in passed:
                cover = cover_from_assignment(cx, pres, d, b)
                assert not any(clean for _, clean
                               in oracles.cleanness(cover, h))
            skipped += len(passed)
    assert len(tasks) == 304 and skipped > 0 and capped == 2


def test_vclean_prunes_the_dirty_carrier_keys_of_the_rung():
    """At degree 2 the first class of D with a clean component of the
    rung hyperplane 67 is the 148th in row-major order, and the 147
    before it read the other 7 carrier keys, all dirty: the row-major
    scan checks 149 classes, the trivial cover included, in 997
    definitions.  The carrier's columns are filled first, and a closed
    carrier orbit that is dirty is cut when no clean carrier class fits
    in the cosets left: the orbit {0}, dirty like the trivial cover,
    as soon as it closes, since the least clean carrier class has
    degree 2, and at degree 2 a dirty orbit on both cosets.  That
    leaves 2 classes in 52 definitions, where the cut of the fixed full
    key took 55.  Before that scan, the carrier presentation's
    low-index search meets a clean class of degree 2 in 31 definitions:
    83 in all."""
    cx = helpers.load_complex("doubled")
    h = hyperplane_of_edge(hyperplanes(cx), 67)
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(cx, h, mode, SearchBudget(2))
        assert out.found and out.witness.cover.degree == 2
        assert out.stats == SearchStats(homs_tried=2, covers_realized=2,
                                        nodes=83, cap_hit=False)
        assert h.carrier.degrees == {2: (31, True)}


def test_vclean_on_the_rung_doubles_finds_the_least_degree_of_the_loop():
    """On the rung of each of helpers.RUNG_DOUBLES, vclean to degree 3
    finds its least degree, 3, the one loop_survives finds for the
    doubling loop, after checking 2 classes in the pinned number of
    definitions, in both modes.  In "each" mode the witness is the
    regular closure of the degree-3 cover, of degree 6.  Each rung has a
    clean carrier class of degree 2, which the pinned definitions
    include, so no degree is skipped."""
    for seed, loop, nodes in helpers.RUNG_DOUBLES:
        dbl = helpers.rung_double(seed, loop)
        survival = loop_survives(dbl.pair.complex, dbl.loop, SearchBudget(3))
        assert survival.found and survival.witness.cover.degree == 3
        for mode in ("some", "each"):
            out = semi_decide_virtually_clean(dbl.complex, dbl.hyperplane,
                                              mode, SearchBudget(3))
            assert out.found, (seed, mode)
            assert (out.stats.homs_tried, out.stats.nodes) == (2, nodes)
            assert out.witness.cover.degree == (3 if mode == "some" else 6)


def test_vclean_exhausts_doubled_hyperplane_13_to_degree_3():
    """No class of D of degree 1 to 3 has a clean component of
    hyperplane 13: no transitive action of degree 2 or 3 of its carrier
    presentation (7 letters, 5 relators) has one, so both degrees are
    skipped.  Only the trivial cover is checked, in 9 definitions, and
    the carrier classes cost 11 and 55: 75 in all, where the pruned scan
    of pi1 took 4,751 and the row-major scan 22.9 M."""
    cx = helpers.load_complex("doubled")
    h = hyperplane_of_edge(hyperplanes(cx), 13)
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(cx, h, mode, SearchBudget(3))
        assert out.status == "EXHAUSTED" and out.witness is None
        assert out.stats == SearchStats(homs_tried=1, covers_realized=1,
                                        nodes=75, cap_hit=False)
        assert h.carrier.degrees == {2: (11, False), 3: (55, False)}


def test_vclean_exhausts_doubled_hyperplanes_13_and_46_to_degree_4():
    """Hyperplanes 13 and 46 of D have no clean carrier class of degree
    2 to 4 either, so vclean to degree 4 is EXHAUSTED after the trivial
    cover, in 9 + 11 + 55 + 301 = 376 definitions, where the scan of pi1
    took 15.2 M (about 2 minutes) for hyperplane 13.  Both modes, on a
    fresh hyperplane and on one that kept its degrees, under a cap of
    376 and not under one of 375."""
    for hid in (13, 46):
        for mode in ("some", "each"):
            h = hyperplane_of_edge(
                hyperplanes(helpers.load_complex("doubled")), hid)
            for cap in (None, 376, 375):
                out = semi_decide_virtually_clean(
                    h.complex, h, mode, SearchBudget(4, max_nodes=cap))
                assert out.status == "EXHAUSTED" and out.witness is None
                assert out.stats == SearchStats(
                    homs_tried=1, covers_realized=1,
                    nodes=376 if cap is None else cap, cap_hit=cap == 375)
                assert h.carrier.degrees == {2: (11, False), 3: (55, False),
                                             4: (301, False)}
            fresh = hyperplane_of_edge(
                hyperplanes(helpers.load_complex("doubled")), hid)
            out = semi_decide_virtually_clean(
                fresh.complex, fresh, mode, SearchBudget(4, max_nodes=375))
            assert out.stats.cap_hit and out.stats.nodes == 375
            assert fresh.carrier.degrees == {2: (11, False), 3: (55, False)}


def test_vclean_finds_doubled_hyperplanes_13_28_46_61_at_degree_5():
    """Hyperplanes 13, 28, 46 and 61 of D have no clean carrier class of
    degree 2 to 4, and a clean one of degree 5, which the carrier
    presentation's search meets in 231 definitions for 13 and 46 and in
    504 for 28 and 61.  So the scan of degree 5 cuts every carrier orbit
    of fewer than 5 cosets as it closes, and the first class it yields
    has a clean component: FOUND at degree 5 in 870, 1,415, 868 and
    1,414 definitions, 376 of them for degrees 1 to 4, where the cut of
    the fixed full key met a 60 M cap after about 10 minutes on
    hyperplane 13.  In "each" mode the witness is the degree-5 cover's
    regular closure, of degree 120.  Every witness revalidates."""
    for hid, nodes in ((13, 870), (28, 1415), (46, 868), (61, 1414)):
        for mode in ("some", "each"):
            cx = helpers.load_complex("doubled")
            h = hyperplane_of_edge(hyperplanes(cx), hid)
            out = semi_decide_virtually_clean(cx, h, mode, SearchBudget(5))
            assert out.found, (hid, mode)
            assert out.stats == SearchStats(
                homs_tried=2, covers_realized=2 if mode == "some" else 3,
                nodes=nodes, cap_hit=False), (hid, mode)
            assert out.witness.cover.degree == (5 if mode == "some"
                                                else 120)
            assert [clean for _, (_, clean)
                    in sorted(h.carrier.degrees.items())] \
                == [False, False, False, True]
            assert revalidate_witness(out.witness, complex=cx, hyperplane=h)


def test_vclean_certificate_keeps_status_least_degree_and_witness(
        monkeypatch):
    """Skipping the degrees with no clean carrier class, and cutting
    each dirty closed carrier orbit that leaves no room for a clean
    one, keep the outcome of the scan that scans every degree and cuts
    only a fixed full key (oracles.reference_pruned_vclean) but for the
    statistics: status, and on every FOUND the witness, its degree and
    its component id, byte for byte.  The scan of pi1 spends no more
    definitions than the reference's on any task, and fewer in all;
    the carrier classes' definitions (has_clean_class) come on top.
    Run in both modes on every hyperplane of the connected seeded random
    complexes 0-44 to degree 4 under a 20,000-definition cap and of D
    to degree 2, on the rung of each of the seven rung doubles to degree
    3, and on bad_vh's hyperplane 1 to degree 6.  The certificate,
    Carrier.has_clean_class, agrees with
    oracles.least_clean_carrier_degree, and both of its directions
    hold: where no carrier class of degree 1 up to the bound is clean,
    the scan finds nothing; and a witness of degree d comes with a clean
    carrier class of degree at most d.  No task hits its cap.  The rung
    of double75 to degree 2 is pinned as the case where a clean carrier
    class exists and the search is still EXHAUSTED."""
    tasks = []
    for seed in range(45):
        cx = helpers.random_vh_complex(random.Random(seed))
        if is_connected_complex(cx):
            tasks += [(cx, h, SearchBudget(4, max_nodes=20_000))
                      for h in hyperplanes(cx)]
    assert len(tasks) == 123
    for seed, loop, _ in helpers.RUNG_DOUBLES:
        dbl = helpers.rung_double(seed, loop)
        tasks.append((dbl.complex, dbl.hyperplane, SearchBudget(3)))
    cx = helpers.doubled_complex()
    tasks += [(cx, h, SearchBudget(2)) for h in hyperplanes(cx)]
    cx = helpers.load_complex("bad_vh")
    tasks.append((cx, hyperplanes(cx)[0], SearchBudget(6)))
    spent = []    # the definitions of each has_clean_class call

    def certifying(self, d, node_budget):
        start = node_budget.nodes
        try:
            return real(self, d, node_budget)
        finally:
            spent.append(node_budget.nodes - start)
    real = Carrier.has_clean_class
    monkeypatch.setattr(Carrier, "has_clean_class", certifying)
    certified = found = scan_nodes = ref_nodes = 0
    for cx, h, budget in tasks:
        carrier = h.carrier
        least = next((d for d in range(2, budget.max_degree + 1)
                      if carrier.has_clean_class(d, perm.NodeBudget())),
                     None)
        assert least == oracles.least_clean_carrier_degree(
            cx, h, budget.max_degree)
        # the one component of the trivial cover decides degree 1
        if any(ok for _, ok in carrier.cleanness(
                tuple((0,) for _ in carrier.edges))):
            least = 1
        for mode in ("some", "each"):
            del spent[:]
            out = semi_decide_virtually_clean(cx, h, mode, budget)
            ref = oracles.reference_pruned_vclean(cx, h, mode, budget)
            assert not out.stats.cap_hit and not ref.stats.cap_hit
            # the scan of pi1 spends no more than the full-key cut
            assert out.stats.nodes - sum(spent) <= ref.stats.nodes
            scan_nodes += out.stats.nodes - sum(spent)
            ref_nodes += ref.stats.nodes
            doc, ref_doc = outcome_to_doc(out), outcome_to_doc(ref)
            for name in ("status", "witness"):
                assert canonical_json(doc[name]) == \
                    canonical_json(ref_doc[name])
            if least is None:
                assert not ref.found
                certified += 1
            if ref.found:
                assert least is not None
                assert least <= ref.witness.cover.degree
                assert revalidate_witness(out.witness, complex=cx,
                                          hyperplane=h)
                found += 1
    assert (certified, found) == (22, 266)
    assert scan_nodes < ref_nodes

    # the paper's non-locality in miniature: the rung of double75 has a
    # clean carrier class of degree 2, so degree 2 is scanned, and yet
    # no cover of degree at most 2 has a clean component; the loop it
    # doubles along first survives in degree 3
    cx = helpers.load_complex("double75")
    h = hyperplane_of_edge(hyperplanes(cx), 15)
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(cx, h, mode, SearchBudget(2))
        ref = oracles.reference_pruned_vclean(cx, h, mode, SearchBudget(2))
        assert out.status == ref.status == "EXHAUSTED"
        assert out.stats == SearchStats(homs_tried=1, covers_realized=1,
                                        nodes=78, cap_hit=False)
        assert h.carrier.degrees == {2: (31, True)}


def test_vclean_exhausts_bad_vh_to_degree_5():
    """No class of bad_vh of degree 1 to 5 has a clean component of
    hyperplane 1, and no carrier class of degree 2 to 5 has one either:
    only the trivial cover is checked, and the carrier classes take the
    2,280 definitions the pruned scan of pi1 took for 134 classes."""
    cx = helpers.load_complex("bad_vh")
    h = hyperplanes(cx)[0]
    for mode in ("some", "each"):
        out = semi_decide_virtually_clean(cx, h, mode, SearchBudget(5))
        assert out.status == "EXHAUSTED" and out.witness is None
        assert out.stats == SearchStats(1, 1, 2280, False)


def test_vclean_input_checks():
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    with pytest.raises(ValueError):
        semi_decide_virtually_clean(t, h, "all", SearchBudget(2))
    for mode in (None, 1, b"some"):
        with pytest.raises(ValueError, match="mode must be"):
            semi_decide_virtually_clean(t, h, mode, SearchBudget(2))
    k = helpers.load_complex("klein")
    with pytest.raises(ValueError):
        semi_decide_virtually_clean(k, h, "some", SearchBudget(2))


@pytest.mark.parametrize("name", ["bad_closure", "bad_length"])
def test_searches_reject_structurally_invalid_complexes(name):
    cx = helpers.load_complex(name)
    with pytest.raises(ValueError, match="structurally invalid"):
        loop_survives(cx, EdgePath(0, (1,)), SearchBudget(2))
    h = Hyperplane(cx, frozenset([1]), ())
    with pytest.raises(ValueError, match="structurally invalid"):
        semi_decide_virtually_clean(cx, h, "some", SearchBudget(2))
    for flags in ({}, {"connected": True, "up_to_conjugacy": True}):
        with pytest.raises(ValueError, match="structurally invalid"):
            enumerate_covers(cx, 2, **flags)
        with pytest.raises(ValueError, match="structurally invalid"):
            list(iter_covers(cx, 1, **flags))
    with pytest.raises(ValueError, match="structurally invalid"):
        hyperplanes(cx)
    with pytest.raises(ValueError, match="structurally invalid"):
        regular_closure(Cover(cx, 1, ((0,),) * cx.num_edges))


def test_certificate_round_trip_on_klein_double():
    k = helpers.load_complex("klein")
    loop = EdgePath(0, (1,))
    dbl = double_along_loop(pointed_pair(k, 0), loop)
    out = loop_survives(k, loop, SearchBudget(max_degree=4))
    assert out.found
    base_cover, sheet = out.witness.cover, out.witness.sheet

    z_cover, comp = clean_cover_from_survival(dbl, base_cover, sheet)
    assert is_clean(comp).clean
    assert z_cover.base is dbl.complex

    back = survival_from_clean_cover(dbl, z_cover, comp)
    assert revalidate_witness(back, complex=k)
    assert transport(back.cover, loop.word)[back.sheet] != back.sheet

    # picking the sheet automatically gives the first moved one
    z2, comp2 = clean_cover_from_survival(dbl, base_cover)
    assert comp2.id == comp.id


def test_certificate_conversion_rejects_non_survivors():
    t = helpers.load_complex("torus")
    loop = EdgePath(0, (1,))
    dbl = double_along_loop(pointed_pair(t, 0), loop)
    ident = Cover(t, 2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        clean_cover_from_survival(dbl, ident)
    moved = Cover(t, 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        clean_cover_from_survival(dbl, moved, sheet=5)
    with pytest.raises(ValueError):
        survival_from_clean_cover(dbl, moved, dbl.hyperplane)


def test_revalidation_rejects_tampering():
    z2 = helpers.load_presentation("z_squared")
    good = probe_profinite_triviality(
        z2, budget=SearchBudget(max_degree=2)).witness
    assert revalidate_witness(good, pres=z2)
    assert not revalidate_witness(
        QuotientWitness(2, ((1, 0), (0, 1)), (1,)), pres=z2)
    assert not revalidate_witness(
        QuotientWitness(2, ((0, 1),), (1,)), pres=z2)
    assert not revalidate_witness(
        QuotientWitness(2, ((2, 0),), (1,)), pres=z2)

    t = helpers.load_complex("torus")
    lw = loop_survives(t, EdgePath(0, (1,)), SearchBudget(2)).witness
    assert not revalidate_witness(
        LoopWitness(lw.cover, lw.loop, 5), complex=t)
    assert not revalidate_witness(
        LoopWitness(lw.cover, EdgePath(0, (2,)), 0), complex=t)
    bad_cover = Cover(t, 3, ((1, 0, 2), (0, 2, 1)))   # square relation fails
    assert not revalidate_witness(
        LoopWitness(bad_cover, lw.loop, 0), complex=t)

    h = hyperplane_of_edge(hyperplanes(t), 1)
    vw = semi_decide_virtually_clean(t, h, "some", SearchBudget(1)).witness
    assert not revalidate_witness(
        VCleanWitness("some", h.id, vw.cover, 99), complex=t, hyperplane=h)
    disconnected = Cover(t, 2, ((0, 1), (0, 1)))
    assert not revalidate_witness(
        VCleanWitness("some", h.id, disconnected, 1),
        complex=t, hyperplane=h)
    with pytest.raises(TypeError):
        revalidate_witness("nonsense")
