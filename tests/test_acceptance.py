"""Acceptance suite: one test per advertised guarantee.

Each test is self-contained, seeds its own randomness, and prints one
PASS line; expected values come from independent oracles in oracles.py
or from hand-checked frozen reports in golden/.
"""

import itertools
import json
import math
import random
import time

from vhcomplex import (EdgePath, GroupPresentation, SearchBudget,
                       attach_relators, clean_cover_from_survival,
                       crush_word, double_along_loop, enumerate_covers,
                       enumerate_simple_loops, hyperplane_of_edge,
                       hyperplanes, is_clean, is_normal, is_two_sided,
                       loop_survives, pair_enumerator, pointed_pair,
                       probe_profinite_triviality, regular_closure,
                       revalidate_witness, self_crossing,
                       semi_decide_virtually_clean, subdivide_edges,
                       survival_from_clean_cover, transport, validate)
from vhcomplex import formats
from vhcomplex import permutations as perm
from vhcomplex.cli import console_main

import helpers
import oracles


def _criterion2_complexes():
    rng = random.Random(20260816)
    return [helpers.random_vh_complex(rng) for _ in range(200)]


def test_criterion_01_validation_reports_match_frozen_goldens():
    for name in ("torus", "klein"):
        report = validate(helpers.load_complex(name))
        assert report.all_ok, name
        assert formats.canonical_json(formats.validation_to_doc(report)) \
            == helpers.golden_text(name + ".validation.json"), name

    expected_kinds = {
        "bad_length": "boundary-length",
        "bad_closure": "closure",
        "bad_vh": "vh-alternation",
    }
    for name, kind in expected_kinds.items():
        report = validate(helpers.load_complex(name))
        assert not report.all_ok, name
        assert kind in {v.kind for v in report.violations}, name
        assert formats.canonical_json(formats.validation_to_doc(report)) \
            == helpers.golden_text(name + ".validation.json"), name

    # remaining fixtures are held to their frozen reports as well
    for name in ("theta", "wedge2", "circle"):
        report = validate(helpers.load_complex(name))
        assert report.all_ok
        assert formats.canonical_json(formats.validation_to_doc(report)) \
            == helpers.golden_text(name + ".validation.json")
    print("PASS criterion 1: validation matches frozen reports on all "
          "fixtures")


def test_criterion_02_hyperplane_partition_invariants():
    complexes = _criterion2_complexes()
    assert len(complexes) == 200
    total_hyps = 0
    for cx in complexes:
        hyps = hyperplanes(cx)
        total_hyps += len(hyps)
        assert sum(len(h.dual_edges) for h in hyps) == cx.num_edges
        assert sum(len(h.midcubes) for h in hyps) == 2 * len(cx.squares)
        assert not any(self_crossing(h) for h in hyps)
    print("PASS criterion 2: partition invariants on 200 random complexes "
          "(%d hyperplanes)" % total_hyps)


def test_criterion_03_cleanness_agrees_with_carrier_oracle():
    checked = 0
    for name in helpers.GOOD_FIXTURES:
        cx = helpers.load_complex(name)
        for h in hyperplanes(cx):
            assert is_two_sided(h).two_sided \
                == oracles.oracle_two_sided(cx, h.dual_edges), name
            assert is_clean(h).clean \
                == oracles.oracle_clean(cx, h.dual_edges), name
            checked += 1
    for cx in _criterion2_complexes():
        for h in hyperplanes(cx):
            assert is_two_sided(h).two_sided \
                == oracles.oracle_two_sided(cx, h.dual_edges)
            assert is_clean(h).clean \
                == oracles.oracle_clean(cx, h.dual_edges)
            checked += 1
    print("PASS criterion 3: cleanness oracle agreement on %d hyperplanes"
          % checked)


def _sigma(n):
    return sum(k for k in range(1, n + 1) if n % k == 0)


def test_criterion_04_torus_cover_census():
    # connected degree-d covers of the torus up to isomorphism are the
    # index-d subgroups of Z^2, and there are sigma(d) of them
    expected = {2: 3, 3: 4, 4: 7, 5: 6, 6: 12, 7: 8, 8: 15, 9: 13, 10: 18}
    t = helpers.load_complex("torus")
    started = time.monotonic()
    for d, count in expected.items():
        assert _sigma(d) == count, d
        assert len(enumerate_covers(t, d, connected=True,
                                    up_to_conjugacy=True)) == count, d
        if d <= 5:
            # the oracle's d!-way conjugacy scan takes seconds at d = 6,
            # where sigma(d) alone is the check
            assert oracles.oracle_torus_cover_count(d) == count, d
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print("PASS criterion 4: torus census 3,4,7,6,12,8,15,13,18 for "
          "degrees 2-10 (package and sigma(d); oracle to degree 5, %.1fs)"
          % elapsed)


def test_criterion_05_regular_closures_are_normal():
    rng = random.Random(5)
    done = 0
    while done < 100:
        name = rng.choice(helpers.GOOD_FIXTURES)
        degree = rng.randint(2, 4)
        cover = helpers.random_connected_cover(rng,
                                               helpers.load_complex(name),
                                               degree)
        rc = regular_closure(cover)
        assert is_normal(rc.cover), (name, degree)
        assert math.factorial(degree) % rc.cover.degree == 0, (name, degree)
        done += 1
    print("PASS criterion 5: 100 regular closures normal, degrees divide d!")


def _based_words(cx, max_len=3):
    """Every dart word of length <= max_len tracing a closed walk at 0."""
    words = [()]
    frontier = [((), 0)]
    for _ in range(max_len):
        nxt = []
        for word, at in frontier:
            for eid, e in enumerate(cx.edges, start=1):
                if e.tail == at:
                    nxt.append((word + (eid,), e.head))
                if e.head == at:
                    nxt.append((word + (-eid,), e.tail))
        frontier = nxt
        words.extend(w for w, at in frontier if at == 0)
    return [EdgePath(0, w) for w in words]


def test_criterion_06_loop_survival_matches_cover_enumeration():
    budget = SearchBudget(max_degree=4)
    total = 0
    for name in helpers.GOOD_FIXTURES:
        cx = helpers.load_complex(name)
        moved_at = {}
        for d in (2, 3, 4):
            moved_at[d] = [
                (c, perm.identity(d))
                for c in enumerate_covers(cx, d, connected=True,
                                          up_to_conjugacy=True)]
        for loop in _based_words(cx):
            out = loop_survives(cx, loop, budget)
            min_degree = out.witness.cover.degree if out.found else None
            if out.found:
                assert revalidate_witness(out.witness, complex=cx), name
            for d in (2, 3, 4):
                search_side = min_degree is not None and min_degree <= d
                cover_side = any(
                    transport(c, loop.word) != ident
                    for dd in (2, 3, 4) if dd <= d
                    for c, ident in moved_at[dd])
                assert search_side == cover_side, (name, loop, d)
            total += 1
    print("PASS criterion 6: survival == non-closed lift for %d based "
          "loops across all fixtures, degrees 2-4" % total)


def test_criterion_07_survival_converts_to_clean_component_and_back():
    t = helpers.load_complex("torus")
    loop = EdgePath(0, (1,))
    dbl = double_along_loop(pointed_pair(t, 0), loop)

    out = loop_survives(t, loop, SearchBudget(max_degree=2))
    assert out.found and out.witness.cover.degree == 2

    z_cover, comp = clean_cover_from_survival(dbl, out.witness.cover,
                                              out.witness.sheet)
    assert z_cover.degree == 2 and is_clean(comp).clean

    back = survival_from_clean_cover(dbl, z_cover, comp)
    assert back.cover.degree == 2
    assert revalidate_witness(back, complex=t)
    assert transport(back.cover, loop.word)[back.sheet] != back.sheet
    print("PASS criterion 7: degree-2 survival <-> clean preimage component "
          "on the doubled torus")


def _doubles_for_criterion_08():
    for name in helpers.GOOD_FIXTURES:
        cx = helpers.load_complex(name)
        for loop in enumerate_simple_loops(cx, 0, labels=frozenset(["V"])):
            yield double_along_loop(pointed_pair(cx, 0), loop)
    two = subdivide_edges(helpers.load_complex("torus"), {1: 2}).complex
    for loop in enumerate_simple_loops(two, 0, labels=frozenset(["V"])):
        yield double_along_loop(pointed_pair(two, 0), loop)
    pairs = pair_enumerator(
        iter((GroupPresentation.make(["a"], []),
              GroupPresentation.make(["a", "b"], ["abAB"]))),
        helpers.load_complex("torus"), EdgePath(0, (1,)))
    for item in itertools.islice(pairs, 6):
        yield item.double


def test_criterion_08_doubled_hyperplane_is_never_clean():
    count = 0
    for dbl in _doubles_for_criterion_08():
        assert len(dbl.loop.word) >= 1
        report = is_clean(dbl.hyperplane)
        assert report.two_sided and not report.clean
        collision = (dbl.rungs[0], dbl.rungs[len(dbl.loop.word)])
        witnesses = set(report.self_osculation_witnesses)
        assert (0, "edges", collision) in witnesses, dbl.loop
        assert (1, "edges", collision) in witnesses, dbl.loop
        count += 1
    print("PASS criterion 8: rung hyperplane self-osculates at the "
          "basepoint on both sides for %d doubles" % count)


def test_criterion_09_crushed_loops_generate_the_same_image():
    rng = random.Random(9)
    t = helpers.load_complex("torus")
    core_loop = EdgePath(0, (1,))
    for _ in range(20):
        pres = helpers.random_presentation(rng)
        att = attach_relators(pres, t, core_loop)
        report = validate(att.complex)
        assert report.ok and report.vh, pres

        loops = enumerate_simple_loops(att.complex, 0,
                                       labels=frozenset(["V"]))
        crushed = [crush_word(att.crush, p.word) for p in loops]
        for d in (1, 2, 3):
            for assignment in perm.iter_homs(pres.num_generators,
                                             pres.relators, d):
                images = dict(enumerate(assignment, start=1))
                lhs = perm.mulclose(
                    [perm.word_image(w, images, d) for w in crushed], d)
                rhs = perm.mulclose(assignment, d)
                assert lhs == rhs, (pres, d, assignment)
    print("PASS criterion 9: crushed loop images generate the generator "
          "image subgroup for 20 random presentations, degrees 1-3")


def test_criterion_10_witnesses_revalidate_and_serialize_deterministically(
        capsys):
    z2 = helpers.load_presentation("z_squared")
    free2 = GroupPresentation.make(["a", "b"], [])
    torus = helpers.load_complex("torus")
    klein = helpers.load_complex("klein")
    theta = helpers.load_complex("theta")
    th1 = hyperplane_of_edge(hyperplanes(theta), 1)
    tv = hyperplane_of_edge(hyperplanes(torus), 1)
    budget = SearchBudget(max_degree=4)

    found = [
        (probe_profinite_triviality(z2, budget=budget),
         {"pres": z2}),
        (probe_profinite_triviality(free2, word="ab", budget=budget),
         {"pres": free2}),
        (loop_survives(torus, EdgePath(0, (1,)), budget),
         {"complex": torus}),
        (loop_survives(klein, EdgePath(0, (1,)), budget),
         {"complex": klein}),
        (semi_decide_virtually_clean(theta, th1, "some", budget),
         {"complex": theta, "hyperplane": th1}),
        (semi_decide_virtually_clean(theta, th1, "each", budget),
         {"complex": theta, "hyperplane": th1}),
        (semi_decide_virtually_clean(torus, tv, "some", budget),
         {"complex": torus, "hyperplane": tv}),
    ]
    for outcome, context in found:
        assert outcome.found
        doc = formats.witness_to_doc(outcome.witness,
                                     pres=context.get("pres"),
                                     budget=outcome.budget)
        text = formats.canonical_json(doc)
        reloaded = formats.witness_from_doc(
            json.loads(text), pres=context.get("pres"),
            complex=context.get("complex"))
        assert reloaded == outcome.witness
        assert revalidate_witness(reloaded, **context)

    # repeated CLI runs are byte-identical
    commands = [
        ("search", "loop-survival",
         "--complex", helpers.fixture_path("torus"),
         "--loop", helpers.fixture_path("loop_a")),
        ("search", "profinite-probe",
         "--presentation", helpers.fixture_path("z_squared")),
        ("search", "vclean",
         "--complex", helpers.fixture_path("theta"),
         "--hyperplane", "1", "--mode", "some"),
    ]
    for base in commands:
        outputs = set()
        for _ in range(6):
            code = console_main(list(base) + ["--max-degree", "4"])
            assert code == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, base
    print("PASS criterion 10: 7 witnesses revalidate after serialization; "
          "CLI output is byte-identical across reps")


def test_criterion_11_profinite_probe_answers():
    trivial = helpers.load_presentation("trivial_group")
    out = probe_profinite_triviality(trivial,
                                     budget=SearchBudget(max_degree=4))
    assert not out.found and out.witness is None
    assert out.status == "EXHAUSTED"

    z2 = helpers.load_presentation("z_squared")
    out = probe_profinite_triviality(z2, budget=SearchBudget(max_degree=4))
    assert out.found and out.witness.degree == 2
    assert revalidate_witness(out.witness, pres=z2)
    print("PASS criterion 11: probe exhausts on the trivial presentation "
          "at degree 4 and finds a degree-2 quotient for the cyclic one")
