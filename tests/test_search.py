import pytest

from vhcomplex import (Cover, EdgePath, GroupPresentation, Hyperplane,
                       LoopWitness,
                       QuotientWitness, SearchBudget, VCleanWitness,
                       clean_cover_from_survival, double_along_loop,
                       element_survives, hyperplane_of_edge, hyperplanes,
                       is_clean, loop_survives, pointed_pair,
                       probe_profinite_triviality, revalidate_witness,
                       semi_decide_virtually_clean,
                       survival_from_clean_cover, transport)
from vhcomplex import search as search_module
from vhcomplex.covers import enumerate_covers

import helpers


FREE2 = GroupPresentation.make(["a", "b"], [])


def test_effective_workers(monkeypatch):
    assert SearchBudget(4).effective_workers() == 1
    assert SearchBudget(4, workers=3).effective_workers() == 3
    assert SearchBudget(4, workers=3, deterministic=True) \
        .effective_workers() == 1
    monkeypatch.setenv("VHCOMPLEX_WORKERS", "5")
    assert SearchBudget(4).effective_workers() == 5
    assert SearchBudget(4, workers=0).effective_workers() == 1
    monkeypatch.setenv("VHCOMPLEX_WORKERS", "abc")
    with pytest.raises(ValueError, match="VHCOMPLEX_WORKERS must be an "
                                         "integer worker count, not 'abc'"):
        SearchBudget(4).effective_workers()


def test_element_survives_in_free_group():
    out = element_survives(FREE2, "a", SearchBudget(max_degree=3))
    assert out.found and out.status == "FOUND"
    w = out.witness
    assert isinstance(w, QuotientWitness)
    assert w.degree == 2 and w.word == (1,)
    assert w.images == ((1, 0), (0, 1))       # lexicographically least
    assert out.stats.homs_tried == 3
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
    pres = GroupPresentation.make(["a"], ["a"])
    out = element_survives(pres, "a",
                           SearchBudget(max_degree=6, max_nodes=2))
    assert not out.found
    assert out.stats.cap_hit and out.stats.nodes <= 3


def test_budget_rejects_negative_bounds():
    with pytest.raises(ValueError):
        SearchBudget(max_degree=-3)
    with pytest.raises(ValueError):
        SearchBudget(max_degree=2, max_nodes=-1)
    assert SearchBudget(max_degree=0, max_nodes=0).max_nodes == 0


def test_deterministic_outcome_ignores_worker_request():
    b1 = SearchBudget(max_degree=3, deterministic=True, workers=1)
    b4 = SearchBudget(max_degree=3, deterministic=True, workers=4)
    o1 = element_survives(FREE2, "ab", b1)
    o4 = element_survives(FREE2, "ab", b4)
    assert o1.witness == o4.witness
    assert o1.stats == o4.stats


def test_parallel_witness_matches_sequential():
    seq = element_survives(FREE2, "ab", SearchBudget(max_degree=3))
    par = element_survives(FREE2, "ab", SearchBudget(max_degree=3, workers=4))
    assert par.witness == seq.witness


def test_probe_profinite_triviality():
    tg = helpers.load_presentation("trivial_group")
    out = probe_profinite_triviality(tg, budget=SearchBudget(max_degree=4))
    assert not out.found
    # the only surviving homomorphism per degree is the trivial one
    assert out.stats.homs_tried == 3

    z2 = helpers.load_presentation("z_squared")
    out = probe_profinite_triviality(z2, budget=SearchBudget(max_degree=4))
    assert out.found
    w = out.witness
    assert w.degree == 2 and w.images == ((1, 0),) and w.word == (1,)
    assert revalidate_witness(w, pres=z2)


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
    assert out.stats.homs_tried == 3 and out.stats.covers_realized == 1
    assert revalidate_witness(w, complex=t)


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


def test_vclean_klein_one_sided_base():
    k = helpers.load_complex("klein")
    h = hyperplane_of_edge(hyperplanes(k), 1)
    out = semi_decide_virtually_clean(k, h, "some", SearchBudget(4))
    assert out.found and out.witness.cover.degree == 2
    assert revalidate_witness(out.witness, complex=k, hyperplane=h)


def _count_checked_covers(monkeypatch):
    """Count the covers the vclean scan is handed, one per yield."""
    checked = [0]
    real = search_module.iter_covers

    def counting(*args, **kwargs):
        for cover in real(*args, **kwargs):
            checked[0] += 1
            yield cover
    monkeypatch.setattr(search_module, "iter_covers", counting)
    return checked


def test_vclean_counts_covers_checked(monkeypatch):
    checked = _count_checked_covers(monkeypatch)
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    out = semi_decide_virtually_clean(t, h, "some", SearchBudget(2))
    assert out.found
    assert out.stats.homs_tried == checked[0] == 1
    assert out.stats.covers_realized == 1

    # an exhausted scan checks every connected cover up to conjugacy
    checked[0] = 0
    cx = helpers.load_complex("bad_vh")
    h = hyperplanes(cx)[0]
    out = semi_decide_virtually_clean(cx, h, "some", SearchBudget(3))
    assert not out.found
    assert out.stats.homs_tried == checked[0] == sum(
        len(enumerate_covers(cx, d, connected=True, up_to_conjugacy=True))
        for d in range(1, 4)) == 11


def test_vclean_input_checks():
    t = helpers.load_complex("torus")
    h = hyperplane_of_edge(hyperplanes(t), 1)
    with pytest.raises(ValueError):
        semi_decide_virtually_clean(t, h, "all", SearchBudget(2))
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
