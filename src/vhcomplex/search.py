"""Bounded semi-decision searches.

Each search scans finite quotients or finite covers in a fixed order up
to a degree bound and either returns a FOUND outcome with a checkable
witness or EXHAUSTED.  EXHAUSTED never proves absence; it only reports
that no witness exists within the budget.

Witnesses are self-contained: a quotient witness re-checks by mapping
the relators and the certified word through its images, a cover witness
by transporting the certified loop, a cleanness witness by realizing the
cover and re-running the cleanness test.  The revalidate_* functions do
exactly that and nothing else.

The quotient and loop searches scan homomorphisms in lexicographic
order.  Their worker parallelism partitions the image of the first
generator round robin.  Every worker scans its slice in ascending order
and keeps its first find, and the reported witness is the least find
across workers, so the witness does not depend on the worker count.
Deterministic mode forces a single sequential scan; only the visit
statistics can differ between the modes.  The virtual-cleanness search
scans connected covers up to conjugacy with Sims' low-index search,
sequentially whatever the worker count, one class at a time in the
order that search finds them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

from . import permutations as perm
from .complexes import (EdgePath, SquareComplex, free_reduce,
                        structural_violations, trace)
from .constructions import DoubledComplex
from .covers import (Cover, cover_from_assignment, is_connected, iter_covers,
                     preimage_cleanness, preimage_hyperplane_components,
                     pullback_cover, regular_closure, transport,
                     validate_cover)
from .hyperplanes import Hyperplane, is_clean
from .presentations import GroupPresentation, parse_word, pi1_presentation

FOUND = "FOUND"
EXHAUSTED = "EXHAUSTED"

WORKERS_ENV = "VHCOMPLEX_WORKERS"


@dataclass(frozen=True)
class SearchBudget:
    """Degree bound, optional node cap, and scan discipline."""
    max_degree: int
    max_nodes: Optional[int] = None
    deterministic: bool = False
    workers: Optional[int] = None

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must not be negative")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must not be negative")

    def effective_workers(self) -> int:
        if self.deterministic:
            return 1
        w = self.workers
        if w is None:
            raw = os.environ.get(WORKERS_ENV, "1")
            try:
                w = int(raw)
            except ValueError:
                raise ValueError("%s must be an integer worker count, "
                                 "not %r" % (WORKERS_ENV, raw)) from None
        return max(1, w)


@dataclass
class SearchStats:
    homs_tried: int = 0
    covers_realized: int = 0
    nodes: int = 0
    cap_hit: bool = False


@dataclass(frozen=True)
class QuotientWitness:
    """A finite quotient where the certified word has nontrivial image."""
    degree: int
    images: tuple      # one permutation per presentation generator
    word: tuple        # the certified word, signed generator indices


@dataclass(frozen=True)
class LoopWitness:
    """A cover in which the certified loop lifts non-closed."""
    cover: Cover
    loop: EdgePath
    sheet: int         # a sheet the loop's transport moves


@dataclass(frozen=True)
class VCleanWitness:
    """A connected cover whose preimage components certify cleanness."""
    mode: str                    # "some" or "each"
    hyperplane_id: int           # least dual edge in the base
    cover: Cover
    component_id: Optional[int]  # least dual edge upstairs, "some" only


Witness = Union[QuotientWitness, LoopWitness, VCleanWitness]


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: Optional[Witness]
    budget: SearchBudget
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == FOUND


class _SharedBudget(perm.NodeBudget):
    """Node budget safe to spend from several worker threads."""

    def __init__(self, cap):
        super().__init__(cap)
        self._lock = threading.Lock()

    def spend(self):
        with self._lock:
            return super().spend()


def _first_moved(p) -> Optional[int]:
    for i, x in enumerate(p):
        if x != i:
            return i
    return None


def _partitions(d: int, workers: int, num_gens: int):
    """Slices of the first generator's image set, one per worker.

    None means an unrestricted scan; with no generators there is nothing
    to split, so a single worker covers the one empty assignment.
    """
    if workers <= 1 or num_gens == 0:
        return [None]
    ap = perm.all_permutations(d)
    parts = [ap[w::workers] for w in range(workers)]
    return [p for p in parts if p] or [None]


def _scan_degree(num_gens, relators, d, predicate, budget: SearchBudget,
                 node_budget):
    """One degree level of a quotient scan.

    Returns ((assignment, payload) or None, homs tried).  The assignment
    returned is the lexicographically least one any worker accepted.
    """
    parts = _partitions(d, budget.effective_workers(), num_gens)
    tried = [0] * len(parts)
    results = [None] * len(parts)

    def run(w):
        for a in perm.iter_homs(num_gens, relators, d,
                                first_images=parts[w], budget=node_budget):
            tried[w] += 1
            payload = predicate(a)
            if payload is not None:
                results[w] = (a, payload)
                return

    if len(parts) == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=len(parts)) as ex:
            list(ex.map(run, range(len(parts))))
    finds = [r for r in results if r is not None]
    if finds:
        return min(finds, key=lambda r: r[0]), sum(tried)
    return None, sum(tried)


def _require_structure(cx: SquareComplex):
    if structural_violations(cx):
        raise ValueError("complex is structurally invalid; "
                         "run validate for details")


def _as_word(word, pres: GroupPresentation) -> tuple:
    if isinstance(word, str):
        return parse_word(word, pres.generators)
    return tuple(word)


def element_survives(pres: GroupPresentation, word,
                     budget: SearchBudget) -> SearchOutcome:
    """Look for a finite quotient where the word has nontrivial image.

    Scans homomorphisms to symmetric groups of degree 2 up to the bound.
    FOUND proves the word is nontrivial in the group; EXHAUSTED says
    nothing beyond the bound.
    """
    word = _as_word(word, pres)
    stats = SearchStats()
    node_budget = _SharedBudget(budget.max_nodes)
    if free_reduce(word):
        n = pres.num_generators
        for d in range(2, budget.max_degree + 1):
            ident = perm.identity(d)

            def predicate(a):
                images = dict(enumerate(a, start=1))
                if perm.word_image(word, images, d) != ident:
                    return True
                return None

            find, tried = _scan_degree(n, pres.relators, d, predicate,
                                       budget, node_budget)
            stats.homs_tried += tried
            stats.nodes = node_budget.nodes
            stats.cap_hit = node_budget.cap_hit
            if find is not None:
                a, _ = find
                return SearchOutcome(FOUND, QuotientWitness(d, a, word),
                                     budget, stats)
            if node_budget.cap_hit:
                break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED, None, budget, stats)


def probe_profinite_triviality(pres: GroupPresentation, word=None,
                               budget: SearchBudget = None) -> SearchOutcome:
    """Look for any nontrivial finite quotient of the presentation.

    FOUND exhibits a quotient where some generator survives, certifying
    the group is nontrivial.  With a word, this is element_survives for
    that word.  EXHAUSTED means every homomorphism to S_d within the
    budget kills everything, which is evidence, never proof, of
    triviality.
    """
    if word is not None:
        return element_survives(pres, word, budget)
    stats = SearchStats()
    node_budget = _SharedBudget(budget.max_nodes)
    n = pres.num_generators
    for d in range(2, budget.max_degree + 1):
        ident = perm.identity(d)

        def predicate(a):
            for k, p in enumerate(a, start=1):
                if p != ident:
                    return k
            return None

        find, tried = _scan_degree(n, pres.relators, d, predicate,
                                   budget, node_budget)
        stats.homs_tried += tried
        stats.nodes = node_budget.nodes
        stats.cap_hit = node_budget.cap_hit
        if find is not None:
            a, k = find
            return SearchOutcome(FOUND, QuotientWitness(d, a, (k,)),
                                 budget, stats)
        if node_budget.cap_hit:
            break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED, None, budget, stats)


def loop_survives(cx: SquareComplex, loop: EdgePath,
                  budget: SearchBudget) -> SearchOutcome:
    """Look for a finite cover in which the loop lifts non-closed.

    Equivalent to the loop's class surviving in some finite quotient of
    the fundamental group; the witness is returned as an actual cover
    with identity tree edges, plus a sheet its transport moves.
    Raises ValueError on a structurally invalid complex.
    """
    _require_structure(cx)
    pres = pi1_presentation(cx, loop.start)
    word = pres.loop_word(loop)
    stats = SearchStats()
    node_budget = _SharedBudget(budget.max_nodes)
    if word:
        n = len(pres.generators)
        for d in range(2, budget.max_degree + 1):
            ident = perm.identity(d)

            def predicate(a):
                images = dict(enumerate(a, start=1))
                img = perm.word_image(word, images, d)
                if img != ident:
                    return _first_moved(img)
                return None

            find, tried = _scan_degree(n, pres.relators, d, predicate,
                                       budget, node_budget)
            stats.homs_tried += tried
            stats.nodes = node_budget.nodes
            stats.cap_hit = node_budget.cap_hit
            if find is not None:
                a, sheet = find
                cover = cover_from_assignment(cx, pres, d, a)
                stats.covers_realized += 1
                return SearchOutcome(FOUND, LoopWitness(cover, loop, sheet),
                                     budget, stats)
            if node_budget.cap_hit:
                break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED, None, budget, stats)


def semi_decide_virtually_clean(cx: SquareComplex, h: Hyperplane, mode: str,
                                budget: SearchBudget) -> SearchOutcome:
    """Look for a finite cover certifying virtual cleanness.

    mode "some": a connected cover where some component of the
    hyperplane's preimage is clean.  mode "each": one where every
    component is clean.  Covers are scanned by ascending degree from 1,
    one representative per conjugacy class, as covers.iter_covers gives
    them: the least standard coset table of each class, in the low-index
    search's order.  The budget's nodes are that search's definitions,
    and its worker count is ignored.  In "each" mode a cover with
    a clean component but dirty siblings promotes to its regular closure,
    whose homogeneity usually cleans every component; the closure is
    checked honestly and only reported if it passes.  Components are
    checked from the permutations by preimage_cleanness, never by
    realizing a total space; revalidate_vclean_witness does realize the
    witness cover.  homs_tried counts the covers checked, and
    covers_realized counts those plus the closures checked.  Raises
    ValueError on a structurally invalid complex.
    """
    _require_structure(cx)
    mode = mode.lower()
    if mode not in ("some", "each"):
        raise ValueError("mode must be 'some' or 'each'")
    if h.complex != cx:
        raise ValueError("hyperplane is not from this complex")
    pres = pi1_presentation(cx, 0)
    stats = SearchStats()
    node_budget = perm.NodeBudget(budget.max_nodes)

    def check(cover):
        stats.homs_tried += 1
        stats.covers_realized += 1
        comps = preimage_cleanness(cover, h)
        if mode == "some":
            for cid, clean in comps:
                if clean:
                    return VCleanWitness(mode, h.id, cover, cid)
            return None
        if all(clean for _, clean in comps):
            return VCleanWitness(mode, h.id, cover, None)
        if any(clean for _, clean in comps):
            closure = regular_closure(cover).cover
            stats.covers_realized += 1
            if all(clean for _, clean in preimage_cleanness(closure, h)):
                return VCleanWitness(mode, h.id, closure, None)
        return None

    for d in range(1, budget.max_degree + 1):
        for cover in iter_covers(cx, d, connected=True, up_to_conjugacy=True,
                                 pres=pres, budget=node_budget):
            witness = check(cover)
            if witness is not None:
                stats.nodes = node_budget.nodes
                return SearchOutcome(FOUND, witness, budget, stats)
        if node_budget.cap_hit:
            break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED, None, budget, stats)


# ---------------------------------------------------------------------------
# witness revalidation


def revalidate_quotient_witness(pres: GroupPresentation,
                                w: QuotientWitness) -> bool:
    d = w.degree
    if len(w.images) != pres.num_generators:
        return False
    if not all(perm.is_permutation(p, d) for p in w.images):
        return False
    images = dict(enumerate(w.images, start=1))
    ident = perm.identity(d)
    if any(perm.word_image(r, images, d) != ident for r in pres.relators):
        return False
    return perm.word_image(w.word, images, d) != ident


def revalidate_loop_witness(cx: SquareComplex, w: LoopWitness) -> bool:
    if w.cover.base != cx:
        return False
    try:
        if not validate_cover(w.cover):
            return False
        trace(cx, w.loop)
    except ValueError:
        return False
    if not (0 <= w.sheet < w.cover.degree):
        return False
    return transport(w.cover, w.loop.word)[w.sheet] != w.sheet


def revalidate_vclean_witness(cx: SquareComplex, h: Hyperplane,
                              w: VCleanWitness) -> bool:
    if w.cover.base != cx or w.hyperplane_id != h.id:
        return False
    try:
        if not validate_cover(w.cover):
            return False
    except ValueError:
        return False
    if not is_connected(w.cover):
        return False
    comps = preimage_hyperplane_components(w.cover, h)
    if w.mode == "some":
        for comp in comps:
            if comp.id == w.component_id:
                return is_clean(comp).clean
        return False
    if w.mode == "each":
        return bool(comps) and all(is_clean(c).clean for c in comps)
    return False


def revalidate_witness(w: Witness, *, pres=None, complex=None,
                       hyperplane=None) -> bool:
    """Dispatch on the witness type; pass the matching problem inputs."""
    if isinstance(w, QuotientWitness):
        return revalidate_quotient_witness(pres, w)
    if isinstance(w, LoopWitness):
        return revalidate_loop_witness(complex, w)
    if isinstance(w, VCleanWitness):
        return revalidate_vclean_witness(complex, hyperplane, w)
    raise TypeError("not a witness: %r" % (w,))


# ---------------------------------------------------------------------------
# survival and cleanness certificates convert into each other


def clean_cover_from_survival(double: DoubledComplex, base_cover: Cover,
                              sheet: Optional[int] = None):
    """Turn a cover where the doubling loop survives into a clean
    preimage component.

    Pulls the cover back along the retraction of the doubled complex and
    selects the component of the rung hyperplane through the chosen
    moved sheet's copy of rung 0.  That component is clean exactly
    because the loop's transport moves the sheet: the only possible
    pushing collision is between the two basepoint copies at the ends of
    the doubling loop, which land on different sheets.

    Returns (pulled-back cover, clean component).
    """
    if base_cover.base != double.pair.complex:
        raise ValueError("cover does not cover the doubled pair's complex")
    p = transport(base_cover, double.loop.word)
    if sheet is None:
        sheet = _first_moved(p)
        if sheet is None:
            raise ValueError("loop does not survive in this cover")
    elif not (0 <= sheet < base_cover.degree):
        raise ValueError("no sheet %r" % (sheet,))
    elif p[sheet] == sheet:
        raise ValueError("sheet %d is not moved by the loop" % sheet)
    z_cover = pullback_cover(base_cover, double.retraction)
    comps = preimage_hyperplane_components(z_cover, double.hyperplane)
    d = z_cover.degree
    rung0_lift = (double.rungs[0] - 1) * d + sheet + 1
    for comp in comps:
        if rung0_lift in comp.dual_edges:
            if not is_clean(comp).clean:
                raise AssertionError("selected component is not clean")
            return z_cover, comp
    raise AssertionError("no component contains the chosen rung lift")


def survival_from_clean_cover(double: DoubledComplex, z_cover: Cover,
                              component: Hyperplane):
    """Turn a clean preimage component back into a survival witness.

    Restricting the cover to the copy-0 edges of the underlying complex
    gives a cover of it, and the sheet carrying the component's copy of
    rung 0 is moved by the doubling loop: were it fixed, the component's
    two boundary circles would collide at the basepoint, contradicting
    cleanness.

    Returns a LoopWitness for the doubling loop.
    """
    if z_cover.base != double.complex:
        raise ValueError("cover does not cover the doubled complex")
    d = z_cover.degree
    rung0 = double.rungs[0]
    sheet = None
    for s in range(d):
        if (rung0 - 1) * d + s + 1 in component.dual_edges:
            sheet = s
            break
    if sheet is None:
        raise ValueError("component does not meet the rung hyperplane")
    num_base_edges = double.pair.complex.num_edges
    restricted = Cover(double.pair.complex, d,
                       z_cover.perms[:num_base_edges])
    if not validate_cover(restricted):
        raise AssertionError("copy-0 restriction is not a cover")
    q = transport(restricted, double.loop.word)
    if q[sheet] == sheet:
        raise ValueError("component is not clean at the basepoint")
    return LoopWitness(restricted, double.loop, sheet)
