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

Every search scans Sims' low-index search (perm.CosetTables.low_index,
on the tables its presentation holds) in one thread through one loop,
_scan: by ascending degree, one transitive action per conjugacy class,
each as its least standard coset table, in the order that search
completes them.  The budget's nodes are its definitions, and homs_tried
counts the classes checked.  The quotient and loop searches start at
degree 2, and scanning only transitive actions changes none of their
verdicts or least degrees: a word with nontrivial image in some action
of degree d moves a point of some orbit, so it acts nontrivially in a
transitive action of degree at most d, and every transitive action of
degree 2 or more has a generator that is not the identity.  The
virtual-cleanness search starts at degree 1 and reads each class as a
cover with identity tree edges.  Whether a preimage component of the
hyperplane is clean depends only on the permutations on the hyperplane's
carrier edges, and far fewer carrier restrictions occur than classes, so
the hyperplane's compiled carrier keeps the cleanness of the preimage
per carrier restriction, and the search builds a Cover only for a
witness or for a regular closure.  From degree 2 the search has the
low-index search watch the carrier generators, whose columns it then
fills first, so that the carrier's orbits close one at a time, and cuts
a partial coset table once its closed orbits are dirty and the cosets
left are too few for a clean carrier class: no class below it could
give a witness.  Before that, while no carrier class of a lower degree
has been clean, it skips every degree in which no transitive action of
the carrier presentation has a clean component
(hyperplanes.Carrier.has_clean_class): no cover of that degree has one.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from . import permutations as perm
from .complexes import (EdgePath, Record, SquareComplex, free_reduce,
                        is_signed_index, trace)
from .constructions import DoubledComplex
from .covers import (Cover, cover_from_assignment, is_connected,
                     preimage_cleanness, preimage_hyperplane_components,
                     pullback_cover, regular_closure, transport,
                     validate_cover)
from .hyperplanes import Hyperplane, is_clean
from .presentations import GroupPresentation, parse_word, pi1_presentation

FOUND = "FOUND"
EXHAUSTED = "EXHAUSTED"


class SearchBudget(Record):
    """Degree bound and optional node cap."""
    max_degree: int
    max_nodes: Optional[int] = None

    def __post_init__(self):
        for name in ("max_degree", "max_nodes"):
            value = getattr(self, name)
            if value is None and name == "max_nodes":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError("%s must be an int, not %r" % (name, value))
            if value < 0:
                raise ValueError("%s must not be negative" % name)


class SearchStats(Record, frozen=False):
    homs_tried: int = 0
    covers_realized: int = 0
    nodes: int = 0
    cap_hit: bool = False


class QuotientWitness(Record):
    """A finite quotient where the certified word has nontrivial image."""
    degree: int
    images: tuple      # one permutation per presentation generator
    word: tuple        # the certified word, signed generator indices


class LoopWitness(Record):
    """A cover in which the certified loop lifts non-closed."""
    cover: Cover
    loop: EdgePath
    sheet: int         # a sheet the loop's transport moves


class VCleanWitness(Record):
    """A connected cover whose preimage components certify cleanness."""
    mode: str                    # "some" or "each"
    hyperplane_id: int           # least dual edge in the base
    cover: Cover
    component_id: Optional[int]  # least dual edge upstairs, "some" only


Witness = Union[QuotientWitness, LoopWitness, VCleanWitness]


class SearchOutcome(Record):
    status: str
    witness: Optional[Witness]
    budget: SearchBudget
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _first_moved(p) -> Optional[int]:
    for i, x in enumerate(p):
        if x != i:
            return i
    return None


def _scan(candidates: Callable[[int, perm.NodeBudget], Iterable],
          check: Callable, first_degree: int, budget: SearchBudget,
          stats: SearchStats) -> SearchOutcome:
    """Check candidates degree by degree, from first_degree up to the
    bound, until check returns a witness.

    candidates(d, node_budget) yields the degree-d candidates and spends
    the node budget; check(d, candidate) returns a witness or None.  The
    scan stops after the degree where the node cap is hit.  homs_tried
    counts the candidates checked.  Raises ValueError without a budget.
    """
    if budget is None:
        raise ValueError("a search needs a SearchBudget, not None")
    node_budget = perm.NodeBudget(budget.max_nodes)
    witness = None
    for d in range(first_degree, budget.max_degree + 1):
        for c in candidates(d, node_budget):
            stats.homs_tried += 1
            witness = check(d, c)
            if witness is not None:
                break
        if witness is not None or node_budget.cap_hit:
            break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED if witness is None else FOUND, witness,
                         budget, stats)


def _no_candidates(d, node_budget):
    """Candidates for _scan when a trivial word or loop leaves nothing
    to look for."""
    return ()


def _quotients(pres: GroupPresentation, prune=None):
    """Candidates for _scan: one transitive action of each degree per
    conjugacy class, as a tuple of generator images.  prune, when
    given, is low_index's at every degree but 1, whose one class, the
    trivial action, is never cut."""
    def candidates(d, node_budget):
        return pres.tables.low_index(d, node_budget,
                                     prune=prune if d > 1 else None)
    return candidates


def _as_word(word, pres: GroupPresentation) -> tuple:
    if isinstance(word, str):
        return parse_word(word, pres.generators)
    word = tuple(word)
    n = pres.num_generators
    for x in word:
        if not is_signed_index(x, n):
            raise ValueError("letter %r is not a signed generator index "
                             "in 1..%d" % (x, n))
    return word


def element_survives(pres: GroupPresentation, word,
                     budget: SearchBudget) -> SearchOutcome:
    """Look for a finite quotient where the word has nontrivial image.

    Scans transitive actions of degree 2 up to the bound, one per
    conjugacy class.  FOUND proves the word is nontrivial in the group;
    EXHAUSTED says nothing beyond the bound.
    """
    word = _as_word(word, pres)

    def check(d, a):
        images = dict(enumerate(a, start=1))
        if perm.word_image(word, images, d) != perm.identity(d):
            return QuotientWitness(d, a, word)
        return None

    candidates = _quotients(pres) if free_reduce(word) else _no_candidates
    return _scan(candidates, check, 2, budget, SearchStats())


def probe_profinite_triviality(pres: GroupPresentation, word=None,
                               budget: SearchBudget = None) -> SearchOutcome:
    """Look for any nontrivial finite quotient of the presentation.

    FOUND exhibits a quotient where some generator survives, certifying
    the group is nontrivial.  With a word, this is element_survives for
    that word.  EXHAUSTED means no transitive action of degree 2 up to
    the bound exists, so every homomorphism to S_d within the budget
    kills everything, which is evidence, never proof, of triviality.
    """
    if word is not None:
        return element_survives(pres, word, budget)

    def check(d, a):
        ident = perm.identity(d)
        for k, p in enumerate(a, start=1):
            if p != ident:
                return QuotientWitness(d, a, (k,))
        return None

    return _scan(_quotients(pres), check, 2, budget, SearchStats())


def loop_survives(cx: SquareComplex, loop: EdgePath,
                  budget: SearchBudget) -> SearchOutcome:
    """Look for a finite cover in which the loop lifts non-closed.

    Equivalent to the loop's class surviving in some finite quotient of
    the fundamental group; the witness is returned as an actual cover
    with identity tree edges, plus a sheet its transport moves.
    Raises ValueError on a structurally invalid complex, through
    pi1_presentation.
    """
    pres = pi1_presentation(cx, loop.start)
    word = pres.loop_word(loop)
    stats = SearchStats()

    def check(d, a):
        images = dict(enumerate(a, start=1))
        sheet = _first_moved(perm.word_image(word, images, d))
        if sheet is None:
            return None
        stats.covers_realized += 1
        return LoopWitness(cover_from_assignment(cx, pres, d, a), loop,
                           sheet)

    candidates = _quotients(pres) if word else _no_candidates
    return _scan(candidates, check, 2, budget, stats)


def semi_decide_virtually_clean(cx: SquareComplex, h: Hyperplane, mode: str,
                                budget: SearchBudget) -> SearchOutcome:
    """Look for a finite cover certifying virtual cleanness.

    mode "some": a connected cover where some component of the
    hyperplane's preimage is clean.  mode "each": one where every
    component is clean.  Covers are scanned by ascending degree from 1,
    one representative per conjugacy class, as the low-index search
    gives them: the least standard coset table of each class, in that
    search's order (below), with identity tree edges.  The budget's nodes are
    that search's definitions.  In "each" mode a cover with a clean
    component but dirty siblings promotes to its regular closure, whose
    homogeneity usually cleans every component; the closure is checked
    honestly and only reported if it passes.

    Components are checked from the permutations, never by realizing a
    total space: h.carrier.cleanness decides each cover's carrier key,
    h.carrier.key(d, a), and keeps the verdict for every later call on
    h, in either mode or to a higher degree, and for preimage_cleanness
    on a closure (see hyperplanes.Carrier).  The prune decides every new
    key the same way, so a kept verdict changes nothing but the work.  A
    scanned cover is built only to report a witness or to take a regular
    closure.  The scanned covers satisfy every square relator by
    construction, so only closures are validated first.
    revalidate_vclean_witness does realize the witness cover, and reads
    no kept verdict.

    Each degree d >= 2 passes the low-index search the prune
    (h.carrier.key_pos, dirty, least), so that search fills the carrier
    generators' columns first and gives the classes in ascending order
    of their least such tables.  That fill closes the orbits of the
    carrier generators one at a time, near the root, and dirty decides
    each as it closes, by its key renumbered to the orbit's own degree:
    a component of the cover lives on one orbit and reads only that
    orbit's action (see hyperplanes.Carrier).  `least` is the least
    degree of a clean carrier class, met by the degree certificate
    below.  A table whose closed orbits are all dirty is cut once fewer
    than `least` cosets are left to make: no orbit of the classes below
    it can be clean, so check would find no witness, in either mode, in
    any of them.  At d cosets that is the cut of a dirty full key.  A
    clean orbit ends the questions below it.  The low-index search
    never calls dirty, and fills row-major, for a carrier that reads
    every generator it keeps.

    Degree certificate.  A clean component of a cover lives on one
    orbit of the carrier edges' permutations, and restricts there to a
    clean transitive action of the carrier presentation (see
    hyperplanes.Carrier) of degree at most d.  So before the scan of a
    degree d >= 2, while no clean carrier class of degree 2..d-1 has
    been met, h.carrier.has_clean_class(d) is asked, and a degree
    without one is skipped: no cover of it has a clean component, in
    either mode.  Once a clean carrier class is met, every later degree
    is scanned as above.  Degree 1 is always scanned: its one class is
    the trivial cover, whose one component is the hyperplane, so it is
    the trivial carrier class, and no witness there means it is dirty.
    The carrier's answer for each degree is kept in h.carrier.degrees
    with the definitions it cost, which a later call spends again at
    once, so the outcome does not depend on what was kept.  A clean
    carrier class does not make a witness: the local data can say
    "maybe" where the whole complex says "no".

    Status, least degree and witness are those of the uncut scan in
    that order.  homs_tried counts the covers checked, and
    covers_realized counts those plus the closures checked, whether or
    not a Cover was built; nodes counts the definitions of the
    low-index searches, pi1's and the carrier presentation's, all from
    one budget, so max_nodes bounds the certificate too.  A pruned
    table and a skipped degree add to none of them below it.  Raises
    ValueError on a bad mode, on a hyperplane from another complex, and
    then, through pi1_presentation, on a structurally invalid complex.
    """
    mode = mode.lower() if isinstance(mode, str) else mode
    if mode not in ("some", "each"):
        raise ValueError("mode must be 'some' or 'each'")
    if h.complex != cx:
        raise ValueError("hyperplane is not from this complex")
    pres = pi1_presentation(cx, 0)
    stats = SearchStats()
    carrier = h.carrier

    def dirty(key):
        """The prune callback of a scanned degree (see above)."""
        return not any(clean for _, clean in carrier.cleanness(key))

    def check(d, a):
        stats.covers_realized += 1
        comps = carrier.cleanness(carrier.key(d, a))
        if not any(clean for _, clean in comps):
            return None
        cover = cover_from_assignment(cx, pres, d, a)
        if mode == "some":
            cid = next(cid for cid, clean in comps if clean)
            return VCleanWitness(mode, h.id, cover, cid)
        if all(clean for _, clean in comps):
            return VCleanWitness(mode, h.id, cover, None)
        closure = regular_closure(cover).cover
        stats.covers_realized += 1
        if all(clean for _, clean in preimage_cleanness(closure, h)):
            return VCleanWitness(mode, h.id, closure, None)
        return None

    least = None    # the least degree >= 2 of a clean carrier class

    def candidates(d, node_budget):
        """The classes of degree d, none while no carrier class of
        degree 2..d is clean (see above)."""
        nonlocal least
        if d > 1 and least is None:
            if not carrier.has_clean_class(d, node_budget):
                return ()
            least = d
        return _quotients(pres, prune=(carrier.key_pos, dirty, least))(
            d, node_budget)

    return _scan(candidates, check, 1, budget, stats)


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
