"""JSON documents for every object that crosses the CLI boundary.

All writers emit canonical JSON: sorted keys, two-space indent, one
trailing newline.  Readers are strict about types and shapes but leave
semantic checks (square closure, label alternation, cover relations) to
the validators, so a structurally broken complex still loads and then
fails validation with a proper report.
"""

from __future__ import annotations

import json
from typing import Optional

from . import permutations as perm
from .complexes import (CellularMap, Edge, EdgePath, SquareComplex,
                        ValidationReport)
from .constructions import (CrushMap, DoubledComplex, RelatorAttachment)
from .covers import Cover
from .hyperplanes import CleanlinessReport, Hyperplane
from .presentations import (GroupPresentation, parse_word, word_to_string)
from .search import (LoopWitness, QuotientWitness, SearchBudget,
                     SearchOutcome, SearchStats, VCleanWitness)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_doc(path, doc):
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


def read_doc(path):
    with open(path) as fh:
        return json.load(fh)


def _need(doc, key, kinds, what):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError("%s: missing %r" % (what, key))
    val = doc[key]
    # JSON true and false load as bools, which Python counts as ints
    if not isinstance(val, kinds) or (kinds is int and isinstance(val, bool)):
        raise ValueError("%s: %r has the wrong type" % (what, key))
    return val


def _is_int_list(x) -> bool:
    return isinstance(x, list) and \
        all(isinstance(i, int) and not isinstance(i, bool) for i in x)


# ---------------------------------------------------------------------------
# complexes and paths


def complex_to_doc(cx: SquareComplex) -> dict:
    return {
        "vertices": cx.num_vertices,
        "edges": [{"id": i, "tail": e.tail, "head": e.head,
                   "label": e.label}
                  for i, e in enumerate(cx.edges, start=1)],
        "squares": [list(w) for w in cx.squares],
    }


def complex_from_doc(doc) -> SquareComplex:
    n = _need(doc, "vertices", int, "complex")
    if n < 0:
        raise ValueError("complex: vertices must be a nonnegative integer")
    raw_edges = _need(doc, "edges", list, "complex")
    edges = []
    for pos, entry in enumerate(raw_edges, start=1):
        eid = _need(entry, "id", int, "edge")
        if eid != pos:
            raise ValueError("complex: edge ids must be 1..%d in order"
                             % len(raw_edges))
        tail = _need(entry, "tail", int, "edge")
        head = _need(entry, "head", int, "edge")
        label = _need(entry, "label", str, "edge")
        edges.append(Edge(tail, head, label))
    raw_squares = _need(doc, "squares", list, "complex")
    squares = []
    for w in raw_squares:
        if not _is_int_list(w):
            raise ValueError("complex: squares must be lists of integers")
        squares.append(tuple(w))
    return SquareComplex(n, tuple(edges), tuple(squares))


def path_to_doc(p: EdgePath) -> dict:
    return {"start": p.start, "word": list(p.word)}


def path_from_doc(doc) -> EdgePath:
    start = _need(doc, "start", int, "path")
    word = _need(doc, "word", list, "path")
    if not _is_int_list(word) or 0 in word:
        raise ValueError("path: word must be nonzero integers")
    return EdgePath(start, tuple(word))


# ---------------------------------------------------------------------------
# presentations


def presentation_to_doc(pres: GroupPresentation) -> dict:
    return {
        "generators": list(pres.generators),
        "relators": [word_to_string(r, pres.generators)
                     for r in pres.relators],
    }


def presentation_from_doc(doc) -> GroupPresentation:
    gens = _need(doc, "generators", list, "presentation")
    rels = _need(doc, "relators", list, "presentation")
    if not all(isinstance(g, str) for g in gens):
        raise ValueError("presentation: generators must be strings")
    if not all(isinstance(r, str) for r in rels):
        raise ValueError("presentation: relators must be strings")
    return GroupPresentation.make(gens, rels)


# ---------------------------------------------------------------------------
# covers


def _perms_to_doc(c: Cover) -> dict:
    """The "perm" entry of cover_to_doc: the edges that move a sheet."""
    ident = perm.identity(c.degree)
    return {str(eid): list(p) for eid, p in enumerate(c.perms, start=1)
            if p != ident}


def cover_to_doc(c: Cover, base_ref: Optional[str] = None) -> dict:
    return {
        "base": base_ref if base_ref is not None else complex_to_doc(c.base),
        "degree": c.degree,
        "perm": _perms_to_doc(c),
    }


def _perms_from_doc(doc, degree, num_edges, what) -> tuple:
    raw = _need(doc, "perm", dict, what)
    ident = perm.identity(degree)
    by_edge = []
    for eid in range(1, num_edges + 1):
        p = raw.get(str(eid))
        if p is None:
            by_edge.append(ident)
            continue
        if not _is_int_list(p):
            raise ValueError("%s: permutation for edge %d must be a list "
                             "of integers" % (what, eid))
        by_edge.append(tuple(p))
    extra = set(raw) - {str(e) for e in range(1, num_edges + 1)}
    if extra:
        raise ValueError("%s: permutations for unknown edges %s"
                         % (what, sorted(extra)))
    return tuple(by_edge)


def cover_from_doc(doc, base: Optional[SquareComplex] = None) -> Cover:
    """Rebuild a cover; `base` overrides or resolves the base field.

    A string base field is a reference to an external file and needs the
    caller to supply the complex.
    """
    raw_base = _need(doc, "base", (dict, str), "cover")
    if base is None:
        if isinstance(raw_base, str):
            raise ValueError("cover: base is a reference (%r); pass the "
                             "complex" % raw_base)
        base = complex_from_doc(raw_base)
    degree = _need(doc, "degree", int, "cover")
    if degree < 1:
        raise ValueError("cover: degree must be a positive integer")
    return Cover(base, degree,
                 _perms_from_doc(doc, degree, base.num_edges, "cover"))


# ---------------------------------------------------------------------------
# reports


def validation_to_doc(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "vh": report.vh,
        "npc": report.npc,
        "violations": [{"kind": v.kind, "cell": list(v.cell),
                        "message": v.message}
                       for v in report.violations],
    }


def hyperplane_to_doc(h: Hyperplane) -> dict:
    return {
        "id": h.id,
        "dual_edges": sorted(h.dual_edges),
        "orientation_class": h.orientation_class,
    }


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def cleanliness_to_doc(report: CleanlinessReport) -> dict:
    return {
        "hyperplane": hyperplane_to_doc(report.hyperplane),
        "two_sided": report.two_sided,
        "self_crossing": report.self_crossing,
        "osculation_witnesses": [_jsonable(w) for w in
                                 report.self_osculation_witnesses],
        "clean": report.clean,
    }


# ---------------------------------------------------------------------------
# search budgets, witnesses, outcomes


def budget_to_doc(budget: SearchBudget) -> dict:
    return {
        "max_degree": budget.max_degree,
        "max_nodes": budget.max_nodes,
    }


def budget_from_doc(doc) -> SearchBudget:
    # documents written when searches had worker threads also carry
    # "deterministic" and "workers"; neither affects a search any more
    max_degree = _need(doc, "max_degree", int, "budget")
    max_nodes = doc.get("max_nodes")
    if max_nodes is not None:
        max_nodes = _need(doc, "max_nodes", int, "budget")
    return SearchBudget(max_degree=max_degree, max_nodes=max_nodes)


def stats_to_doc(stats: SearchStats) -> dict:
    return {
        "homs_tried": stats.homs_tried,
        "covers_realized": stats.covers_realized,
        "nodes": stats.nodes,
        "cap_hit": stats.cap_hit,
    }


def witness_to_doc(w, pres: Optional[GroupPresentation] = None,
                   budget: Optional[SearchBudget] = None) -> dict:
    if isinstance(w, QuotientWitness):
        if pres is None:
            raise ValueError("quotient witness needs its presentation")
        doc = {
            "kind": "quotient",
            "degree": w.degree,
            "images": {name: list(p)
                       for name, p in zip(pres.generators, w.images)},
            "certified": {"word": word_to_string(w.word, pres.generators)},
        }
    elif isinstance(w, LoopWitness):
        doc = {
            "kind": "cover",
            "degree": w.cover.degree,
            "images": _perms_to_doc(w.cover),
            "certified": {"loop": path_to_doc(w.loop), "sheet": w.sheet},
        }
    elif isinstance(w, VCleanWitness):
        doc = {
            "kind": "cover",
            "degree": w.cover.degree,
            "images": _perms_to_doc(w.cover),
            "certified": {"hyperplane": w.hyperplane_id, "mode": w.mode,
                          "component": w.component_id},
        }
    else:
        raise TypeError("not a witness: %r" % (w,))
    if budget is not None:
        doc["budget"] = budget_to_doc(budget)
    return doc


def witness_from_doc(doc, pres: Optional[GroupPresentation] = None,
                     complex: Optional[SquareComplex] = None):
    kind = _need(doc, "kind", str, "witness")
    degree = _need(doc, "degree", int, "witness")
    if degree < 1:
        raise ValueError("witness: degree must be a positive integer")
    certified = _need(doc, "certified", dict, "witness")
    if kind == "quotient":
        if pres is None:
            raise ValueError("quotient witness needs its presentation")
        raw = _need(doc, "images", dict, "witness")
        images = []
        for name in pres.generators:
            if name not in raw:
                raise ValueError("witness: no image for generator %r" % name)
            if not _is_int_list(raw[name]):
                raise ValueError("witness: image of generator %r must be a "
                                 "list of integers" % name)
            images.append(tuple(raw[name]))
        word = parse_word(_need(certified, "word", str, "witness"),
                          pres.generators)
        return QuotientWitness(degree, tuple(images), word)
    if kind == "cover":
        if complex is None:
            raise ValueError("cover witness needs its base complex")
        perms = _perms_from_doc({"perm": _need(doc, "images", dict,
                                               "witness")},
                                degree, complex.num_edges, "witness")
        cover = Cover(complex, degree, perms)
        if "loop" in certified:
            return LoopWitness(cover, path_from_doc(certified["loop"]),
                               _need(certified, "sheet", int, "witness"))
        if "hyperplane" in certified:
            return VCleanWitness(
                _need(certified, "mode", str, "witness"),
                _need(certified, "hyperplane", int, "witness"),
                cover,
                certified.get("component"))
        raise ValueError("witness: unrecognized certificate")
    raise ValueError("witness: unknown kind %r" % kind)


def outcome_to_doc(outcome: SearchOutcome,
                   pres: Optional[GroupPresentation] = None) -> dict:
    witness = None
    if outcome.witness is not None:
        witness = witness_to_doc(outcome.witness, pres=pres,
                                 budget=outcome.budget)
    return {
        "status": outcome.status,
        "witness": witness,
        "budget": budget_to_doc(outcome.budget),
        "stats": stats_to_doc(outcome.stats),
    }


# ---------------------------------------------------------------------------
# construction manifests


def cellular_map_to_doc(m: CellularMap) -> dict:
    return {
        "vertex_map": list(m.vertex_map),
        "edge_map": [list(w) for w in m.edge_map],
        "square_map": list(m.square_map),
    }


def crush_to_doc(crush: CrushMap) -> dict:
    return {
        "generator_chains": [list(ch) for ch in crush.generator_chains],
        "loop_letters": {str(e): v for e, v in crush.loop_letters.items()},
        "discs": [{
            "relator_index": d.relator_index,
            "vertices": list(d.vertices),
            "edges": list(d.edges),
            "rungs": list(d.rungs),
            "squares": list(d.squares),
        } for d in crush.discs],
    }


def attachment_manifest(att: RelatorAttachment) -> dict:
    return {
        "kind": "relator-attachment",
        "wedge_factor": att.wedge_factor,
        "basepoint": att.pair.basepoint,
        "vertical_edges": sorted(att.pair.v_edges),
        "num_vertices": att.complex.num_vertices,
        "num_edges": att.complex.num_edges,
        "num_squares": att.complex.num_squares,
        "copies": [{
            "relator_index": c.relator_index,
            "core_factor": c.core_factor,
            "ring_length": c.ring_length,
            "vertex_offset": c.vertex_offset,
            "num_vertices": c.num_vertices,
            "edge_offset": c.edge_offset,
            "num_edges": c.num_edges,
            "rungs": list(c.rung_edges),
            "square_offset": c.square_offset,
            "num_squares": c.num_squares,
            "ring_squares": list(c.ring_squares),
            "wedge_path": path_to_doc(c.wedge_path),
            "core_path": path_to_doc(c.core_path),
        } for c in att.copies],
    }


def double_manifest(dbl: DoubledComplex) -> dict:
    return {
        "kind": "loop-double",
        "basepoint": dbl.basepoint,
        "loop": path_to_doc(dbl.loop),
        "attached_edge": dbl.alpha,
        "edge_shift": dbl.edge_shift,
        "vertex_shift": dbl.vertex_shift,
        "doubling_loop": path_to_doc(dbl.gamma_prime),
        "rungs": list(dbl.rungs),
        "annulus_squares": list(dbl.annulus_squares),
        "hyperplane": dbl.hyperplane.id,
        "num_vertices": dbl.complex.num_vertices,
        "num_edges": dbl.complex.num_edges,
        "num_squares": dbl.complex.num_squares,
        "retraction": cellular_map_to_doc(dbl.retraction),
    }
