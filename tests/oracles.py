"""Independent oracles used by the acceptance suite.

Everything here is computed from first principles with its own helper
code so that agreement with the package is evidence, not tautology.
The hyperplane oracles work on the boundary of the carrier: thickening
a hyperplane inside its squares gives an interval bundle, and the
bundle boundary is a double cover of the hyperplane graph.  Two
boundary components mean the hyperplane is two-sided, and the carrier
embeds on a given side exactly when that boundary component maps
injectively on vertices and edges.
"""

import itertools

from vhcomplex import permutations as perm
from vhcomplex.complexes import (CellularMap, Edge, SquareComplex,
                                 cyclic_reduce, free_reduce, square_corners)
from vhcomplex.covers import (cover_from_assignment, iter_covers,
                              preimage_cleanness, regular_closure, transport)
from vhcomplex.presentations import pi1_presentation
from vhcomplex.search import (EXHAUSTED, FOUND, LoopWitness, QuotientWitness,
                              SearchOutcome, SearchStats, VCleanWitness)


def _in_end(d):
    return 1 if d > 0 else 0


def _out_end(d):
    return 0 if d > 0 else 1


def boundary_graph(cx, dual_edges):
    """Nodes and arcs of the carrier boundary over one hyperplane.

    A node (e, end) is the point of edge e just off the midpoint toward
    the given endpoint (0 tail, 1 head).  Each midcube contributes two
    arcs, one along each of the two square sides parallel to it; the arc
    records the side edge it runs along.
    """
    dual = set(dual_edges)
    nodes = [(e, end) for e in sorted(dual) for end in (0, 1)]
    arcs = []
    for i, w in enumerate(cx.squares):
        if len(w) != 4:
            continue
        for pair in (0, 1):
            da, db = w[pair], w[pair + 2]
            if abs(da) not in dual and abs(db) not in dual:
                continue
            if not (abs(da) in dual and abs(db) in dual):
                raise AssertionError("dual edge set is not closed under "
                                     "midcube pairing")
            via_in = abs(w[(pair + 1) % 4])
            via_out = abs(w[(pair + 3) % 4])
            arcs.append((((abs(da), _in_end(da)), (abs(db), _out_end(db))),
                         via_in, (i, pair)))
            arcs.append((((abs(db), _in_end(db)), (abs(da), _out_end(da))),
                         via_out, (i, pair)))
    return nodes, arcs


def _components(nodes, arcs):
    adj = {n: [] for n in nodes}
    for (a, b), _, _ in arcs:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for n in nodes:
        if n in seen:
            continue
        comp = set()
        stack = [n]
        seen.add(n)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def oracle_two_sided(cx, dual_edges):
    """Two boundary components over a connected hyperplane graph."""
    nodes, arcs = boundary_graph(cx, dual_edges)
    return len(_components(nodes, arcs)) == 2


def oracle_self_crossing(cx, dual_edges):
    dual = set(dual_edges)
    return any(len(w) == 4 and abs(w[0]) in dual and abs(w[1]) in dual
               for w in cx.squares)


def _node_vertex(cx, node):
    e, end = node
    edge = cx.edges[e - 1]
    return edge.tail if end == 0 else edge.head


def oracle_clean(cx, dual_edges):
    """Carrier embedding test via the boundary double cover."""
    if oracle_self_crossing(cx, dual_edges):
        return False
    nodes, arcs = boundary_graph(cx, dual_edges)
    comps = _components(nodes, arcs)
    if len(comps) != 2:
        return False
    for comp in comps:
        verts = [_node_vertex(cx, n) for n in sorted(comp)]
        if len(set(verts)) != len(verts):
            return False
        vias = [via for (a, _), via, _ in arcs if a in comp]
        if len(set(vias)) != len(vias):
            return False
    return True


# ---------------------------------------------------------------------------
# torus cover counts, from scratch


def _compose(p, q):
    return tuple(q[x] for x in p)


def _conjugate(p, s):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[s[i]] = s[x]
    return tuple(out)


def _transitive(p, q, d):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (p[x], q[x]):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == d


def oracle_torus_cover_count(d):
    """Connected degree-d covers of the one-square torus up to
    isomorphism: commuting permutation pairs, transitive, counted up to
    simultaneous conjugacy."""
    perms = [tuple(p) for p in itertools.permutations(range(d))]
    reps = set()
    for p in perms:
        for q in perms:
            if _compose(p, q) != _compose(q, p):
                continue
            if not _transitive(p, q, d):
                continue
            reps.add(min((_conjugate(p, s), _conjugate(q, s))
                         for s in perms))
    return len(reps)


# ---------------------------------------------------------------------------
# homomorphism enumeration, relator by relator through word_image


def reference_iter_homs(num_gens, relators, d, budget=None):
    """The recursive enumerator permutations.iter_homs replaced.

    It checks each relator by composing whole permutations with
    word_image, and it spends the budget, stops on the cap and orders
    its yields as iter_homs must.
    """
    relators = [tuple(r) for r in relators]
    if num_gens == 0:
        yield ()
        return
    support = [max((abs(x) for x in r), default=0) for r in relators]
    check_at = [[] for _ in range(num_gens + 1)]
    for ridx, s in enumerate(support):
        check_at[max(s, 1)].append(ridx)
    perms = perm.all_permutations(d)
    images = {}

    def level(k):
        if budget is not None and not budget.spend():
            return
        if k > num_gens:
            yield tuple(images[i] for i in range(1, num_gens + 1))
            return
        for p in perms:
            images[k] = p
            ok = True
            for ridx in check_at[k]:
                if perm.word_image(relators[ridx], images, d) \
                        != perm.identity(d):
                    ok = False
                    break
            if ok:
                yield from level(k + 1)
            if budget is not None and budget.cap_hit:
                break
        images.pop(k, None)

    yield from level(1)


# ---------------------------------------------------------------------------
# Tietze elimination, rewriting every relator after each move


def reference_eliminate_generators(num_gens, relators):
    """The permutations.eliminate_generators that rewrote every relator,
    not only those containing the dropped generator, after each move.
    Same moves, same order, same (kept, relators, images)."""
    image = list(range(num_gens + 1))    # signed letter, 0 = trivial
    rels = [w for w in map(cyclic_reduce, relators) if w]
    while True:
        for w in rels:
            if len(w) == 1:
                g, letter = abs(w[0]), 0
                break
            if len(w) == 2 and abs(w[0]) != abs(w[1]):
                x, y = sorted(w, key=abs)
                g, letter = abs(y), (-x if y > 0 else x)
                break
        else:
            break
        image[g] = letter
        sub = {g: letter, -g: -letter}
        words = ([sub.get(x, x) for x in r] for r in rels)
        rels = [w for w in (cyclic_reduce([x for x in word if x])
                            for word in words) if w]

    def resolve(x):
        while x and image[abs(x)] != abs(x):
            x = image[x] if x > 0 else -image[-x]
        return x

    kept = [g for g in range(1, num_gens + 1) if image[g] == g]
    pos = {g: k for k, g in enumerate(kept, start=1)}
    for g in kept:
        pos[-g] = -pos[g]
    pos[0] = 0
    return (tuple(kept),
            tuple(tuple(pos[x] for x in w) for w in rels),
            tuple(pos[resolve(g)] for g in range(1, num_gens + 1)))


# ---------------------------------------------------------------------------
# replaced implementations, kept as slow paths


def reference_check_shape(c):
    """The shape check covers.validate_cover made before it checked each
    distinct permutation once: every edge's permutation, in edge order."""
    if c.degree < 1:
        raise ValueError("degree must be positive")
    if len(c.perms) != c.base.num_edges:
        raise ValueError("%d permutations for %d edges"
                         % (len(c.perms), c.base.num_edges))
    for eid, p in enumerate(c.perms, start=1):
        if not perm.is_permutation(p, c.degree):
            raise ValueError("edge %d: %r is not a permutation of %d sheets"
                             % (eid, p, c.degree))


def reference_validate_cover(c):
    """The transport-based check covers.validate_cover replaced: compose
    each square's boundary into one permutation and compare it with the
    identity.  Malformed permutation data raises the same errors."""
    reference_check_shape(c)
    ident = perm.identity(c.degree)
    return all(transport(c, w) == ident for w in c.base.squares)


def reference_total_space(c):
    """The per-dart realization covers.total_space replaced: each
    backwards dart on each sheet inverts its edge's whole permutation.
    Returns (complex, projection), numbered as in total_space."""
    if not reference_validate_cover(c):
        raise ValueError("square relations fail; not a cover")
    base, d = c.base, c.degree
    verts = base.num_vertices * d
    edges = []
    for eid, e in enumerate(base.edges, start=1):
        p = c.perms[eid - 1]
        for s in range(d):
            edges.append(Edge(e.tail * d + s, e.head * d + p[s], e.label))
    squares = []
    for w in base.squares:
        for s in range(d):
            t = s
            lifted = []
            for dart in w:
                p = c.perms[abs(dart) - 1]
                if dart > 0:
                    lifted.append((dart - 1) * d + t + 1)
                    t = p[t]
                else:
                    t = perm.inverse(p)[t]
                    lifted.append(-((-dart - 1) * d + t + 1))
            squares.append(tuple(lifted))
    z = SquareComplex(verts, tuple(edges), tuple(squares))
    proj = CellularMap(z, base,
                       tuple(v // d for v in range(verts)),
                       tuple(((ze - 1) // d + 1,)
                             for ze in range(1, len(edges) + 1)),
                       tuple(i // d for i in range(len(squares))))
    return z, proj


def reference_osculation_witness(h1, h2):
    """The per-pair contact search is_special replaced: rebuild the
    corner table, then compare every end of one hyperplane with every
    end of the other.  Returns the least (vertex, node1, node2) that no
    square corner joins, or None."""
    cx = h1.complex
    corners_at = {}
    for i in range(cx.num_squares):
        for v, pair in square_corners(cx, i):
            corners_at.setdefault(v, set()).add(pair)
    found = []
    for e1 in sorted(h1.dual_edges):
        edge1 = cx.edge(e1)
        for end1, v1 in ((0, edge1.tail), (1, edge1.head)):
            for e2 in sorted(h2.dual_edges):
                edge2 = cx.edge(e2)
                for end2, v2 in ((0, edge2.tail), (1, edge2.head)):
                    if v1 != v2:
                        continue
                    n1, n2 = (e1, end1), (e2, end2)
                    pair = (n1, n2) if n1 <= n2 else (n2, n1)
                    if pair not in corners_at.get(v1, ()):
                        found.append((v1, n1, n2))
    return min(found) if found else None


def reference_simple_loops(cx, basepoint, labels=None):
    """The recursive enumerator constructions.enumerate_simple_loops
    replaced, as (start, word) pairs in its output order."""
    out_darts = {}
    for eid, e in enumerate(cx.edges, start=1):
        if labels is not None and e.label not in labels:
            continue
        out_darts.setdefault(e.tail, []).append(eid)
        out_darts.setdefault(e.head, []).append(-eid)
    for v in out_darts:
        out_darts[v].sort(key=lambda d: (abs(d), 0 if d > 0 else 1))
    found = []
    word = []
    used_edges = set()
    visited = set()

    def extend(at):
        for d in out_darts.get(at, ()):
            if abs(d) in used_edges:
                continue
            to = cx.dart_head(d)
            if to == basepoint:
                found.append(tuple(word) + (d,))
                continue
            if to in visited:
                continue
            visited.add(to)
            used_edges.add(abs(d))
            word.append(d)
            extend(to)
            word.pop()
            used_edges.discard(abs(d))
            visited.discard(to)

    extend(basepoint)
    return [(basepoint, w) for w in sorted(found, key=lambda w: (len(w), w))]


# ---------------------------------------------------------------------------
# connected covers up to conjugacy


def reference_connected_covers(cx, d):
    """The brute-force path iter_covers(connected=True,
    up_to_conjugacy=True) replaced: every relator-respecting assignment
    in lexicographic order, kept when transitive and least among its d!
    simultaneous relabelings."""
    pres = pi1_presentation(cx, 0)
    return [cover_from_assignment(cx, pres, d, a)
            for a in perm.iter_homs(len(pres.generators), pres.relators, d)
            if perm.is_transitive(a, d) and perm.is_canonical(a)]


def _standard_table(perms, base):
    """The row-major coset table of the permutations with columns p_1,
    p_1 inverse, p_2, ..., renumbered from `base` by first appearance."""
    d = len(perms[0])
    cols = []
    for p in perms:
        inv = [0] * d
        for i, x in enumerate(p):
            inv[x] = i
        cols += [p, inv]
    label = {base: 0}
    order = [base]
    table = []
    for row in order:
        for col in cols:
            if col[row] not in label:
                label[col[row]] = len(order)
                order.append(col[row])
            table.append(label[col[row]])
    return table


def is_least_standard_table(perms):
    """Whether the permutations, read as a coset table, are in standard
    form and no other base sheet renumbers them into a smaller table."""
    if not perms:
        return True
    d = len(perms[0])
    own = _standard_table(perms, 0)
    flat = [x for row in range(d) for p in perms
            for x in (p[row], list(p).index(row))]
    return own == flat and all(own <= _standard_table(perms, b)
                               for b in range(1, d))


# ---------------------------------------------------------------------------
# quotient and loop searches over every homomorphism


def _reference_scan(num_gens, relators, max_degree, check):
    """The scan the quotient and loop searches made before they ran on
    the low-index search: every relator-respecting assignment of degree
    2 up to the bound, in lexicographic order (perm.iter_homs), until
    check(d, assignment) returns a witness.  None when nothing does."""
    for d in range(2, max_degree + 1):
        for a in perm.iter_homs(num_gens, relators, d):
            witness = check(d, a)
            if witness is not None:
                return witness
    return None


def reference_element_survives(pres, word, max_degree):
    """The lexicographically least quotient witness for the word, as
    search.element_survives found it by scanning homomorphisms."""
    word = tuple(word)

    def check(d, a):
        images = dict(enumerate(a, start=1))
        if perm.word_image(word, images, d) != perm.identity(d):
            return QuotientWitness(d, a, word)
        return None

    if not free_reduce(word):
        return None
    return _reference_scan(pres.num_generators, pres.relators, max_degree,
                           check)


def reference_probe(pres, max_degree):
    """The lexicographically least homomorphism with a non-identity
    generator, as search.probe_profinite_triviality found it."""
    def check(d, a):
        for k, p in enumerate(a, start=1):
            if p != perm.identity(d):
                return QuotientWitness(d, a, (k,))
        return None

    return _reference_scan(pres.num_generators, pres.relators, max_degree,
                           check)


def reference_loop_survives(cx, loop, max_degree):
    """The lexicographically least cover where the loop lifts
    non-closed, with the least sheet it moves, as search.loop_survives
    found it."""
    pres = pi1_presentation(cx, loop.start)
    word = pres.loop_word(loop)

    def check(d, a):
        img = perm.word_image(word, dict(enumerate(a, start=1)), d)
        for sheet, x in enumerate(img):
            if x != sheet:
                return LoopWitness(cover_from_assignment(cx, pres, d, a),
                                   loop, sheet)
        return None

    if not word:
        return None
    return _reference_scan(len(pres.generators), pres.relators, max_degree,
                           check)


# ---------------------------------------------------------------------------
# virtual cleanness, one cleanness check per cover


def reference_vclean(cx, h, mode, budget, skip=frozenset()):
    """The scan search.semi_decide_virtually_clean made before it kept
    verdicts per carrier restriction: every connected cover up to
    conjugacy from iter_covers, degree 1 up to the bound, each realized
    as a Cover and checked with preimage_cleanness; in "each" mode a
    cover with a clean component but not all promotes to its regular
    closure.  The degrees in `skip` are passed over without spending
    the node budget.  Returns the whole SearchOutcome, stats
    included."""
    pres = pi1_presentation(cx, 0)
    stats = SearchStats()
    node_budget = perm.NodeBudget(budget.max_nodes)
    witness = None
    for d in range(1, budget.max_degree + 1):
        if d in skip:
            continue
        for cover in iter_covers(cx, d, connected=True, up_to_conjugacy=True,
                                 pres=pres, budget=node_budget):
            stats.homs_tried += 1
            stats.covers_realized += 1
            comps = preimage_cleanness(cover, h)
            clean = [cid for cid, ok in comps if ok]
            if mode == "some" and clean:
                witness = VCleanWitness(mode, h.id, cover, clean[0])
            elif mode == "each" and len(clean) == len(comps):
                witness = VCleanWitness(mode, h.id, cover, None)
            elif mode == "each" and clean:
                closure = regular_closure(cover).cover
                stats.covers_realized += 1
                if all(ok for _, ok in preimage_cleanness(closure, h)):
                    witness = VCleanWitness(mode, h.id, closure, None)
            if witness is not None:
                break
        if witness is not None or node_budget.cap_hit:
            break
    stats.nodes = node_budget.nodes
    stats.cap_hit = node_budget.cap_hit
    return SearchOutcome(EXHAUSTED if witness is None else FOUND, witness,
                         budget, stats)
