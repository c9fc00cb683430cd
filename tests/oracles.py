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
from vhcomplex.complexes import square_corners
from vhcomplex.covers import cover_from_assignment, transport
from vhcomplex.presentations import pi1_presentation


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


def reference_iter_homs(num_gens, relators, d, first_images=None,
                        budget=None):
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
        choices = first_images if (k == 1 and first_images is not None) \
            else perms
        for p in choices:
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
