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
from fractions import Fraction
from math import factorial

from vhcomplex import permutations as perm
from vhcomplex.complexes import (CellularMap, Edge, SquareComplex,
                                 cyclic_reduce, free_reduce, square_corners)
from vhcomplex.covers import (Cover, _lift, cover_from_assignment,
                              iter_covers, preimage_cleanness,
                              regular_closure, transport)
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
# homomorphism enumeration by backtracking over S_d, generator by
# generator


def reference_iter_homs(num_gens, relators, d, budget=None):
    """The recursive enumerator backtrack_homs replaced.

    It checks each relator by composing whole permutations with
    word_image, and it spends the budget, stops on the cap and orders
    its yields as backtrack_homs must.
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


def _holds(word, images, points) -> bool:
    """Whether every point, carried through the word's letters, comes
    back to itself; stops at the first point that does not."""
    for x in points:
        y = x
        for letter in word:
            y = images[letter][y]
        if y != x:
            return False
    return True


def backtrack_homs(num_gens, relators, d, budget=None):
    """The stack-based backtrack permutations.iter_homs was before it
    became a labelled fill of the coset table: all assignments of
    permutations in S_d to generators 1..num_gens satisfying every
    relator, in lexicographic order.

    Relators are words of signed 1-based generator indices.  A relator is
    checked as soon as every generator it mentions has an image, which
    prunes most of the tree early.  It holds when every point of
    {0..d-1}, carried through its letters, comes back to itself.
    `budget`, when given, is spent once per visited partial assignment;
    enumeration stops quietly at the first node it refuses, leaving
    budget.cap_hit set.  The search keeps one iterator per assigned
    generator on an explicit stack, so the number of generators is not
    bounded by the recursion limit.
    """
    if num_gens == 0:
        # words over no generators are empty, hence satisfied
        yield ()
        return
    check_at = [[] for _ in range(num_gens + 1)]
    inverted = [False] * (num_gens + 1)
    for r in relators:
        check_at[max((abs(x) for x in r), default=1)].append(r)
        for x in r:
            if x < 0:
                inverted[-x] = True
    # images[g] is generator g's image and images[-g] its inverse:
    # negative indices count from the end of the list, so a signed
    # letter indexes its permutation directly.
    images = [None] * (2 * num_gens + 1)
    points = range(d)
    perms = perm.all_permutations(d)
    if budget is not None and not budget.spend():
        return
    stack = [iter(perms)]
    while stack:
        k = len(stack)
        for p in stack[-1]:
            images[k] = p
            if inverted[k]:
                images[-k] = perm.inverse(p)
            for word in check_at[k]:
                if not _holds(word, images, points):
                    break
            else:
                if budget is not None and not budget.spend():
                    return
                if k < num_gens:
                    stack.append(iter(perms))
                    break
                yield tuple(images[1:k + 1])
        else:
            stack.pop()


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
        raise ValueError("degree must be positive (an int >= 1), not %r"
                         % (c.degree,))
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
            for a in backtrack_homs(len(pres.generators), pres.relators, d)
            if perm.is_transitive(a, d) and perm.is_canonical(a)]


def _read_table(perms, base, first=()):
    """The coset table of the permutations with columns p_1, p_1
    inverse, p_2, ..., renumbered from `base` by first appearance, as
    (its entries in read order, the sheets by their new numbers).  Each
    row's `first` columns are read as soon as the row is discovered, the
    other columns row-major once no discovered row has one of them
    left: an empty `first`, or all the columns, reads row-major."""
    d = len(perms[0])
    cols = []
    for p in perms:
        inv = [0] * d
        for i, x in enumerate(p):
            inv[x] = i
        cols += [p, inv]
    others = iter([(row, col) for row in range(d)
                   for col in range(len(cols)) if col not in first])
    label = {base: 0}
    order = [base]
    table = []
    done = 0      # rows whose `first` columns are read
    while len(table) < d * len(cols):
        if done < len(order):
            batch = [(done, col) for col in first]
            done += 1
        else:
            batch = [next(others)]
        for row, col in batch:
            sheet = cols[col][order[row]]
            if sheet not in label:
                label[sheet] = len(order)
                order.append(sheet)
            table.append(label[sheet])
    return table, order


def _standard_table(perms, base, first=()):
    """The entries, in read order, of the coset table of the
    permutations renumbered from `base` (see _read_table)."""
    return _read_table(perms, base, first)[0]


def is_least_standard_table(perms, first=()):
    """Whether the permutations, read as a coset table with the `first`
    columns first (see _read_table), are in standard form and no other
    base sheet renumbers them into a smaller table."""
    if not perms:
        return True
    d = len(perms[0])
    own, order = _read_table(perms, 0, first)
    return order == list(range(d)) and all(
        own <= _standard_table(perms, b, first) for b in range(1, d))


def carrier_watch(cx, h):
    """(watch, first) for hyperplane h of cx: per edge of
    _carrier_edges(h), its generator's position in pi1_presentation(cx,
    0) or None for a tree edge; and the columns of _read_table, over the
    generators reference_eliminate_generators keeps, of those
    generators and their inverses, ascending."""
    pres = pi1_presentation(cx, 0)
    gen_pos = {eid: k for k, eid in enumerate(pres.generators)}
    watch = tuple(gen_pos.get(e) for e in _carrier_edges(h))
    _, _, images = reference_eliminate_generators(len(pres.generators),
                                                  pres.relators)
    first = set()
    for k in watch:
        if k is not None and images[k]:
            first.update((2 * abs(images[k]) - 2, 2 * abs(images[k]) - 1))
    return watch, sorted(first)


# (complex, watch, degree) -> (definitions, classes) for each degree
# carrier_first_classes has walked in full within its cap
_walks = {}


def carrier_first_classes(cx, watch, d, cap):
    """(classes, cap_hit): the classes of degree d that the low-index
    search of pi1_presentation(cx, 0) yields with the `watch` carrier's
    columns first and a prune callback that never cuts, walked under a
    node cap of `cap`, and whether the walk hit it.  A walk that hit no
    cap is kept, and replayed whenever the cap covers its
    definitions, as in _sorted_classes: that walk then hits no cap
    either."""
    key = (cx, tuple(watch), d)
    if key in _walks:
        spent, classes = _walks[key]
        if cap is None or spent <= cap:
            return classes, False
    walked = perm.NodeBudget(cap)
    classes = list(pi1_presentation(cx, 0).tables.low_index(
        d, walked, prune=(watch, lambda key: False, 1)))
    if not walked.cap_hit:
        _walks[key] = (walked.nodes, classes)
    return classes, walked.cap_hit


def least_table(perms, first=()):
    """The least table of the permutations over every base sheet, with
    the `first` columns first (see _read_table), as (its entries in read
    order, the relabeling sigma[old] = new that gives it)."""
    table, order = min(_read_table(perms, b, first)
                       for b in range(len(perms[0])))
    sigma = [0] * len(order)
    for new, old in enumerate(order):
        sigma[old] = new
    return table, sigma


def hall_subgroup_counts(homs):
    """Hall's recursion: from homs[d-1], the number of homomorphisms of
    a group to S_d for d = 1, 2, ..., the number of its subgroups of
    each index d,
        a_d = h_d / (d-1)! - sum over k < d of h_(d-k) / (d-k)! * a_k,
    as Fractions, so a count that is not an integer shows."""
    counts = []
    for d in range(1, len(homs) + 1):
        counts.append(Fraction(homs[d - 1], factorial(d - 1)) - sum(
            Fraction(homs[d - k - 1], factorial(d - k)) * counts[k - 1]
            for k in range(1, d)))
    return counts


def automorphisms(perms):
    """The order of the centralizer of a transitive action: the number
    of base sheets b whose re-based table equals the base-0 one, that
    is, to which a relabeling commuting with every permutation sends
    0."""
    count = 0
    for b in range(len(perms[0])):
        sigma = {0: b}
        queue = [0]
        commutes = True
        while queue and commutes:
            x = queue.pop()
            for p in perms:
                if p[x] not in sigma:
                    sigma[p[x]] = p[sigma[x]]
                    queue.append(p[x])
                elif sigma[p[x]] != p[sigma[x]]:
                    commutes = False
        count += commutes
    return count


# ---------------------------------------------------------------------------
# quotient and loop searches over every homomorphism


def _reference_scan(num_gens, relators, max_degree, check):
    """The scan the quotient and loop searches made before they ran on
    the low-index search: every relator-respecting assignment of degree
    2 up to the bound, in lexicographic order (backtrack_homs), until
    check(d, assignment) returns a witness.  None when nothing does."""
    for d in range(2, max_degree + 1):
        for a in backtrack_homs(num_gens, relators, d):
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
# preimage cleanness over every lifted edge


def _carrier_edges(y) -> tuple:
    """The edges of y's carrier, sorted: its dual edges and every edge
    of the squares it crosses."""
    squares = y.complex.squares
    edges = set(y.dual_edges)
    for i, _ in y.midcubes:
        edges.update(abs(dart) for dart in squares[i])
    return tuple(sorted(edges))


def reference_preimage_cleanness(y, d, perms) -> tuple:
    """The verdict of Carrier.cleanness as it was computed before it read
    a compiled carrier: preimage_cleanness without its checks, from the degree d and
    `perms`, the permutations on _carrier_edges(y) in that order, which
    must satisfy the relators of the squares y crosses.  These are its
    only inputs: every cover of y's complex with these permutations on
    the carrier gets this answer, whatever it does on the other edges
    and whether or not their squares' relators hold."""
    base = y.complex
    sheets = range(d)
    maps = {}    # a carrier dart -> its permutation, as in _dart_maps
    for e, p in zip(_carrier_edges(y), perms):
        maps[e] = p
        maps[-e] = perm.inverse(p)
    parent = list(range(base.num_edges * d + 1))
    rel = [0] * len(parent)    # parity between an edge and its parent

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        par = 0
        for node in reversed(path):
            par ^= rel[node]
            rel[node] = par
            parent[node] = x
        return x

    pairs_at = {}
    for i, pair in y.midcubes:
        pairs_at.setdefault(i, []).append(pair)
    lifted = []      # (base word, lifted edge ids, pairs in y)
    conflicts = []
    for i, pairs in pairs_at.items():
        w = base.squares[i]
        for s in sheets:
            ids = [abs(x) for x in _lift(maps, d, w, s)[0]]
            lifted.append((w, ids, pairs))
            for pair in pairs:
                a, b = ids[pair], ids[pair + 2]
                p = 1 if (w[pair] > 0) == (w[pair + 2] > 0) else 0
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    rel[ra] = rel[a] ^ rel[b] ^ p
                elif rel[a] ^ rel[b] != p:
                    conflicts.append(a)
    dirty = {find(a) for a in conflicts}
    for w, ids, pairs in lifted:
        if len(pairs) == 2 and find(ids[0]) == find(ids[1]):
            dirty.add(find(ids[0]))

    # pushing maps: with parity 0, side 0 is at the tail of an edge
    edges = base.edges
    component_id = {}
    pushed = set()
    for e in sorted(y.dual_edges):
        edge, q = edges[e - 1], maps[e]
        for s in sheets:
            x = (e - 1) * d + s + 1
            r = find(x)
            component_id.setdefault(r, x)
            tail, head = edge.tail * d + s, edge.head * d + q[s]
            near, far = (tail, head) if rel[x] == 0 else (head, tail)
            for key in ((r, 0, near), (r, 1, far)):
                if key in pushed:
                    dirty.add(r)
                pushed.add(key)
    pushed.clear()
    for w, ids, pairs in lifted:
        for pair in pairs:
            r = find(ids[pair])
            before, after = ids[(pair + 3) % 4], ids[(pair + 1) % 4]
            if (rel[ids[pair]] == 0) != (w[pair] > 0):
                before, after = after, before
            for key in ((r, 0, before), (r, 1, after)):
                if key in pushed:
                    dirty.add(r)
                pushed.add(key)
    return tuple(sorted((x, r not in dirty)
                        for r, x in component_id.items()))


def carrier_presentation(cx, h):
    """(letters, relators): per edge of _carrier_edges(h), the 0-based
    index of its letter, or None for an edge of the spanning tree of
    pi1_presentation(cx, 0); the letters are the other carrier edges in
    ascending order.  One relator per square h crosses: its boundary
    word in the letters, tree darts cut, cyclically reduced, dropped
    when empty."""
    tree = pi1_presentation(cx, 0).tree_edges
    edges = _carrier_edges(h)
    letter = {}
    for e in edges:
        if e not in tree:
            letter[e] = len(letter)
    relators = []
    for i in sorted({i for i, _ in h.midcubes}):
        w = cyclic_reduce([letter[x] + 1 if x > 0 else -letter[-x] - 1
                           for x in cx.squares[i] if abs(x) in letter])
        if w:
            relators.append(w)
    return tuple(map(letter.get, edges)), relators


def least_clean_carrier_degree(cx, h, max_degree):
    """The least degree k in 2..max_degree of a transitive action of h's
    carrier presentation (carrier_presentation, one per class from
    iter_low_index) in which some preimage component is clean
    (reference_preimage_cleanness), or None."""
    letters, relators = carrier_presentation(cx, h)
    n = len(letters) - letters.count(None)
    for k in range(2, max_degree + 1):
        ident = perm.identity(k)
        for a in perm.iter_low_index(n, relators, k):
            perms = [ident if x is None else a[x] for x in letters]
            if any(ok for _, ok in reference_preimage_cleanness(h, k, perms)):
                return k
    return None


def per_degree_least_clean_degree(carrier, last, budget):
    """What Carrier.least_clean_degree answers, searched degree by
    degree: the carrier presentation's low_index(d) searched from the
    root (permutations._fill from a root _Frontier) for d = 2..last on
    one budget, up to the first class with a clean component, whose
    degree it returns, or to the degree whose search the cap stops,
    returning None then and when no class is clean."""
    for d in range(2, last + 1):
        ident = perm.identity(d)
        for a in perm._fill(carrier.tables, d, budget, perm._Frontier()):
            key = tuple(ident if k is None else a[k]
                        for k in carrier.letters)
            if any(ok for _, ok in carrier.cleanness(key)):
                return d
        if budget.cap_hit:
            return None
    return None


# ---------------------------------------------------------------------------
# virtual cleanness, one cleanness check per cover


# (complex, carrier columns, degree) -> (definitions, classes) for each
# degree _sorted_classes has enumerated in full
_classes = {}
# (hyperplane, cover) -> preimage_cleanness(cover, hyperplane)
_cleanness = {}


def cleanness(cover, h):
    """preimage_cleanness(cover, h), computed once per cover and
    hyperplane across the modes and tests that check it."""
    key = (h, cover)
    if key not in _cleanness:
        _cleanness[key] = preimage_cleanness(cover, h)
    return _cleanness[key]


def _sorted_classes(cx, first, d, node_budget):
    """Every connected cover of degree d up to conjugacy from
    iter_covers, relabeled to its least table with the `first` columns
    first (least_table), in ascending order of that table, as edge
    permutations; node_budget is spent as iter_covers spends it.  A
    degree enumerated in full is kept and replayed, its definitions
    spent at once, whenever the budget left covers them all: that
    enumeration then hits no cap either."""
    key = (cx, tuple(first), d)
    if key in _classes:
        spent, classes = _classes[key]
        if node_budget.cap is None or \
                node_budget.nodes + spent <= node_budget.cap:
            node_budget.nodes += spent
            return classes
    pres = pi1_presentation(cx, 0)
    gens = pres.generators
    kept = reference_eliminate_generators(len(gens), pres.relators)[0]
    start = node_budget.nodes
    tables = []
    for cover in iter_covers(cx, d, connected=True, up_to_conjugacy=True,
                             budget=node_budget):
        table, sigma = least_table([cover.perm(gens[g - 1])
                                    for g in kept], first)
        tables.append((table, tuple(perm.relabel(p, sigma)
                                    for p in cover.perms)))
    classes = [perms for _, perms in sorted(tables, key=lambda c: c[0])]
    if not node_budget.cap_hit:
        _classes[key] = (node_budget.nodes - start, classes)
    return classes


def reference_vclean(cx, h, mode, budget):
    """The scan search.semi_decide_virtually_clean makes, one cleanness
    check per cover, without memo or prune: every connected cover up to
    conjugacy from iter_covers, degree 1 up to the bound, each realized
    as a Cover and checked with preimage_cleanness; in "each" mode a
    cover with a clean component but not all promotes to its regular
    closure.  Each degree's classes are all taken first, each relabeled
    to its least table with h's carrier columns first (carrier_watch),
    and scanned in ascending order of that table (_sorted_classes).
    Returns the whole SearchOutcome, stats included."""
    stats = SearchStats()
    node_budget = perm.NodeBudget(budget.max_nodes)
    first = carrier_watch(cx, h)[1]
    witness = None
    for d in range(1, budget.max_degree + 1):
        for perms in _sorted_classes(cx, first, d, node_budget):
            cover = Cover(cx, d, perms)
            stats.homs_tried += 1
            stats.covers_realized += 1
            comps = cleanness(cover, h)
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


def reference_pruned_vclean(cx, h, mode, budget):
    """The scan search.semi_decide_virtually_clean made before it skipped
    the degrees that have no clean carrier class and cut partial tables
    by their closed carrier orbits: every degree from 1 up to the bound,
    each from degree 2 on the low-index search with the prune
    (h.carrier.key_pos, dirty, 1), which cuts a table only once all d
    cosets exist and every carrier orbit is dirty, the cut of a dirty
    full key; every class's carrier key decided by h.carrier.cleanness,
    and in "each" mode a cover with a clean component but not all
    promoted to its regular closure.  Returns the whole SearchOutcome,
    stats included."""
    pres = pi1_presentation(cx, 0)
    carrier = h.carrier
    stats = SearchStats()
    node_budget = perm.NodeBudget(budget.max_nodes)

    def dirty(key):
        return not any(ok for _, ok in carrier.cleanness(key))

    witness = None
    for d in range(1, budget.max_degree + 1):
        prune = (carrier.key_pos, dirty, 1) if d > 1 else None
        for a in pres.tables.low_index(d, node_budget, prune=prune):
            stats.homs_tried += 1
            stats.covers_realized += 1
            comps = carrier.cleanness(carrier.key(d, a))
            clean = [cid for cid, ok in comps if ok]
            if not clean:
                continue
            cover = cover_from_assignment(cx, pres, d, a)
            if mode == "some":
                witness = VCleanWitness(mode, h.id, cover, clean[0])
            elif len(clean) == len(comps):
                witness = VCleanWitness(mode, h.id, cover, None)
            else:
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


# ---------------------------------------------------------------------------
# the Euler transform


def euler_transform(counts, d):
    """The coefficient of x^d in the product over k of (1 - x^k)^(-c_k),
    with c_k = counts[k-1]: the number of multisets of classes, c_k of
    them of degree k, whose degrees sum to d."""
    series = [1] + [0] * d
    for k, c in enumerate(counts[:d], start=1):
        for _ in range(c):
            # one factor 1 / (1 - x^k)
            for n in range(k, d + 1):
                series[n] += series[n - k]
    return series[d]
