import ast
import glob
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

import vhcomplex

from vhcomplex import (CellularMap, Edge, EdgePath, SquareComplex, check_npc,
                       check_vh, components, concatenate,
                       euler_characteristic, is_closed, is_connected_complex,
                       is_simple_loop, map_path, path_end, pointed_pair,
                       reverse_path, subdivide_edges, subdivide_path, trace,
                       validate, validate_cellular_map)
from vhcomplex.complexes import (Record, Violation, check_path,
                                 cyclic_equal, cyclic_reduce, free_reduce,
                                 identity_map, is_signed_index,
                                 square_corners, structural_violations)
from vhcomplex.search import SearchBudget, SearchStats

import helpers


def torus():
    return helpers.load_complex("torus")


def child_env():
    """The environment with the imported vhcomplex first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(vhcomplex.__file__)),
                    env.get("PYTHONPATH")) if p)
    return env


# a child interpreter's view of a complex pickled by this one
UNPICKLE_AND_HASH = """
import pickle, sys
from vhcomplex import formats
cx = pickle.loads(sys.stdin.buffer.read())
fresh = formats.complex_from_doc(formats.read_doc(sys.argv[1]))
print(cx == fresh, hash(cx) == hash(fresh))
"""


def test_equal_complexes_hash_equal_across_processes():
    """Equal complexes built separately hash equal, also after one of
    them has been hashed, and a pickled complex hashes, in a process
    with another PYTHONHASHSEED, as a freshly built equal complex does
    there: no hash value travels with it."""
    a, b = torus(), SquareComplex.make(
        1, [(0, 0, "V"), (0, 0, "H")], [[1, 2, -1, -2]])
    assert a == b and a is not b and hash(a) == hash(b) == hash(a)
    d = helpers.doubled_complex()
    assert hash(d) == hash(helpers.doubled_complex())
    env = child_env()
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    for cx, name in ((a, "torus"), (d, "doubled")):
        proc = subprocess.run(
            [sys.executable, "-c", UNPICKLE_AND_HASH,
             helpers.fixture_path(name)],
            input=pickle.dumps(cx), capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [b"True", b"True"], name


# ---------------------------------------------------------------------------
# records


def test_record_contract():
    """Records keep the repr, equality, hashing and immutability that
    the package's value types have always had."""
    assert repr(Edge(0, 1, "H")) == "Edge(tail=0, head=1, label='H')"
    assert repr(SearchBudget(max_degree=2)) == \
        "SearchBudget(max_degree=2, max_nodes=None)"
    assert repr(SearchStats()) == ("SearchStats(homs_tried=0, "
                                   "covers_realized=0, nodes=0, "
                                   "cap_hit=False)")
    # __post_init__ normalizes the word to a tuple
    assert repr(EdgePath(0, [1, -2])) == "EdgePath(start=0, word=(1, -2))"

    class Twin(Record):
        tail: int
        head: int
        label: str

    e = Edge(0, 1, "H")
    assert e == Edge(tail=0, head=1, label="H") == Edge(0, label="H", head=1)
    assert e is not Edge(0, 1, "H") and hash(e) == hash(Edge(0, 1, "H"))
    assert e != (0, 1, "H") and (0, 1, "H") != e
    assert e != Twin(0, 1, "H") and e != Violation(0, 1, "H")
    assert e != Edge(0, 1, "V")
    assert SearchBudget(3) == SearchBudget(max_degree=3, max_nodes=None)
    assert hash(SearchBudget(3, 7)) == hash(SearchBudget(3, max_nodes=7))

    for action in (lambda: setattr(e, "tail", 2),
                   lambda: setattr(e, "extra", 2),
                   lambda: delattr(e, "tail"),
                   lambda: setattr(SearchBudget(2), "max_nodes", 5)):
        with pytest.raises(AttributeError):
            action()
    assert e.tail == 0 and not hasattr(e, "extra")

    stats = SearchStats()
    stats.nodes += 5
    del stats.cap_hit
    stats.cap_hit = True
    assert stats == SearchStats(nodes=5, cap_hit=True) != SearchStats()
    with pytest.raises(TypeError):
        hash(stats)

    for call in (lambda: Edge(0, 1),                       # missing
                 lambda: SearchBudget(),                   # missing
                 lambda: SearchBudget(max_nodes=3),        # missing
                 lambda: Edge(0, 1, "H", 2),               # too many
                 lambda: Edge(0, 1, "H", weight=2),        # unknown
                 lambda: SearchBudget(2, degree=2),        # unknown
                 lambda: Edge(0, 1, "H", tail=0),          # repeated
                 lambda: SearchBudget(2, max_degree=2)):   # repeated
        with pytest.raises(TypeError):
            call()

    with pytest.raises(ValueError, match="max_degree must be an int"):
        SearchBudget(max_degree=True)
    with pytest.raises(ValueError, match="max_nodes must not be negative"):
        SearchBudget(2, -1)


def test_records_ignore_cached_properties():
    """What a cached property keeps lives on the record's instance and
    takes no part in its equality, hash or repr."""
    a, b = torus(), torus()
    before = (repr(a), hash(a))
    assert a._pi1 == {} and "_pi1" in vars(a) and "_pi1" not in vars(b)
    assert a == b and (repr(a), hash(a)) == before == (repr(b), hash(b))


# the modules a child interpreter adds by importing the CLI
IMPORT_CLI = """
import sys
before = set(sys.modules)
import vhcomplex.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Records are not dataclasses, so start-up compiles no generated
    methods and loads neither module.  Nor does it load traceback, which
    only the internal-error path imports.  Modules that site imported
    before the CLI do not count."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CLI],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "vhcomplex.complexes" in added and "vhcomplex.cli" in added
    assert not added & {"dataclasses", "inspect", "traceback"}, \
        sorted(added)


def test_no_module_imports_a_private_name_of_another():
    """A module of the package reaches its siblings through their public
    names only: no relative `from .x import _name`."""
    src = os.path.dirname(vhcomplex.__file__)
    found = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += ["%s:%d %s" % (os.path.basename(path), node.lineno,
                                        alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


# ---------------------------------------------------------------------------
# validation


def test_valid_fixtures_fully_validate():
    for name in helpers.GOOD_FIXTURES:
        report = validate(helpers.load_complex(name))
        assert report.ok and report.vh and report.npc, name
        assert report.violations == ()


def test_structural_kinds():
    bad_ref = SquareComplex(1, (Edge(0, 2, "V"),), ())
    kinds = {v.kind for v in structural_violations(bad_ref)}
    assert kinds == {"reference"}

    bad_label = SquareComplex(1, (Edge(0, 0, "X"),), ())
    assert {v.kind for v in structural_violations(bad_label)} == {"label"}

    short = helpers.load_complex("bad_length")
    assert {v.kind for v in structural_violations(short)} \
        == {"boundary-length"}

    open_square = helpers.load_complex("bad_closure")
    assert {v.kind for v in structural_violations(open_square)} \
        == {"closure"}

    # a dart referencing a missing edge is a square-level reference error
    stray = SquareComplex(1, (Edge(0, 0, "V"),), ((1, 5, -1, -5),))
    assert {v.kind for v in structural_violations(stray)} == {"reference"}


def test_structural_failure_short_circuits_report():
    report = validate(helpers.load_complex("bad_length"))
    assert not report.ok and not report.vh and not report.npc
    assert not report.all_ok


def test_vh_alternation():
    ok, violations = check_vh(torus())
    assert ok and violations == []
    ok, violations = check_vh(helpers.load_complex("bad_vh"))
    assert not ok
    assert violations[0].kind == "vh-alternation"


def test_npc_link_loop_and_bigon():
    # VVVV square folds edge 1 onto itself, producing loops in the link
    folded = helpers.load_complex("bad_vh")
    ok, violations = check_npc(folded)
    assert not ok
    assert {v.kind for v in violations} == {"link-loop", "link-bigon"}

    # doubling the torus square repeats every corner, a bigon per vertex
    t = torus()
    doubled = SquareComplex(1, t.edges, t.squares * 2)
    ok, violations = check_npc(doubled)
    assert not ok
    assert all(v.kind == "link-bigon" for v in violations)


def test_square_corners_torus():
    corners = square_corners(torus(), 0)
    assert len(corners) == 4
    for vertex, (a, b) in corners:
        assert vertex == 0
        assert a != b
    # all four corner pairs are distinct, so the link is simple
    assert len({pair for _, pair in corners}) == 4


# ---------------------------------------------------------------------------
# paths and words


def test_trace_and_closure():
    t = torus()
    p = EdgePath(0, (1, 2, -1, -2))
    assert trace(t, p) == [0, 0, 0, 0, 0]
    assert is_closed(t, p)
    assert path_end(t, p) == 0


def test_bool_darts_are_not_edge_ids():
    """True equals 1, but it is not a dart: trace and the structural
    check reject it as they reject any dart outside +-1..num_edges."""
    assert is_signed_index(1, 2) and is_signed_index(-2, 2)
    for x in (True, False, 0, 3, -3, 1.0, "1", None):
        assert not is_signed_index(x, 2), x
    t = torus()
    with pytest.raises(ValueError, match="dart True is not a signed edge"):
        trace(t, EdgePath(0, (True,)))
    bad = SquareComplex(1, t.edges, ((True, 2, -1, -2),))
    assert structural_violations(bad) == [
        Violation("reference", ("square", 0),
                  "dart True is not a signed edge id")]
    assert not validate(bad).ok


def test_trace_rejects_breaks():
    cx = helpers.load_complex("bad_closure")
    assert check_path(cx, EdgePath(0, (2, 2))) is not None
    with pytest.raises(ValueError):
        trace(cx, EdgePath(0, (2, 2)))
    with pytest.raises(ValueError):
        trace(cx, EdgePath(5, (1,)))


def test_reverse_and_concatenate():
    t = torus()
    p = EdgePath(0, (1, 2))
    r = reverse_path(t, p)
    assert r.word == (-2, -1)
    both = concatenate(t, p, r)
    assert is_closed(t, both)
    with pytest.raises(ValueError):
        concatenate(helpers.load_complex("bad_closure"),
                    EdgePath(0, (2,)), EdgePath(0, (1,)))


def test_simple_loop():
    t = torus()
    assert is_simple_loop(t, EdgePath(0, (1,)))
    assert not is_simple_loop(t, EdgePath(0, ()))
    assert not is_simple_loop(t, EdgePath(0, (1, 1)))
    assert not is_simple_loop(t, EdgePath(0, (1, 2)))  # repeats basepoint


def test_word_reduction():
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((2, 1, -2)) == (1,)
    assert cyclic_equal((1, 2), (2, 1))
    assert not cyclic_equal((1, 2), (1, -2))


def test_cyclic_reduce_cuts_the_conjugating_prefix_at_once():
    """cyclic_reduce strips every conjugating pair with one slice: it
    agrees with stripping them one at a time on random words, and
    a^n b a^-n with 2n + 1 = 200,001 letters reduces to b in well under
    a second."""
    def one_pair_at_a_time(word):
        w = list(free_reduce(word))
        while len(w) > 1 and w[0] == -w[-1]:
            w = w[1:-1]
        return tuple(w)
    rng = random.Random(32)
    for _ in range(2000):
        word = [rng.choice((1, -1, 2, -2, 3))
                for _ in range(rng.randrange(12))]
        assert cyclic_reduce(word) == one_pair_at_a_time(word), word
    n = 100_000
    start = time.perf_counter()
    assert cyclic_reduce((1,) * n + (2,) + (-1,) * n) == (2,)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# components, euler characteristic, pairs


def test_components_and_labels():
    theta = helpers.load_complex("theta")
    assert is_connected_complex(theta)
    assert len(components(theta)) == 1
    # vertical subgraph of the theta fixture is the two petals
    assert components(theta, labels=frozenset(["V"])) == [frozenset({0})]

    two = SquareComplex(2, (Edge(0, 0, "V"), Edge(1, 1, "H")), ())
    assert len(components(two)) == 2
    assert not is_connected_complex(two)


def test_euler_characteristic():
    assert euler_characteristic(torus()) == 0
    assert euler_characteristic(helpers.load_complex("klein")) == 0
    assert euler_characteristic(helpers.load_complex("circle")) == 0
    assert euler_characteristic(helpers.load_complex("wedge2")) == -1


def test_pointed_pair_vertical_edges():
    pair = pointed_pair(helpers.load_complex("theta"), 0)
    assert pair.v_edges == frozenset({1, 2})
    assert pair.basepoint == 0


# ---------------------------------------------------------------------------
# cellular maps


def test_identity_map_validates():
    t = torus()
    assert validate_cellular_map(identity_map(t)) == []


def test_map_path_and_square_checks():
    t = torus()
    m = identity_map(t)
    p = EdgePath(0, (1, -2))
    assert map_path(m, p).word == (1, -2)

    # send edge 1 across the trivial word: square boundary must still match
    collapsed = CellularMap(t, t, (0,), ((), (2,)), (None,))
    errors = validate_cellular_map(collapsed)
    assert errors == []  # boundary image 2 -2 is freely trivial

    broken = CellularMap(t, t, (0,), ((), (2,)), (0,))
    assert validate_cellular_map(broken)


# ---------------------------------------------------------------------------
# subdivision


def test_subdivide_identity():
    t = torus()
    sub = subdivide_edges(t, {})
    assert sub.complex == t
    assert sub.effective_factors == (1, 1)


def test_subdivide_rejects_bad_factors():
    t = torus()
    with pytest.raises(ValueError):
        subdivide_edges(t, {1: 0})
    with pytest.raises(ValueError):
        subdivide_edges(t, {9: 2})
    with pytest.raises(ValueError):
        subdivide_edges(helpers.load_complex("bad_length"), {1: 2})


def test_subdivide_torus_strip():
    t = torus()
    sub = subdivide_edges(t, {1: 3})
    assert sub.effective_factors == (3, 1)
    assert sub.complex.num_vertices == 3
    assert sub.complex.num_squares == 3
    assert validate(sub.complex).all_ok
    assert euler_characteristic(sub.complex) == 0
    assert len(sub.edge_chains[0]) == 3
    # old vertices keep their ids, chains run tail to head
    walk = trace(sub.complex, EdgePath(0, sub.edge_chains[0]))
    assert walk[0] == 0 and walk[-1] == 0


def test_subdivide_lifts_factors_over_opposite_sides():
    # a square forces opposite sides to the same factor
    cx = SquareComplex(2, (Edge(0, 1, "V"), Edge(1, 1, "H"),
                           Edge(0, 1, "V"), Edge(0, 0, "H")),
                       ((1, 2, -3, -4),))
    assert validate(cx).all_ok
    sub = subdivide_edges(cx, {1: 2})
    assert sub.effective_factors[0] == 2
    assert sub.effective_factors[2] == 2  # opposite side follows
    assert validate(sub.complex).all_ok


def test_subdivide_path_expands_chains():
    t = torus()
    sub = subdivide_edges(t, {1: 2})
    p = subdivide_path(sub, EdgePath(0, (1, -1)))
    assert len(p.word) == 4
    assert trace(sub.complex, p)[-1] == 0
    assert free_reduce(p.word) == ()
