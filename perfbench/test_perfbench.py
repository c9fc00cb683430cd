"""Tests of the benchmark's own oracles, tracer and metric arithmetic.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import sys
import time
import types
from pathlib import Path

import pytest

from oracles import grid_hyperplanes, partitions, sigma, torus_cover_count
from run import in_reference_units, layer_value, reference_loop, time_task
from tracing import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def test_sigma_matches_subgroup_counts():
    assert [sigma(n) for n in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_partitions():
    assert [partitions(n) for n in range(11)] == \
        [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert torus_cover_count(5) == 840


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_torus_cover_count_counts_commuting_pairs(d):
    perms = list(itertools.permutations(range(d)))

    def compose(p, q):
        return tuple(q[p[i]] for i in range(d))
    brute = sum(1 for p in perms for q in perms
                if compose(p, q) == compose(q, p))
    assert torus_cover_count(d) == brute


@pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (5, 7), (24, 24), (32, 16)])
def test_grid_hyperplanes_by_union_find(m, n):
    # edges of the m x n grid torus: ("v", i, j) runs from row i to row
    # i+1, ("h", i, j) from column j to column j+1; square (i, j) has
    # opposite sides v(i, j), v(i, j+1) and h(i, j), h(i+1, j)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i in range(m):
        for j in range(n):
            parent[find(("v", i, j))] = find(("v", i, (j + 1) % n))
            parent[find(("h", i, j))] = find(("h", (i + 1) % m, j))
    classes = {find(e) for e in list(parent)}
    assert grid_hyperplanes(m, n) == len(classes)


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds a [2, 5] and b [6, 8]; b holds c [6.5, 7]
    t = Tracer(fake_clock(0, 2, 5, 6, 6.5, 7, 8, 10))
    t.enter("outer")
    t.enter("a")
    t.exit()
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.exit()
    self_s, _ = t.take()
    assert self_s == pytest.approx({"outer": 5.0, "a": 3.0, "b": 1.5,
                                    "c": 0.5})
    assert not t.stack and t.take() == ({}, {})


def test_generators_are_timed_per_resume():
    now = [0.0]
    t = Tracer(lambda: now[0])

    def gen():
        now[0] += 1.0       # work before the first item
        yield "x"
        now[0] += 2.0       # work before the end
    wrapped = t.generator("g", gen)
    for _ in wrapped():
        now[0] += 100.0     # the consumer's time is not the generator's
    self_s, counts = t.take()
    assert self_s == {"g": 3.0}
    assert counts == {"g.yields": 1}


def test_calls_count_and_hook():
    t = Tracer(fake_clock(0, 1))
    seen = []
    wrapped = t.calls("f", lambda x: x * 2,
                      lambda counts, args, result: seen.append((args,
                                                                result)))
    assert wrapped(21) == 42
    assert seen == [((21,), 42)]
    assert t.take() == ({"f": 1}, {"f.calls": 1})


def test_install_rebinds_every_module_global_of_the_package():
    def f():
        return "original"
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    other = types.ModuleType("otherpkg")
    a.f = f
    b.imported_f = f          # a from-import under another name
    pkg.f = f                 # a re-export
    other.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b,
            "otherpkg": other}
    sys.modules.update(mods)
    try:
        t = Tracer()
        t.install("fakepkg", {f: t.calls("f", f)})
        assert a.f is not f and b.imported_f is a.f and pkg.f is a.f
        assert other.f is f
        assert b.imported_f() == "original"
        t.uninstall()
        assert a.f is f and b.imported_f is f and pkg.f is f
    finally:
        for name in mods:
            del sys.modules[name]


def test_layer_value_adds_setup_to_the_median_pass():
    setup = ({"x": 1.0}, {"x.calls": 2, "x.kept": 1})
    passes = [({"x": 5.0}, {"x.calls": 6, "x.kept": 3}),
              ({"x": 3.0}, {"x.calls": 6, "x.kept": 3}),
              ({"x": 4.0}, {"x.calls": 6, "x.kept": 3})]
    assert layer_value("x.self_s", setup, passes, 1.5) == 5.0
    assert layer_value("x.calls", setup, passes, 1.5) == 8
    assert layer_value("x.kept_ratio", setup, passes, 1.5) == 0.5
    assert layer_value("y.kept_ratio", setup, passes, 1.5) == 0.0
    assert layer_value("trace.overhead_ratio", setup, passes, 1.5) == 1.5


def test_task_times_are_divided_by_the_reference_loops_around_them():
    # loops of 2, 4 and 1 s before, between and after two tasks; the
    # second task also timed loops of 3 and 2 s while it ran
    assert in_reference_units([6.0, 5.0], [2.0, 4.0, 1.0], [[], [3.0, 2.0]]) \
        == pytest.approx([2.0, 2.0])


def test_loops_timed_during_a_task_are_not_charged_to_it():
    def task():
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        return "done"
    value, error, seconds, inside = time_task(task, sample=True)
    assert (value, error) == ("done", None)
    assert len(inside) >= 1
    assert seconds + sum(inside) == pytest.approx(0.6, abs=0.1)
    assert seconds < 0.6


def test_reference_loop_does_fixed_work():
    assert reference_loop() == 5040


def test_benchmark_spec_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in SPEC["end_to_end"]} == \
        {"setup_s", "wall_ref", "longest_verdict_ref", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
