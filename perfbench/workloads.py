"""The benchmark's workloads: inputs, tasks and output checks.

A workload is a list of tasks.  Each task is (label, run, check): run()
asks vhcomplex for one verdict or one CLI result and is timed; check()
compares what it returned with an answer that does not come from the
code under test and returns an error message, or None when it is right.
Tasks look library functions up through their modules at call time, so
a traced pass sees the tracer's wrappers.

Every task runs without a node cap: its work is fixed by its inputs, not
by how the library counts nodes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oracles import grid_hyperplanes, sigma, torus_cover_count

PACKAGE = "vhcomplex"
MODULES = ("complexes", "presentations", "permutations", "hyperplanes",
           "covers", "constructions", "search", "formats", "cli")
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Degrees of the torus cover census.
CENSUS_DEGREES = range(1, 7)
# Degree bound of the profinite probe.
PROBE_DEGREE = 6
# Degree bound of the virtual-cleanness scans.
VCLEAN_DEGREE = 2
# Hyperplanes of the doubled complex D whose scans to degree 2 are
# EXHAUSTED in both modes; every other scan is FOUND.  Pinned from the
# first release of the searches.  Which witness is found is not pinned.
VCLEAN_EXHAUSTED = frozenset({13, 28, 46, 61})
VCLEAN_HYPERPLANES = (1, 2, 8, 13, 23, 28, 33, 34, 41, 46, 56, 61, 67)
# Grid tori realized and checked through the CLI, and the cover dump.
GRIDS = ((24, 24), (32, 16))
COVER_DEGREE = 5
READBACK_SAMPLE = 40


@dataclass
class Workload:
    tasks: list                       # (label, run, check)
    reset: Callable[[], None] = field(default=lambda: None)


def import_library(src: Path) -> dict:
    """Import vhcomplex from src, never from an installed copy; short
    module name -> module."""
    sys.path.insert(0, str(src))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError("%s was imported from %s, not from %s"
                          % (PACKAGE, package.__file__, src))
    return {m: importlib.import_module(PACKAGE + "." + m) for m in MODULES}


def build(name: str, lib: dict, seed: int, workdir: Path) -> Workload:
    """Load fixtures and make the workload's inputs; the seed only orders
    tasks and picks samples."""
    formats = lib["formats"]
    torus = formats.complex_from_doc(
        formats.read_doc(FIXTURES / "torus.json"))
    trivial = formats.presentation_from_doc(
        formats.read_doc(FIXTURES / "trivial_group.json"))
    return BUILDERS[name](lib, torus, trivial, random.Random(seed), workdir)


def _census(lib, torus, trivial, rng, workdir):
    def task(d):
        def run():
            return sum(1 for _ in lib["covers"].iter_covers(
                torus, d, connected=True, up_to_conjugacy=True))

        def check(count):
            if count != sigma(d):
                return "%d covers, expected sigma(%d) = %d" % (
                    count, d, sigma(d))
        return "census d=%d" % d, run, check
    return Workload([task(d) for d in CENSUS_DEGREES])


def _probe(lib, torus, trivial, rng, workdir):
    def run():
        search = lib["search"]
        return search.probe_profinite_triviality(
            trivial, budget=search.SearchBudget(max_degree=PROBE_DEGREE))

    def check(outcome):
        # <a, b | abABB, baBAA> is the trivial group: no finite quotient
        # is nontrivial, so FOUND would be a bug.
        if outcome.status != "EXHAUSTED":
            return "trivial group reported %s" % outcome.status
    return Workload([("probe d<=%d" % PROBE_DEGREE, run, check)])


def doubled_complex(lib, torus, trivial):
    """D: the first double from the pair enumerator over the trivial
    group, the torus and its vertical loop."""
    item = next(lib["constructions"].pair_enumerator(
        [trivial], torus, lib["complexes"].EdgePath(0, (1,))))
    return item.double.complex


def _vclean(lib, torus, trivial, rng, workdir):
    d = doubled_complex(lib, torus, trivial)
    if (d.num_vertices, d.num_edges, d.num_squares) != (22, 68, 42):
        raise ValueError("the doubled complex changed shape")
    hyps = lib["hyperplanes"].hyperplanes(d)
    if tuple(h.id for h in hyps) != VCLEAN_HYPERPLANES:
        raise ValueError("the doubled complex's hyperplanes changed")

    def task(h, mode):
        expected = "EXHAUSTED" if h.id in VCLEAN_EXHAUSTED else "FOUND"

        def run():
            search = lib["search"]
            return search.semi_decide_virtually_clean(
                d, h, mode, search.SearchBudget(max_degree=VCLEAN_DEGREE))

        def check(outcome):
            if outcome.status != expected:
                return "%s, expected %s" % (outcome.status, expected)
            if outcome.status == "FOUND" and not lib["search"]. \
                    revalidate_witness(outcome.witness, complex=d,
                                       hyperplane=h):
                return "witness fails revalidation"
        return "vclean h=%d %s" % (h.id, mode), run, check

    tasks = [task(h, mode) for h in hyps for mode in ("each", "some")]
    rng.shuffle(tasks)
    return Workload(tasks)


def grid_cover(lib, torus, m, n):
    """The m x n grid cover of the one-vertex torus: sheet (i, j) is
    i*n + j, edge 1 steps i and edge 2 steps j."""
    v = tuple(((i + 1) % m) * n + j for i in range(m) for j in range(n))
    h = tuple(i * n + (j + 1) % n for i in range(m) for j in range(n))
    return lib["covers"].Cover(torus, m * n, (v, h))


def console(lib, argv):
    """Run the CLI in-process; (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = lib["cli"].console_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _exit_zero(what, check_doc):
    def check(result):
        code, out = result
        if code != 0:
            return "%s exited %r" % (what, code)
        return check_doc(json.loads(out))
    return check


def _cli(lib, torus, trivial, rng, workdir):
    formats = lib["formats"]
    torus_path = workdir / "torus.json"
    formats.write_doc(torus_path, formats.complex_to_doc(torus))
    covers_dir = workdir / "covers"
    expected_covers = torus_cover_count(COVER_DEGREE)

    def grid_job(m, n):
        cover = grid_cover(lib, torus, m, n)
        path = workdir / ("grid_%dx%d.json" % (m, n))

        def realize():
            z = lib["covers"].total_space(cover).complex
            lib["formats"].write_doc(path, lib["formats"].complex_to_doc(z))
            return z.num_vertices, z.num_edges, z.num_squares

        def check_cells(cells):
            if cells != (m * n, 2 * m * n, m * n):
                return "grid %dx%d has %r cells" % (m, n, cells)

        def check_hyperplanes(doc):
            if len(doc["hyperplanes"]) != grid_hyperplanes(m, n):
                return "%d hyperplanes, expected %d" % (
                    len(doc["hyperplanes"]), grid_hyperplanes(m, n))
            if doc["special"] is not True:
                return "grid torus reported not special"

        label = "grid %dx%d " % (m, n)
        return [
            (label + "realize", realize, check_cells),
            (label + "validate", lambda: console(lib, ["validate", str(path)]),
             _exit_zero("validate", lambda doc: None)),
            (label + "hyperplanes",
             lambda: console(lib, ["hyperplanes", "--special", str(path)]),
             _exit_zero("hyperplanes --special", check_hyperplanes)),
        ]

    def check_count(doc):
        if doc["count"] != expected_covers:
            return "%d covers, expected %d" % (doc["count"], expected_covers)
        files = len(os.listdir(covers_dir))
        if files != expected_covers:
            return "%d cover files, expected %d" % (files, expected_covers)

    sample = sorted(rng.sample(range(expected_covers), READBACK_SAMPLE))

    def read_back():
        names = sorted(os.listdir(covers_dir))
        return [lib["formats"].cover_from_doc(
                    lib["formats"].read_doc(covers_dir / names[i]))
                for i in sample]

    def check_read_back(covers):
        for c in covers:
            if c.base != torus or c.degree != COVER_DEGREE \
                    or not lib["covers"].validate_cover(c):
                return "a cover read back is not a degree-%d torus cover" \
                    % COVER_DEGREE

    cover_job = [
        ("covers d=%d" % COVER_DEGREE,
         lambda: console(lib, ["covers", str(torus_path), "--degree",
                               str(COVER_DEGREE), "--out-dir",
                               str(covers_dir)]),
         _exit_zero("covers", check_count)),
        ("covers read-back", read_back, check_read_back),
    ]
    jobs = [grid_job(m, n) for m, n in GRIDS] + [cover_job]
    rng.shuffle(jobs)
    return Workload([t for job in jobs for t in job],
                    reset=lambda: shutil.rmtree(covers_dir,
                                                ignore_errors=True))


BUILDERS = {"census": _census, "probe": _probe, "vclean": _vclean,
            "cli": _cli}
