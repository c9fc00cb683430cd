"""Command line interface.

Exit codes are uniform across subcommands: 0 for success or FOUND, 1
for a failed check or an EXHAUSTED search, 2 for unusable input, and 3
for an internal error, with its traceback on stderr.  All structured
output is canonical JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import formats
from .complexes import pointed_pair, validate
from .constructions import attach_relators, double_along_loop
from .covers import enumerate_covers, iter_covers
from .hyperplanes import _no_inter_osculation, hyperplanes, is_clean
from .search import (SearchBudget, element_survives, loop_survives,
                     probe_profinite_triviality,
                     semi_decide_virtually_clean)

OK = 0
FAILED = 1
BAD_INPUT = 2
INTERNAL_ERROR = 3


def _emit(doc):
    sys.stdout.write(formats.canonical_json(doc))


def _load_complex(path):
    return formats.complex_from_doc(formats.read_doc(path))


def _cmd_validate(args):
    report = validate(_load_complex(args.file))
    _emit(formats.validation_to_doc(report))
    return OK if report.all_ok else FAILED


def _cmd_hyperplanes(args):
    cx = _load_complex(args.file)
    hyps = hyperplanes(cx)
    reports = [is_clean(h) for h in hyps]
    all_clean = all(r.clean for r in reports)
    special = all_clean and _no_inter_osculation(cx, hyps)
    _emit({
        "hyperplanes": [formats.cleanliness_to_doc(r) for r in reports],
        "all_clean": all_clean,
        "special": special,
    })
    if args.clean and not all_clean:
        return FAILED
    if args.special and not special:
        return FAILED
    return OK


def _cmd_covers(args):
    cx = _load_complex(args.file)
    flags = dict(connected=args.connected,
                 up_to_conjugacy=args.up_to_conjugacy)
    if args.out_dir:
        # file names take their width from the count, so the covers are
        # gathered before the first is written
        covers = enumerate_covers(cx, args.degree, **flags)
        os.makedirs(args.out_dir, exist_ok=True)
        width = max(4, len(str(len(covers))))
        for i, c in enumerate(covers):
            name = "cover_%0*d.json" % (width, i)
            formats.write_doc(os.path.join(args.out_dir, name),
                              formats.cover_to_doc(c))
        count = len(covers)
    else:
        count = sum(1 for _ in iter_covers(cx, args.degree, **flags))
    _emit({
        "degree": args.degree,
        "connected": args.connected,
        "up_to_conjugacy": args.up_to_conjugacy,
        "count": count,
    })
    return OK


def _cmd_construct_jp(args):
    pres = formats.presentation_from_doc(formats.read_doc(args.presentation))
    core = _load_complex(args.core)
    loop = formats.path_from_doc(formats.read_doc(args.core_loop))
    att = attach_relators(pres, core, loop)
    os.makedirs(args.out_dir, exist_ok=True)
    formats.write_doc(os.path.join(args.out_dir, "complex.json"),
                      formats.complex_to_doc(att.complex))
    formats.write_doc(os.path.join(args.out_dir, "manifest.json"),
                      formats.attachment_manifest(att))
    formats.write_doc(os.path.join(args.out_dir, "phi.json"),
                      formats.crush_to_doc(att.crush))
    _emit({
        "out_dir": args.out_dir,
        "num_vertices": att.complex.num_vertices,
        "num_edges": att.complex.num_edges,
        "num_squares": att.complex.num_squares,
        "wedge_factor": att.wedge_factor,
    })
    return OK


def _cmd_construct_xn(args):
    cx = _load_complex(args.complex)
    loop = formats.path_from_doc(formats.read_doc(args.loop))
    dbl = double_along_loop(pointed_pair(cx, loop.start), loop)
    os.makedirs(args.out_dir, exist_ok=True)
    formats.write_doc(os.path.join(args.out_dir, "complex.json"),
                      formats.complex_to_doc(dbl.complex))
    formats.write_doc(os.path.join(args.out_dir, "manifest.json"),
                      formats.double_manifest(dbl))
    _emit({
        "out_dir": args.out_dir,
        "num_vertices": dbl.complex.num_vertices,
        "num_edges": dbl.complex.num_edges,
        "num_squares": dbl.complex.num_squares,
        "hyperplane": dbl.hyperplane.id,
    })
    return OK


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(max_degree=args.max_degree,
                        max_nodes=args.max_nodes)


def _finish_search(outcome, args, pres=None):
    doc = formats.outcome_to_doc(outcome, pres=pres)
    _emit(doc)
    if args.out:
        formats.write_doc(args.out, doc)
    return OK if outcome.found else FAILED


def _cmd_search_vclean(args):
    cx = _load_complex(args.complex)
    matches = [h for h in hyperplanes(cx) if h.id == args.hyperplane]
    if not matches:
        raise ValueError("no hyperplane with id %d" % args.hyperplane)
    outcome = semi_decide_virtually_clean(cx, matches[0], args.mode,
                                          _budget_from_args(args))
    return _finish_search(outcome, args)


def _cmd_search_loop_survival(args):
    cx = _load_complex(args.complex)
    loop = formats.path_from_doc(formats.read_doc(args.loop))
    outcome = loop_survives(cx, loop, _budget_from_args(args))
    return _finish_search(outcome, args)


def _cmd_search_profinite_probe(args):
    pres = formats.presentation_from_doc(formats.read_doc(args.presentation))
    budget = _budget_from_args(args)
    if args.word is not None:
        outcome = element_survives(pres, args.word, budget)
    else:
        outcome = probe_profinite_triviality(pres, budget=budget)
    return _finish_search(outcome, args, pres=pres)


def _add_budget_options(sub):
    sub.add_argument("--max-degree", type=int, required=True)
    sub.add_argument("--max-nodes", type=int, default=None)
    sub.add_argument("--out", default=None,
                     help="also write the outcome document here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vhcomplex",
        description="Square complexes with vertical/horizontal edges: "
                    "validation, hyperplanes, covers, constructions, and "
                    "bounded searches.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="structural, VH, and curvature "
                                         "checks")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("hyperplanes", help="list hyperplanes and their "
                                            "cleanness")
    p.add_argument("file")
    p.add_argument("--clean", action="store_true",
                   help="fail unless every hyperplane is clean")
    p.add_argument("--special", action="store_true",
                   help="fail unless the complex is special")
    p.set_defaults(func=_cmd_hyperplanes)

    p = subs.add_parser("covers", help="enumerate finite covers")
    p.add_argument("file")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--up-to-conjugacy", action="store_true")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_covers)

    construct = subs.add_parser("construct", help="build derived complexes")
    csubs = construct.add_subparsers(dest="construction", required=True)

    p = csubs.add_parser("jp", help="attach relator cylinders to a "
                                    "presentation wedge")
    p.add_argument("--presentation", required=True)
    p.add_argument("--core", required=True)
    p.add_argument("--core-loop", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_construct_jp)

    p = csubs.add_parser("xn", help="double a complex along a vertical "
                                    "loop")
    p.add_argument("--complex", required=True)
    p.add_argument("--loop", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_construct_xn)

    search = subs.add_parser("search", help="bounded semi-decision "
                                            "searches")
    ssubs = search.add_subparsers(dest="search_kind", required=True)

    p = ssubs.add_parser("vclean", help="look for a cover with clean "
                                        "hyperplane preimages")
    p.add_argument("--complex", required=True)
    p.add_argument("--hyperplane", type=int, required=True)
    p.add_argument("--mode", choices=("some", "each"), required=True)
    _add_budget_options(p)
    p.set_defaults(func=_cmd_search_vclean)

    p = ssubs.add_parser("loop-survival", help="look for a cover where a "
                                               "loop lifts non-closed")
    p.add_argument("--complex", required=True)
    p.add_argument("--loop", required=True)
    _add_budget_options(p)
    p.set_defaults(func=_cmd_search_loop_survival)

    p = ssubs.add_parser("profinite-probe", help="look for a nontrivial "
                                                 "finite quotient")
    p.add_argument("--presentation", required=True)
    p.add_argument("--word", default=None)
    _add_budget_options(p)
    p.set_defaults(func=_cmd_search_profinite_probe)

    return parser


def console_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return BAD_INPUT
    except Exception:
        # a bug, not bad input: keep 1 meaning "check failed"
        traceback.print_exc()
        return INTERNAL_ERROR


def main():
    raise SystemExit(console_main())


if __name__ == "__main__":
    main()
