"""Seeded fuzzing of the CLI with mutated fixture documents.

Each case mutates the JSON of the fixtures one subcommand reads (drop a
key, swap two values, put in a junk value or a copy of another part of
the document, delete or duplicate a list item) and runs the subcommand
in-process.  Whatever the input, the CLI must answer (0), report a
failed check (1) or reject the input (2), and never print a traceback.
"""

import copy
import json
import random

from vhcomplex.cli import console_main

import helpers

CASES = 300
COMPLEXES = helpers.GOOD_FIXTURES + ("bad_vh", "bad_closure", "bad_length")
PRESENTATIONS = ("trivial_group", "z_squared")
JUNK = (-1, 0, 1, 2, 7, 1.5, "", "V", "H", "ab", "aB", None, True,
        [], {}, [0], [1, -1], {"start": 0})


def _containers(doc):
    """Every non-empty dict or list inside doc, doc included."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)) and node:
            out.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return out


def mutate(rng, doc):
    """A copy of doc with up to two random mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.03:
            return copy.deepcopy(rng.choice(JUNK))
        nodes = _containers(doc)
        if not nodes:
            break
        node = rng.choice(nodes)
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key, other = rng.choice(keys), rng.choice(keys)
        op = rng.choice(("drop", "swap", "junk", "copy", "duplicate"))
        if op == "drop":
            del node[key]
        elif op == "swap":
            node[key], node[other] = node[other], node[key]
        elif op == "junk":
            node[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == "copy":
            node[key] = copy.deepcopy(rng.choice(_containers(doc)))
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    return doc


def _fixture(name):
    with open(helpers.fixture_path(name)) as f:
        return json.load(f)


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _argv(rng, tmp):
    """A random subcommand line over freshly mutated fixture files."""
    def complex_file():
        return _write(tmp / "complex.json",
                      mutate(rng, _fixture(rng.choice(COMPLEXES))))

    def presentation_file():
        return _write(tmp / "pres.json",
                      mutate(rng, _fixture(rng.choice(PRESENTATIONS))))

    def loop_file():
        return _write(tmp / "loop.json", mutate(rng, _fixture("loop_a")))

    budget = ["--max-degree", str(rng.randint(1, 2)), "--max-nodes", "2000"]
    kind = rng.randrange(8)
    if kind == 0:
        return ["validate", complex_file()]
    if kind == 1:
        return ["hyperplanes", complex_file(), "--special"]
    if kind == 2:
        flags = rng.choice(([], ["--connected"], ["--up-to-conjugacy"],
                            ["--connected", "--up-to-conjugacy"]))
        return (["covers", complex_file(), "--degree",
                 str(rng.randint(-1, 3))] + flags)
    if kind == 3:
        return ["construct", "jp", "--presentation", presentation_file(),
                "--core", complex_file(), "--core-loop", loop_file(),
                "--out-dir", str(tmp / "jp")]
    if kind == 4:
        return ["construct", "xn", "--complex", complex_file(),
                "--loop", loop_file(), "--out-dir", str(tmp / "xn")]
    if kind == 5:
        return (["search", "vclean", "--complex", complex_file(),
                 "--hyperplane", str(rng.randint(0, 3)),
                 "--mode", rng.choice(("some", "each"))] + budget)
    if kind == 6:
        return (["search", "loop-survival", "--complex", complex_file(),
                 "--loop", loop_file()] + budget)
    word = rng.choice(([], ["--word", "ab"], ["--word", "aB"],
                       ["--word", "c"]))
    return (["search", "profinite-probe",
             "--presentation", presentation_file()] + word + budget)


def test_cli_never_crashes_on_mutated_fixtures(tmp_path, capsys):
    rng = random.Random(2026)
    codes = set()
    for case in range(CASES):
        argv = _argv(rng, tmp_path)
        try:
            code = console_main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (case, argv, err)
        codes.add(code)
    assert codes == {0, 1, 2}
