import json
import os
import shutil
import subprocess
import sys

import pytest

from vhcomplex import (Cover, EdgePath, LoopWitness, SearchBudget,
                       attach_relators, double_along_loop, hyperplanes,
                       is_clean, loop_survives, pointed_pair,
                       probe_profinite_triviality, validate)
import vhcomplex
from vhcomplex import cli, formats
from vhcomplex.cli import console_main

import helpers


# ---------------------------------------------------------------------------
# document round trips


def test_canonical_json_is_stable():
    text = formats.canonical_json({"b": 1, "a": [True, None]})
    assert text == '{\n  "a": [\n    true,\n    null\n  ],\n  "b": 1\n}\n'


def test_complex_round_trip():
    for name in helpers.GOOD_FIXTURES + helpers.BAD_FIXTURES:
        cx = helpers.load_complex(name)
        assert formats.complex_from_doc(formats.complex_to_doc(cx)) == cx


def test_complex_from_doc_rejects_bad_shapes():
    good = formats.complex_to_doc(helpers.load_complex("torus"))
    bad = json.loads(json.dumps(good))
    bad["edges"][0]["id"] = 2
    with pytest.raises(ValueError):
        formats.complex_from_doc(bad)
    bad = json.loads(json.dumps(good))
    bad["vertices"] = -1
    with pytest.raises(ValueError):
        formats.complex_from_doc(bad)
    bad = json.loads(json.dumps(good))
    bad["squares"] = [[1, "2", -1, -2]]
    with pytest.raises(ValueError):
        formats.complex_from_doc(bad)
    with pytest.raises(ValueError):
        formats.complex_from_doc({"vertices": 1, "edges": []})


def test_semantically_broken_complexes_still_load():
    # the loader checks shapes only; validation owns the semantics
    cx = helpers.load_complex("bad_length")
    assert not validate(cx).ok


def test_path_round_trip():
    p = EdgePath(3, (1, -2, 1))
    assert formats.path_from_doc(formats.path_to_doc(p)) == p
    with pytest.raises(ValueError):
        formats.path_from_doc({"start": 0, "word": [0]})
    with pytest.raises(ValueError):
        formats.path_from_doc({"start": 0, "word": [1.5]})


def test_presentation_round_trip():
    pres = helpers.load_presentation("trivial_group")
    doc = formats.presentation_to_doc(pres)
    assert doc["generators"] == ["a", "b"]
    assert doc["relators"] == ["abABB", "baBAA"]
    assert formats.presentation_from_doc(doc) == pres
    with pytest.raises(ValueError):
        formats.presentation_from_doc({"generators": ["a"],
                                       "relators": ["b"]})


def test_cover_round_trip_omits_identity():
    t = helpers.load_complex("torus")
    c = Cover(t, 2, ((1, 0), (0, 1)))
    doc = formats.cover_to_doc(c)
    assert doc["perm"] == {"1": [1, 0]}
    assert formats.cover_from_doc(doc) == c

    ref = formats.cover_to_doc(c, base_ref="complex.json")
    assert ref["base"] == "complex.json"
    with pytest.raises(ValueError):
        formats.cover_from_doc(ref)
    assert formats.cover_from_doc(ref, base=t) == c

    bad = json.loads(json.dumps(doc))
    bad["perm"]["9"] = [0, 1]
    with pytest.raises(ValueError):
        formats.cover_from_doc(bad)
    bad = json.loads(json.dumps(doc))
    bad["degree"] = 0
    with pytest.raises(ValueError):
        formats.cover_from_doc(bad)


def test_budget_doc_round_trip():
    b = SearchBudget(max_degree=4, max_nodes=10)
    doc = formats.budget_to_doc(b)
    assert doc == {"max_degree": 4, "max_nodes": 10}
    assert formats.budget_from_doc(doc) == b
    b = SearchBudget(max_degree=3)
    assert formats.budget_from_doc(formats.budget_to_doc(b)) == b


def test_old_budget_document_still_loads():
    # written when the searches could split a scan across worker threads
    old = {"max_degree": 4, "max_nodes": None, "deterministic": True,
           "workers": 2}
    assert formats.budget_from_doc(old) == SearchBudget(max_degree=4)
    t = helpers.load_complex("torus")
    w = loop_survives(t, EdgePath(0, (1,)), SearchBudget(4)).witness
    doc = formats.witness_to_doc(w, budget=formats.budget_from_doc(old))
    doc["budget"] = old
    assert formats.witness_from_doc(doc, complex=t) == w


def test_quotient_witness_round_trip():
    z2 = helpers.load_presentation("z_squared")
    w = probe_profinite_triviality(
        z2, budget=SearchBudget(max_degree=2)).witness
    doc = formats.witness_to_doc(w, pres=z2)
    assert doc["kind"] == "quotient" and doc["images"] == {"a": [1, 0]}
    assert formats.witness_from_doc(doc, pres=z2) == w
    with pytest.raises(ValueError):
        formats.witness_to_doc(w)
    with pytest.raises(ValueError):
        formats.witness_from_doc(doc)


def test_loop_witness_round_trip():
    t = helpers.load_complex("torus")
    w = loop_survives(t, EdgePath(0, (1,)), SearchBudget(4)).witness
    doc = formats.witness_to_doc(w)
    assert doc["kind"] == "cover" and doc["images"] == {"1": [1, 0]}
    back = formats.witness_from_doc(doc, complex=t)
    assert back == w
    with pytest.raises(ValueError):
        formats.witness_from_doc(doc)


def test_vclean_witness_round_trip():
    from vhcomplex import hyperplane_of_edge, semi_decide_virtually_clean
    theta = helpers.load_complex("theta")
    h = hyperplane_of_edge(hyperplanes(theta), 1)
    w = semi_decide_virtually_clean(theta, h, "some",
                                    SearchBudget(4)).witness
    doc = formats.witness_to_doc(w)
    assert doc["certified"] == {"hyperplane": 1, "mode": "some",
                                "component": 1}
    assert formats.witness_from_doc(doc, complex=theta) == w


def test_witness_from_doc_rejects_junk():
    with pytest.raises(ValueError):
        formats.witness_from_doc({"kind": "magic", "degree": 2,
                                  "certified": {}})
    t = helpers.load_complex("torus")
    with pytest.raises(ValueError):
        formats.witness_from_doc({"kind": "cover", "degree": 2,
                                  "images": {}, "certified": {}},
                                 complex=t)


GOOD_READER_DOCS = {
    "budget": {"max_degree": 2, "max_nodes": 5},
    "quotient": {"kind": "quotient", "degree": 2, "images": {"a": [1, 0]},
                 "certified": {"word": "a"}},
    "cover": {"kind": "cover", "degree": 2, "images": {"1": [1, 0]},
              "certified": {"loop": {"start": 0, "word": [1]},
                            "sheet": 0}},
}


def _read(reader, doc):
    if reader == "budget":
        return formats.budget_from_doc(doc)
    if reader == "quotient":
        return formats.witness_from_doc(
            doc, pres=helpers.load_presentation("z_squared"))
    return formats.witness_from_doc(doc, complex=helpers.load_complex("torus"))


@pytest.mark.parametrize("reader, key, value", [
    ("budget", "max_nodes", "5"),
    ("budget", "max_nodes", 1.5),
    ("budget", "max_nodes", False),
    ("budget", "max_degree", True),
    ("budget", "max_degree", "2"),
    ("quotient", "degree", True),
    ("quotient", "degree", 0),
    ("quotient", "images", {"a": "01"}),
    ("quotient", "images", {"a": [True, False]}),
    ("cover", "degree", True),
    ("cover", "images", {"1": "10"}),
])
def test_readers_reject_wrong_types(reader, key, value):
    doc = json.loads(json.dumps(GOOD_READER_DOCS[reader]))
    _read(reader, doc)
    doc[key] = value
    with pytest.raises(ValueError):
        _read(reader, doc)


def test_outcome_doc_shape():
    t = helpers.load_complex("torus")
    out = loop_survives(t, EdgePath(0, (1,)), SearchBudget(4))
    doc = formats.outcome_to_doc(out)
    assert doc["status"] == "FOUND"
    assert doc["budget"] == {"max_degree": 4, "max_nodes": None}
    assert doc["stats"]["homs_tried"] == out.stats.homs_tried
    assert doc["witness"]["budget"] == doc["budget"]

    out = loop_survives(t, EdgePath(0, (1, 2, -1, -2)), SearchBudget(2))
    doc = formats.outcome_to_doc(out)
    assert doc["status"] == "EXHAUSTED" and doc["witness"] is None


def test_cleanliness_doc():
    theta = helpers.load_complex("theta")
    report = is_clean(hyperplanes(theta)[0])
    doc = formats.cleanliness_to_doc(report)
    assert doc["hyperplane"] == {"id": 1, "dual_edges": [1, 2],
                                 "orientation_class": "V"}
    assert doc["osculation_witnesses"][0] == [0, "edges", [1, 2]]
    assert doc["clean"] is False and doc["two_sided"] is True


def test_construction_manifests():
    att = attach_relators(helpers.load_presentation("z_squared"),
                          helpers.load_complex("torus"), EdgePath(0, (1,)))
    man = formats.attachment_manifest(att)
    assert man["kind"] == "relator-attachment"
    assert man["num_edges"] == att.complex.num_edges
    assert len(man["copies"]) == 1
    assert man["copies"][0]["rungs"] == list(att.copies[0].rung_edges)
    crush = formats.crush_to_doc(att.crush)
    assert crush["generator_chains"] == [[1]]
    assert set(crush) == {"generator_chains", "loop_letters", "discs"}

    dbl = double_along_loop(pointed_pair(helpers.load_complex("torus"), 0),
                            EdgePath(0, (1,)))
    man = formats.double_manifest(dbl)
    assert man["kind"] == "loop-double"
    assert man["hyperplane"] == 7 and man["rungs"] == [7, 8]
    assert man["retraction"]["square_map"] == [0, 0, None, None]


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_validate_good(capsys):
    code, out = run_cli(capsys, "validate", helpers.fixture_path("torus"))
    assert code == 0
    assert out == helpers.golden_text("torus.validation.json")


def test_cli_validate_bad(capsys):
    code, out = run_cli(capsys, "validate",
                        helpers.fixture_path("bad_length"))
    assert code == 1
    assert out == helpers.golden_text("bad_length.validation.json")


def test_cli_validate_unusable_input(tmp_path, capsys):
    code, _ = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    code, _ = run_cli(capsys, "validate", str(garbled))
    assert code == 2
    not_a_complex = tmp_path / "wrong.json"
    not_a_complex.write_text("{\"vertices\": 1}")
    code, _ = run_cli(capsys, "validate", str(not_a_complex))
    assert code == 2


def test_cli_hyperplanes(capsys):
    code, out = run_cli(capsys, "hyperplanes",
                        helpers.fixture_path("torus"), "--special")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_clean"] and doc["special"]
    assert [h["hyperplane"]["id"] for h in doc["hyperplanes"]] == [1, 2]

    code, out = run_cli(capsys, "hyperplanes",
                        helpers.fixture_path("theta"))
    assert code == 0 and not json.loads(out)["all_clean"]
    code, _ = run_cli(capsys, "hyperplanes",
                      helpers.fixture_path("theta"), "--clean")
    assert code == 1
    code, _ = run_cli(capsys, "hyperplanes",
                      helpers.fixture_path("klein"), "--special")
    assert code == 1
    code, _ = run_cli(capsys, "hyperplanes",
                      helpers.fixture_path("bad_length"))
    assert code == 2


def test_cli_covers(tmp_path, capsys):
    code, out = run_cli(capsys, "covers", helpers.fixture_path("torus"),
                        "--degree", "2")
    assert code == 0 and json.loads(out)["count"] == 4

    out_dir = tmp_path / "covers"
    code, out = run_cli(capsys, "covers", helpers.fixture_path("torus"),
                        "--degree", "2", "--connected",
                        "--up-to-conjugacy", "--out-dir", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3 and doc["connected"]
    files = sorted(os.listdir(out_dir))
    assert files == ["cover_0000.json", "cover_0001.json",
                     "cover_0002.json"]
    t = helpers.load_complex("torus")
    for name in files:
        c = formats.cover_from_doc(formats.read_doc(out_dir / name))
        assert c.base == t and c.degree == 2


@pytest.mark.parametrize("name", ["bad_closure", "bad_length"])
@pytest.mark.parametrize("flags", [[], ["--connected", "--up-to-conjugacy"]])
def test_cli_covers_rejects_structurally_invalid_complex(capsys, name,
                                                         flags):
    code = console_main(["covers", helpers.fixture_path(name),
                         "--degree", "2"] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: complex is structurally invalid; "
                            "run validate for details\n")


def test_cli_construct_jp(tmp_path, capsys):
    pres_file = tmp_path / "pres.json"
    pres_file.write_text(json.dumps(
        {"generators": ["a", "b"], "relators": ["abAB"]}))
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({"start": 0, "word": [1]}))
    out_dir = tmp_path / "jp"
    code, out = run_cli(capsys, "construct", "jp",
                        "--presentation", str(pres_file),
                        "--core", helpers.fixture_path("torus"),
                        "--core-loop", str(loop_file),
                        "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert (summary["num_vertices"], summary["num_edges"],
            summary["num_squares"]) == (5, 14, 8)
    assert sorted(os.listdir(out_dir)) \
        == ["complex.json", "manifest.json", "phi.json"]
    cx = formats.complex_from_doc(formats.read_doc(out_dir / "complex.json"))
    report = validate(cx)
    assert report.ok and report.vh
    man = formats.read_doc(out_dir / "manifest.json")
    assert man["kind"] == "relator-attachment"
    phi = formats.read_doc(out_dir / "phi.json")
    assert phi["loop_letters"] == {"1": 1, "2": 2}


def test_cli_construct_xn(tmp_path, capsys):
    out_dir = tmp_path / "xn"
    code, out = run_cli(capsys, "construct", "xn",
                        "--complex", helpers.fixture_path("torus"),
                        "--loop", helpers.fixture_path("loop_a"),
                        "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads(out)
    assert summary["hyperplane"] == 7
    assert sorted(os.listdir(out_dir)) == ["complex.json", "manifest.json"]
    cx = formats.complex_from_doc(formats.read_doc(out_dir / "complex.json"))
    assert validate(cx).all_ok
    man = formats.read_doc(out_dir / "manifest.json")
    assert man["kind"] == "loop-double" and man["rungs"] == [7, 8]


def test_cli_search_loop_survival(tmp_path, capsys):
    out_file = tmp_path / "outcome.json"
    code, out = run_cli(capsys, "search", "loop-survival",
                        "--complex", helpers.fixture_path("torus"),
                        "--loop", helpers.fixture_path("loop_a"),
                        "--max-degree", "4", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "FOUND"
    assert doc["witness"]["images"] == {"1": [1, 0]}
    assert out_file.read_text() == out

    relator = tmp_path / "relator_loop.json"
    relator.write_text(json.dumps({"start": 0, "word": [1, 2, -1, -2]}))
    code, out = run_cli(capsys, "search", "loop-survival",
                        "--complex", helpers.fixture_path("torus"),
                        "--loop", str(relator), "--max-degree", "3")
    assert code == 1 and json.loads(out)["status"] == "EXHAUSTED"


@pytest.mark.parametrize("name", ["bad_closure", "bad_length"])
def test_cli_search_rejects_structurally_invalid_complex(capsys, name):
    path = helpers.fixture_path(name)
    for argv in (["search", "loop-survival", "--complex", path,
                  "--loop", helpers.fixture_path("loop_a"),
                  "--max-degree", "2"],
                 ["search", "vclean", "--complex", path, "--hyperplane",
                  "1", "--mode", "some", "--max-degree", "2"],
                 ["hyperplanes", path]):
        code = console_main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == ("error: complex is structurally invalid; "
                                "run validate for details\n"), argv


@pytest.mark.parametrize("bound", [["--max-degree", "-3"],
                                   ["--max-degree", "3", "--max-nodes", "-1"]])
def test_cli_search_rejects_negative_budget(capsys, bound):
    code = console_main(["search", "loop-survival",
                         "--complex", helpers.fixture_path("torus"),
                         "--loop", helpers.fixture_path("loop_a")] + bound)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") \
        and captured.err.count("\n") == 1


def test_cli_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken subcommand")
    monkeypatch.setattr(cli, "_cmd_validate", broken)
    code = console_main(["validate", helpers.fixture_path("torus")])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL_ERROR == 3 and captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith("RuntimeError: broken subcommand\n")


def test_cli_deterministic_output_is_worker_independent(capsys,
                                                        monkeypatch):
    # searches run in one thread: VHCOMPLEX_WORKERS, even a bad value,
    # changes nothing, and --workers and --deterministic are gone
    argv = ["search", "loop-survival",
            "--complex", helpers.fixture_path("torus"),
            "--loop", helpers.fixture_path("loop_a"), "--max-degree", "4"]
    outs = set()
    for value in (None, "1", "4", "abc"):
        if value is None:
            monkeypatch.delenv("VHCOMPLEX_WORKERS", raising=False)
        else:
            monkeypatch.setenv("VHCOMPLEX_WORKERS", value)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    for flag in (["--workers", "2"], ["--deterministic"]):
        with pytest.raises(SystemExit) as exc:
            console_main(argv + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_search_profinite_probe(capsys):
    code, out = run_cli(capsys, "search", "profinite-probe",
                        "--presentation",
                        helpers.fixture_path("trivial_group"),
                        "--max-degree", "4")
    assert code == 1 and json.loads(out)["status"] == "EXHAUSTED"

    code, out = run_cli(capsys, "search", "profinite-probe",
                        "--presentation", helpers.fixture_path("z_squared"),
                        "--max-degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["degree"] == 2
    assert doc["witness"]["certified"]["word"] == "a"

    code, out = run_cli(capsys, "search", "profinite-probe",
                        "--presentation", helpers.fixture_path("z_squared"),
                        "--word", "a", "--max-degree", "2")
    assert code == 0


def test_cli_search_vclean(capsys):
    code, out = run_cli(capsys, "search", "vclean",
                        "--complex", helpers.fixture_path("theta"),
                        "--hyperplane", "1", "--mode", "some",
                        "--max-degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"]["certified"]["mode"] == "some"
    code, _ = run_cli(capsys, "search", "vclean",
                      "--complex", helpers.fixture_path("theta"),
                      "--hyperplane", "9", "--mode", "some",
                      "--max-degree", "2")
    assert code == 2


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "pyproject.toml")
ENTRY_POINT = "vhcomplex.cli:console_main"
# What the console script generated by `pip install` runs.
RUN_ENTRY_POINT = ("import sys; from vhcomplex.cli import console_main; "
                   "sys.exit(console_main())")


def console_scripts():
    """The ``[project.scripts]`` table of the repository's pyproject.toml."""
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the table as plain text
        scripts, in_table = {}, False
        with open(PYPROJECT) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line.startswith("["):
                    in_table = line == "[project.scripts]"
                elif in_table and "=" in line:
                    key, value = line.split("=", 1)
                    scripts[key.strip().strip("\"'")] = (
                        value.strip().strip("\"'"))
        return scripts
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def source_env():
    """The environment with the imported vhcomplex first on PYTHONPATH.

    A child interpreter then runs the code under test whatever its
    working directory and whatever the caller's PYTHONPATH holds.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(
        vhcomplex.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_cli_module_and_entry_point():
    env = source_env()
    cmd = [sys.executable, "-m", "vhcomplex.cli", "validate",
           helpers.fixture_path("torus")]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["npc"] is True

    assert console_scripts().get("vhcomplex") == ENTRY_POINT
    proc = subprocess.run([sys.executable, "-c", RUN_ENTRY_POINT, "validate",
                           helpers.fixture_path("bad_vh")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["vh"] is False


@pytest.mark.skipif(shutil.which("vhcomplex") is None,
                    reason="the vhcomplex console script is not installed")
def test_installed_console_script():
    proc = subprocess.run(["vhcomplex", "validate",
                           helpers.fixture_path("bad_vh")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["vh"] is False
