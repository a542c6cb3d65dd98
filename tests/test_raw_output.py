"""Raw-byte goldens for reports and CLI output.

The perfbench goldens normalise JSON before digesting it, so they cannot
see a change in how a report is rendered.  These digests are of the exact
bytes: ``to_json()`` and ``to_text()`` of every built-in's ``check_all`` at
k=2, each of its five suites alone at k=2 and ``check_commutative`` at k=3;
of the morphism suite on ``discrete_to_topped_morphism``, the centrality
conditions on each writer's centre, ``derive_monoidal_m`` on ``identity``
and thirteen planted-bug reports from ``test_graded_monad.py``; stdout,
stderr and exit code of the README's CLI commands, in text and (where
offered) JSON form; and of the bool writer pair's commands over two
gradings whose element ``b`` is a prefix of ``b(c)``, so that their pair
tokens sort off the order of their pairs.

    PYTHONPATH=src python tests/test_raw_output.py

prints the digests of the current tree as JSON, in the format of
``raw_output_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "raw_output_digests.json")

README_COMMANDS = [
    ["pomonoid", "centre", "fixtures/multi_error.pom"],
    ["pomonoid", "check", "fixtures/bool.pom"],
    ["duoid", "check", "fixtures/escalation.duo"],
    ["monad", "laws", "--monad", "multi_error_writer"],
    ["monad", "commutative", "--monad", "multi_error_writer"],
    ["monad", "centre", "--monad", "multi_error_writer", "--set-size", "2"],
    ["monad", "morphism", "--from", "centre(multi_error_writer)", "--to", "multi_error_writer"],
    ["duoidal", "check", "--monad", "language_writer", "--alphabet", "ab", "--cap", "2"],
    ["analyze", "fixtures/reorder.eff", "--pomonoid", "fixtures/bool.pom",
     "--monad", "bool_writer_pair"],
    ["examples", "list"],
]


# Two pomonoid files, written afresh into a scratch directory: the keep-last
# monoid on 1, b, b(c) (x*y is x when y is 1, else y) and Z/3 on u, b, b(c).
PREFIX_POMONOIDS = {
    "keep_last.pom": "elements 1 b b(c)\nunit 1\n" + "".join(
        f"mul {x} {y} {x if y == '1' else y}\n" for x in ("1", "b", "b(c)")
        for y in ("1", "b", "b(c)")),
    "z3.pom": "elements u b b(c)\nunit u\n" + "".join(
        f"mul {x} {y} {('u', 'b', 'b(c)')[(i + j) % 3]}\n"
        for i, x in enumerate(("u", "b", "b(c)")) for j, y in enumerate(("u", "b", "b(c)"))),
}

PREFIX_COMMANDS = [
    ["monad", "commutative"],
    ["monad", "centre"],
    ["monad", "centre", "--grade", "tt", "--set-size", "2", "--json"],
    ["monad", "laws", "--max-set-size", "2", "--json"],
    ["monad", "morphism", "--from", "centre(bool_writer_pair)", "--to", "bool_writer_pair",
     "--json"],
    ["duoidal", "check", "--max-set-size", "2", "--json"],
]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SUITES = ["check_monad_laws", "check_order_laws", "check_strength_laws",
          "check_costrength_coherence", "check_naturality"]

WRITERS = ["multi_error_writer", "multi_error_writer_topped", "bool_writer_pair",
           "language_writer"]


def report_scans():
    """(key, report) for every pinned report, each built on a fresh monad."""
    from centrekit import graded_monad as gm
    from centrekit.centre import build_centre_monad, check_centrality_conditions
    from centrekit.relaxations import derive_monoidal_m
    from test_graded_monad import (
        constant_lift_writer,
        cycling_mult_writer,
        left_unnatural_strength_writer,
        noncompositional_fmap_monad,
        right_swapped_costrength_writer,
        right_swapped_strength_writer,
        right_unnatural_strength_writer,
        swapped_costrength_writer,
        swapped_strength_writer,
        unnatural_component_morphism,
        unnatural_mult_writer,
        unnatural_unit_writer,
    )

    for name, make in gm.registry().items():
        M = make()
        yield f"{name} check_all(k=2)", gm.check_all(M, 2)
        yield f"{name} check_commutative(k=3)", gm.check_commutative(M, 3)
        for suite in SUITES:
            yield f"{name} {suite}(k=2)", getattr(gm, suite)(make(), 2)
    yield ("discrete-to-topped check_graded_monad_morphism(k=2)",
           gm.check_graded_monad_morphism(gm.discrete_to_topped_morphism(), 2))
    for name in WRITERS:
        res = build_centre_monad(gm.registry()[name]())
        yield (f"centre({name}) check_centrality_conditions(k=2)",
               check_centrality_conditions(res.monad, res.inclusion, 2))
    yield "identity derive_monoidal_m(k=2)", derive_monoidal_m(gm.registry()["identity"]())[1]
    # planted bugs: these pin the failing witnesses and both sides
    yield "cycling-mult check_monad_laws(k=2)", gm.check_monad_laws(cycling_mult_writer(), 2)
    yield "constant-lift check_order_laws(k=2)", gm.check_order_laws(constant_lift_writer(), 2)
    yield ("swapped-costrength check_costrength_coherence(k=2)",
           gm.check_costrength_coherence(swapped_costrength_writer(), 2))
    yield ("left-unnatural-strength check_strength_laws(k=2)",
           gm.check_strength_laws(left_unnatural_strength_writer(), 2))
    yield ("right-unnatural-strength check_strength_laws(k=2)",
           gm.check_strength_laws(right_unnatural_strength_writer(), 2))
    yield "unnatural-mult check_naturality(k=2)", gm.check_naturality(unnatural_mult_writer(), 2)
    yield "unnatural-unit check_naturality(k=2)", gm.check_naturality(unnatural_unit_writer(), 2)
    yield ("noncompositional-fmap check_naturality(k=2)",
           gm.check_naturality(noncompositional_fmap_monad(), 2))
    yield ("unnatural-component check_graded_monad_morphism(k=2)",
           gm.check_graded_monad_morphism(unnatural_component_morphism(), 2))
    # both suites of the strength: each breaks some of its coherence squares
    for name, make in (("swapped-costrength", swapped_costrength_writer),
                       ("right-swapped-costrength", right_swapped_costrength_writer),
                       ("swapped-strength", swapped_strength_writer),
                       ("right-swapped-strength", right_swapped_strength_writer)):
        yield f"{name} check_all(k=2)", gm.check_all(make(), 2)


def report_digests() -> dict:
    out = {}
    for scan, rep in report_scans():
        out[f"{scan} json"] = sha(rep.to_json())
        out[f"{scan} text"] = sha(rep.to_text())
    return out


def cli_run(argv) -> str:
    from centrekit.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return f"exit={code} stdout={sha(stdout.getvalue())} stderr={sha(stderr.getvalue())}"


def cli_digests() -> dict:
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        out = {}
        for argv in README_COMMANDS:
            out[" ".join(argv)] = cli_run(argv)
            if argv[0] != "examples":
                out[" ".join(argv + ["--json"])] = cli_run(argv + ["--json"])
        return out
    finally:
        os.chdir(here)


def prefix_argv(argv, pom):
    """argv run over the bool writer pair graded by the pomonoid file pom."""
    if argv[1] == "morphism":
        return argv + ["--pomonoid", pom]
    return argv + ["--monad", "bool_writer_pair", "--pomonoid", pom]


def prefix_digests(directory) -> dict:
    """The digests of PREFIX_COMMANDS over each of PREFIX_POMONOIDS, whose
    files are written into ``directory`` and run from there."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        out = {}
        for pom, text in PREFIX_POMONOIDS.items():
            with open(pom, "w", encoding="utf-8") as fh:
                fh.write(text)
            for argv in PREFIX_COMMANDS:
                full = prefix_argv(argv, pom)
                out[" ".join(full)] = cli_run(full)
        return out
    finally:
        os.chdir(here)


def collect() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        prefix = prefix_digests(directory)
    return {"reports": report_digests(), "cli": cli_digests(), "prefix-tokens": prefix}


@pytest.fixture(scope="module")
def golden():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_reports_are_byte_identical(golden):
    assert report_digests() == golden["reports"]


def test_readme_commands_are_byte_identical(golden, monkeypatch):
    monkeypatch.delenv("CENTREKIT_FIXTURES", raising=False)
    assert cli_digests() == golden["cli"]


def test_prefix_token_commands_are_byte_identical(golden, tmp_path, monkeypatch):
    monkeypatch.delenv("CENTREKIT_FIXTURES", raising=False)
    assert prefix_digests(tmp_path) == golden["prefix-tokens"]


def test_prefix_token_witness_and_members(tmp_path, capsys):
    # what the digests above pin, spelt out: the keep-last commutativity
    # witness and the Z/3 centre's members, both in token order
    from centrekit.cli import main

    for pom, text in PREFIX_POMONOIDS.items():
        (tmp_path / pom).write_text(text)
    keep_last, z3 = (str(tmp_path / pom) for pom in PREFIX_POMONOIDS)
    assert main(prefix_argv(["monad", "commutative", "--json"], keep_last)) == 1
    record, = json.loads(capsys.readouterr().out)["records"][-1:]
    assert record["witness"] == "((y0,b(c)),(y0,b))"
    assert main(prefix_argv(PREFIX_COMMANDS[2], z3)) == 0
    members = json.loads(capsys.readouterr().out)["members"]
    assert members == ["(y0,b(c))", "(y0,b)", "(y0,u)", "(y1,b(c))", "(y1,b)", "(y1,u)"]


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(collect(), indent=2, sort_keys=True))
