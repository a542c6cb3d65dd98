"""Raw-byte goldens for the argument parser's own output.

``main`` reads a well-formed command line with the strict reader
``read_well_formed`` and builds no parser; any other line goes to the one
argparse parser ``build_parser`` builds, of every command.  These digests
of exit code, stdout and stderr pin the help texts and the argparse errors
on every path, at a fixed terminal width.  The strict reader must read
every README command and every fixed perfbench request into the same
Namespace as the parser, and a well-formed line builds no parser on
``main``'s path.  Drawn command lines, hostile tokens among them, are read
by the strict reader as argparse reads them, or handed to argparse.

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_parser.py

prints the digests of the current tree as JSON, in the format of
``cli_parser_digests.json``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_raw_output import README_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERFBENCH = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(HERE, "cli_parser_digests.json")

NESTED = {
    "pomonoid": ("check", "centre"),
    "duoid": ("check",),
    "monad": ("laws", "commutative", "centre", "morphism"),
    "duoidal": ("check",),
    "analyze": (),
    "examples": ("list",),
}

ARGVS = (
    [["-h"]]
    + [[command, "-h"] for command in NESTED]
    + [[command, action, "-h"] for command, actions in NESTED.items() for action in actions]
    + [
        [],
        ["frobnicate"],
        ["frobnicate", "-h"],
        ["--json", "monad", "laws"],
        ["monad", "frob"],
        ["pomonoid", "frob", "file.pom"],
        ["monad"],
        ["monad", "laws"],
        ["monad", "morphism", "--from", "x"],
        ["analyze", "program.eff"],
        ["duoid", "check"],
        ["monad", "laws", "--monad", "identity", "--max-set-size", "many"],
        ["analyze", "p.eff", "--pomonoid", "b.pom", "--bogus"],
        ["examples", "list", "extra"],
        ["monad", "laws", "--monad", "identity", "--bogus"],
        ["pomonoid", "check", "f.pom", "--bogus"],
        # lines the strict reader must hand to argparse
        ["analyze", "p.eff", "--pomonoid", "b.pom", "-h"],
        ["analyze", "p.eff", "p2.eff", "--pomonoid", "b.pom"],
        ["monad", "laws", "--monad", "identity", "--max-set-size"],
        ["monad", "laws", "--monad", "identity", "--json=1"],
        ["monad", "laws", "--monad", "identity", "--monad", "identity", "--bogus"],
    ]
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv) -> str:
    from centrekit.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit={code} stdout={sha(stdout.getvalue())} stderr={sha(stderr.getvalue())}"


def collect() -> dict:
    return {" ".join(argv) or "(no arguments)": run(argv) for argv in ARGVS}


def test_parser_output_is_byte_identical(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(DIGESTS) as fh:
        golden = json.load(fh)
    assert collect() == golden


def fixed_requests():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads.fixed_requests()


def fields(namespace) -> dict:
    out = vars(namespace)
    out["fn"] = out["fn"].__name__
    return out


def parsed(parser, argv) -> dict:
    return fields(parser.parse_args(argv))


def test_the_strict_reader_reads_every_request_as_the_parser():
    from centrekit.cli import build_parser, read_well_formed

    full = build_parser()
    requests = (README_COMMANDS + [argv + ["--json"] for argv in README_COMMANDS
                                   if argv[0] != "examples"] + fixed_requests())
    assert len(requests) == 32
    for argv in requests:
        assert fields(read_well_formed(argv)) == parsed(full, argv), argv


@pytest.mark.parametrize("argv, on_main", [
    (["analyze", "fixtures/reorder.eff", "--pomonoid", "fixtures/bool.pom"], 0),
    (["monad", "laws", "--monad", "multi_error_writer"], 0),
    (["pomonoid", "check", "fixtures/bool.pom"], 0),
    (["-h"], 16),
    (["monad", "-h"], 16),
    (["frobnicate", "check"], 16),
])
def test_a_command_line_builds_only_the_parsers_it_names(monkeypatch, capsys, argv, on_main):
    from centrekit.cli import build_parser, main

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser()
    assert len(built) == 16
    # main reads a well-formed line from the table and builds no parser;
    # any other line builds the one full parser
    built.clear()
    monkeypatch.chdir(ROOT)
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert len(built) == on_main


def table_words():
    """The table's command, action and option names, and each action's
    arguments, in the table's order."""
    from centrekit.cli import _COMMANDS

    declared = {}
    for command, (_, entry) in _COMMANDS.items():
        pairs = entry.items() if isinstance(entry, dict) else [(None, entry)]
        for action, (_, args) in pairs:
            declared[command, action] = args
    actions = dict.fromkeys(action for _, action in declared if action)
    options = dict.fromkeys(arg.name for args in declared.values() for arg in args
                            if arg.name.startswith("-"))
    return list(_COMMANDS), list(actions), list(options), declared


COMMANDS, ACTIONS, OPTIONS, DECLARED = table_words()
HOSTILE = ["-h", "--help", "--", "-1", "", "--mon", "--json=1", "--max-set-size=2",
           "--bogus"]
VALUES = {int: ["0", "2", "3", "-1", "many"], None: ["identity", "x.pom", "p.eff", ""]}
WORDS = COMMANDS + ACTIONS + OPTIONS + HOSTILE + VALUES[int] + VALUES[None] + ["frobnicate"]


@st.composite
def command_lines(draw):
    """A command and, mostly, one of its actions from the table; then its
    declared arguments in a drawn order, some left out, each value drawn
    for its type (one in five from anywhere); then, in two lines of five,
    one or two tokens from anywhere, inserted anywhere after the command."""
    command = draw(st.sampled_from(COMMANDS))
    argv, action = [command], None
    if (command, None) not in DECLARED:
        own = [name for c, name in DECLARED if c == command]
        action = draw(st.sampled_from(own if draw(st.integers(0, 3)) else ACTIONS + ["frob"]))
        argv.append(action)
    for arg in draw(st.permutations(DECLARED.get((command, action), ()))):
        if draw(st.integers(0, 7)) == 0:
            continue
        if not arg.name.startswith("-"):
            argv.append(draw(st.sampled_from(VALUES[None])))
        elif arg.switch:
            argv.append(arg.name)
        else:
            values = VALUES[arg.type] if draw(st.integers(0, 4)) else WORDS
            argv += [arg.name, draw(st.sampled_from(values))]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(WORDS)))
    return argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command_lines() | st.lists(st.sampled_from(WORDS), max_size=8))
def test_the_strict_reader_reads_as_argparse_or_hands_the_line_on(argv):
    from centrekit.cli import build_parser, read_well_formed

    read = read_well_formed(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            expected = parsed(build_parser(), argv)
    except SystemExit:
        assert read is None, argv
        return
    assert read is None or fields(read) == expected, argv


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(json.dumps(collect(), indent=2, sort_keys=True))
