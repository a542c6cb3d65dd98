"""Raw-byte goldens for the argument parser's own output.

``main`` builds only the parser of the command its first argument names,
and every parser when the first argument names none.  The second argument
narrows a nested command the same way: when it names one of the command's
actions, only that action's parser is built.  These digests of exit code,
stdout and stderr pin the help texts and the argparse errors on every path
to what the full parser printed, at a fixed terminal width.  The narrowed
parsers must also read every README command and every fixed perfbench
request into the same Namespace as the full parser, and build no more
parsers than their command line names.

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

from test_raw_output import README_COMMANDS

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
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


def parsed(parser, argv) -> dict:
    fields = vars(parser.parse_args(argv))
    fields["fn"] = fields["fn"].__name__
    return fields


def test_narrowed_parsers_read_every_request_as_the_full_parser():
    from centrekit.cli import build_parser

    full = build_parser()
    requests = (README_COMMANDS + [argv + ["--json"] for argv in README_COMMANDS
                                   if argv[0] != "examples"] + fixed_requests())
    assert len(requests) == 32
    for argv in requests:
        assert parsed(build_parser(*argv[:2]), argv) == parsed(full, argv), argv


@pytest.mark.parametrize("argv, parsers", [
    (["analyze", "fixtures/reorder.eff", "--pomonoid", "fixtures/bool.pom"], 2),
    (["monad", "laws", "--monad", "multi_error_writer"], 3),
    (["pomonoid", "check", "fixtures/bool.pom"], 3),
    (["-h"], 16),
    (["monad", "-h"], 6),
    (["frobnicate", "check"], 16),
])
def test_a_command_line_builds_only_the_parsers_it_names(monkeypatch, argv, parsers):
    from centrekit.cli import build_parser

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser(*argv[:2])
    assert len(built) == parsers


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(json.dumps(collect(), indent=2, sort_keys=True))
