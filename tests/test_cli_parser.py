"""Raw-byte goldens for the argument parser's own output.

``main`` builds only the parsers of the command its first argument names,
and every parser when the first argument names none.  These digests of exit
code, stdout and stderr pin the help texts and the argparse errors on both
paths to what the full parser printed, at a fixed terminal width.

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_parser.py

prints the digests of the current tree as JSON, in the format of
``cli_parser_digests.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
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


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(json.dumps(collect(), indent=2, sort_keys=True))
