"""The scans each workload runs, the goldens they are checked against, and
the seeded program generator for ``centre-cli``.

A scan is one unit of the closed loop: one law suite (``laws``,
``duoidal``) or one in-process CLI request (``centre-cli``).  Running a scan
returns ``(exit_code, output)``.  Its verdict digest covers the exit code and
the output, with Report JSON reduced to the record fields it had when the
goldens were recorded, so reports that only gain new keys still match.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
from collections import namedtuple

WORKLOADS = ("laws", "duoidal", "centre-cli")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

# Fixture files the README commands name; copied into the run's work
# directory so the CLI sees exactly these and the generated programs.
FIXTURES = ("bool.pom", "escalation.duo", "multi_error.pom", "reorder.eff")
RECORD_FIELDS = ("law", "grades", "sets", "ok", "witness", "lhs", "rhs", "note")
WRITERS = ("multi_error_writer", "multi_error_writer_topped", "bool_writer_pair")
COMMUTATIVE_MONADS = ("identity",) + WRITERS
PROGRAMS = 100


# expected is the golden digest, or None when the scan has no golden
Scan = namedtuple("Scan", "key run expected")


def verdict(code, text: str) -> tuple:
    """(digest, checks) of one scan's exit code and output.

    The digest is over the exit code and the output, with JSON normalised
    and Report records projected onto RECORD_FIELDS.  Checks are the law
    records plus analyzer verdict entries in the output.
    """
    try:
        data = json.loads(text)
    except ValueError:
        body, checks = text, 0
    else:
        checks = 0
        if isinstance(data, dict):
            checks = len(data.get("records") or ()) + len(data.get("entries") or ())
            if isinstance(data.get("records"), list):
                data = {
                    "title": data.get("title"),
                    "ok": data.get("ok"),
                    "records": [{f: r.get(f) for f in RECORD_FIELDS} for r in data["records"]],
                }
        body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{code}\n{body}".encode()).hexdigest(), checks


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


# --- laws and duoidal: direct calls into the library -----------------------

def _report_scan(key, build):
    def run():
        return None, build().to_json()
    return key, run


def laws_scans(ck):
    out = [
        _report_scan("check_all(multi_error_writer,k=4)",
                     lambda: ck.check_all(ck.multi_error_writer(), 4)),
        _report_scan("check_all(bool_writer_pair,k=3)",
                     lambda: ck.check_all(ck.bool_writer_pair(), 3)),
        _report_scan("check_all(centre(bool_writer_pair),k=2)",
                     lambda: ck.check_all(ck.build_centre_monad(ck.bool_writer_pair()).monad, 2)),
    ]
    for name in COMMUTATIVE_MONADS:
        out.append(_report_scan(f"check_commutative({name},k=3)",
                                lambda name=name: ck.check_commutative(ck.registry()[name](), 3)))
    return out


def duoidal_scans(ck):
    # the duoid closures are inputs, built once; each pass builds fresh
    # writers so the interchange memo starts cold
    rows = (("ab", 2, 2), ("ab", 3, 1))
    duoids = {(alpha, cap): ck.language_duoid(alpha, cap) for alpha, cap, _ in rows}
    out = []
    for alpha, cap, k in rows:
        D = duoids[(alpha, cap)]
        out.append(_report_scan(
            f"check_duoidal_gradation(lang({alpha},{cap}),k={k},budget=300,seed=2026)",
            lambda alpha=alpha, cap=cap, k=k, D=D: ck.check_duoidal_gradation(
                ck.build_language_writer(alpha, cap, D), k=k, budget=300, seed=2026)))
    return out


# --- centre-cli: in-process CLI requests ------------------------------------

def fixed_requests():
    """README commands except ``duoidal check``, then centre and morphism
    requests for every writer built-in not already covered."""
    reqs = [
        ["pomonoid", "centre", "fixtures/multi_error.pom", "--json"],
        ["pomonoid", "check", "fixtures/bool.pom", "--json"],
        ["duoid", "check", "fixtures/escalation.duo", "--json"],
        ["monad", "laws", "--monad", "multi_error_writer", "--json"],
        ["monad", "commutative", "--monad", "multi_error_writer", "--json"],
        ["analyze", "fixtures/reorder.eff", "--pomonoid", "fixtures/bool.pom",
         "--monad", "bool_writer_pair", "--json"],
        ["examples", "list"],
    ]
    for name in WRITERS:
        reqs.append(["monad", "centre", "--monad", name, "--set-size", "2", "--json"])
        reqs.append(["monad", "morphism", "--from", f"centre({name})", "--to", name, "--json"])
    return reqs


def cli_request(cli, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()
    return run


def _expr(rng, depth, scope):
    r = rng.random()
    if depth == 0 or r < 0.2:
        if scope and rng.random() < 0.5:
            return ("var", rng.choice(scope))
        return ("lit", rng.randrange(10))
    if r < 0.55:
        return ("call", rng.choice(("pure", "log")), _expr(rng, depth - 1, scope))
    return ("op", rng.choice("+-*/"), _expr(rng, depth - 1, scope),
            _expr(rng, depth - 1, scope))


def generate_program(rng):
    """1-4 lets, then a body; every expression has depth 3 or less."""
    lets, scope = [], []
    for i in range(rng.randint(1, 4)):
        lets.append((f"x{i + 1}", _expr(rng, 3, scope)))
        scope.append(f"x{i + 1}")
    return lets, _expr(rng, 3, scope)


PRIM_GRADES = {"pure": "tt", "log": "ff"}


def _times(a, b):
    # truth values under conjunction, as in fixtures/bool.pom
    return "tt" if a == b == "tt" else "ff"


def _emit(node, line, col, entries, verdicts):
    """Text of one expression starting at (line, col), and its grade.

    Appends the analyzer's expected entry for every op node, in the
    analyzer's walk order (operands first, left to right).
    """
    kind = node[0]
    if kind == "lit":
        return str(node[1]), "tt"
    if kind == "var":
        return node[1], "tt"
    if kind == "call":
        head = f"{node[1]}("
        arg, g = _emit(node[2], line, col + len(head), entries, verdicts)
        return f"{head}{arg})", _times(g, PRIM_GRADES[node[1]])
    head = f"op{node[1]}("
    left, a = _emit(node[2], line, col + len(head), entries, verdicts)
    mid = f"{head}{left}, "
    right, b = _emit(node[3], line, col + len(mid), entries, verdicts)
    entries.append({"line": line, "col": col, "op": node[1], "a": a, "b": b,
                    "verdict": verdicts[f"{a},{b}"]})
    return f"{mid}{right})", _times(a, b)


def render_program(lets, body, verdicts):
    """Program text, and the analyzer output it must produce."""
    lines = ["prim pure ! tt", "prim log ! ff", "main ="]
    entries, grade = [], "tt"
    for name, expr in lets:
        head = f"  let {name} = "
        text, g = _emit(expr, len(lines) + 1, len(head) + 1, entries, verdicts)
        lines.append(f"{head}{text} in")
        grade = _times(grade, g)
    text, g = _emit(body, len(lines) + 1, 3, entries, verdicts)
    lines.append(f"  {text}")
    expected = {"main_grade": _times(grade, g), "entries": entries}
    return "\n".join(lines) + "\n", expected


def write_inputs(root, workdir, seed, verdicts):
    """Copy the named fixtures and write the seeded programs into workdir.

    Returns (argv, expected_output) for every generated program.
    """
    fixtures = os.path.join(workdir, "fixtures")
    programs = os.path.join(workdir, "programs")
    os.makedirs(fixtures, exist_ok=True)
    os.makedirs(programs, exist_ok=True)
    for name in FIXTURES:
        shutil.copyfile(os.path.join(root, "fixtures", name), os.path.join(fixtures, name))
    rng = random.Random(seed)
    out = []
    for i in range(PROGRAMS):
        text, expected = render_program(*generate_program(rng), verdicts)
        rel = f"programs/p{i:03d}.eff"
        with open(os.path.join(workdir, rel), "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["analyze", rel, "--pomonoid", "fixtures/bool.pom",
                "--monad", "bool_writer_pair", "--json"]
        out.append((argv, json.dumps(expected)))
    return out


def centre_cli_scans(root, workdir, seed, goldens):
    import centrekit.cli as cli
    out = [(" ".join(argv), cli_request(cli, argv)) for argv in fixed_requests()]
    programs = write_inputs(root, workdir, seed, goldens["analyze_verdicts"])
    scans = [Scan(key, run, goldens["scans"].get(key)) for key, run in out]
    for argv, expected in programs:
        scans.append(Scan(" ".join(argv), cli_request(cli, argv), verdict(0, expected)[0]))
    return scans


def prepare(workload, ck, root, workdir, seed):
    """Build the workload's inputs; returns its scans in pass order.

    The centre-cli workload reads relative paths, so the caller runs it
    with ``workdir`` as the current directory.
    """
    goldens = load_goldens()
    if workload == "centre-cli":
        return centre_cli_scans(root, workdir, seed, goldens)
    pairs = laws_scans(ck) if workload == "laws" else duoidal_scans(ck)
    return [Scan(key, run, goldens["scans"].get(key)) for key, run in pairs]
