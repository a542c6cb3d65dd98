"""Command line front door.

Wires structure files and built-in monads to the check suites with a
stable exit-code contract: 0 all checks pass, 1 a check failed (the
failing records and witnesses are printed), 2 bad input (unknown name,
missing file, malformed file or program).

File arguments that do not resolve as given are retried under the
directory named by the CENTREKIT_FIXTURES environment variable, so CI
can point at a fixture tree once.

Every command's arguments are declared once, as data, in _COMMANDS.  A
well-formed command line (exact names, each option once, no --opt=value,
values that do not start with "-") is read straight from that table by
read_well_formed, and builds no argparse parser.  Any other line, help
and errors included, goes to the one argparse parser that build_parser
adds from the same table, which alone prints usage, help and error
messages.
"""

import argparse
import json
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

from .centre import CentralityViolation, CentreError, build_centre_monad, central_subset
from .effectlang import EffectLangError, parse_program, reorder_report
from .finkit import SetSizeError, TokenError, canonical_set
from .graded_monad import (
    REGRADABLE,
    GradedMonadError,
    build,
    check_all,
    check_commutative,
    check_graded_monad_morphism,
    discrete_to_topped_morphism,
    own_grading,
    registry,
)
from .pomonoid import (
    LawViolation,
    PomonoidError,
    centre_of_pomonoid,
    check_duoid,
    load_duoid,
    load_pomonoid,
    structurally_equal,
)
from .relaxations import (
    LanguageError,
    NotCommutative,
    build_language_writer,
    check_duoidal_gradation,
    derive_monoidal_m,
    language_duoid,
)

PASS, FAIL, INPUT_ERROR = 0, 1, 2


class InputError(ValueError):
    pass


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get("CENTREKIT_FIXTURES")
    if root:
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
    raise InputError(f"no such file: {path}")


def _read(path: str) -> str:
    try:
        with open(_resolve(path), encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_pomonoid_arg(args):
    if getattr(args, "pomonoid", None) is None:
        return None
    path = _resolve(args.pomonoid)
    name = os.path.splitext(os.path.basename(path))[0]
    return load_pomonoid(_read(args.pomonoid), name=name)


def _emit(rep, as_json: bool) -> int:
    if as_json:
        print(rep.to_json())
    else:
        print(rep.to_text())
    return PASS if rep.ok else FAIL


def _violation(exc: LawViolation | NotCommutative, as_json: bool) -> int:
    # the input was read but a law failed; that is the check's verdict
    print(json.dumps({"ok": False, "error": str(exc)}) if as_json else f"FAIL  {exc}")
    return FAIL


def cmd_pomonoid(args) -> int:
    text = _read(args.file)
    if args.action == "check":
        try:
            P = load_pomonoid(text, name=args.file)
        except LawViolation as exc:
            return _violation(exc, args.json)
        if args.json:
            print(json.dumps({"ok": True, "elements": list(P.elements), "unit": P.unit}))
        else:
            print(f"pass  {len(P.elements)} elements, unit {P.unit}")
        return PASS
    P = load_pomonoid(text, name=args.file)
    Z, _ = centre_of_pomonoid(P)
    if args.json:
        print(json.dumps({"centre": list(Z.elements)}))
    else:
        print("{" + ",".join(Z.elements) + "}")
    return PASS


def cmd_duoid(args) -> int:
    try:
        D = load_duoid(_read(args.file), name=args.file)
    except LawViolation as exc:
        return _violation(exc, args.json)
    return _emit(check_duoid(D), args.json)


def _build_monad(args):
    return build(args.monad, _load_pomonoid_arg(args))


def cmd_monad_laws(args) -> int:
    return _emit(check_all(_build_monad(args), k=args.max_set_size), args.json)


def cmd_monad_commutative(args) -> int:
    rep = check_commutative(_build_monad(args), k=args.max_set_size)
    code = _emit(rep, args.json)
    bad = rep.failures()
    if bad and not args.json:
        a, b = bad[0].grades[:2]
        print(f"witness pair ({a}, {b})")
    return code


def cmd_monad_centre(args) -> int:
    M = _build_monad(args)
    X = canonical_set(args.set_size)
    if args.grade is not None:
        members = sorted(central_subset(M, args.grade, X, bound=args.bound))
        if args.json:
            print(json.dumps({"grade": args.grade, "set": X.name,
                              "members": members}))
        else:
            print(f"Z^{args.grade}({X.name}) = {{{','.join(members)}}}")
        return PASS
    res = build_centre_monad(M, bound=args.bound)
    rows = res.describe(X)
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            members = ",".join(row["members"])
            print(f"grade {row['grade']}: {row['centre_size']} of "
                  f"{row['carrier_size']} central: {{{members}}}")
    return PASS


def cmd_monad_morphism(args) -> int:
    src, dst = args.from_name, args.to_name
    if src == f"centre({dst})":
        res = build_centre_monad(build(dst, _load_pomonoid_arg(args)), bound=args.bound)
        morph = res.inclusion
    elif (src, dst) == ("multi_error_writer", "multi_error_writer_topped"):
        morph = discrete_to_topped_morphism()
        own_grading(dst, morph.target, _load_pomonoid_arg(args))
    else:
        raise InputError(f"no built-in morphism from {src} to {dst}")
    return _emit(check_graded_monad_morphism(morph, k=args.max_set_size), args.json)


def cmd_duoidal(args) -> int:
    if args.monad == "language_writer":
        D = language_duoid(args.alphabet, args.cap)
        DM = build_language_writer(args.alphabet, args.cap, D)
        own_grading(args.monad, DM.monad, _load_pomonoid_arg(args))
        rep = check_duoidal_gradation(DM, k=args.max_set_size)
        return _emit(rep, args.json)
    M = _build_monad(args)
    try:
        DM, rep = derive_monoidal_m(M, k=args.max_set_size)
    except NotCommutative as exc:
        return _violation(exc, args.json)
    return _emit(rep, args.json)


def _monad_for_grading(name, P):
    # zero-config first; the pomonoid hook regrades builders like identity,
    # but for writers it feeds the annotation monoid, so only use it when
    # the default grading does not already match.  A built-in that takes no
    # pomonoid is returned as it is, and reorder_report names the mismatch.
    M = build(name)
    if structurally_equal(M.pomonoid, P) or name not in REGRADABLE:
        return M
    return build(name, P)


def cmd_analyze(args) -> int:
    program = parse_program(_read(args.program))
    P = load_pomonoid(_read(args.pomonoid),
                      name=os.path.basename(args.pomonoid))
    M = _monad_for_grading(args.monad, P) if args.monad else None
    rep = reorder_report(program, P, M=M, k=args.max_set_size)
    if args.json:
        print(json.dumps({"main_grade": rep.main_grade,
                          "entries": [e.to_dict() for e in rep.entries]}, indent=2))
    else:
        print(rep.to_text())
    return PASS


def cmd_examples(args) -> int:
    print("monads:")
    for name in sorted(registry()):
        print(f"  {name}")
    root = os.environ.get("CENTREKIT_FIXTURES", "fixtures")
    if os.path.isdir(root):
        print(f"fixtures ({root}):")
        for entry in sorted(os.listdir(root)):
            print(f"  {entry}")
    return PASS


class Arg(NamedTuple):
    """One command-line argument, as argparse's add_argument declares it.

    name is an option string ("--monad") or a positional's name ("file");
    dest, when unset, is the one argparse derives from name.  A switch is a
    store_true option: it takes no value, and is declared with default=False."""
    name: str
    dest: str | None = None
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False
    metavar: str | None = None
    help: str | None = None
    switch: bool = False

    @property
    def attr(self) -> str:
        """The Namespace attribute this argument sets."""
        return self.dest or self.name.lstrip("-").replace("-", "_")

    def kwargs(self) -> dict:
        """add_argument's keywords: every field set away from its default."""
        kw = {field: value for field, value in self._asdict().items()
              if field not in ("name", "switch") and value is not self._field_defaults[field]}
        return {"action": "store_true", **kw} if self.switch else kw


_JSON = Arg("--json", default=False, help="machine-readable output", switch=True)
_K = Arg("--max-set-size", type=int, default=3, metavar="K",
         help="largest canonical set fed to the suites")
_MONAD = Arg("--monad", required=True)
_POMONOID = Arg("--pomonoid")
_FILE = (Arg("file"), _JSON)

# command -> (help, {action: (handler, arguments)}); analyze has no actions
# and is (handler, arguments) itself.  Arguments are listed in the order
# their help lists them.
_COMMANDS = {
    "pomonoid": ("validate a structure file or print its centre",
                 {"check": (cmd_pomonoid, _FILE), "centre": (cmd_pomonoid, _FILE)}),
    "duoid": ("check a two-operation structure file", {"check": (cmd_duoid, _FILE)}),
    "monad": ("run suites against a built-in monad", {
        "laws": (cmd_monad_laws, (
            _MONAD, Arg("--pomonoid", help="grading for monads that accept one"), _JSON, _K)),
        "commutative": (cmd_monad_commutative, (_MONAD, _POMONOID, _JSON, _K)),
        "centre": (cmd_monad_centre, (
            _MONAD, _POMONOID,
            Arg("--grade", help="one grade instead of the whole centre"),
            Arg("--set-size", type=int, default=2, metavar="N",
                help="size of the base set whose centre is printed"),
            Arg("--bound", type=int, metavar="N",
                help="test-set size cap for the centrality scan"),
            _JSON)),
        "morphism": (cmd_monad_morphism, (
            Arg("--from", dest="from_name", required=True),
            Arg("--to", dest="to_name", required=True),
            _POMONOID, Arg("--bound", type=int), _JSON, _K)),
    }),
    "duoidal": ("check a duoidal gradation", {"check": (cmd_duoidal, (
        _MONAD, _POMONOID, Arg("--alphabet", default="ab"), Arg("--cap", type=int, default=2),
        Arg("--json", default=False, switch=True),
        Arg("--max-set-size", type=int, default=2, metavar="K")))}),
    "analyze": ("grade a program and judge each reordering", (cmd_analyze, (
        Arg("program"), Arg("--pomonoid", required=True),
        Arg("--monad", help="refine verdicts with a built-in monad"), _JSON, _K))),
    "examples": ("list built-ins and fixtures", {"list": (cmd_examples, ())}),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, added from the _COMMANDS table
    that read_well_formed reads.  main builds it only for a line that reader
    hands back, so argparse alone prints help and errors."""
    parser = argparse.ArgumentParser(
        prog="centrekit",
        description="check graded monads, their centres, and effect reorderings")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, actions) in _COMMANDS.items():
        cp = sub.add_parser(command, help=text)
        if not isinstance(actions, dict):
            _add_arguments(cp, *actions)
            continue
        actsub = cp.add_subparsers(dest="action", required=True)
        for action, entry in actions.items():
            _add_arguments(actsub.add_parser(action), *entry)
    return parser


def _add_arguments(ap, fn, args):
    for arg in args:
        ap.add_argument(arg.name, **arg.kwargs())
    ap.set_defaults(fn=fn)


def read_well_formed(argv) -> argparse.Namespace | None:
    """argv read from the table as build_parser's parser reads it, or None.

    Only a strict subset is read: exact command, action and option names;
    each option at most once and never as --opt=value; option values that
    do not start with "-", converted by the table's type; exactly the
    declared positionals; and every required option.  Anything else, -h,
    -- and a value its type refuses included, gives None, so that argparse
    alone prints help and errors.  No parser is built here."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fields = {"command": argv[0]}
    entry, rest = _COMMANDS[argv[0]][1], argv[1:]
    if isinstance(entry, dict):
        if not rest or rest[0] not in entry:
            return None
        fields["action"] = rest[0]
        entry, rest = entry[rest[0]], rest[1:]
    fn, declared = entry
    positionals = [arg for arg in declared if not arg.name.startswith("-")]
    options = {arg.name: arg for arg in declared if arg.name.startswith("-")}
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            if not positionals:
                return None
            arg, value = positionals.pop(0), token
        else:
            arg = options.pop(token, None)  # popped, so a repeat reads as unknown
            if arg is None:
                return None
            if arg.switch:
                fields[arg.attr] = True
                continue
            value = next(tokens, "-")  # a missing value reads as "-"
            if value.startswith("-"):
                return None
        try:
            fields[arg.attr] = value if arg.type is None else arg.type(value)
        except ValueError:
            return None
    if positionals or any(arg.required for arg in options.values()):
        return None
    for arg in options.values():
        fields[arg.attr] = arg.default
    return argparse.Namespace(fn=fn, **fields)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_well_formed(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CentralityViolation as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return FAIL
    except (InputError, FileNotFoundError, EffectLangError, PomonoidError,
            GradedMonadError, CentreError, LanguageError, SetSizeError,
            TokenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
