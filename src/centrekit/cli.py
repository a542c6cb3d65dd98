"""Command line front door.

Wires structure files and built-in monads to the check suites with a
stable exit-code contract: 0 all checks pass, 1 a check failed (the
failing records and witnesses are printed), 2 bad input (unknown name,
missing file, malformed file or program).

File arguments that do not resolve as given are retried under the
directory named by the CENTREKIT_FIXTURES environment variable, so CI
can point at a fixture tree once.
"""

import argparse
import json
import os
import sys

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


def _violation(exc: LawViolation, as_json: bool) -> int:
    # the table parsed but a law failed; that is the check's verdict
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
        S = central_subset(M, args.grade, X, bound=args.bound)
        if args.json:
            print(json.dumps({"grade": args.grade, "set": X.name,
                              "members": list(S.elems)}))
        else:
            print(f"Z^{args.grade}({X.name}) = {{{','.join(S.elems)}}}")
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
    DM, rep = derive_monoidal_m(_build_monad(args), k=args.max_set_size)
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


def _add_common(ap, json_flag=True, set_size=True):
    if json_flag:
        ap.add_argument("--json", action="store_true",
                        help="machine-readable output")
    if set_size:
        ap.add_argument("--max-set-size", type=int, default=3, metavar="K",
                        help="largest canonical set fed to the suites")


def _file_args(fn):
    def add(ap):
        ap.add_argument("file")
        _add_common(ap, set_size=False)
        ap.set_defaults(fn=fn)
    return add


def _monad_args(fn, pomonoid_help=None):
    def add(ap):
        ap.add_argument("--monad", required=True)
        ap.add_argument("--pomonoid", help=pomonoid_help)
        _add_common(ap)
        ap.set_defaults(fn=fn)
    return add


def _monad_centre_args(ap):
    ap.add_argument("--monad", required=True)
    ap.add_argument("--pomonoid")
    ap.add_argument("--grade", help="one grade instead of the whole centre")
    ap.add_argument("--set-size", type=int, default=2, metavar="N",
                    help="size of the base set whose centre is printed")
    ap.add_argument("--bound", type=int, default=None, metavar="N",
                    help="test-set size cap for the centrality scan")
    _add_common(ap, set_size=False)
    ap.set_defaults(fn=cmd_monad_centre)


def _monad_morphism_args(ap):
    ap.add_argument("--from", dest="from_name", required=True)
    ap.add_argument("--to", dest="to_name", required=True)
    ap.add_argument("--pomonoid")
    ap.add_argument("--bound", type=int, default=None)
    _add_common(ap)
    ap.set_defaults(fn=cmd_monad_morphism)


def _duoidal_check_args(ap):
    ap.add_argument("--monad", required=True)
    ap.add_argument("--pomonoid")
    ap.add_argument("--alphabet", default="ab")
    ap.add_argument("--cap", type=int, default=2)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--max-set-size", type=int, default=2, metavar="K")
    ap.set_defaults(fn=cmd_duoidal)


def _analyze_args(ap):
    ap.add_argument("program")
    ap.add_argument("--pomonoid", required=True)
    ap.add_argument("--monad", help="refine verdicts with a built-in monad")
    _add_common(ap)
    ap.set_defaults(fn=cmd_analyze)


# command -> (help, the arguments of each of its actions); analyze has no
# actions and takes its arguments itself
_COMMANDS = {
    "pomonoid": ("validate a structure file or print its centre",
                 {"check": _file_args(cmd_pomonoid), "centre": _file_args(cmd_pomonoid)}),
    "duoid": ("check a two-operation structure file", {"check": _file_args(cmd_duoid)}),
    "monad": ("run suites against a built-in monad",
              {"laws": _monad_args(cmd_monad_laws, "grading for monads that accept one"),
               "commutative": _monad_args(cmd_monad_commutative),
               "centre": _monad_centre_args,
               "morphism": _monad_morphism_args}),
    "duoidal": ("check a duoidal gradation", {"check": _duoidal_check_args}),
    "analyze": ("grade a program and judge each reordering", _analyze_args),
    "examples": ("list built-ins and fixtures",
                 {"list": lambda ap: ap.set_defaults(fn=cmd_examples)}),
}


def _subparsers(parser, dest, names, wanted):
    """Add parser's subcommands, building only the one named wanted when it
    names one.  A narrowed set is listed under argparse's own {a,b,...}
    metavar, so usage lines read as with every subcommand built; the full
    set keeps no metavar, so its errors still name the argument by dest."""
    narrowed = wanted in names
    sub = parser.add_subparsers(dest=dest, required=True,
                                metavar="{" + ",".join(names) + "}" if narrowed else None)
    return sub, ((wanted,) if narrowed else names)


def build_parser(first: str | None = None, second: str | None = None) -> argparse.ArgumentParser:
    """The argument parser for a command line starting with first, second.

    When first names a command, only that command's parser is built; when
    it is a nested command and second names one of its actions, only that
    action's parser is built too.  A name that matches nothing builds the
    full set at that level, so usage, help and errors read the same either
    way."""
    parser = argparse.ArgumentParser(
        prog="centrekit",
        description="check graded monads, their centres, and effect reorderings")
    sub, commands = _subparsers(parser, "command", tuple(_COMMANDS), first)
    for command in commands:
        text, actions = _COMMANDS[command]
        cp = sub.add_parser(command, help=text)
        if callable(actions):
            actions(cp)
            continue
        actsub, names = _subparsers(cp, "action", tuple(actions),
                                    second if command == first else None)
        for action in names:
            actions[action](actsub.add_parser(action))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(*argv[:2]).parse_args(argv)
    try:
        return args.fn(args)
    except CentralityViolation as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return FAIL
    except (InputError, FileNotFoundError, EffectLangError, PomonoidError,
            GradedMonadError, CentreError, LanguageError, NotCommutative,
            SetSizeError, TokenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
