import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrekit
from centrekit.cli import main
from centrekit.graded_monad import registry

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


class TestPomonoidCommands:
    def test_check_passes(self, capsys):
        assert main(["pomonoid", "check", fx("bool.pom")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("pass")
        assert "unit tt" in out

    def test_centre_output(self, capsys):
        assert main(["pomonoid", "centre", fx("multi_error.pom")]) == 0
        assert capsys.readouterr().out == "{t,e}\n"

    def test_centre_json(self, capsys):
        assert main(["pomonoid", "centre", fx("multi_error.pom"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"centre": ["t", "e"]}

    def test_law_violation_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.pom"
        # mul table sends t*t off the unit law
        bad.write_text("elements t e\nunit t\n"
                       "mul t t e\nmul t e e\nmul e t e\nmul e e e\n")
        assert main(["pomonoid", "check", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ("elements tt ff\nunit tt\nmul tt tt tt\nmul tt ff ff\nmul ff tt ff\n",
         "no entry for ff*ff"),
        ("elements tt ff\nunit tt\nmul tt tt tt\nmul tt ff ff\nmul ff tt ff\nmul ff ff zz\n",
         "ff*ff = 'zz' not among elements"),
        ("elements tt ff tt\nunit tt\n", "duplicate elements in ('tt', 'ff', 'tt')"),
    ], ids=["missing", "unknown", "duplicate"])
    def test_table_input_errors_exit_2(self, tmp_path, capsys, text, message):
        # a missing, unknown or duplicate entry is bad input, not a failed law
        bad = tmp_path / "bad.pom"
        bad.write_text(text)
        assert main(["pomonoid", "check", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.pom"
        bad.write_text("elements t e\nunit t\nmul t t\n")
        assert main(["pomonoid", "check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["pomonoid", "check", "no_such_file.pom"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_fixture_dir_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CENTREKIT_FIXTURES", FIXTURES)
        assert main(["pomonoid", "centre", "multi_error.pom"]) == 0
        assert capsys.readouterr().out == "{t,e}\n"


class TestDuoidCommand:
    def test_check_passes(self, capsys):
        assert main(["duoid", "check", fx("escalation.duo")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_interchange_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.duo"
        # disjunction as par puts tt*ff=ff above tt|ff=tt, breaking the
        # derived inequality
        bad.write_text(
            "elements tt ff\nunit tt\n"
            "mul tt tt tt\nmul tt ff ff\nmul ff tt ff\nmul ff ff ff\n"
            "le tt ff\n"
            "op2 tt tt tt\nop2 tt ff tt\nop2 ff tt tt\nop2 ff ff ff\n"
            "unit2 ff\n")
        assert main(["duoid", "check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_base_law_violation_exits_1(self, tmp_path, capsys, as_json):
        # idle*busy = over breaks the base pomonoid's unit law (idle is the
        # unit): a failed check, with the verdict ``pomonoid check`` gives
        bad = tmp_path / "bad.duo"
        with open(fx("escalation.duo")) as fh:
            bad.write_text(fh.read().replace("mul idle busy busy", "mul idle busy over"))
        flag = ["--json"] if as_json else []
        expected = main(["pomonoid", "check", str(bad)] + flag), capsys.readouterr()
        assert expected[0] == 1 and expected[1].err == ""
        assert main(["duoid", "check", str(bad)] + flag) == 1
        captured = capsys.readouterr()
        assert captured == expected[1]
        if as_json:
            assert json.loads(captured.out) == {"ok": False, "error": "unit law fails at busy"}
        else:
            assert captured.out == "FAIL  unit law fails at busy\n"

    def test_stray_op2_entry_exits_2(self, tmp_path, capsys):
        # c is not an element; the same line as mul is refused the same way
        stray = tmp_path / "stray.duo"
        with open(fx("escalation.duo")) as fh:
            stray.write_text(fh.read() + "op2 c c c\n")
        assert main(["duoid", "check", str(stray)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: op2 table entry for unknown pair ('c', 'c')\n"


# Z/2 x Z/2 with e <= a: monotonicity fails at (e<=a, a<=a) first in declaration
# order, and at three more instances after it
KLEIN = ("elements e a b c\nunit e\n"
         + "".join(f"mul {x} {y} {z}\n" for x, row in zip("eabc", ("eabc", "aecb", "bcea", "cbae"))
                   for y, z in zip("eabc", row))
         + "le e a\n")


class TestWitnessesIgnoreTheHashSeed:
    """A failed base law names one witness under every string hash seed: the
    order scans run in declaration order, not in the order of a frozenset."""

    @pytest.mark.parametrize("command, text, expected", [
        ("pomonoid", "le ff tt\n", "FAIL  tt <= ff and ff <= tt with tt != ff\n"),
        ("duoid", "le ff tt\nop2 tt tt tt\nop2 tt ff ff\nop2 ff tt ff\nop2 ff ff ff\nunit2 tt\n",
         "FAIL  tt <= ff and ff <= tt with tt != ff\n"),
        ("pomonoid", None, "FAIL  e<=a, a<=a but not e*a <= a*a\n"),
    ], ids=["pomonoid-antisymmetry", "duoid-antisymmetry", "pomonoid-monotonicity"])
    def test_seeds_0_to_7_print_one_witness(self, tmp_path, command, text, expected):
        table = tmp_path / "table"
        with open(fx("bool.pom")) as fh:
            table.write_text(KLEIN if text is None else fh.read() + text)
        src = os.path.dirname(os.path.dirname(centrekit.__file__))
        runs = [subprocess.Popen(
            [sys.executable, "-m", "centrekit.cli", command, "check", str(table)],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for seed in range(8)]
        outputs = {(*run.communicate(), run.returncode) for run in runs}
        assert outputs == {(expected, "", 1)}


class TestMonadCommands:
    def test_laws_identity_over_file_pomonoid(self, capsys):
        code = main(["monad", "laws", "--monad", "identity",
                     "--pomonoid", fx("multi_error.pom"), "--max-set-size", "2"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, monad", [
        (["monad", "laws", "--monad", "multi_error_writer"], "multi_error_writer"),
        (["monad", "centre", "--monad", "multi_error_writer"], "multi_error_writer"),
        (["monad", "morphism", "--from", "centre(multi_error_writer)",
          "--to", "multi_error_writer"], "multi_error_writer"),
        (["monad", "commutative", "--monad", "multi_error_writer_topped"],
         "multi_error_writer_topped"),
        (["duoidal", "check", "--monad", "language_writer"], "language_writer"),
    ], ids=["laws", "centre", "morphism", "commutative", "duoidal"])
    def test_pomonoid_a_monad_cannot_take_exits_2(self, argv, monad, capsys):
        # these built-ins come with their own grading: a different one is bad input
        assert main(argv + ["--pomonoid", fx("bool.pom")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert monad in captured.err

    def test_laws_unknown_monad_exits_2(self, capsys):
        assert main(["monad", "laws", "--monad", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["monad", "laws", "--monad", "multi_error_writer", "--max-set-size", "12"],
        ["monad", "centre", "--monad", "multi_error_writer", "--set-size", "12"],
        ["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom"),
         "--monad", "bool_writer_pair", "--max-set-size", "12"],
    ])
    def test_oversized_set_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: canonical set size 12 ") and err.count("\n") == 1

    def test_commutative_witness_pair(self, capsys):
        code = main(["monad", "commutative", "--monad", "multi_error_writer",
                     "--max-set-size", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "witness pair (wa, wb)" in out

    def test_commutative_json_round_trip(self, capsys):
        code = main(["monad", "commutative", "--monad", "bool_writer_pair",
                     "--max-set-size", "2", "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        bad = [r for r in data["records"] if not r["ok"]]
        assert {tuple(r["grades"]) for r in bad} == {("ff", "ff")}

    def test_centre_listing(self, capsys):
        code = main(["monad", "centre", "--monad", "multi_error_writer",
                     "--set-size", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "grade t: 2 of 2 central: {y0,y1}"
        assert lines[1].startswith("grade e: 1 of 1 central:")

    def test_centre_unknown_grade_exits_2(self, capsys):
        code = main(["monad", "centre", "--monad", "multi_error_writer", "--grade", "zz"])
        assert code == 2
        assert capsys.readouterr().err == "error: zz is not a grade of multi_error\n"

    def test_centre_single_grade_json(self, capsys):
        code = main(["monad", "centre", "--monad", "bool_writer_pair",
                     "--grade", "ff", "--set-size", "1", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["grade"] == "ff"
        assert sorted(data["members"]) == ["(y0,e)", "(y0,t)"]

    def test_morphism_builtin_pair(self, capsys):
        code = main(["monad", "morphism", "--from", "multi_error_writer",
                     "--to", "multi_error_writer_topped", "--max-set-size", "2"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_morphism_centre_inclusion(self, capsys):
        code = main(["monad", "morphism", "--from", "centre(multi_error_writer)",
                     "--to", "multi_error_writer", "--max-set-size", "2"])
        assert code == 0

    def test_morphism_unknown_pair_exits_2(self, capsys):
        code = main(["monad", "morphism", "--from", "identity",
                     "--to", "bool_writer_pair"])
        assert code == 2
        assert "no built-in morphism" in capsys.readouterr().err


class TestNegativeSizes:
    # a negative size or bound leaves no instance to check; it is bad input,
    # not a pass
    @pytest.mark.parametrize("argv", [
        ["monad", "commutative", "--monad", "multi_error_writer", "--max-set-size", "-1"],
        ["monad", "laws", "--monad", "identity", "--max-set-size", "-1"],
        ["monad", "morphism", "--from", "multi_error_writer",
         "--to", "multi_error_writer_topped", "--max-set-size", "-1"],
        ["monad", "centre", "--monad", "bool_writer_pair", "--bound", "-5"],
        ["monad", "centre", "--monad", "bool_writer_pair", "--grade", "ff", "--bound", "-1"],
        ["duoidal", "check", "--monad", "language_writer", "--max-set-size", "-1"],
        ["duoidal", "check", "--monad", "identity", "--max-set-size", "-1"],
        # refused whatever the carrier: T^t Y0 is empty
        ["monad", "centre", "--monad", "multi_error_writer", "--grade", "t", "--set-size", "0",
         "--bound", "-3"],
        # refused without a monad to scan
        ["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom"), "--max-set-size", "-1"],
    ])
    def test_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestBoundBelowDegree:
    # a bound below the degree of T^b misses test sets that tell elements
    # apart: at bound 0 every element of grade ff passed as central
    @pytest.mark.parametrize("argv", [
        ["monad", "centre", "--monad", "bool_writer_pair", "--bound", "0"],
        ["monad", "morphism", "--from", "centre(bool_writer_pair)", "--to", "bool_writer_pair",
         "--bound", "0"],
        # refused whatever the carrier: T^tt Y0 is empty
        ["monad", "centre", "--monad", "bool_writer_pair", "--grade", "tt", "--set-size", "0",
         "--bound", "0"],
        ["monad", "centre", "--monad", "bool_writer_pair", "--set-size", "0", "--bound", "0"],
    ])
    def test_exits_2_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: test-set bound 0 is below the degree 1 of grade tt\n"


class TestOversizedBound:
    # a bound above the largest canonical set is refused before anything is
    # scanned, and the error names the bound, even where T^tt Y0 is empty
    @pytest.mark.parametrize("set_size, bound", [("0", "10"), ("1", "12")])
    def test_exits_2_with_one_error_line_naming_the_bound(self, set_size, bound, capsys):
        argv = ["monad", "centre", "--monad", "bool_writer_pair", "--grade", "tt",
                "--set-size", set_size, "--bound", bound]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: canonical set size {bound} is outside 0..9: "
                                "canonical sets are meant for small exhaustive scans\n")


# the small built-ins and their grades; language_writer is left out, so each
# drawn run stays fast
CENTRE_GRADES = {name: list(registry()[name]().pomonoid.elements)
                 for name in ("identity", "multi_error_writer", "multi_error_writer_topped",
                              "bool_writer_pair")}


@st.composite
def centre_argv(draw):
    name = draw(st.sampled_from(sorted(CENTRE_GRADES)))
    argv = ["monad", "centre", "--monad", name, "--set-size", str(draw(st.integers(-2, 10))),
            "--json"]
    bound = draw(st.none() | st.integers(-2, 3))
    if bound is not None:
        argv += ["--bound", str(bound)]
    grade = draw(st.none() | st.sampled_from(CENTRE_GRADES[name] + ["zz"]))
    if grade is not None:
        argv += ["--grade", grade]
    return argv


class TestDrawnCentreArguments:
    # any set size, bound and grade either prints JSON or is refused with
    # one error line
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(centre_argv())
    def test_exits_0_with_json_or_2_with_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if "--bound" in argv and int(argv[argv.index("--bound") + 1]) < 0:
            assert code == 2
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            json.loads(out.getvalue())


class TestUnreadableFiles:
    # a file that cannot be read as text is bad input: one error line naming
    # it and exit 2, whichever argument names it
    @pytest.fixture(params=["binary", "directory"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "unreadable"
        if request.param == "binary":
            path.write_bytes(b"\xff\xfe\x00elements t\n")
        else:
            path.mkdir()
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["pomonoid", "check", "{}"],
        ["pomonoid", "centre", "{}"],
        ["duoid", "check", "{}"],
        ["analyze", "{}", "--pomonoid", fx("bool.pom")],
        ["analyze", fx("reorder.eff"), "--pomonoid", "{}"],
        ["monad", "laws", "--monad", "identity", "--pomonoid", "{}"],
        ["monad", "centre", "--monad", "identity", "--pomonoid", "{}"],
    ], ids=["pomonoid-check", "pomonoid-centre", "duoid-check", "analyze-program",
            "analyze-pomonoid", "monad-laws-pomonoid", "monad-centre-pomonoid"])
    def test_exits_2_with_one_error_line(self, argv, unreadable, capsys):
        assert main([a.format(unreadable) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {unreadable}: ")
        assert captured.err.count("\n") == 1


class TestTokenUnsafeGrades:
    # a pomonoid file whose element names the pair encoding cannot splice is
    # bad input, read by whichever command builds a carrier over it
    @pytest.mark.parametrize("name", ["(x", "a,b"], ids=["bracket", "comma"])
    @pytest.mark.parametrize("argv", [
        ["monad", "laws", "--monad", "bool_writer_pair", "--pomonoid", "{}"],
        ["monad", "commutative", "--monad", "bool_writer_pair", "--pomonoid", "{}"],
        ["monad", "centre", "--monad", "bool_writer_pair", "--pomonoid", "{}"],
        ["analyze", fx("reorder.eff"), "--pomonoid", "{}", "--monad", "bool_writer_pair"],
    ], ids=["monad-laws", "monad-commutative", "monad-centre", "analyze"])
    def test_exits_2_with_one_error_line(self, argv, name, tmp_path, capsys):
        pom = tmp_path / "unsafe.pom"
        with open(fx("bool.pom")) as f:
            pom.write_text(f.read().replace("ff", name))
        assert main([a.format(pom) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert name in captured.err


class TestTokenUnsafeElementNames:
    # every command that loads a pomonoid or duoid file refuses an element
    # name the pair encoding cannot splice, naming it, whatever it goes on to
    # build; a name whose commas sit inside braces is a token like any other
    @pytest.mark.parametrize("name", ["(x", "a,b"], ids=["bracket", "comma"])
    @pytest.mark.parametrize("fixture, old, argv", [
        ("bool.pom", "ff", ["pomonoid", "check", "{}"]),
        ("bool.pom", "ff", ["pomonoid", "centre", "{}"]),
        ("escalation.duo", "busy", ["duoid", "check", "{}"]),
        ("bool.pom", "ff", ["monad", "laws", "--monad", "identity", "--pomonoid", "{}"]),
    ], ids=["pomonoid-check", "pomonoid-centre", "duoid-check", "monad-laws-identity"])
    def test_exits_2_with_one_error_line(self, fixture, old, argv, name, tmp_path, capsys):
        path = tmp_path / fixture
        with open(fx(fixture)) as f:
            path.write_text(f.read().replace(old, name))
        assert main([a.format(path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(name) in captured.err

    def test_commas_inside_braces_stay_valid(self, tmp_path, capsys):
        path = tmp_path / "braced.pom"
        with open(fx("bool.pom")) as f:
            path.write_text(f.read().replace("ff", "{_,a}"))
        assert main(["pomonoid", "centre", str(path)]) == 0
        assert capsys.readouterr().out == "{tt,{_,a}}\n"


# the structure files the mutation gate starts from, and the commands it runs
STRUCTURE_FIXTURES = ("bool.pom", "multi_error.pom", "escalation.duo")
STRUCTURE_COMMANDS = (["pomonoid", "check"], ["pomonoid", "centre", "--json"],
                      ["duoid", "check", "--json"])
DIRECTIVES = ("elements", "unit", "mul", "le", "op2", "unit2")
# stray tokens: names, brackets and commas the pair encoding must refuse, a
# comment sign, directives and non-ASCII text
STRAY = st.sampled_from(["zz", "(", ")", "a,b", "x(y)", "{", "}", "{_,a}", "_", "#", "é",
                         "0", "frob", "--", *DIRECTIVES])


@st.composite
def mutated_structure_file(draw):
    """The bytes of a structure fixture after one or two mutations: a line
    dropped, duplicated or retyped, an argument added, removed or changed, an
    element renamed, or stray tokens, an unknown directive or bytes that are
    not UTF-8 put in."""
    with open(fx(draw(st.sampled_from(STRUCTURE_FIXTURES))), encoding="utf-8") as f:
        lines = f.read().splitlines()
    elements = next(line.split()[1:] for line in lines if line.startswith("elements"))
    bad_bytes = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["drop", "dup", "retype", "add-arg", "drop-arg", "rename",
                                     "retarget", "stray", "unknown", "bytes"]))
        i = draw(st.integers(0, 60)) % max(len(lines), 1)
        words = lines[i].split() if lines else []
        if kind == "drop" and lines:
            del lines[i]
        elif kind == "dup" and lines:
            lines.insert(i, lines[i])
        elif kind == "retype" and words:
            lines[i] = " ".join([draw(st.sampled_from(DIRECTIVES))] + words[1:])
        elif kind == "add-arg" and words:
            lines[i] = " ".join(words + [draw(st.sampled_from(elements) | STRAY)])
        elif kind == "drop-arg" and len(words) > 1:
            lines[i] = " ".join(words[:-1])
        elif kind == "rename":
            old, new = draw(st.sampled_from(elements)), draw(st.sampled_from(elements) | STRAY)
            lines = [" ".join(new if w == old else w for w in line.split()) for line in lines]
        elif kind == "retarget" and len(words) > 1:
            # the last argument of line i becomes another element: a typo in a table
            lines[i] = " ".join(words[:-1] + [draw(st.sampled_from(elements))])
        elif kind == "stray":
            lines.insert(i, " ".join(draw(st.lists(STRAY, min_size=1, max_size=3))))
        elif kind == "unknown":
            lines.insert(i, " ".join(["frob"] + elements[:draw(st.integers(0, 3))]))
        elif kind == "bytes":
            bad_bytes.append((i, draw(st.sampled_from([b"\xff", b"\xc3", b"\x80abc"]))))
    data = [line.encode("utf-8") for line in lines]
    for i, raw in bad_bytes:
        data.insert(min(i, len(data)), raw)
    return b"\n".join(data) + b"\n"


class TestMutatedStructureFiles:
    # a mutated structure file passes, fails a law with a printed verdict, or
    # is refused with one error line; nothing ends in a traceback
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(mutated_structure_file())
    def test_exits_0_1_or_2_with_the_contracted_output(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("mutated") / "structure.txt"
        path.write_bytes(data)
        for command in STRUCTURE_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(command[:2] + [str(path)] + command[2:])
            assert code in (0, 1, 2), command
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            if code == 1:
                assert "FAIL" in out.getvalue() or '"ok": false' in out.getvalue()


class TestDuoidalCommand:
    def test_language_writer(self, capsys):
        code = main(["duoidal", "check", "--monad", "language_writer"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_derived_from_commutative_monad(self, capsys):
        code = main(["duoidal", "check", "--monad", "identity",
                     "--pomonoid", fx("bool.pom"), "--max-set-size", "2"])
        assert code == 0

    # letters the language-literal syntax uses are refused before any literal
    # is written, with one error line and no traceback
    @pytest.mark.parametrize("alphabet", ["{", "}", "_", "a,b", "a b", "a\tb", "{}"])
    def test_literal_syntax_in_alphabet_exits_2(self, alphabet, capsys):
        code = main(["duoidal", "check", "--monad", "language_writer", "--alphabet", alphabet])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "as syntax" in captured.err

    @pytest.mark.parametrize("alphabet", ["aa", "aba"])
    def test_repeated_letter_in_alphabet_exits_2(self, alphabet, capsys):
        code = main(["duoidal", "check", "--monad", "language_writer", "--alphabet", alphabet])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet repeats 'a'\n"

    def test_noncommutative_monad_fails_the_check(self, capsys):
        code = main(["duoidal", "check", "--monad", "multi_error_writer"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "FAIL  monad is not commutative; no canonical m exists\n"
        assert captured.err == ""

    def test_noncommutative_monad_fails_the_check_in_json(self, capsys):
        code = main(["duoidal", "check", "--monad", "multi_error_writer", "--json"])
        assert code == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "ok": False, "error": "monad is not commutative; no canonical m exists"}
        assert captured.err == ""


class TestAnalyzeCommand:
    def test_grade_only_analysis(self, capsys):
        code = main(["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "main grade: ff"
        assert out.count("FREE") == 4

    def test_monad_refined_analysis(self, capsys):
        code = main(["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom"),
                     "--monad", "bool_writer_pair"])
        assert code == 0
        verdicts = [line.split()[-1] for line in
                    capsys.readouterr().out.splitlines()[1:]]
        assert verdicts == ["FREE", "FREE", "FREE", "FORCED"]

    def test_json_entries(self, capsys):
        code = main(["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom"),
                     "--monad", "bool_writer_pair", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["main_grade"] == "ff"
        assert [e["verdict"] for e in data["entries"]] == [
            "FREE", "FREE", "FREE", "FORCED"]
        assert data["entries"][0]["op"] == "+"

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.eff"
        bad.write_text("main = let x = in 1")
        assert main(["analyze", str(bad), "--pomonoid", fx("bool.pom")]) == 2
        assert "expected" in capsys.readouterr().err

    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "long.eff"
        bad.write_text(f"prim f ! tt\nmain = f({'9' * 5000})")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["analyze", str(bad), "--pomonoid", fx("bool.pom")])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2, col 10: expected an integer literal")
        assert captured.err.count("\n") == 1

    def test_unknown_grade_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.eff"
        bad.write_text("prim f ! zz\nmain = f(1)")
        assert main(["analyze", str(bad), "--pomonoid", fx("bool.pom")]) == 2

    def test_grading_mismatch_exits_2(self, capsys):
        code = main(["analyze", fx("reorder.eff"), "--pomonoid", fx("bool.pom"),
                     "--monad", "multi_error_writer"])
        assert code == 2
        assert "different pomonoid" in capsys.readouterr().err


class TestDeepPrograms:
    """Programs nested 3,000 deep, past the interpreter's recursion limit."""

    DEPTH = 3000

    def analyze(self, tmp_path, capsys, text):
        program = tmp_path / "deep.eff"
        program.write_text(text)
        code = main(["analyze", str(program), "--pomonoid", fx("bool.pom"),
                     "--monad", "bool_writer_pair", "--json"])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_pure_chain(self, tmp_path, capsys):
        n = self.DEPTH
        text = "prim pure ! tt\nmain = " + "pure(" * n + "1" + ")" * n + "\n"
        assert self.analyze(tmp_path, capsys, text) == {"main_grade": "tt", "entries": []}

    def test_left_nested_op_chain(self, tmp_path, capsys):
        n = self.DEPTH
        text = "prim log ! ff\nmain = " + "op+(" * n + "log(1)" + ", 2)" * n + "\n"
        # operands first: the innermost op, at the last "op+(", comes first
        entries = [{"line": 2, "col": 8 + 4 * i, "op": "+", "a": "ff", "b": "tt",
                    "verdict": "FREE"} for i in reversed(range(n))]
        assert self.analyze(tmp_path, capsys, text) == {"main_grade": "ff", "entries": entries}

    def test_nested_lets(self, tmp_path, capsys):
        n = self.DEPTH
        line = "main = let x0 = log(0) in "
        entries = []
        for i in range(1, n):
            entries.append({"line": 2, "col": len(line) + len(f"let x{i} = ") + 1, "op": "*",
                            "a": "tt", "b": "ff", "verdict": "FREE"})
            line += f"let x{i} = op*(x{i - 1}, log({i})) in "
        text = "prim log ! ff\n" + line + f"x{n - 1}\n"
        assert self.analyze(tmp_path, capsys, text) == {"main_grade": "ff", "entries": entries}


class TestExamplesCommand:
    def test_lists_builtins_and_fixtures(self, capsys, monkeypatch):
        monkeypatch.setenv("CENTREKIT_FIXTURES", FIXTURES)
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("identity", "multi_error_writer", "bool_writer_pair",
                     "language_writer"):
            assert f"  {name}" in out
        assert "reorder.eff" in out
        assert "escalation.duo" in out


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
