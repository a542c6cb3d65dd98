import pytest

from centrekit.effectlang import (
    FORCED,
    FREE,
    GRADE_COMMUTES_ONLY,
    Call,
    GradingMismatch,
    Let,
    Lit,
    Op,
    ParseError,
    UnboundVariable,
    UnknownGrade,
    UnknownPrimitive,
    Var,
    infer_grades,
    parse_program,
    reorder_report,
)
from centrekit.graded_monad import bool_writer_pair, multi_error_writer
from centrekit.pomonoid import bool_pomonoid, multi_error_pomonoid


def me_program(a, b):
    # one binary node whose operand grades are exactly (a, b)
    return parse_program(
        f"prim fa ! {a}\nprim fb ! {b}\nmain = op+(fa(1), fb(2))")


class TestParser:
    def test_small_program_shape(self):
        text = """\
# two effectful prims
prim f ! wa
prim g ! e
main = let x = f(1) in op+(g(x), f(2))
"""
        p = parse_program(text)
        assert p.prims == {"f": "wa", "g": "e"}
        body = p.body
        assert isinstance(body, Let) and body.var == "x"
        assert isinstance(body.bound, Call) and body.bound.prim == "f"
        assert isinstance(body.bound.arg, Lit) and body.bound.arg.value == 1
        node = body.body
        assert isinstance(node, Op) and node.name == "+"
        assert isinstance(node.left, Call) and node.left.prim == "g"
        assert isinstance(node.left.arg, Var) and node.left.arg.name == "x"
        assert isinstance(node.right, Call) and node.right.prim == "f"

    def test_positions(self):
        p = parse_program("prim f ! wa\nmain = op+(f(1), 2)")
        node = p.body
        assert (node.line, node.col) == (2, 8)
        assert (node.left.line, node.left.col) == (2, 12)
        assert (node.right.line, node.right.col) == (2, 18)

    def test_nested_lets_scope(self):
        p = parse_program(
            "main = let x = 1 in let y = x in op*(x, y)")
        inner = p.body.body
        assert isinstance(inner, Let) and isinstance(inner.bound, Var)
        assert {inner.body.left.name, inner.body.right.name} == {"x", "y"}

    def test_symbolic_op_names(self):
        for sym in ("+", "-", "*", "<=", "&&"):
            p = parse_program(f"main = op{sym}(1, 2)")
            assert p.body.name == sym

    def test_missing_main(self):
        with pytest.raises(ParseError) as exc:
            parse_program("prim f ! wa\n")
        assert exc.value.line == 2
        assert exc.value.col == 1
        assert exc.value.expected == "'main'"

    def test_missing_equals(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main 3")
        assert (exc.value.line, exc.value.col) == (1, 6)
        assert exc.value.expected == "'='"

    def test_missing_close_paren(self):
        with pytest.raises(ParseError) as exc:
            parse_program("prim f ! wa\nmain = f(1")
        assert (exc.value.line, exc.value.col) == (2, 11)
        assert exc.value.expected == "')'"

    def test_missing_in(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main = let x = 1 2")
        assert exc.value.expected == "'in'"

    def test_keyword_is_not_an_expression(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main = in")
        assert exc.value.expected == "an expression"
        assert (exc.value.line, exc.value.col) == (1, 8)

    def test_stray_trailing_token(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main = 1 2")
        assert (exc.value.line, exc.value.col) == (1, 10)

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse_program("main = [1]")
        assert (exc.value.line, exc.value.col) == (1, 8)

    def test_duplicate_prim(self):
        with pytest.raises(ParseError) as exc:
            parse_program("prim f ! wa\nprim f ! e\nmain = 1")
        assert exc.value.line == 2

    def test_unknown_primitive_position(self):
        with pytest.raises(UnknownPrimitive) as exc:
            parse_program("prim f ! wa\nmain = g(1)")
        assert "line 2, col 8" in str(exc.value)
        assert "g" in str(exc.value)

    def test_unbound_variable_position(self):
        with pytest.raises(UnboundVariable) as exc:
            parse_program("main = let x = 1 in op+(x, y)")
        assert "line 1, col 28" in str(exc.value)
        assert "y" in str(exc.value)

    def test_let_variable_leaves_scope(self):
        with pytest.raises(UnboundVariable):
            parse_program("main = op+(let x = 1 in x, x)")

    def test_comments_and_blank_lines_ignored(self):
        p = parse_program("\n# header\nprim f ! t  # note\n\nmain = f(1)\n")
        assert p.prims == {"f": "t"}


class TestInferGrades:
    def setup_method(self):
        self.P = multi_error_pomonoid()

    def test_pure_program_is_unit(self):
        p = parse_program("main = 7")
        grades = infer_grades(p, self.P)
        assert grades[p.body] == "t"

    def test_literal_and_var_are_unit(self):
        p = parse_program("main = let x = 1 in x")
        grades = infer_grades(p, self.P)
        assert grades[p.body.bound] == "t"
        assert grades[p.body.body] == "t"
        assert grades[p.body] == "t"

    def test_warning_then_error_is_error(self):
        p = parse_program("prim f ! wa\nprim g ! e\nmain = let x = f(1) in g(x)")
        grades = infer_grades(p, self.P)
        assert grades[p.body] == "e"

    def test_argument_runs_before_the_call(self):
        # wa then wb keeps the later warning; swapped nesting keeps the other
        P = self.P
        p = parse_program("prim f ! wa\nprim h ! wb\nmain = h(f(1))")
        assert infer_grades(p, P)[p.body] == "wb"
        q = parse_program("prim f ! wa\nprim h ! wb\nmain = f(h(1))")
        assert infer_grades(q, P)[q.body] == "wa"

    def test_op_sequences_left_to_right(self):
        p = me_program("wa", "wb")
        assert infer_grades(p, self.P)[p.body] == "wb"
        q = me_program("wb", "wa")
        assert infer_grades(q, self.P)[q.body] == "wa"

    def test_every_node_is_graded(self):
        p = parse_program("prim f ! wa\nmain = let x = f(1) in op+(x, f(2))")
        grades = infer_grades(p, self.P)
        body = p.body
        assert grades[body.bound] == "wa"
        assert grades[body.body] == "wa"
        assert grades[body.body.left] == "t"
        assert grades[body] == "wa"

    def test_unknown_grade(self):
        p = parse_program("prim f ! zz\nmain = f(1)")
        with pytest.raises(UnknownGrade) as exc:
            infer_grades(p, self.P)
        assert "zz" in str(exc.value)
        assert "f" in str(exc.value)


class TestVerdicts:
    def test_commutative_pomonoid_alone_frees_everything(self):
        P = bool_pomonoid()
        for pair in (("tt", "ff"), ("ff", "tt"), ("ff", "ff")):
            rep = reorder_report(me_program(*pair), P)
            assert rep.verdicts() == [FREE]

    def test_bool_pair_monad_blocks_ff_ff(self):
        P = bool_pomonoid()
        M = bool_writer_pair()
        for pair in (("tt", "ff"), ("ff", "tt"), ("tt", "tt")):
            rep = reorder_report(me_program(*pair), P, M=M, k=2)
            assert rep.verdicts() == [FREE], pair
        rep = reorder_report(me_program("ff", "ff"), P, M=M, k=2)
        assert rep.verdicts() == [FORCED]

    def test_multi_error_central_operand_is_free(self):
        P = multi_error_pomonoid()
        for pair in (("t", "wa"), ("wa", "t"), ("e", "wb"), ("t", "e")):
            assert reorder_report(me_program(*pair), P).verdicts() == [FREE], pair

    def test_multi_error_warning_pair_is_forced(self):
        P = multi_error_pomonoid()
        for pair in (("wa", "wb"), ("wb", "wa")):
            assert reorder_report(me_program(*pair), P).verdicts() == [FORCED], pair

    def test_equal_warnings_commute_in_grade_only(self):
        P = multi_error_pomonoid()
        assert reorder_report(me_program("wa", "wa"), P).verdicts() == [GRADE_COMMUTES_ONLY]

    def test_pairwise_pass_without_centrality_is_no_licence(self):
        # the monad scan agrees at (wa,wa), but a grade-level guarantee is
        # still missing, so the pair is not promoted past FORCED
        P = multi_error_pomonoid()
        M = multi_error_writer()
        rep = reorder_report(me_program("wa", "wa"), P, M=M, k=2)
        assert rep.verdicts() == [FORCED]

    def test_monad_confirms_central_pairs(self):
        P = multi_error_pomonoid()
        M = multi_error_writer()
        for pair in (("t", "wa"), ("wa", "t"), ("e", "wb")):
            rep = reorder_report(me_program(*pair), P, M=M, k=2)
            assert rep.verdicts() == [FREE], pair

    def test_grading_mismatch(self):
        with pytest.raises(GradingMismatch):
            reorder_report(me_program("tt", "ff"), bool_pomonoid(),
                           M=multi_error_writer())

    def test_verdicts_are_symmetric(self):
        P = multi_error_pomonoid()
        M = multi_error_writer()
        for a in P.elements:
            for b in P.elements:
                fwd = reorder_report(me_program(a, b), P, M=M, k=2).verdicts()
                bwd = reorder_report(me_program(b, a), P, M=M, k=2).verdicts()
                assert fwd == bwd, (a, b)

    def test_free_implies_grade_commutes(self):
        for P, M in ((multi_error_pomonoid(), multi_error_writer()),
                     (bool_pomonoid(), bool_writer_pair())):
            for a in P.elements:
                for b in P.elements:
                    for monad in (None, M):
                        rep = reorder_report(me_program(a, b), P, M=monad, k=2)
                        if rep.verdicts() == [FREE]:
                            assert P.times(a, b) == P.times(b, a), (a, b)


class TestReorderReport:
    def test_entries_in_source_order_inner_first(self):
        P = multi_error_pomonoid()
        p = parse_program(
            "prim f ! wa\nprim g ! wb\n"
            "main = op+(op*(f(1), g(2)), f(3))")
        rep = reorder_report(p, P)
        assert [e.op for e in rep.entries] == ["*", "+"]
        # outer node sees the combined grade of its left subtree
        assert (rep.entries[1].left_grade, rep.entries[1].right_grade) == ("wb", "wa")
        assert rep.main_grade == "wa"

    def test_ops_found_under_let_and_call(self):
        P = multi_error_pomonoid()
        p = parse_program(
            "prim f ! wa\n"
            "main = let x = op+(f(1), 2) in f(op-(x, 3))")
        rep = reorder_report(p, P)
        assert [e.op for e in rep.entries] == ["+", "-"]

    def test_text_rendering(self):
        P = bool_pomonoid()
        rep = reorder_report(me_program("tt", "ff"), P)
        text = rep.to_text()
        assert text.splitlines()[0] == "main grade: ff"
        assert "op+" in text
        assert "(tt,ff)" in text
        assert "FREE" in text
        assert "3:8" in text  # two prim lines precede main

    def test_entry_dict(self):
        P = bool_pomonoid()
        rep = reorder_report(me_program("ff", "tt"), P)
        d = rep.entries[0].to_dict()
        assert d == {"line": 3, "col": 8, "op": "+",
                     "a": "ff", "b": "tt", "verdict": FREE}

    def test_commuting_pair_runs_once_per_grade_pair(self, monkeypatch):
        import centrekit.effectlang as effectlang
        from centrekit.graded_monad import commuting_pair

        P = bool_pomonoid()
        M = bool_writer_pair()
        # seven binary nodes over three distinct operand grade pairs
        p = parse_program(
            "prim pure ! tt\nprim log ! ff\n"
            "main = op+(op-(log(1), log(2)), op*(op/(log(3), log(4)),"
            " op+(op-(pure(5), log(6)), op*(log(7), pure(8)))))")
        calls = []

        def counting(*args):
            calls.append(args[1:3])
            return commuting_pair(*args)

        monkeypatch.setattr(effectlang, "commuting_pair", counting)
        rep = reorder_report(p, P, M=M, k=2)
        pairs = [(e.left_grade, e.right_grade) for e in rep.entries]
        assert len(pairs) == 7
        assert sorted(calls) == sorted(set(pairs))
        # every node's verdict is the one its own uncached scan gives
        monkeypatch.undo()
        for entry in rep.entries:
            alone = reorder_report(me_program(entry.left_grade, entry.right_grade),
                                   P, M=M, k=2)
            assert [entry.verdict] == alone.verdicts()
