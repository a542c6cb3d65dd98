"""A small effect-annotated expression language and its reordering analyzer.

Programs declare graded primitives, then give one expression:

    # effects: f warns, g fails
    prim f ! wa
    prim g ! e
    main = let x = f(1) in op+(g(x), f(2))

Expressions are integer literals, variables, unary primitive calls f(e),
binary nodes op<sym>(e1, e2) with a symbolic operator name, and
let x = e1 in e2.  Sequencing is left to right everywhere: the argument
runs before the call's own effect, the left operand before the right.

The analyzer grades every node and asks, per binary node, whether the two
operands could be evaluated in the other order.  Grade centrality answers
soundly; a monad over the same grading refines the answer by scanning the
two composite evaluations themselves.
"""

from dataclasses import dataclass, field

from .graded_monad import GradedStrongMonad, commuting_pair
from .pomonoid import Pomonoid, centre_of_pomonoid, structurally_equal

FREE = "FREE"
GRADE_COMMUTES_ONLY = "GRADE_COMMUTES_ONLY"
FORCED = "FORCED"


class EffectLangError(ValueError):
    pass


class ParseError(EffectLangError):
    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        shown = f" but found {found}" if found else ""
        super().__init__(f"line {line}, col {col}: expected {expected}{shown}")
        self.line = line
        self.col = col
        self.expected = expected


class UnknownPrimitive(EffectLangError):
    pass


class UnboundVariable(EffectLangError):
    pass


class UnknownGrade(EffectLangError):
    pass


class GradingMismatch(EffectLangError):
    pass


@dataclass(eq=False)
class Var:
    name: str
    line: int = 0
    col: int = 0


@dataclass(eq=False)
class Lit:
    value: int
    line: int = 0
    col: int = 0


@dataclass(eq=False)
class Call:
    prim: str
    arg: object = None
    line: int = 0
    col: int = 0


@dataclass(eq=False)
class Op:
    name: str
    left: object = None
    right: object = None
    line: int = 0
    col: int = 0


@dataclass(eq=False)
class Let:
    var: str
    bound: object = None
    body: object = None
    line: int = 0
    col: int = 0


@dataclass
class EffectProgram:
    prims: dict
    body: object


_SYMBOL_CHARS = set("+-*/%&|<>=!?^~:.@$")
_KEYWORDS = {"prim", "main", "let", "in"}


@dataclass
class _Token:
    kind: str  # ident, int, sym, punct, eof
    text: str
    line: int
    col: int


def _lex(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():   # not isdigit: int() cannot read a superscript digit
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("ident", text[start:i], line, col))
            col += i - start
        elif ch in "(),":
            tokens.append(_Token("punct", ch, line, col))
            i += 1
            col += 1
        elif ch in _SYMBOL_CHARS:
            start = i
            while i < n and text[i] in _SYMBOL_CHARS:
                i += 1
            tokens.append(_Token("sym", text[start:i], line, col))
            col += i - start
        else:
            raise ParseError(line, col, "a token", repr(ch))
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _run(gen):
    """Run a recursive walk written as a generator that yields each recursive
    call's generator and is sent its result: depth is bounded by memory."""
    stack, value = [gen], None
    while True:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(call)
            value = None


class _Parser:
    def __init__(self, tokens: list, prims: dict):
        self.tokens = tokens
        self.pos = 0
        self.prims = prims

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(tok.line, tok.col, repr(want),
                             repr(tok.text or tok.kind))
        return self.take()

    def expr(self, scope: frozenset):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "let":
            self.take()
            name = self.expect("ident")
            if name.text in _KEYWORDS:
                raise ParseError(name.line, name.col, "a variable name", repr(name.text))
            self.expect("sym", "=")
            bound = yield self.expr(scope)
            self.expect("ident", "in")
            body = yield self.expr(scope | {name.text})
            return Let(var=name.text, bound=bound, body=body,
                       line=tok.line, col=tok.col)
        if tok.kind == "int":
            self.take()
            try:
                value = int(tok.text)
            except ValueError:   # more digits than the interpreter's int-string limit
                raise ParseError(tok.line, tok.col, "an integer literal of fewer digits",
                                 f"{len(tok.text)} digits") from None
            return Lit(value=value, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self.take()
            if tok.text == "op":
                name = self.expect("sym")
                self.expect("punct", "(")
                left = yield self.expr(scope)
                self.expect("punct", ",")
                right = yield self.expr(scope)
                self.expect("punct", ")")
                return Op(name=name.text, left=left, right=right,
                          line=tok.line, col=tok.col)
            if self.peek().kind == "punct" and self.peek().text == "(":
                if tok.text not in self.prims:
                    raise UnknownPrimitive(
                        f"line {tok.line}, col {tok.col}: {tok.text} is not a declared prim")
                self.take()
                arg = yield self.expr(scope)
                self.expect("punct", ")")
                return Call(prim=tok.text, arg=arg, line=tok.line, col=tok.col)
            if tok.text in _KEYWORDS:
                raise ParseError(tok.line, tok.col, "an expression", repr(tok.text))
            if tok.text not in scope:
                raise UnboundVariable(
                    f"line {tok.line}, col {tok.col}: {tok.text} is not bound")
            return Var(name=tok.text, line=tok.line, col=tok.col)
        raise ParseError(tok.line, tok.col, "an expression",
                         repr(tok.text or tok.kind))


def parse_program(text: str) -> EffectProgram:
    tokens = _lex(text)
    parser = _Parser(tokens, prims={})
    while parser.peek().kind == "ident" and parser.peek().text == "prim":
        parser.take()
        name = parser.expect("ident")
        parser.expect("sym", "!")
        grade = parser.expect("ident")
        if name.text in parser.prims:
            raise ParseError(name.line, name.col, "a fresh prim name", repr(name.text))
        parser.prims[name.text] = grade.text
    head = parser.peek()
    if not (head.kind == "ident" and head.text == "main"):
        raise ParseError(head.line, head.col, "'main'", repr(head.text or head.kind))
    parser.take()
    parser.expect("sym", "=")
    body = _run(parser.expr(frozenset()))
    parser.expect("eof")
    return EffectProgram(prims=parser.prims, body=body)


def infer_grades(program: EffectProgram, P: Pomonoid) -> dict:
    """Grade of every node, sequencing left to right; keyed by node identity."""
    for prim, grade in program.prims.items():
        if grade not in P.elements:
            raise UnknownGrade(f"prim {prim} is graded {grade}, not in {P.name or 'the pomonoid'}")
    grades = {}

    def walk(node):
        if isinstance(node, (Var, Lit)):
            g = P.unit
        elif isinstance(node, Call):
            g = P.times((yield walk(node.arg)), program.prims[node.prim])
        elif isinstance(node, Op):
            g = P.times((yield walk(node.left)), (yield walk(node.right)))
        elif isinstance(node, Let):
            g = P.times((yield walk(node.bound)), (yield walk(node.body)))
        else:
            raise EffectLangError(f"unknown node {node!r}")
        grades[node] = g
        return g

    _run(walk(program.body))
    return grades


@dataclass
class OpVerdict:
    line: int
    col: int
    op: str
    left_grade: str
    right_grade: str
    verdict: str

    def line_text(self) -> str:
        return (f"{self.line}:{self.col}  op{self.op}  "
                f"({self.left_grade},{self.right_grade})  {self.verdict}")

    def to_dict(self) -> dict:
        return {"line": self.line, "col": self.col, "op": self.op,
                "a": self.left_grade, "b": self.right_grade,
                "verdict": self.verdict}


@dataclass
class ReorderReport:
    main_grade: str
    entries: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"main grade: {self.main_grade}"]
        lines.extend(e.line_text() for e in self.entries)
        return "\n".join(lines)

    def verdicts(self) -> list:
        return [e.verdict for e in self.entries]


def reorder_report(program: EffectProgram, P: Pomonoid,
                   M: GradedStrongMonad | None = None, k: int = 2) -> ReorderReport:
    """Per binary node: may its operands be evaluated in either order?

    FREE needs a grade-level guarantee (one operand's grade is central) and,
    when a monad is supplied, agreement of the two composite evaluations.
    GRADE_COMMUTES_ONLY marks pairs whose grades commute while both finer
    tests fail; necessary but not sufficient, so it is not a licence.
    Everything else is FORCED.  Verdicts are symmetric in the operands.
    """
    if M is not None and not structurally_equal(M.pomonoid, P):
        raise GradingMismatch("the monad is graded by a different pomonoid")
    grades = infer_grades(program, P)
    Z, _ = centre_of_pomonoid(P)
    central_grades = set(Z.elements)
    entries = []
    pairwise_verdicts = {}   # commuting_pair(M, a, b, k) by (a, b), for this program only

    def walk(node):
        if isinstance(node, Call):
            yield walk(node.arg)
        elif isinstance(node, Let):
            yield walk(node.bound)
            yield walk(node.body)
        elif isinstance(node, Op):
            yield walk(node.left)
            yield walk(node.right)
            a, b = grades[node.left], grades[node.right]
            central = a in central_grades or b in central_grades
            pairwise = None
            if M is not None:
                if (a, b) not in pairwise_verdicts:
                    pairwise_verdicts[a, b] = commuting_pair(M, a, b, k)
                pairwise = pairwise_verdicts[a, b]
            if central and pairwise is not False:
                verdict = FREE
            elif P.times(a, b) == P.times(b, a) and not central and pairwise is not True:
                verdict = GRADE_COMMUTES_ONLY
            else:
                verdict = FORCED
            entries.append(OpVerdict(line=node.line, col=node.col, op=node.name,
                                     left_grade=a, right_grade=b, verdict=verdict))

    _run(walk(program.body))
    return ReorderReport(main_grade=grades[program.body], entries=entries)
