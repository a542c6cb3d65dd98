"""Finite partially ordered monoids and their two-operation extensions.

A pomonoid is a finite monoid carrying a partial order that multiplication
respects on both sides.  Validation is a brute-force scan of every triple
and comparable pair, which is the point: the carrier is small and the
check doubles as the definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finkit import TokenError, check_token
from .report import Report, failure_record


class PomonoidError(ValueError):
    pass


class DuplicateElement(PomonoidError):
    pass


class UnknownElement(PomonoidError):
    pass


class MissingTableEntry(PomonoidError):
    pass


class LawViolation(PomonoidError):
    """A table that parsed but breaks a pomonoid law: a check's verdict, not bad input."""


class AssociativityViolation(LawViolation):
    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"(({a}*{b})*{c}) != ({a}*({b}*{c}))")


class UnitViolation(LawViolation):
    def __init__(self, a):
        self.witness = a
        super().__init__(f"unit law fails at {a}")


class AntisymmetryViolation(LawViolation):
    def __init__(self, a, b):
        self.witness = (a, b)
        super().__init__(f"{a} <= {b} and {b} <= {a} with {a} != {b}")


class MonotonicityViolation(LawViolation):
    def __init__(self, w, x, y, z):
        self.witness = (w, x, y, z)
        super().__init__(f"{w}<={x}, {y}<={z} but not {w}*{y} <= {x}*{z}")


class UnmappedElement(PomonoidError):
    pass


class FileFormatError(PomonoidError):
    pass


@dataclass
class Pomonoid:
    """Carrier in declaration order, unit, full multiplication table, closed order."""

    elements: tuple[str, ...]
    unit: str
    mul: dict[tuple[str, str], str]
    leq: frozenset[tuple[str, str]]
    name: str = ""

    def times(self, a: str, b: str) -> str:
        return self.mul[(a, b)]

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def comparable_pairs(self) -> list[tuple[str, str]]:
        return [(a, b) for a in self.elements for b in self.elements if self.le(a, b)]

    def is_discrete(self) -> bool:
        return all(a == b for a, b in self.leq)

    def commutes(self, a: str, b: str) -> bool:
        return self.times(a, b) == self.times(b, a)


def structurally_equal(P: Pomonoid, Q: Pomonoid) -> bool:
    """Same carrier set, unit, table, and order; names and declaration order ignored."""
    return (
        set(P.elements) == set(Q.elements)
        and P.unit == Q.unit
        and P.mul == Q.mul
        and P.leq == Q.leq
    )


def _order_closure(elements, pairs) -> frozenset:
    le = {(a, a) for a in elements}
    le.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (c, d) in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    return frozenset(le)


def validate_pomonoid(elements, unit, mul, le_pairs=(), name="") -> Pomonoid:
    """Build a Pomonoid after brute-force checking every axiom.

    ``le_pairs`` are generators: the reflexive-transitive closure is taken
    first, then antisymmetry and monotonicity are checked on the closure.
    """
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise DuplicateElement(f"duplicate elements in {elements}")
    members = set(elements)
    if unit not in members:
        raise UnknownElement(f"unit {unit!r} not among elements")

    mul = dict(mul)
    for a in elements:
        for b in elements:
            if (a, b) not in mul:
                raise MissingTableEntry(f"no entry for {a}*{b}")
            if mul[(a, b)] not in members:
                raise UnknownElement(f"{a}*{b} = {mul[(a, b)]!r} not among elements")
    for key in mul:
        if key[0] not in members or key[1] not in members:
            raise UnknownElement(f"table entry for unknown pair {key}")

    for (a, b) in le_pairs:
        if a not in members or b not in members:
            raise UnknownElement(f"order pair ({a},{b}) mentions unknown element")
    leq = _order_closure(elements, set(le_pairs))
    # declaration order, as comparable_pairs gives it: a frozenset's order
    # follows the string hashes, so the witness would move with the hash seed
    comparable = [(a, b) for a in elements for b in elements if (a, b) in leq]

    for a, b in comparable:
        if a != b and (b, a) in leq:
            raise AntisymmetryViolation(a, b)

    for a in elements:
        if mul[(unit, a)] != a or mul[(a, unit)] != a:
            raise UnitViolation(a)

    for a in elements:
        for b in elements:
            ab = mul[(a, b)]
            for c in elements:
                if mul[(ab, c)] != mul[(a, mul[(b, c)])]:
                    raise AssociativityViolation(a, b, c)

    for (w, x) in comparable:
        for (y, z) in comparable:
            if (mul[(w, y)], mul[(x, z)]) not in leq:
                raise MonotonicityViolation(w, x, y, z)

    return Pomonoid(elements=elements, unit=unit, mul=mul, leq=leq, name=name)


def centre_of_pomonoid(P: Pomonoid) -> tuple[Pomonoid, "PomonoidMorphism"]:
    """Elements commuting with everything, as a sub-pomonoid plus its inclusion."""
    zs = tuple(z for z in P.elements if all(P.commutes(z, b) for b in P.elements))
    sub_mul = {(a, b): P.times(a, b) for a in zs for b in zs}
    sub_le = frozenset((a, b) for (a, b) in P.leq if a in zs and b in zs)
    Z = Pomonoid(elements=zs, unit=P.unit, mul=sub_mul, leq=sub_le, name=f"Z({P.name or 'G'})")
    incl = PomonoidMorphism(source=Z, target=P, mapping={z: z for z in zs})
    return Z, incl


@dataclass
class PomonoidMorphism:
    source: Pomonoid
    target: Pomonoid
    mapping: dict[str, str]

    def __call__(self, a: str) -> str:
        return self.mapping[a]


def check_pomonoid_morphism(m: PomonoidMorphism) -> Report:
    """Lax morphism conditions: unit below image of unit, lax multiplicativity, monotone."""
    P, Q = m.source, m.target
    for a in P.elements:
        if a not in m.mapping:
            raise UnmappedElement(f"{a!r} has no image")
        if m.mapping[a] not in set(Q.elements):
            raise UnknownElement(f"image {m.mapping[a]!r} not in target")
    rep = Report("pomonoid-morphism")
    rep.add(failure_record("morphism-unit", [
        None if Q.le(Q.unit, m(P.unit)) else (P.unit, Q.unit, m(P.unit))]))
    rep.add(failure_record("morphism-mul", (
        (f"({a},{b})", Q.times(m(a), m(b)), m(P.times(a, b)))
        for a in P.elements for b in P.elements
        if not Q.le(Q.times(m(a), m(b)), m(P.times(a, b))))))
    rep.add(failure_record("morphism-monotone", (
        (f"({a},{b})", m(a), m(b)) for (a, b) in P.comparable_pairs() if not Q.le(m(a), m(b)))))
    return rep


# --- second operations: bimonoids and duoids ---------------------------

@dataclass
class Duoid:
    """A pomonoid with a second commutative monoid (unit2, par).

    As a duoid, par is monotone and satisfies interchange with * (see
    ``check_duoid``); as a bimonoid, par sits above * (see ``check_bimonoid``).
    """

    base: Pomonoid
    par: dict[tuple[str, str], str]
    unit2: str

    def par_of(self, a: str, b: str) -> str:
        return self.par[(a, b)]


def _check_second_op(rep: Report, P: Pomonoid, op: dict, unit2: str, tag: str) -> None:
    members = set(P.elements)
    # input errors name the op2 directive; the law records keep the caller's tag
    if unit2 not in members:
        raise UnknownElement(f"op2 unit {unit2!r} not among elements")
    for a in P.elements:
        for b in P.elements:
            if (a, b) not in op:
                raise MissingTableEntry(f"no op2 entry for ({a},{b})")
            if op[(a, b)] not in members:
                raise UnknownElement(f"{a} op2 {b} lands outside the carrier")
    for key in op:
        if key[0] not in members or key[1] not in members:
            raise UnknownElement(f"op2 table entry for unknown pair {key}")

    els = P.elements
    rep.add(failure_record(f"{tag}-assoc", (
        (f"({a},{b},{c})", op[(op[(a, b)], c)], op[(a, op[(b, c)])])
        for a in els for b in els for c in els
        if op[(op[(a, b)], c)] != op[(a, op[(b, c)])])))
    rep.add(failure_record(f"{tag}-unit", (
        (a, None, None) for a in els if op[(unit2, a)] != a or op[(a, unit2)] != a)))
    rep.add(failure_record(f"{tag}-commutative", (
        (f"({a},{b})", op[(a, b)], op[(b, a)])
        for a in els for b in els if op[(a, b)] != op[(b, a)])))
    comparable = P.comparable_pairs()
    rep.add(failure_record(f"{tag}-monotone", (
        (f"({w}<={x},{y}<={z})", op[(w, y)], op[(x, z)])
        for (w, x) in comparable for (y, z) in comparable if not P.le(op[(w, y)], op[(x, z)]))))


def check_bimonoid(B: Duoid) -> Report:
    """Second operation is a commutative monotone monoid with a*b <= a(x)b."""
    rep = Report("bimonoid")
    P = B.base
    _check_second_op(rep, P, B.par, B.unit2, "op2")
    rep.add(failure_record("bimonoid-delta", (
        (f"({a},{b})", P.times(a, b), B.par_of(a, b))
        for a in P.elements for b in P.elements if not P.le(P.times(a, b), B.par_of(a, b)))))
    return rep


def check_duoid(D: Duoid) -> Report:
    """Commutative monotone monoid plus the interchange inequality.

    The interchange scan is quartic in the carrier, so the four lookups run
    over precomputed index tables.
    """
    rep = Report("duoid")
    P = D.base
    _check_second_op(rep, P, D.par, D.unit2, "par")

    els = P.elements
    idx = {e: i for i, e in enumerate(els)}
    mul_t = [[idx[P.mul[(a, b)]] for b in els] for a in els]
    par_t = [[idx[D.par[(a, b)]] for b in els] for a in els]
    le_t = [[P.le(a, b) for b in els] for a in els]
    R = range(len(els))
    rep.add(failure_record("duoid-interchange", (
        (f"({els[a]},{els[b]},{els[c]},{els[d]})", els[lhs], els[rhs])
        for a in R for b in R for c in R for d in R
        for lhs, rhs in [(mul_t[par_t[a][c]][par_t[b][d]], par_t[mul_t[a][b]][mul_t[c][d]])]
        if not le_t[lhs][rhs])))

    # a*b <= a par b follows from interchange with units; scan it directly anyway.
    rep.add(failure_record("duoid-derived-delta", (
        (f"({a},{b})", None, None)
        for a in els for b in els if not P.le(P.times(a, b), D.par[(a, b)]))))
    return rep


# --- small builders -----------------------------------------------------

def bool_pomonoid() -> Pomonoid:
    """Two truth values under conjunction, ordered tt <= ff."""
    mul = {
        ("tt", "tt"): "tt",
        ("tt", "ff"): "ff",
        ("ff", "tt"): "ff",
        ("ff", "ff"): "ff",
    }
    return validate_pomonoid(("tt", "ff"), "tt", mul, [("tt", "ff")], name="bool")


def multi_error_pomonoid(topped: bool = False) -> Pomonoid:
    """Grades for a computation that can error or raise one of two warnings.

    Sequencing keeps the most recent warning; errors absorb everything.
    The plain version is discretely ordered; the topped one puts the error
    grade above everything, which makes it absorbing-top material.
    """
    els = ("t", "e", "wa", "wb")
    row = {
        "t": ("t", "e", "wa", "wb"),
        "e": ("e", "e", "e", "e"),
        "wa": ("wa", "e", "wa", "wb"),
        "wb": ("wb", "e", "wa", "wb"),
    }
    mul = {(a, b): row[a][i] for a in els for i, b in enumerate(els)}
    le = [("t", "e"), ("wa", "e"), ("wb", "e")] if topped else []
    name = "multi_error_top" if topped else "multi_error"
    return validate_pomonoid(els, "t", mul, le, name=name)


# --- text format ---------------------------------------------------------

# every directive but ``elements``: its argument count, and that count in words
_ARITY = {"unit": (1, "one element"), "mul": (3, "three elements"),
          "le": (2, "two elements"), "op2": (3, "three elements"),
          "unit2": (1, "one element")}


def parse_structure_text(text: str) -> dict:
    """Parse the plain-text table format.

    Lines: ``elements a b c`` (any number of elements, once), ``unit a``
    (one), ``mul a b c`` (three: one line per product), ``le a b`` (two: an
    order generator), and optionally ``op2 a b c`` (three) plus ``unit2 a``
    (one) for a second operation.  ``#`` starts a comment.
    """
    out = {"elements": None, "unit": None, "mul": {}, "le": [], "op2": {}, "unit2": None}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "elements":
            if out["elements"] is not None:
                raise FileFormatError(f"line {lineno}: duplicate elements line")
            out["elements"] = tuple(args)
        elif key not in _ARITY:
            raise FileFormatError(f"line {lineno}: unknown directive {key!r}")
        elif len(args) != _ARITY[key][0]:
            raise FileFormatError(f"line {lineno}: {key} takes {_ARITY[key][1]}")
        elif key == "le":
            out["le"].append((args[0], args[1]))
        elif key in ("mul", "op2"):
            out[key][(args[0], args[1])] = args[2]
        else:
            out[key] = args[0]
    if out["elements"] is None:
        raise FileFormatError("missing elements line")
    if out["unit"] is None:
        raise FileFormatError("missing unit line")
    return out


def _load_base(raw: dict, name: str) -> Pomonoid:
    # grades name carrier tokens, so each element must survive the pair encoding
    for a in raw["elements"]:
        try:
            check_token(a)
        except TokenError as exc:
            raise FileFormatError(f"element {a!r} is not a valid name: {exc}") from None
    return validate_pomonoid(raw["elements"], raw["unit"], raw["mul"], raw["le"], name=name)


def load_pomonoid(text: str, name: str = "") -> Pomonoid:
    return _load_base(parse_structure_text(text), name)


def load_duoid(text: str, name: str = "") -> Duoid:
    raw = parse_structure_text(text)
    base = _load_base(raw, name)
    if not raw["op2"] or raw["unit2"] is None:
        raise FileFormatError("second operation requires op2 lines and a unit2 line")
    for a in base.elements:
        for b in base.elements:
            if (a, b) not in raw["op2"]:
                raise MissingTableEntry(f"no op2 entry for ({a},{b})")
    return Duoid(base=base, par=raw["op2"], unit2=raw["unit2"])
