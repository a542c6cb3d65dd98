from hypothesis import given
from hypothesis import strategies as st
import pytest

from centrekit.pomonoid import (
    AntisymmetryViolation,
    Pomonoid,
    AssociativityViolation,
    DuplicateElement,
    Duoid,
    FileFormatError,
    LawViolation,
    MissingTableEntry,
    MonotonicityViolation,
    PomonoidError,
    PomonoidMorphism,
    UnitViolation,
    UnknownElement,
    UnmappedElement,
    bool_pomonoid,
    centre_of_pomonoid,
    check_bimonoid,
    check_duoid,
    check_pomonoid_morphism,
    load_duoid,
    load_pomonoid,
    multi_error_pomonoid,
    parse_structure_text,
    structurally_equal,
    validate_pomonoid,
)
from centrekit.report import LawRecord, Report


# --- structures only the tests build -----------------------------------------

class NotAbsorbing(PomonoidError):
    pass


class NotTop(PomonoidError):
    pass


def bimonoid_from_absorbing_top(P: Pomonoid, top: str) -> Duoid:
    """Second operation: a*b when either argument is central, the top otherwise.

    Requires the top to be absorbing for * and the maximum of the order.
    """
    if top not in set(P.elements):
        raise UnknownElement(f"top {top!r} not among elements")
    for a in P.elements:
        if P.times(top, a) != top or P.times(a, top) != top:
            raise NotAbsorbing(f"{top} is not absorbing at {a}")
    for a in P.elements:
        if not P.le(a, top):
            raise NotTop(f"{a} is not below {top}")
    Z, _ = centre_of_pomonoid(P)
    central = set(Z.elements)
    par = {(a, b): P.times(a, b) if a in central or b in central else top
           for a in P.elements for b in P.elements}
    return Duoid(base=P, par=par, unit2=P.unit)


def trivial_pomonoid() -> Pomonoid:
    return validate_pomonoid(("i",), "i", {("i", "i"): "i"}, name="trivial")


class TestValidation:
    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            validate_pomonoid(("a", "a"), "a", {("a", "a"): "a"})

    def test_unknown_unit(self):
        with pytest.raises(UnknownElement):
            validate_pomonoid(("a",), "b", {("a", "a"): "a"})

    def test_missing_entry(self):
        with pytest.raises(MissingTableEntry):
            validate_pomonoid(("a", "b"), "a", {("a", "a"): "a"})

    def test_value_outside_carrier(self):
        mul = {("a", "a"): "a", ("a", "b"): "b", ("b", "a"): "b", ("b", "b"): "z"}
        with pytest.raises(UnknownElement):
            validate_pomonoid(("a", "b"), "a", mul)

    def test_unit_violation(self):
        mul = {("i", "i"): "i", ("i", "x"): "i", ("x", "i"): "x", ("x", "x"): "x"}
        with pytest.raises(UnitViolation):
            validate_pomonoid(("i", "x"), "i", mul)

    def test_associativity_violation(self):
        els = ("i", "x", "y")
        mul = {("i", a): a for a in els}
        mul.update({(a, "i"): a for a in els})
        mul.update({("x", "x"): "y", ("x", "y"): "i", ("y", "x"): "i", ("y", "y"): "y"})
        with pytest.raises(AssociativityViolation):
            validate_pomonoid(els, "i", mul)

    def test_antisymmetry_violation(self):
        mul = {("i", "i"): "i", ("i", "s"): "s", ("s", "i"): "s", ("s", "s"): "i"}
        with pytest.raises(AntisymmetryViolation):
            validate_pomonoid(("i", "s"), "i", mul, [("i", "s"), ("s", "i")])

    def test_monotonicity_violation(self):
        # the two-element group ordered i <= s: i*s <= s*s would force s <= i
        mul = {("i", "i"): "i", ("i", "s"): "s", ("s", "i"): "s", ("s", "s"): "i"}
        with pytest.raises(MonotonicityViolation):
            validate_pomonoid(("i", "s"), "i", mul, [("i", "s")])

    def test_order_closure_is_transitive(self):
        els = ("0", "1", "2")
        mul = {(a, b): str(min(int(a) + int(b), 2)) for a in els for b in els}
        P = validate_pomonoid(els, "0", mul, [("0", "1"), ("1", "2")])
        assert P.le("0", "2")
        assert not P.le("2", "0")
        assert len(P.comparable_pairs()) == 6

    two = st.sampled_from(["u", "v"])

    @given(two, two, two)
    def test_random_tables_agree_with_naive_oracle(self, uu, uv, vu):
        # unit row/column forced correct; remaining freedom is only associativity
        els = ("u", "v")
        mul = {("u", "u"): "u", ("u", "v"): "v", ("v", "u"): "v", ("v", "v"): uu}
        del uv, vu
        naive_ok = all(
            mul[(mul[(a, b)], c)] == mul[(a, mul[(b, c)])]
            for a in els
            for b in els
            for c in els
        )
        if naive_ok:
            validate_pomonoid(els, "u", mul)
        else:
            with pytest.raises(AssociativityViolation):
                validate_pomonoid(els, "u", mul)

    def test_law_violations_are_verdicts_and_table_errors_are_input(self):
        # cli's pomonoid check reports a LawViolation as FAIL and anything else as bad input
        verdicts = [AssociativityViolation, UnitViolation, AntisymmetryViolation,
                    MonotonicityViolation]
        inputs = [MissingTableEntry, UnknownElement, DuplicateElement, FileFormatError]
        assert all(issubclass(e, LawViolation) for e in verdicts)
        assert not any(issubclass(e, LawViolation) for e in inputs)
        assert all(issubclass(e, PomonoidError) for e in verdicts + inputs)


class TestBuilders:
    def test_trivial(self):
        P = trivial_pomonoid()
        assert P.elements == ("i",)
        assert P.is_discrete()

    def test_bool(self):
        P = bool_pomonoid()
        assert P.times("ff", "tt") == "ff"
        assert P.le("tt", "ff")
        assert not P.le("ff", "tt")

    def test_multi_error_table(self):
        P = multi_error_pomonoid()
        assert P.times("wa", "wb") == "wb"
        assert P.times("wb", "wa") == "wa"
        assert P.times("wa", "e") == "e"
        assert P.times("e", "wb") == "e"
        assert P.is_discrete()

    def test_multi_error_topped_order(self):
        P = multi_error_pomonoid(topped=True)
        assert P.le("wa", "e") and P.le("t", "e")
        assert not P.le("wa", "wb")

    def test_structurally_equal(self):
        assert structurally_equal(multi_error_pomonoid(), multi_error_pomonoid())
        assert not structurally_equal(multi_error_pomonoid(), multi_error_pomonoid(topped=True))


class TestCentre:
    def test_multi_error_centre(self):
        Z, incl = centre_of_pomonoid(multi_error_pomonoid())
        assert Z.elements == ("t", "e")
        assert Z.times("e", "e") == "e"
        assert check_pomonoid_morphism(incl).ok

    def test_commutative_pomonoid_is_its_own_centre(self):
        P = bool_pomonoid()
        Z, _ = centre_of_pomonoid(P)
        assert set(Z.elements) == set(P.elements)

    def test_centre_is_a_pomonoid(self):
        Z, _ = centre_of_pomonoid(multi_error_pomonoid(topped=True))
        validate_pomonoid(Z.elements, Z.unit, Z.mul, Z.leq)


def identity_pomonoid_morphism(P):
    """The identity of P, as a pomonoid morphism."""
    return PomonoidMorphism(source=P, target=P, mapping={a: a for a in P.elements})


class TestMorphism:
    def test_identity_passes(self):
        P = multi_error_pomonoid()
        assert check_pomonoid_morphism(identity_pomonoid_morphism(P)).ok

    def test_bool_into_topped_multi_error(self):
        m = PomonoidMorphism(
            source=bool_pomonoid(),
            target=multi_error_pomonoid(topped=True),
            mapping={"tt": "t", "ff": "e"},
        )
        assert check_pomonoid_morphism(m).ok

    def test_monotonicity_failure_is_reported(self):
        m = PomonoidMorphism(
            source=bool_pomonoid(),
            target=multi_error_pomonoid(),
            mapping={"tt": "t", "ff": "e"},
        )
        rep = check_pomonoid_morphism(m)
        assert not rep.ok
        assert [r.law for r in rep.failures()] == ["morphism-monotone"]

    def test_unmapped_element(self):
        m = PomonoidMorphism(source=bool_pomonoid(), target=bool_pomonoid(), mapping={"tt": "tt"})
        with pytest.raises(UnmappedElement):
            check_pomonoid_morphism(m)


class TestBimonoid:
    def test_absorbing_top_construction(self):
        P = multi_error_pomonoid(topped=True)
        B = bimonoid_from_absorbing_top(P, "e")
        assert B.par_of("wa", "wb") == "e"
        assert B.par_of("wb", "wa") == "e"
        assert B.par_of("t", "wa") == "wa"
        assert B.par_of("e", "wa") == "e"
        assert check_bimonoid(B).ok

    def test_requires_absorbing(self):
        with pytest.raises(NotAbsorbing):
            bimonoid_from_absorbing_top(multi_error_pomonoid(topped=True), "wa")

    def test_requires_top(self):
        with pytest.raises(NotTop):
            bimonoid_from_absorbing_top(multi_error_pomonoid(), "e")

    def test_stray_par_key_is_refused(self):
        P = multi_error_pomonoid(topped=True)
        B = bimonoid_from_absorbing_top(P, "e")
        B.par[("zz", "zz")] = "e"
        for check in (check_bimonoid, check_duoid):
            with pytest.raises(UnknownElement, match="unknown pair"):
                check(B)

    def test_delta_failure_detected(self):
        P = bool_pomonoid()
        # constant-tt second operation is a fine monoid but sits below *
        op2 = {(a, b): "tt" for a in P.elements for b in P.elements}
        rep = check_bimonoid(Duoid(base=P, par=op2, unit2="tt"))
        failed = [r.law for r in rep.failures()]
        assert "bimonoid-delta" in failed


class TestDuoid:
    def test_mul_is_a_duoid_over_itself_when_commutative(self):
        P = bool_pomonoid()
        D = Duoid(base=P, par=dict(P.mul), unit2="tt")
        assert check_duoid(D).ok

    def test_interchange_failure(self):
        els = ("0", "1", "2")
        mul = {(a, b): str(min(int(a) + int(b), 2)) for a in els for b in els}
        P = validate_pomonoid(els, "0", mul, [("0", "1"), ("1", "2")])
        par = {(a, b): max(a, b) for a in els for b in els}
        rep = check_duoid(Duoid(base=P, par=par, unit2="0"))
        failed = [r.law for r in rep.failures()]
        assert "duoid-interchange" in failed

    def test_noncommutative_par_rejected(self):
        P = multi_error_pomonoid()
        D = Duoid(base=P, par=dict(P.mul), unit2="t")
        rep = check_duoid(D)
        assert "par-commutative" in [r.law for r in rep.failures()]


def reference_interchange_record(D):
    """duoid-interchange as a first-failure ladder over the index tables."""
    P = D.base
    els = P.elements
    n = len(els)
    idx = {e: i for i, e in enumerate(els)}
    mul_t = [[idx[P.mul[(a, b)]] for b in els] for a in els]
    par_t = [[idx[D.par[(a, b)]] for b in els] for a in els]
    le_t = [[P.le(a, b) for b in els] for a in els]
    rec = LawRecord(law="duoid-interchange")
    found = None
    for ia in range(n):
        for ib in range(n):
            for ic in range(n):
                for idd in range(n):
                    lhs = mul_t[par_t[ia][ic]][par_t[ib][idd]]
                    rhs = par_t[mul_t[ia][ib]][mul_t[ic][idd]]
                    if not le_t[lhs][rhs]:
                        found = (els[ia], els[ib], els[ic], els[idd])
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    if found:
        a, b, c, d = found
        rec.ok = False
        rec.witness = f"({a},{b},{c},{d})"
        rec.lhs = P.times(D.par[(a, c)], D.par[(b, d)])
        rec.rhs = D.par[(P.times(a, b), P.times(c, d))]
    return rec


@st.composite
def duoid_tables(draw):
    # any tables over 2-4 elements: the interchange scan reads them as given
    els = tuple("abcd"[:draw(st.integers(2, 4))])
    pairs = [(a, b) for a in els for b in els]
    table = st.fixed_dictionaries({p: st.sampled_from(els) for p in pairs})
    leq = frozenset(p for p in pairs if p[0] == p[1] or draw(st.booleans()))
    P = Pomonoid(elements=els, unit=els[0], mul=draw(table), leq=leq)
    return Duoid(base=P, par=draw(table), unit2=els[0])


@given(duoid_tables())
def test_duoid_interchange_record_matches_the_ladder(D):
    got = next(r for r in check_duoid(D).records if r.law == "duoid-interchange")
    assert Report("duoid", [got]).to_json() == \
        Report("duoid", [reference_interchange_record(D)]).to_json()


class TestTextFormat:
    BOOL = """
# two truth values under conjunction
elements tt ff
unit tt
mul tt tt tt
mul tt ff ff
mul ff tt ff
mul ff ff ff
le tt ff
"""

    def test_load_pomonoid(self):
        P = load_pomonoid(self.BOOL, name="bool")
        assert structurally_equal(P, bool_pomonoid())

    def test_comments_and_blank_lines_ignored(self):
        raw = parse_structure_text("elements a\nunit a\n\n# note\nmul a a a # inline\n")
        assert raw["elements"] == ("a",)

    def test_missing_elements_line(self):
        with pytest.raises(FileFormatError):
            parse_structure_text("unit a\nmul a a a\n")

    def test_bad_directive(self):
        with pytest.raises(FileFormatError):
            parse_structure_text("elements a\nunit a\nfrobnicate a\n")

    def test_bad_arity(self):
        with pytest.raises(FileFormatError):
            parse_structure_text("elements a\nunit a b\n")

    @pytest.mark.parametrize("line, message", [
        ("unit", "line 3: unit takes one element"),
        ("unit a a", "line 3: unit takes one element"),
        ("mul a a", "line 3: mul takes three elements"),
        ("mul a a a a", "line 3: mul takes three elements"),
        ("le a", "line 3: le takes two elements"),
        ("le a a a", "line 3: le takes two elements"),
        ("op2 a a", "line 3: op2 takes three elements"),
        ("op2", "line 3: op2 takes three elements"),
        ("unit2 a a", "line 3: unit2 takes one element"),
        ("unit2", "line 3: unit2 takes one element"),
        ("frob a", "line 3: unknown directive 'frob'"),
        ("elements b", "line 3: duplicate elements line"),
    ])
    def test_every_line_error_names_its_line(self, line, message):
        # the bad line is the third; a blank line and a comment are counted
        with pytest.raises(FileFormatError) as info:
            parse_structure_text(f"elements a\n\n{line}  # note\nunit a\nmul a a a\n")
        assert str(info.value) == message

    def test_load_bimonoid_and_duoid(self):
        text = self.BOOL + "op2 tt tt tt\nop2 tt ff ff\nop2 ff tt ff\nop2 ff ff ff\nunit2 tt\n"
        D = load_duoid(text)
        assert check_bimonoid(D).ok
        assert check_duoid(D).ok

    def test_second_op_requires_full_table(self):
        text = self.BOOL + "op2 tt tt tt\nunit2 tt\n"
        with pytest.raises(MissingTableEntry):
            load_duoid(text)

    def test_no_second_op(self):
        with pytest.raises(FileFormatError):
            load_duoid(self.BOOL)

    def test_validation_errors_are_value_errors(self):
        assert issubclass(PomonoidError, ValueError)
