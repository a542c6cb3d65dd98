from dataclasses import replace
from itertools import product

import pytest

from centrekit import graded_monad
from centrekit.centre import build_centre_monad
from centrekit.finkit import (
    FinFn,
    FinSet,
    all_fns,
    apply_mor,
    canonical_set,
    identity_fn,
    make_pair,
    split_pair,
    tensor,
)
from centrekit.graded_monad import (
    ComponentMissing,
    GradedMonadMorphism,
    GradedStrongMonad,
    UnknownName,
    bool_writer_pair,
    build,
    canonical_sets,
    check_all,
    check_commutative,
    check_costrength_coherence,
    check_graded_monad_morphism,
    check_monad_laws,
    check_naturality,
    check_order_laws,
    check_strength_laws,
    commute_maps,
    commuting_pair,
    derive_costrength,
    discrete_to_topped_morphism,
    identity_monad,
    multi_error_writer,
    registry,
    strength_from_costrength,
    writer_monad,
)
from centrekit.pomonoid import (
    bool_pomonoid,
    multi_error_pomonoid,
)
from centrekit.relaxations import LanguageError
from test_centre import keep_last_on_prefix_tokens
from test_pomonoid import identity_pomonoid_morphism, trivial_pomonoid


X2 = canonical_set(2)
X3 = canonical_set(3)


def identity_graded_morphism(M):
    """The identity morphism of M: identity components over the identity of
    its grading."""
    return GradedMonadMorphism(
        phi=identity_pomonoid_morphism(M.pomonoid),
        source=M,
        target=M,
        component=lambda a, X: identity_fn(M.carrier(a, X)),
        name=f"id({M.name})",
    )


# Planted bugs: each breaks one component but keeps its typing.
# tests/test_raw_output.py pins the bytes of the reports that catch them.

def constant_lift_writer():
    """bool_writer_pair whose lifts send everything to the least token."""
    M = bool_writer_pair()
    good_lift = M.lift

    def bad_lift(a, b, X):
        fn = good_lift(a, b, X)
        if len(fn.cod) == 0:
            return fn
        least = min(fn.cod)
        return FinFn(fn.dom, fn.cod, {t: least for t in fn.dom})

    M.lift = bad_lift
    return M


def cycling_mult_writer():
    """multi_error_writer whose mult at mixed warnings cycles the values."""
    M = multi_error_writer()
    good_mult = M.mult
    warnings = {"wa", "wb"}

    def bad_mult(a, b, X):
        fn = good_mult(a, b, X)
        if a in warnings and b in warnings and a != b:
            order = fn.cod.elems
            nxt = {order[i]: order[(i + 1) % len(order)] for i in range(len(order))}
            return FinFn(fn.dom, fn.cod, {t: nxt[fn(t)] for t in fn.dom})
        return fn

    M.mult = bad_mult
    return M


WARNINGS = {"wa", "wb"}


def _swapping(component: str, slot: int):
    """multi_error_writer whose strength or costrength (``component``) at the
    warnings swaps the first two values of its left (slot 0) or right (slot 1)
    set in every image.  Swapping a value is applied once along one composite
    and twice along the other, so the squares with two (co)strengths see it."""
    M = multi_error_writer()
    good = getattr(M, component)

    def bad(a, X, Y):
        fn = good(a, X, Y)
        S = (X, Y)[slot]
        if a not in WARNINGS or len(S) < 2:
            return fn
        swap = {S.elems[0]: S.elems[1], S.elems[1]: S.elems[0]}

        def image(v):
            pair, ann = split_pair(v)
            xy = list(split_pair(pair))
            xy[slot] = swap.get(xy[slot], xy[slot])
            return make_pair(make_pair(*xy), ann)
        return _retabled(fn, image)

    setattr(M, component, bad)
    if component == "strength":
        M.costrength = None   # so that the costrength is derived from the swapped strength
    return M


def swapped_costrength_writer():
    """A costrength that swaps two values of its left set: costrength-mult,
    costrength-assoc and strength-interchange fail."""
    return _swapping("costrength", 0)


def right_swapped_costrength_writer():
    """A costrength that swaps two values of its right set: costrength-mult and
    costrength-assoc fail, strength-interchange holds."""
    return _swapping("costrength", 1)


def swapped_strength_writer():
    """A strength that swaps two values of its left set, with the costrength
    derived from it: strength-assoc, strength-mult and both costrength squares
    fail, strength-interchange holds."""
    return _swapping("strength", 0)


def right_swapped_strength_writer():
    """A strength that swaps two values of its right set: all five coherence
    squares of the strength and costrength fail."""
    return _swapping("strength", 1)


def _retabled(fn, image):
    """fn followed by image, a token map on fn's codomain."""
    return FinFn(fn.dom, fn.cod, {t: image(fn(t)) for t in fn.dom})


def _strength_forgetting(slot: int):
    """multi_error_writer whose strength at the warnings sends ((x,y),u) to the
    same image with the value in ``slot`` (0: x, 1: y) replaced by the first
    token of its set.  The other slot stays natural."""
    M = multi_error_writer()
    good_strength = M.strength

    def bad_strength(a, X, Y):
        fn = good_strength(a, X, Y)
        if a not in WARNINGS:
            return fn
        S = (X, Y)[slot]

        def image(v):
            pair, ann = split_pair(v)
            xy = list(split_pair(pair))
            xy[slot] = S.elems[0]
            return make_pair(make_pair(*xy), ann)
        return _retabled(fn, image)

    M.strength = bad_strength
    M.costrength = None   # so that the costrength is derived from the bad strength
    return M


def left_unnatural_strength_writer():
    """A strength that is not natural in its left slot."""
    return _strength_forgetting(0)


def right_unnatural_strength_writer():
    """A strength that is not natural in its right slot."""
    return _strength_forgetting(1)


def unnatural_mult_writer():
    """multi_error_writer whose mult at two warnings keeps the annotation but
    sends every value to the first token of X."""
    M = multi_error_writer()
    good_mult = M.mult

    def bad_mult(a, b, X):
        fn = good_mult(a, b, X)
        if a not in WARNINGS or b not in WARNINGS:
            return fn
        return _retabled(fn, lambda v: make_pair(X.elems[0], split_pair(v)[1]))

    M.mult = bad_mult
    return M


def unnatural_unit_writer():
    """multi_error_writer whose unit sends every value to the first token."""
    M = multi_error_writer()
    M.unit = lambda X: _retabled(identity_fn(X), lambda v: X.elems[0])
    return M


def noncompositional_fmap_monad():
    """multi_error_writer given by carrier_fn/fmap_fn, whose fmap replaces a
    map that is not injective by the constant map to the first token: T^a
    (constant y1) then T^a (swap) is no longer T^a (constant y0)."""
    M = multi_error_writer()

    def bad_fmap(a, f):
        if not f.is_injective():
            f = FinFn(f.dom, f.cod, {t: f.cod.elems[0] for t in f.dom})
        return M.fmap(a, f)

    return GradedStrongMonad(pomonoid=M.pomonoid, unit=M.unit, mult=M.mult,
                             strength=M.strength, carrier_fn=M.carrier, fmap_fn=bad_fmap,
                             name=M.name)


def unnatural_component_morphism():
    """discrete_to_topped_morphism whose components at the warnings send every
    value to the first token of X."""
    m = discrete_to_topped_morphism()
    good_component = m.component

    def bad_component(a, X):
        fn = good_component(a, X)
        if a not in WARNINGS:
            return fn
        return _retabled(fn, lambda v: make_pair(X.elems[0], split_pair(v)[1]))

    m.component = bad_component
    return m


class TestMultiErrorWriter:
    M = multi_error_writer()

    def test_carriers(self):
        assert self.M.carrier("t", X2) == X2
        assert self.M.carrier("e", X2).elems == ("*",)
        assert set(self.M.carrier("wa", X2)) == {"(y0,a)", "(y1,a)"}

    def test_mu_on_two_warnings_keeps_value_and_product_annotation(self):
        # grade product sends (wa, wb) to wb, so the surviving pair is the
        # inner one; the value is never dropped
        mu = self.M.mult_fn("wa", "wb", X2)
        assert mu("((y0,b),a)") == "(y0,b)"
        mu = self.M.mult_fn("wb", "wa", X2)
        assert mu("((y1,a),b)") == "(y1,a)"

    def test_mu_error_absorbs(self):
        mu = self.M.mult_fn("wa", "e", X2)
        assert mu("(*,a)") == "*"
        mu = self.M.mult_fn("e", "wb", X2)
        assert mu("*") == "*"

    def test_monad_laws(self):
        assert check_monad_laws(self.M, 3).ok

    def test_strength_laws(self):
        assert check_strength_laws(self.M, 2).ok

    def test_costrength_coherence(self):
        assert check_costrength_coherence(self.M, 2).ok

    def test_naturality(self):
        assert check_naturality(self.M, 2).ok

    def test_order_laws_vacuous_on_discrete(self):
        rep = check_order_laws(self.M, 2)
        assert rep.ok
        assert rep.records[0].law == "order-vacuous"

    def test_costrength_formula(self):
        Y = FinSet("Y", ("u",))
        taup = self.M.costrength_fn("wa", X2, Y)
        assert taup("((y0,a),u)") == "((y0,u),a)"
        assert derive_costrength(self.M, "wa", X2, Y) == taup

    def test_commutative_fails_exactly_on_mixed_warnings(self):
        rep = check_commutative(self.M, 2)
        assert not rep.ok
        failing = {r.grades for r in rep.failures()}
        assert failing == {("wa", "wb"), ("wb", "wa")}
        for r in rep.failures():
            assert r.note == "carrier-mismatch"

    def test_commutative_verdict_symmetric(self):
        rep = check_commutative(self.M, 2)
        verdict = {r.grades: r.ok for r in rep.records}
        for (a, b), ok in verdict.items():
            assert verdict[(b, a)] == ok

    def test_topped_variant_order_laws(self):
        MT = multi_error_writer(topped=True)
        assert check_order_laws(MT, 2).ok
        assert check_monad_laws(MT, 2).ok
        assert check_strength_laws(MT, 2).ok


class TestIdentityMonad:
    def test_commutative_over_noncommutative_grades(self):
        M = identity_monad(multi_error_pomonoid())
        rep = check_commutative(M, 2)
        assert rep.ok

    def test_all_laws(self):
        M = identity_monad(multi_error_pomonoid())
        assert check_monad_laws(M, 2).ok
        assert check_strength_laws(M, 2).ok
        assert check_costrength_coherence(M, 2).ok

    def test_over_trivial_pomonoid(self):
        M = identity_monad(trivial_pomonoid())
        assert check_all(M, 2).ok


class TestBoolWriterPair:
    M = bool_writer_pair()

    def test_carriers(self):
        assert set(self.M.carrier("tt", canonical_set(1))) == {"(y0,e)", "(y0,t)"}
        assert len(self.M.carrier("ff", canonical_set(1))) == 4

    def test_unit_lands_at_tt_with_neutral_annotation(self):
        eta = self.M.unit_fn(X2)
        assert eta("y0") == "(y0,t)"

    def test_mu_multiplies_annotations_outer_first(self):
        mu = self.M.mult_fn("ff", "ff", X2)
        # outer wa then inner wb: grade table sends wa*wb to wb
        assert mu("((y0,wb),wa)") == "(y0,wb)"
        assert mu("((y0,wa),wb)") == "(y0,wa)"
        assert mu("((y1,e),t)") == "(y1,e)"

    def test_laws(self):
        assert check_monad_laws(self.M, 2).ok
        assert check_order_laws(self.M, 2).ok
        assert check_strength_laws(self.M, 2).ok
        assert check_costrength_coherence(self.M, 2).ok

    def test_commutative_fails_exactly_at_ff_ff(self):
        rep = check_commutative(self.M, 2)
        failing = {r.grades for r in rep.failures()}
        assert failing == {("ff", "ff")}
        (rec,) = rep.failures()
        assert rec.note == "value-mismatch"

    def test_commuting_pair_helper(self):
        assert commuting_pair(self.M, "tt", "ff", 2)
        assert not commuting_pair(self.M, "ff", "ff", 2)

    def test_broken_lift_detected(self):
        rep = check_order_laws(constant_lift_writer(), 2)
        assert not rep.ok
        assert "lift-natural" in {r.law for r in rep.failures()}


class TestBrokenInstancesAreCaught:
    @pytest.mark.parametrize("law, check, make", [
        ("strength-natural-left", check_strength_laws, left_unnatural_strength_writer),
        ("strength-natural-right", check_strength_laws, right_unnatural_strength_writer),
        ("mult-natural", check_naturality, unnatural_mult_writer),
        ("unit-natural", check_naturality, unnatural_unit_writer),
        ("fmap-compose", check_naturality, noncompositional_fmap_monad),
        ("component-natural", check_graded_monad_morphism, unnatural_component_morphism),
    ])
    def test_unnatural_component_fails_its_naturality_law(self, law, check, make):
        failed = [r for r in check(make(), 2).failures() if r.law == law]
        assert failed
        assert all(r.witness is not None and r.lhs != r.rhs for r in failed)

    def test_value_cycling_mu_fails_associativity(self):
        rep = check_monad_laws(cycling_mult_writer(), 2)
        assert not rep.ok
        failed = {r.law for r in rep.failures()}
        assert failed == {"assoc"}
        grades = {r.grades for r in rep.failures()}
        assert ("wa", "wb", "wa") in grades

    def test_value_dropping_strength_fails_unitor(self):
        M = multi_error_writer()
        good_strength = M.strength

        def bad_strength(a, X, Y):
            fn = good_strength(a, X, Y)
            if a != "wa" or len(Y) == 0:
                return fn
            # send the carried value to a fixed one; the unitor sees it
            mapping = {}
            for t in fn.dom:
                x, inner = split_pair(t)
                y0 = Y.elems[0]
                mapping[t] = make_pair(make_pair(x, y0), split_pair(inner)[1])
            return FinFn(fn.dom, fn.cod, mapping)

        M.strength = bad_strength
        M._memo.clear()
        rep = check_strength_laws(M, 2)
        assert "strength-unitor" in {r.law for r in rep.failures()}

    def test_value_swapping_costrength_fails_mult_diagram(self):
        rep = check_costrength_coherence(swapped_costrength_writer(), 2)
        assert not rep.ok
        assert "costrength-mult" in {r.law for r in rep.failures()}

    @pytest.mark.parametrize("make, laws", [
        (swapped_costrength_writer, {"costrength-mult", "costrength-assoc",
                                     "strength-interchange"}),
        (right_swapped_costrength_writer, {"costrength-mult", "costrength-assoc"}),
        (swapped_strength_writer, {"strength-assoc", "strength-mult", "costrength-mult",
                                   "costrength-assoc"}),
        (right_swapped_strength_writer, {"strength-assoc", "strength-mult", "costrength-mult",
                                         "costrength-assoc", "strength-interchange"}),
    ])
    def test_value_swapping_strengths_fail_their_coherence_squares(self, make, laws):
        rep = check_all(make(), 2)
        squares = {"strength-assoc", "strength-mult", "strength-interchange",
                   "costrength-mult", "costrength-assoc"}
        failed = [r for r in rep.failures() if r.law in squares]
        assert {r.law for r in failed} == laws
        assert all(r.witness is not None and r.lhs != r.rhs for r in failed)

    def test_involution_detects_non_derived_costrength(self):
        M = bool_writer_pair()

        def flipped(a, X, Y):
            fn = derive_costrength(M, a, X, Y)
            if len(X) < 2:
                return fn
            mapping = {}
            for t in fn.dom:
                pair, ann = split_pair(fn(t))
                x, y = split_pair(pair)
                swap = {X.elems[0]: X.elems[1], X.elems[1]: X.elems[0]}
                mapping[t] = make_pair(make_pair(swap.get(x, x), y), ann)
            return FinFn(fn.dom, fn.cod, mapping)

        M.costrength = flipped
        M._memo.clear()
        rep = check_costrength_coherence(M, 2)
        assert "costrength-involution" in {r.law for r in rep.failures()}


class TestCommuteMaps:
    def test_composite_types(self):
        M = multi_error_writer()
        left, right = commute_maps(M, "wa", "wb", X2, X2)
        assert left.dom == tensor(M.carrier("wa", X2), M.carrier("wb", X2))
        assert left.cod == M.carrier("wb", tensor(X2, X2))
        assert right.cod == M.carrier("wa", tensor(X2, X2))

    def test_writer_annotations_multiply_in_order(self):
        M = bool_writer_pair()
        left, right = commute_maps(M, "ff", "ff", X2, X2)
        t = make_pair("(y0,wa)", "(y1,wb)")
        # left-first runs the first operand's effect first
        assert left(t) == "((y0,y1),wb)"
        assert right(t) == "((y0,y1),wa)"


class TestStrengthFromCostrength:
    def test_round_trip(self):
        M = multi_error_writer()
        for a in M.pomonoid.elements:
            assert strength_from_costrength(M, a, X2, X2) == M.strength_fn(a, X2, X2)


class TestCostrengthKernels:
    def test_every_kernel_is_the_derived_costrength(self):
        # every built-in, and the bool writer pair over keep-last on 1, b, b(c),
        # whose carriers list (y0,b) before (y0,b(c))
        monads = [registry()[name]() for name in sorted(registry())]
        cases = 0
        for M in monads + [bool_writer_pair(keep_last_on_prefix_tokens())]:
            assert M.costrength is not None, M.name
            for a, X, Y in product(M.pomonoid.elements, canonical_sets(3), canonical_sets(3)):
                given, derived = M.costrength_fn(a, X, Y), derive_costrength(M, a, X, Y)
                assert given.idx == derived.idx, (M.name, a, X.name, Y.name)
                assert (given.dom.vid, given.cod.vid) == (derived.dom.vid, derived.cod.vid)
                cases += 1
        assert cases == 400   # 25 grades over 16 pairs of sets

    @pytest.mark.parametrize("make", [swapped_costrength_writer, right_swapped_costrength_writer])
    def test_involution_catches_a_kernel_that_swaps_two_values(self, make):
        rep = check_costrength_coherence(make(), 2)
        assert "costrength-involution" in {r.law for r in rep.failures()}


class TestMorphisms:
    def test_identity_morphism_passes(self):
        rep = check_graded_monad_morphism(identity_graded_morphism(multi_error_writer()), 2)
        assert rep.ok

    def test_discrete_to_topped_passes(self):
        rep = check_graded_monad_morphism(discrete_to_topped_morphism(), 2)
        assert rep.ok

    def test_component_type_mismatch_raises(self):
        M = multi_error_writer()
        m = identity_graded_morphism(M)
        m.component = lambda a, X: identity_fn(X)
        with pytest.raises(ComponentMissing):
            check_graded_monad_morphism(m, 1)

    def test_grade_level_failure_short_circuits(self):
        from centrekit.pomonoid import PomonoidMorphism

        S = multi_error_writer()
        m = discrete_to_topped_morphism()
        # sending the unit to a warning breaks the unit inequality, so the
        # component checks never run (they would raise on the t carrier)
        m.phi = PomonoidMorphism(
            source=S.pomonoid,
            target=multi_error_writer(topped=True).pomonoid,
            mapping={"t": "wa", "e": "e", "wa": "wa", "wb": "wb"},
        )
        rep = check_graded_monad_morphism(m, 1)
        assert not rep.ok
        assert all(r.law.startswith("grades.") for r in rep.records)


class TestFmapMemo:
    def test_apply_mor_runs_once_per_distinct_map(self, monkeypatch):
        calls = []

        def counting(expr, f):
            calls.append(f)
            return apply_mor(expr, f)
        monkeypatch.setattr(graded_monad, "apply_mor", counting)
        M = multi_error_writer()
        maps = list(all_fns(X2, X3))
        # equal values, other objects
        copies = [FinFn(canonical_set(2), canonical_set(3), dict(f.mapping)) for f in maps]
        for _ in range(2):
            for a in M.pomonoid.elements:
                for f in maps + copies:
                    M.fmap(a, f)
        assert len(calls) == len(M.pomonoid.elements) * len(maps)

    def test_memoised_fmap_is_the_direct_one(self):
        M = bool_writer_pair()
        Z = build_centre_monad(M).monad
        for f in all_fns(X2, X2):
            for a in M.pomonoid.elements:
                direct = apply_mor(M.functor(a), f)
                assert M.fmap(a, f) == direct
                assert (M.fmap(a, f).dom.name, M.fmap(a, f).cod.name) == (direct.dom.name,
                                                                          direct.cod.name)
                assert M.fmap(a, f) is M.fmap(a, f)
            for z in Z.pomonoid.elements:
                assert Z.fmap(z, f) == Z.fmap_fn(z, f)
                assert Z.fmap(z, f) is Z.fmap(z, f)

    @pytest.mark.parametrize("wrong", [
        # an image out of T^a Y instead of T^a X
        lambda M, a, f: identity_fn(M.carrier(a, f.cod)),
        # the right table into a renamed copy of T^a Y
        lambda M, a, f: FinFn(M.carrier(a, f.dom),
                              FinSet("W", [t + "!" for t in M.carrier(a, f.cod)]),
                              {t: M.fmap(a, f)(t) + "!" for t in M.carrier(a, f.dom)}),
    ], ids=["domain", "codomain"])
    def test_mistyped_fmap_fn_image_raises_at_first_call(self, wrong):
        M = multi_error_writer()
        N = graded_monad.GradedStrongMonad(
            pomonoid=M.pomonoid, unit=M.unit, mult=M.mult, strength=M.strength,
            carrier_fn=M.carrier, fmap_fn=lambda a, f: wrong(M, a, f))
        f = next(iter(all_fns(X2, X3)))
        with pytest.raises(ComponentMissing, match=r"fmap\(wa\) has wrong type"):
            N.fmap("wa", f)


def _mistyped_monad(component, wrong):
    """The topped writer with one component, or a given costrength, mis-typed."""
    M = multi_error_writer(topped=True)
    good = M.costrength_fn if component == "costrength" else getattr(M, component)
    return replace(M, **{component: lambda *args: wrong(good(*args))}, _memo={})


def _mistyped_morphism(wrong):
    m = discrete_to_topped_morphism()
    good = m.component
    return replace(m, component=lambda *args: wrong(good(*args)), _memo={})


def _mistyped_interchange(wrong):
    from centrekit.relaxations import build_language_writer, language_duoid

    DM = build_language_writer("ab", 2, language_duoid("ab", 2))
    good = DM.m
    return replace(DM, m=lambda *args: wrong(good(*args)), _memo={})


class TestComponentTypeChecks:
    """Every memoised accessor type-checks what it builds, names the component
    in its error, and memoises nothing it rejects."""

    W = FinSet("Wrong", ("w",))

    @pytest.mark.parametrize("wrong", [
        lambda fn: identity_fn(TestComponentTypeChecks.W),
        # the right domain into a foreign codomain
        lambda fn: FinFn(fn.dom, TestComponentTypeChecks.W, {t: "w" for t in fn.dom}),
    ], ids=["domain", "codomain"])
    @pytest.mark.parametrize("build, call, error, message", [
        (lambda w: _mistyped_monad("unit", w), lambda M: M.unit_fn(X2),
         ComponentMissing, "unit has wrong type"),
        (lambda w: _mistyped_monad("mult", w), lambda M: M.mult_fn("wa", "wb", X2),
         ComponentMissing, "mult(wa,wb) has wrong type"),
        (lambda w: _mistyped_monad("lift", w), lambda M: M.lift_fn("wa", "e", X2),
         ComponentMissing, "lift(wa,e) has wrong type"),
        (lambda w: _mistyped_monad("strength", w), lambda M: M.strength_fn("wa", X2, X3),
         ComponentMissing, "strength(wa) has wrong type"),
        (lambda w: _mistyped_monad("costrength", w), lambda M: M.costrength_fn("wb", X3, X2),
         ComponentMissing, "costrength(wb) has wrong type"),
        (_mistyped_morphism, lambda m: m.component_fn("wa", X2),
         ComponentMissing, "component(wa) has wrong type"),
        (_mistyped_interchange, lambda DM: DM.m_fn("{a}", "{b}", X2, X2),
         LanguageError, "m({a},{b}) has wrong type"),
    ], ids=["unit", "mult", "lift", "strength", "costrength", "component", "m"])
    def test_a_mistyped_component_raises_at_every_call(self, build, call, error, message,
                                                       wrong):
        target = build(wrong)
        for _ in range(2):
            with pytest.raises(error) as info:
                call(target)
            assert type(info.value) is error and str(info.value) == message


class TestWriterFactory:
    def test_annotation_mul_escaping_carrier_is_rejected(self):
        P = bool_pomonoid()
        carriers = {"tt": FinSet("Small", ("t",)), "ff": FinSet("Big", ("t", "e"))}

        def ann_mul(u, v):
            return "e"  # lands outside the tt carrier at (tt, tt)

        M = writer_monad(P, carriers, ann_mul, "t")
        with pytest.raises(ValueError):
            M.mult_fn("tt", "tt", X2)

    def test_unit_annotation_and_lift_must_stay_in_the_carriers(self):
        P = bool_pomonoid()
        carriers = {"tt": FinSet("Small", ("t",)), "ff": FinSet("Big", ("t", "e"))}
        with pytest.raises(ValueError):
            writer_monad(P, carriers, lambda u, v: "t", "e").unit_fn(X2)
        shrinking = {"tt": carriers["ff"], "ff": carriers["tt"]}
        with pytest.raises(ValueError):
            writer_monad(P, shrinking, lambda u, v: "t", "t").lift_fn("tt", "ff", X2)


class TestRegistry:
    def test_names(self):
        names = set(registry())
        assert {"identity", "multi_error_writer", "bool_writer_pair",
                "multi_error_writer_topped", "language_writer"} <= names

    def test_build_unknown(self):
        with pytest.raises(UnknownName):
            build("frobnicator")

    def test_build_identity_over_custom_pomonoid(self):
        M = build("identity", pomonoid=bool_pomonoid())
        assert M.pomonoid.elements == ("tt", "ff")

    def test_identity_over_trivial_reduces_to_plain_identity(self):
        M = build("identity", pomonoid=trivial_pomonoid())
        assert M.carrier("i", X3) == X3
        assert M.unit_fn(X3) == identity_fn(X3)
