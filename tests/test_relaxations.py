import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrekit.centre import build_centre_monad, central_subset
from centrekit import finkit, relaxations
from centrekit.finkit import (
    FinFn,
    FinSet,
    alpha,
    alpha_then,
    canonical_set,
    identity_fn,
    make_pair,
    mismatch,
    split_pair,
    tensor,
    tensor_fn,
    tensor_then,
    unit_set,
)
from centrekit.graded_monad import (
    ComponentMissing,
    GradedStrongMonad,
    bool_writer_pair,
    check_monad_laws,
    check_order_laws,
    check_strength_laws,
    identity_monad,
    multi_error_writer,
)
from centrekit.pomonoid import (
    Duoid,
    check_duoid,
    multi_error_pomonoid,
    validate_pomonoid,
)
from centrekit.relaxations import (
    AlphabetMismatch,
    BimonoidMismatch,
    CappedLanguage,
    ClosureExplosion,
    DuoidalGradedMonad,
    LanguageError,
    LanguageFormatError,
    NotCommutative,
    _annotation_subset,
    bimonoidal_centre_at,
    build_language_writer,
    check_duoidal_gradation,
    derive_monoidal_m,
    format_language_literal,
    language_concat,
    language_duoid,
    language_shuffle,
    parse_language_literal,
)
from test_pomonoid import bimonoid_from_absorbing_top


def lang(words, alphabet="ab", cap=3):
    return CappedLanguage(alphabet, cap, frozenset(words))


class TestCappedLanguage:
    def test_validation(self):
        with pytest.raises(LanguageFormatError):
            lang({"abab"})  # over the cap
        with pytest.raises(LanguageFormatError):
            lang({"ac"})  # foreign letter

    def test_literals_round_trip(self):
        for L in (lang(set()), lang({""}), lang({"ab", "ba"}), lang({"", "a"})):
            assert parse_language_literal(L.literal(), "ab", 3) == L
        assert format_language_literal(lang(set())) == "{}"
        assert format_language_literal(lang({""})) == "{_}"
        assert format_language_literal(lang({"ba", "ab"})) == "{ab,ba}"

    def test_parse_rejects_malformed(self):
        with pytest.raises(LanguageFormatError):
            parse_language_literal("ab", "ab", 3)
        with pytest.raises(LanguageFormatError):
            parse_language_literal("{a,,b}", "ab", 3)


class TestConcatShuffle:
    def test_concat_example(self):
        assert language_concat(lang({"a"}), lang({"b"})) == lang({"ab"})

    def test_concat_truncates_by_final_length(self):
        assert language_concat(lang({"ab"}), lang({"ba"})) == lang(set())
        assert language_concat(lang({"ab", ""}), lang({"ba"})) == lang({"ba"})

    def test_shuffle_example_three_letters(self):
        L = CappedLanguage("abc", 3, frozenset({"ab"}))
        M = CappedLanguage("abc", 3, frozenset({"c"}))
        assert language_shuffle(L, M).words == {"abc", "acb", "cab"}

    def test_empty_word_is_unit_for_both(self):
        eps = lang({""})
        for L in (lang({"a", "bb"}), lang(set()), lang({""})):
            assert language_concat(L, eps) == L
            assert language_concat(eps, L) == L
            assert language_shuffle(L, eps) == L
            assert language_shuffle(eps, L) == L

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            language_concat(lang({"a"}), CappedLanguage("ab", 2, frozenset({"a"})))

    def test_shuffle_matches_recursive_oracle_on_sampled_pairs(self):
        def oracle(u, v):
            if not u:
                return {v}
            if not v:
                return {u}
            return {u[0] + w for w in oracle(u[1:], v)} | \
                   {v[0] + w for w in oracle(u, v[1:])}

        rng = random.Random(9)
        for _ in range(20):
            u = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            v = "".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            L = CappedLanguage("ab", 6, frozenset({u}))
            M = CappedLanguage("ab", 6, frozenset({v}))
            assert language_shuffle(L, M).words == oracle(u, v)


words_st = st.frozensets(
    st.text(alphabet="ab", max_size=3), max_size=4)


class TestTruncationCoherence:
    @settings(max_examples=60, deadline=None)
    @given(words_st, words_st, words_st)
    def test_capped_ops_stay_associative(self, ws1, ws2, ws3):
        A, B, C = lang(ws1), lang(ws2), lang(ws3)
        assert language_concat(language_concat(A, B), C) == \
            language_concat(A, language_concat(B, C))
        assert language_shuffle(language_shuffle(A, B), C) == \
            language_shuffle(A, language_shuffle(B, C))

    @settings(max_examples=60, deadline=None)
    @given(words_st, words_st, words_st)
    def test_capped_ops_are_monotone(self, ws1, ws2, ws3):
        A, B = lang(ws1), lang(ws2)
        Bigger = lang(ws1 | ws3)
        assert language_concat(A, B).words <= language_concat(Bigger, B).words
        assert language_shuffle(A, B).words <= language_shuffle(Bigger, B).words

    @settings(max_examples=60, deadline=None)
    @given(words_st, words_st)
    def test_concat_is_a_sublanguage_of_shuffle(self, ws1, ws2):
        A, B = lang(ws1), lang(ws2)
        assert language_concat(A, B).words <= language_shuffle(A, B).words


class TestLanguageDuoid:
    def test_cap_two_closure(self):
        D = language_duoid("ab", 2)
        assert len(D.base.elements) == 9
        assert D.base.unit == "{_}"
        assert check_duoid(D).ok

    def test_cap_three_closure_passes_exhaustively(self):
        D = language_duoid("ab", 3)
        assert len(D.base.elements) == 23
        assert check_duoid(D).ok

    def test_trivial_duoid_from_unit_generator(self):
        D = language_duoid("ab", 2, generators=[CappedLanguage("ab", 2, frozenset({""}))])
        assert D.base.elements == ("{_}",)

    def test_interchange_instance(self):
        a, b, eps = lang({"a"}), lang({"b"}), lang({""})
        lhs = language_concat(language_shuffle(a, b), language_shuffle(eps, eps))
        rhs = language_shuffle(language_concat(a, eps), language_concat(b, eps))
        assert lhs.words <= rhs.words

    def test_closure_budget(self):
        with pytest.raises(ClosureExplosion):
            language_duoid("ab", 3, max_elements=10)

    def test_order_is_inclusion(self):
        D = language_duoid("ab", 2)
        assert D.base.le("{}", "{ab,ba}")
        assert D.base.le("{ab}", "{ab,ba}")
        assert not D.base.le("{a}", "{b}")


class TestLanguageWriter:
    DM = build_language_writer("ab", 2, language_duoid("ab", 2))

    def test_unit_lands_at_the_empty_word_grade(self):
        M = self.DM.monad
        assert M.pomonoid.unit == "{_}"
        assert M.unit_fn(canonical_set(1))("y0") == "(y0,{_})"

    def test_mult_concatenates_annotations(self):
        M = self.DM.monad
        X = canonical_set(1)
        mu = M.mult_fn("{a}", "{b}", X)
        assert mu("((y0,{b}),{a})") == "(y0,{ab})"
        assert mu("((y0,{}),{a})") == "(y0,{})"

    def test_m_shuffles_annotations(self):
        X = canonical_set(1)
        m = self.DM.m_fn("{a}", "{b}", X, X)
        assert m("((y0,{a}),(y0,{b}))") == "((y0,y0),{ab,ba})"

    def test_monad_and_order_laws(self):
        assert check_monad_laws(self.DM.monad, 2).ok
        assert check_order_laws(self.DM.monad, 1).ok
        assert check_strength_laws(self.DM.monad, 1).ok

    def test_duoidal_gradation_passes(self):
        assert check_duoidal_gradation(self.DM, 2).ok

    def test_main_diagram_is_strictly_lax(self):
        # interchange-first loses interleavings that multiply-first keeps,
        # so the diagram needs the annotation order; equality fails
        DM = self.DM
        M, D = DM.monad, DM.duoid
        a, b, c, d = "{a}", "{_}", "{_}", "{b}"
        X = Y = canonical_set(1)
        XY = tensor(X, Y)
        inner = DM.m_fn(b, d, X, Y)
        outer = DM.m_fn(a, c, M.carrier(b, X), M.carrier(d, Y))
        par_first = outer.then(M.fmap(D.par_of(a, c), inner)).then(
            M.mult_fn(D.par_of(a, c), D.par_of(b, d), XY))
        mul_first = tensor_fn(M.mult_fn(a, b, X), M.mult_fn(c, d, Y)).then(
            DM.m_fn("{a}", "{b}", X, Y))
        lifted = par_first.then(M.lift_fn("{ab}", "{ab,ba}", XY))
        t = make_pair(make_pair("(y0,{_})", "{a}"), make_pair("(y0,{b})", "{_}"))
        assert lifted(t) == "((y0,y0),{ab})"
        assert mul_first(t) == "((y0,y0),{ab,ba})"
        assert lifted(t) != mul_first(t)
        assert _annotation_subset(lifted(t), mul_first(t))

    def test_annotation_order_is_reflexive_and_keeps_values_apart(self):
        M = self.DM.monad
        for n in range(3):
            X = canonical_set(n)
            for a in M.pomonoid.elements:
                carrier = M.carrier(a, X)
                for t in carrier:
                    assert _annotation_subset(t, t), t
                for s in carrier:
                    for t in carrier:
                        if split_pair(s)[0] != split_pair(t)[0]:
                            assert not _annotation_subset(s, t), (s, t)
        assert _annotation_subset("(y0,{a})", "(y0,{a,b})")
        assert not _annotation_subset("(y0,{a,b})", "(y0,{a})")

    def test_broken_m_fails_unit_and_unitor(self):
        good = self.DM
        M = good.monad
        from centrekit.finkit import FinFn, split_pair

        def dropping(a, b, X, Y):
            fn = good.m(a, b, X, Y)
            mapping = {}
            for t in fn.dom:
                value, _ = split_pair(fn(t))
                mapping[t] = make_pair(value, "{}")
            return FinFn(fn.dom, fn.cod, mapping)

        bad = DuoidalGradedMonad(monad=M, duoid=good.duoid, m=dropping)
        rep = check_duoidal_gradation(bad, 1, budget=40)
        failed = {r.law for r in rep.failures()}
        assert "m-unit" in failed
        assert "m-unitor-left" in failed

    @pytest.mark.parametrize("budget", [0, -5])
    def test_a_budget_below_one_is_refused(self, budget):
        # _grade_tuples would draw no m-assoc triple and the report would pass
        with pytest.raises(ValueError, match="budget"):
            check_duoidal_gradation(self.DM, 2, budget=budget)

    def test_exhaustive_report_keeps_its_digest(self, monkeypatch):
        # every m-assoc triple, where the benchmark samples 300 of the 729; a
        # product builds its pair tokens only when one is read, so few are made
        made = []
        make_pair = finkit.make_pair
        monkeypatch.setattr(finkit, "make_pair", lambda l, r: made.append(1) or make_pair(l, r))
        rep = check_duoidal_gradation(build_language_writer("ab", 2, language_duoid("ab", 2)),
                                      k=2, budget=10**9)
        assert len(made) <= 10_000
        assert len(rep.records) == 7383
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
            "8017c939a61627ba775fbb7d292aebc08c3f2c8ba9b6a1dd40eb5328318508d4")


@st.composite
def prefix_token_sets(draw, name, min_size=0):
    # "a," sorts after "a*," and "b)" after "b(c))", so products of these
    # sets are not in row-major order
    tokens = draw(st.lists(st.sampled_from(["a", "a*", "b", "b(c)"]), unique=True,
                           min_size=min_size, max_size=3))
    return FinSet(name, tokens)


@st.composite
def maps_between(draw, dom, cod):
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


class TestAssocSides:
    """m-assoc's sides, built with alpha_then and tensor_then, against the
    composites they replace."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_composites(self, data):
        TX, TY, TZ = (data.draw(prefix_token_sets(n)) for n in ("TX", "TY", "TZ"))
        C_ab, C_bc, R, L = (data.draw(prefix_token_sets(n, 1)) for n in ("Cab", "Cbc", "R", "L"))
        m_ab = data.draw(maps_between(tensor(TX, TY), C_ab))
        m_bc = data.draw(maps_between(tensor(TY, TZ), C_bc))
        lhs_m = data.draw(maps_between(tensor(TX, C_bc), L))
        rhs_m = data.draw(maps_between(tensor(C_ab, TZ), R))
        re = data.draw(maps_between(R, L))
        lhs_ref = alpha(TX, TY, TZ).then(tensor_fn(identity_fn(TX), m_bc)).then(lhs_m)
        rhs_ref = tensor_fn(m_ab, identity_fn(TZ)).then(rhs_m).then(re)

        lhs = alpha_then(TX, TY, TZ, m_bc, lhs_m)
        rhs = tensor_then(m_ab, identity_fn(TZ), rhs_m, re)
        assert lhs == lhs_ref and rhs == rhs_ref
        # the comparator names the least failing token, as a scan of the composites does
        ref = next((t for t in sorted(lhs_ref.dom) if lhs_ref(t) != rhs_ref(t)), None)
        failure = mismatch(lhs.dom, lhs.cod, lhs.idx, rhs.idx)
        assert failure == (None if ref is None else (ref, lhs_ref(ref), rhs_ref(ref)))


class TestVacuousInstances:
    """Diagram instances with an empty domain: every set tuple holding Y0."""

    D = language_duoid("ab", 2)

    @pytest.mark.parametrize("wrong_at", [
        # every key with an empty set
        lambda X, Y: not (X and Y),
        # only duoidal-main's outer interchange, between carriers T^g(Y0)
        lambda X, Y: not (X and Y) and "P(" in X.name + Y.name,
        # only m-assoc's keys with a product of canonical sets, like (Y1xY0)
        lambda X, Y: not (X and Y) and "x" in X.name + Y.name and "P(" not in X.name + Y.name,
    ], ids=["any", "main-outer", "assoc-product"])
    def test_wrong_type_at_an_empty_key_still_raises(self, wrong_at):
        good = build_language_writer("ab", 2, self.D)

        def m(a, b, X, Y):
            fn = good.m(a, b, X, Y)
            return FinFn(fn.dom, unit_set(), {}) if wrong_at(X, Y) else fn

        bad = DuoidalGradedMonad(monad=good.monad, duoid=good.duoid, m=m,
                                 element_leq=good.element_leq)
        with pytest.raises(LanguageError, match="wrong type"):
            check_duoidal_gradation(bad, 2)

    def test_no_composite_is_built_for_a_vacuous_instance(self, monkeypatch):
        calls = []   # (calling function, result has an empty domain)

        def counted(fn):
            def wrapper(*args):
                out = fn(*args)
                # a map, or a row: one entry per element of its domain
                calls.append((sys._getframe(1).f_code.co_name,
                              not (out.dom if isinstance(out, FinFn) else out)))
                return out
            return wrapper

        for name in ("alpha", "tensor_fn", "tensor_then", "tensor_row"):
            monkeypatch.setattr(relaxations, name, counted(getattr(relaxations, name)))
        assert check_duoidal_gradation(build_language_writer("ab", 2, self.D), 2).ok
        # m-natural builds its vacuous instances in full: its maps are few
        per_instance = [empty for caller, empty in calls
                        if caller in ("main_failure", "assoc_failure")]
        assert per_instance and not any(per_instance)

    @pytest.mark.parametrize("wrong", [
        lambda re: identity_fn(FinSet("W", ("w",))),
        # the same index table into a renamed codomain: only the codomains differ
        lambda re: FinFn(re.dom, FinSet("W", [t + "!" for t in re.cod]),
                         {t: re(t) + "!" for t in re.dom}),
    ], ids=["domain", "codomain"])
    def test_m_assoc_still_checks_its_reassociator(self, wrong):
        # fmap type-checks an fmap_fn's image when it memoises it (empty maps
        # are left alone: they equal the empty maps other laws lift first)
        good = build_language_writer("ab", 2, self.D)
        M, sets = good.monad, [canonical_set(n) for n in range(1, 3)]
        alphas = {alpha(X, Y, Z) for X in sets for Y in sets for Z in sets}

        def fmap(a, f):
            return wrong(M.fmap(a, f)) if f in alphas else M.fmap(a, f)

        N = GradedStrongMonad(pomonoid=M.pomonoid, unit=M.unit, mult=M.mult,
                              strength=M.strength, carrier_fn=M.carrier, fmap_fn=fmap,
                              lift=M.lift)
        bad = DuoidalGradedMonad(monad=N, duoid=good.duoid, m=good.m,
                                 element_leq=good.element_leq)
        with pytest.raises(ComponentMissing, match="has wrong type"):
            check_duoidal_gradation(bad, 2)

    def test_m_assoc_builds_no_associator_and_no_set_when_vacuous(self, monkeypatch):
        DM = build_language_writer("ab", 2, self.D)
        check_duoidal_gradation(DM, 2)   # memoise every component first
        alpha_callers, vacuous_sets = [], []
        real_alpha, real_init = relaxations.alpha, FinSet.__init__

        def counted_alpha(*args):
            alpha_callers.append(sys._getframe(1).f_code.co_name)
            return real_alpha(*args)

        def counted_init(fs, name, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "assoc_failure":
                frame = frame.f_back
            if frame is not None and not all(frame.f_locals[v] for v in "XYZ"):
                vacuous_sets.append(name)
            real_init(fs, name, *args, **kwargs)

        monkeypatch.setattr(relaxations, "alpha", counted_alpha)
        monkeypatch.setattr(FinSet, "__init__", counted_init)
        rep = check_duoidal_gradation(DM, 2)
        assert rep.ok and any(r.law == "m-assoc" for r in rep.records)
        assert alpha_callers and "assoc_failure" not in alpha_callers
        assert vacuous_sets == []


class TestDeriveMonoidalM:
    def test_identity_monad(self):
        DM, rep = derive_monoidal_m(identity_monad(multi_error_pomonoid()), 2)
        assert rep.ok
        X = canonical_set(2)
        m = DM.m_fn("wa", "wb", X, X)
        for t in m.dom:
            assert m(t) == t

    def test_centre_of_multi_error(self):
        res = build_centre_monad(multi_error_writer())
        DM, rep = derive_monoidal_m(res.monad, 2)
        assert rep.ok

    def test_noncommutative_is_rejected(self):
        with pytest.raises(NotCommutative):
            derive_monoidal_m(multi_error_writer(), 2)

    def test_sampled_main_diagram_takes_its_corners_at_the_unit(self):
        # five grades under capped addition with the unit listed last: 625
        # quadruples exceed the budget, so duoidal-main samples, corners first
        grades = ["1", "2", "3", "4", "0"]
        mul = {(a, b): str(min(int(a) + int(b), 4)) for a in grades for b in grades}
        le = [(a, b) for a in grades for b in grades if int(a) <= int(b)]
        P = validate_pomonoid(grades, "0", mul, le, name="max-plus")
        DM, rep = derive_monoidal_m(identity_monad(P), 1)
        main = {r.grades for r in rep.records if r.law == "duoidal-main"}
        assert rep.ok and len(main) == 300
        assert {("0", a, b, "0") for a in grades for b in grades} <= main


class TestBimonoidalCentre:
    X2 = canonical_set(2)

    def test_absorbing_top_collapses_warning_grades(self):
        M = multi_error_writer(topped=True)
        B = bimonoid_from_absorbing_top(M.pomonoid, "e")
        for g in M.pomonoid.elements:
            cone = bimonoidal_centre_at(M, B, g, self.X2)
            assert set(cone.apex) == set(M.carrier(g, self.X2)), g

    def test_degenerates_to_plain_centrality_when_op2_is_mul(self):
        M = bool_writer_pair()
        P = M.pomonoid
        B = Duoid(base=P, par={(x, y): P.times(x, y)
                               for x in P.elements for y in P.elements},
                  unit2=P.unit)
        for g in P.elements:
            cone = bimonoidal_centre_at(M, B, g, self.X2)
            assert set(cone.apex) == set(central_subset(M, g, self.X2))

    def test_wrong_base_is_rejected(self):
        M = bool_writer_pair()
        B = bimonoid_from_absorbing_top(multi_error_pomonoid(topped=True), "e")
        with pytest.raises(BimonoidMismatch):
            bimonoidal_centre_at(M, B, "tt", self.X2)

    def test_non_dominating_op2_is_rejected(self):
        M = multi_error_writer(topped=True)
        P = M.pomonoid
        B = Duoid(base=P, par={(x, y): "t" for x in P.elements
                               for y in P.elements}, unit2="t")
        with pytest.raises(BimonoidMismatch):
            bimonoidal_centre_at(M, B, "wa", self.X2)
