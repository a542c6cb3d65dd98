import hashlib
from collections import Counter

import pytest

from centrekit import finkit
from centrekit.centre import (
    CentralCone,
    CentralityViolation,
    CentreError,
    ElementNotInCarrier,
    GradeNotCentral,
    NotASubmonad,
    build_centre_monad,
    central_subset,
    check_central_cone,
    check_centrality_conditions,
    factor_through,
    graded_centre_at,
    is_central,
    restrict_grades,
)
from centrekit.finkit import FinFn, FinSet, SetSizeError, canonical_set, unit_set
from centrekit.graded_monad import (
    bool_writer_pair,
    build,
    check_all,
    check_commutative,
    check_graded_monad_morphism,
    identity_monad,
    multi_error_writer,
    registry,
    scan_sets,
)
from centrekit.pomonoid import (
    Duoid,
    bool_pomonoid,
    centre_of_pomonoid,
    multi_error_pomonoid,
    validate_pomonoid,
)
from centrekit.relaxations import bimonoidal_centre_at
from test_pomonoid import bimonoid_from_absorbing_top

X2 = canonical_set(2)
X3 = canonical_set(3)
SMALL = sorted(name for name in registry() if name != "language_writer")


def largest_test_set(M, b, bound=None):
    """The size of the largest test set a centrality scan against grade b reads."""
    return len(scan_sets(M, b, bound=bound)) - 1


class TestIsCentral:
    def test_grade_must_be_central(self):
        M = multi_error_writer()
        with pytest.raises(GradeNotCentral):
            is_central(M, "wa", X2, "(y0,a)")

    def test_element_must_be_in_carrier(self):
        M = multi_error_writer()
        with pytest.raises(ElementNotInCarrier):
            is_central(M, "t", X2, "zz")

    def test_everything_at_t_is_central(self):
        M = multi_error_writer()
        assert all(is_central(M, "t", X2, x) for x in X2)

    def test_unit_image_is_central(self):
        for name in ("identity", "multi_error_writer", "bool_writer_pair"):
            M = build(name)
            i = M.pomonoid.unit
            eta = M.unit_fn(X2)
            for x in X2:
                assert is_central(M, i, X2, eta(x))

    def test_noncentral_annotation_breaks_centrality(self):
        M = bool_writer_pair()
        assert not is_central(M, "ff", X2, "(y0,wa)")
        assert is_central(M, "ff", X2, "(y0,e)")


class TestCentralSubset:
    @pytest.mark.parametrize("name", sorted(registry()))
    def test_batch_scan_matches_per_element_verdicts(self, name):
        M = registry()[name]()
        Z, _ = centre_of_pomonoid(M.pomonoid)
        for z in Z.elements:
            for n in range(3):
                X = canonical_set(n)
                expected = [t for t in M.carrier(z, X) if is_central(M, z, X, t)]
                assert list(central_subset(M, z, X).elems) == expected

    def test_bool_pair_at_ff_is_proper_and_nonempty(self):
        M = bool_writer_pair()
        sub = central_subset(M, "ff", X2)
        assert set(sub) == {"(y0,t)", "(y0,e)", "(y1,t)", "(y1,e)"}
        assert 0 < len(sub) < len(M.carrier("ff", X2))

    def test_bool_pair_at_tt_is_full(self):
        M = bool_writer_pair()
        assert set(central_subset(M, "tt", X2)) == set(M.carrier("tt", X2))

    def test_commutative_monad_is_all_central(self):
        M = identity_monad(multi_error_pomonoid())
        for z in ("t", "e"):
            assert set(central_subset(M, z, X2)) == set(M.carrier(z, X2))

    def test_bound_widening_changes_nothing(self):
        for name in sorted(registry()):
            M = build(name)
            Z, _ = centre_of_pomonoid(M.pomonoid)
            # central_rows scans Y0..Yn, so every grade is scanned at least
            # two sizes past its own degree
            wide_bound = max(largest_test_set(M, b) for b in M.pomonoid.elements) + 2
            for z in Z.elements:
                base = central_subset(M, z, X2)
                wide = central_subset(M, z, X2, bound=wide_bound)
                assert base == wide, (name, z)

    def test_explicit_int_bound(self):
        M = multi_error_writer()
        assert central_subset(M, "t", X2, bound=2) == central_subset(M, "t", X2)


class TestCones:
    def test_graded_centre_passes_its_own_check(self):
        M = multi_error_writer()
        cone = graded_centre_at(M, "t", X2)
        assert set(cone.apex) == set(X2)
        assert check_central_cone(M, cone).ok

    def test_centre_at_e_is_a_point(self):
        M = multi_error_writer()
        cone = graded_centre_at(M, "e", X3)
        assert len(cone.apex) == 1

    def test_noncentral_leg_fails_with_witness(self):
        M = bool_writer_pair()
        A = FinSet("A", ("p",))
        leg = FinFn(A, M.carrier("ff", X2), {"p": "(y0,wa)"})
        cone = CentralCone(grade="ff", base=X2, apex=A, leg=leg)
        rep = check_central_cone(M, cone)
        assert not rep.ok
        assert any(r.witness for r in rep.failures())

    def test_closure_lemmas(self):
        M = bool_writer_pair()
        cone = graded_centre_at(M, "ff", X2)
        rep = check_central_cone(M, cone, closure_lemmas=True)
        assert rep.ok
        laws = {r.law for r in rep.records}
        assert {"cone-precompose", "cone-postcompose"} <= laws

    def test_factorisation_exists_and_is_unique(self):
        M = bool_writer_pair()
        centre = graded_centre_at(M, "ff", X2)
        A = FinSet("A", ("p", "q"))
        leg = FinFn(A, M.carrier("ff", X2), {"p": "(y0,e)", "q": "(y1,t)"})
        cone = CentralCone(grade="ff", base=X2, apex=A, leg=leg)
        h = factor_through(cone, centre)
        assert h.then(centre.leg) == leg
        # injectivity of the centre leg makes any mediator agree with h
        for p in A:
            assert centre.leg(h(p)) == leg(p)

    def test_factorisation_refuses_noncentral_image(self):
        M = bool_writer_pair()
        centre = graded_centre_at(M, "ff", X2)
        A = FinSet("A", ("p",))
        leg = FinFn(A, M.carrier("ff", X2), {"p": "(y1,wb)"})
        cone = CentralCone(grade="ff", base=X2, apex=A, leg=leg)
        with pytest.raises(CentreError):
            factor_through(cone, centre)

    def test_factorisation_refuses_a_leg_outside_the_carrier(self):
        # C holds a central token of T^ff X2 but is not T^ff X2, so no h has
        # h ; centre.leg = leg, whose codomain is C
        M = bool_writer_pair()
        centre = graded_centre_at(M, "ff", X2)
        A, C = FinSet("A", ("p",)), FinSet("C", ("(y0,e)",))
        cone = CentralCone(grade="ff", base=X2, apex=A, leg=FinFn(A, C, {"p": "(y0,e)"}))
        with pytest.raises(CentreError) as exc:
            factor_through(cone, centre)
        assert str(exc.value) == "leg codomain is not the carrier at the cone's grade"


def assert_leg_is_the_inclusion(M, cone):
    # each apex token goes to the same token of T^z X
    assert cone.leg.dom is cone.apex
    assert cone.leg.cod == M.carrier(cone.grade, cone.base)
    assert [cone.leg(t) for t in cone.apex] == list(cone.apex.elems)


def keep_last_on_prefix_tokens():
    """The monoid on 1, b, b(c) whose product keeps its right factor: T^ff Y1
    lists (y0,b) before (y0,b(c)), though "(y0,b(c))" sorts first."""
    els = ("1", "b", "b(c)")
    mul = {(x, y): x if y == "1" else y for x in els for y in els}
    return validate_pomonoid(els, "1", mul, name="K")


class TestConeLegs:
    @pytest.mark.parametrize("name", sorted(registry()))
    def test_graded_centre_leg_is_the_inclusion(self, name):
        M = registry()[name]()
        for z in centre_of_pomonoid(M.pomonoid)[0].elements:
            for n in range(3):
                assert_leg_is_the_inclusion(M, graded_centre_at(M, z, canonical_set(n)))

    def test_bimonoidal_centre_leg_is_the_inclusion(self):
        M = multi_error_writer(topped=True)
        D = bimonoid_from_absorbing_top(M.pomonoid, "e")
        for a in M.pomonoid.elements:
            for n in range(3):
                assert_leg_is_the_inclusion(M, bimonoidal_centre_at(M, D, a, canonical_set(n)))

    def test_legs_over_prefix_tokens(self):
        M = bool_writer_pair(keep_last_on_prefix_tokens())
        D = bimonoid_from_absorbing_top(bool_pomonoid(), "ff")
        for a in M.pomonoid.elements:
            for n in range(3):
                X = canonical_set(n)
                assert_leg_is_the_inclusion(M, graded_centre_at(M, a, X))
                assert_leg_is_the_inclusion(M, bimonoidal_centre_at(M, D, a, X))


class TestBuildCentreMonad:
    def test_multi_error_centre_carriers(self):
        res = build_centre_monad(multi_error_writer())
        assert res.monad.pomonoid.elements == ("t", "e")
        for n in range(4):
            X = canonical_set(n)
            assert len(res.monad.carrier("t", X)) == n
            assert len(res.monad.carrier("e", X)) == 1

    def test_multi_error_centre_passes_everything(self):
        res = build_centre_monad(multi_error_writer())
        assert check_all(res.monad, 2).ok
        assert check_commutative(res.monad, 2).ok

    def test_inclusion_is_a_morphism_with_injective_legs(self):
        res = build_centre_monad(multi_error_writer())
        assert check_graded_monad_morphism(res.inclusion, 2).ok
        for z in res.monad.pomonoid.elements:
            for n in range(3):
                X = canonical_set(n)
                assert res.inclusion.component_fn(z, X).is_injective()

    def test_inclusion_components_are_built_once_per_grade_and_set(self):
        iota = build_centre_monad(multi_error_writer()).inclusion
        calls = Counter()
        component = iota.component

        def counting(z, X):
            calls[z, X] += 1
            return component(z, X)
        iota.component = counting
        assert check_graded_monad_morphism(iota, 2).ok
        assert calls and set(calls.values()) == {1}

    def test_identity_monad_centre_is_itself_on_central_grades(self):
        M = identity_monad(multi_error_pomonoid())
        res = build_centre_monad(M)
        assert res.monad.pomonoid.elements == ("t", "e")
        for z in ("t", "e"):
            assert res.monad.carrier(z, X2) == M.carrier(z, X2)

    def test_bool_pair_centre_at_tt_unchanged(self):
        M = bool_writer_pair()
        res = build_centre_monad(M)
        assert set(res.monad.carrier("tt", X2)) == set(M.carrier("tt", X2))
        assert set(res.monad.carrier("ff", X2)) == {
            "(y0,t)", "(y0,e)", "(y1,t)", "(y1,e)"}
        assert check_all(res.monad, 2).ok
        assert check_commutative(res.monad, 2).ok

    def test_topped_multi_error_centre_has_working_lift(self):
        res = build_centre_monad(multi_error_writer(topped=True))
        assert res.monad.pomonoid.le("t", "e")
        lift = res.monad.lift_fn("t", "e", X2)
        assert all(lift(x) == "*" for x in X2)

    def test_describe_records(self):
        res = build_centre_monad(multi_error_writer())
        recs = res.describe(X2)
        by_grade = {r["grade"]: r for r in recs}
        assert by_grade["t"]["carrier_size"] == 2
        assert by_grade["t"]["centre_size"] == 2
        assert by_grade["e"]["members"] == ["*"]

    def test_escaping_component_raises(self):
        M = bool_writer_pair()
        good = M.mult

        def bad(a, b, X):
            fn = good(a, b, X)
            if a != "ff" or b != "ff":
                return fn
            from centrekit.finkit import make_pair, split_pair
            mapping = {}
            for t in fn.dom:
                inner, outer_ann = split_pair(t)
                x, inner_ann = split_pair(inner)
                if inner_ann == "e" and outer_ann == "e":
                    mapping[t] = make_pair(x, "wa")  # central in, warning out
                else:
                    mapping[t] = fn(t)
            return FinFn(fn.dom, fn.cod, mapping)

        M.mult = bad
        M._memo.clear()
        res = build_centre_monad(M)
        with pytest.raises(CentralityViolation) as exc:
            res.monad.mult_fn("ff", "ff", X2)
        assert exc.value.component == "mult(ff,ff)"
        # the least escaping token is named
        assert exc.value.witness == "((y0,e),e) -> (y0,wa)"

    def test_the_centre_leaves_no_token_dict_on_its_parent(self):
        # shared sets (canonical sets, products still in use) may hold a token
        # dict that another test built: start them without one
        shared = [canonical_set(n) for n in range(10)] + [unit_set()]
        for s in shared + [ref() for ref in list(finkit._PRODUCTS.values())]:
            if s is not None:
                s._index = None
        M = bool_writer_pair()
        assert check_all(build_centre_monad(M).monad, 2).ok
        sets = []
        for value in M._memo.values():
            if isinstance(value, FinSet):
                sets.append(value)
            elif isinstance(value, FinFn):
                sets += [value.dom, value.cod]
        held = {id(s): s.name for s in sets if s._index is not None}
        assert sets and not held, sorted(held.values())


# SHA-256 of the centre monad's reports on each built-in: check_all at k=1..3
# (language_writer k=1), check_commutative at k=3 (language_writer k=2),
# check_centrality_conditions(Z, iota, 2).to_text(False) (not language_writer)
# and check_graded_monad_morphism(iota, 2)
CENTRE_MONAD_DIGESTS = {
    "bool_writer_pair": (
        "410567e89d670bbc5c3a73308d9861e3a541228eea4f5fc1798db3aa19bcccd5",
        "eda3faf3d6c9928698b099eacec23b5d9c4ecb4a82f498ebc29d7ff8c51d04be",
        "ed68ef5c8bcd759c51534e919d576d507dbd2bd3caf65158f2e52486c62ba348",
        "325067d5a4edab27127ad5a7bbfd8d414081cdc1c54a534fefd051fe6f1b86d1",
        "66b3de06ce65f59e3cfeeb0b8a4656b33edc2db85f21cd302af9861dc8ba37cf",
        "1ea4b494ac24e4a63d57ee06fa26fbd58dfe8776de900d4a05989286cf12eadb",
    ),
    "identity": (
        "6874d8a9f5a8955f58daa88c9b4d7d31ec47dfddda4692c6ffc597bb254b148f",
        "e9dde6ec7fe169070464cd15e5056f107446030999392c6fa6ab0e33e30afb2b",
        "945dd64236c2f52b95c3a098acd5b7b83837477c8427cc15bbb7e5861e706ad2",
        "35a12bea2dcb6f45943c350d842bc742d9505f8a5337f6a086623ee3f70bcb18",
        "b73ba4c40ba6c1dfcd6637b8114d361c7dde977bd63ee71c88a2475684fe4567",
        "17494faba1bc20516a1976e315e73a2ff87fdbaaa1414a6b99bd27fc4e188bd3",
    ),
    "language_writer": (
        "4a3cfa09da525bb945bc61c4eb540306c61128fe01a65afd160752e404f357de",
        "5b6d7088a443799d35dbc7d7ffb6211e600283189c86b170b1cbb1ef62c6fce2",
        "57148574042187abd704621b89c1e983eeccab0b7cea7cd0b4c012e62cabf094",
    ),
    "multi_error_writer": (
        "e71d7c411c631bd88e8a34fc38e996912ac2fadcd70f40d60d938ec66826608e",
        "8aa7c4144d467c6c924454cf965dbb439ca0e86a0e73ca9942db3a742bdd68cd",
        "319e70f3aa9b2250872d8c93fe83699d8972465a6359a3250fb630e80aebf913",
        "a53bb0bc591d722cb736a2f051c1ec7d5e195aeee7c77cc46797c6f714523a83",
        "e704e4c5a384ab001f76789de9d87ecda07cd01ad9647c42f99e11dc3e9391d1",
        "17494faba1bc20516a1976e315e73a2ff87fdbaaa1414a6b99bd27fc4e188bd3",
    ),
    "multi_error_writer_topped": (
        "248b48a5997a79bbb3b916aad4e783e7f5200959b8028c4b7292162877be5da4",
        "1d7c165007ba6c2e331169a4b52dc7df2f0c5ee4b2a964374500f3488cb70dc6",
        "ab1d38366a254e95f23964b1ff3bb7e1363e3fc9eb6859410377b3ea917f65f7",
        "ec53c57d67b70bf8ec5541160c8f878397507b7fb54dec2e4bb1480f844c8f55",
        "0f08df109e5e4b2eec8cb89b248205bc38eba4ebcf5923135ca0f8494c17417d",
        "ff2d1827eafd70c6ad906c3b947fef5b554e5d518aec029165bfb3e04a98eb3c",
    ),
}


@pytest.mark.parametrize("name", sorted(CENTRE_MONAD_DIGESTS))
def test_centre_monads_keep_their_bytes(name):
    res = build_centre_monad(registry()[name]())
    Z, iota = res.monad, res.inclusion
    small = name != "language_writer"
    texts = [check_all(Z, k).to_json() for k in ((1, 2, 3) if small else (1,))]
    texts.append(check_commutative(Z, 3 if small else 2).to_json())
    if small:
        texts.append(check_centrality_conditions(Z, iota, 2).to_text(False))
    texts.append(check_graded_monad_morphism(iota, 2).to_json())
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == \
        CENTRE_MONAD_DIGESTS[name]


class TestCentralityConditions:
    def test_computed_centre_is_both_true(self):
        res = build_centre_monad(multi_error_writer())
        rep = check_centrality_conditions(res.monad, res.inclusion, 2)
        assert rep.ok
        verdict = [r for r in rep.records if r.law == "conditions-verdict"][0]
        assert verdict.note == "both-true"

    def test_full_regrade_of_bool_pair_is_both_false(self):
        M = bool_writer_pair()
        ZP, phi = centre_of_pomonoid(M.pomonoid)
        S, iota = restrict_grades(M, ZP, phi)
        rep = check_centrality_conditions(S, iota, 2)
        agreement = [r for r in rep.records if r.law == "theorem-agreement"][0]
        verdict = [r for r in rep.records if r.law == "conditions-verdict"][0]
        assert agreement.ok
        assert verdict.note == "both-false"
        cone_failures = [r for r in rep.records
                         if r.law == "condition-1-cone" and not r.ok]
        assert cone_failures and all(r.grades == ("ff",) for r in cone_failures)

    def test_identity_submonad_is_both_true(self):
        M = identity_monad(multi_error_pomonoid())
        res = build_centre_monad(M)
        rep = check_centrality_conditions(res.monad, res.inclusion, 2)
        assert rep.ok

    def test_full_regrade_of_multi_error_is_its_centre(self):
        # at grades t and e every element already commutes with everything,
        # so the full-carrier regrade agrees on the true side
        M = multi_error_writer()
        ZP, phi = centre_of_pomonoid(M.pomonoid)
        S, iota = restrict_grades(M, ZP, phi)
        rep = check_centrality_conditions(S, iota, 2)
        assert rep.ok
        verdict = [r for r in rep.records if r.law == "conditions-verdict"][0]
        assert verdict.note == "both-true"

    def test_broken_morphism_is_rejected(self):
        M = bool_writer_pair()
        ZP, phi = centre_of_pomonoid(M.pomonoid)
        S, iota = restrict_grades(M, ZP, phi)
        squash = {t: min(M.carrier("tt", X2)) for t in S.carrier("tt", X2)}

        def collapsing(z, X):
            if z == "tt" and X == X2:
                return FinFn(S.carrier(z, X), M.carrier(z, X), squash)
            return FinFn(S.carrier(z, X), M.carrier(z, X),
                         {t: t for t in S.carrier(z, X)})

        iota.component = collapsing
        with pytest.raises(NotASubmonad):
            check_centrality_conditions(S, iota, 2)


class TestBoundFor:
    def test_default_comes_from_the_functor_shape(self):
        M = multi_error_writer()
        assert largest_test_set(M, "t") == 1
        assert largest_test_set(M, "e") == 0
        assert largest_test_set(M, "wa") == 1

    def test_a_bound_below_the_degree_is_refused(self):
        M, X = bool_writer_pair(), canonical_set(1)
        with pytest.raises(SetSizeError, match="below the degree 1 of grade tt"):
            central_subset(M, "ff", X, bound=0)
        # at the degree, grade ff keeps only its central annotations
        assert len(central_subset(M, "ff", X, bound=1)) < len(M.carrier("ff", X))

    def test_a_callable_bound_is_refused(self):
        # one size for every grade: a per-grade bound is not an option
        with pytest.raises(TypeError):
            central_subset(bool_writer_pair(), "ff", canonical_set(1), bound=lambda b: 1)

    def test_no_functor_means_explicit_bound_required(self):
        res = build_centre_monad(multi_error_writer())
        with pytest.raises(CentreError):
            largest_test_set(res.monad, "t")
        assert largest_test_set(res.monad, "t", bound=2) == 2

    @pytest.mark.parametrize("name", SMALL)
    @pytest.mark.parametrize("kind", ["negative", "below-degree", "oversized"])
    def test_one_refusal_across_the_entry_points(self, name, kind):
        # every entry point resolves every grade's bound before it scans, so
        # a bad bound is refused, with one message, even where T^z Y0 is empty;
        # an oversized one is named as canonical_sets names an oversized k
        M, Y0 = registry()[name](), canonical_set(0)
        P = M.pomonoid
        bound = {"negative": -1, "oversized": 10}.get(
            kind, max(largest_test_set(M, b) for b in P.elements) - 1)
        D = Duoid(base=P, par={(x, y): P.times(x, y) for x in P.elements for y in P.elements},
                  unit2=P.unit)
        empty = [z for z in centre_of_pomonoid(P)[0].elements if not M.carrier(z, Y0).elems]
        assert empty
        for z in empty:
            cone = CentralCone(grade=z, base=Y0, apex=Y0, leg=FinFn(Y0, M.carrier(z, Y0), {}))
            messages = set()
            for call in (lambda: central_subset(M, z, Y0, bound),
                         lambda: graded_centre_at(M, z, Y0, bound),
                         lambda: check_central_cone(M, cone, bound),
                         lambda: bimonoidal_centre_at(M, D, z, Y0, bound)):
                with pytest.raises(SetSizeError) as exc:
                    call()
                messages.add(str(exc.value))
            assert len(messages) == 1
            what = "canonical set size" if kind == "oversized" else "test-set bound"
            assert messages.pop().startswith(f"{what} {bound} is ")
