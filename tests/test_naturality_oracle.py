"""The index-row laws against the composite loops they replaced.

lift-natural, strength-natural-left, strength-natural-right, fmap-compose,
unit-natural, mult-natural and the morphism suite's component-natural
quantify over every map between the canonical sets.  The suites yield the
two sides of each of their instances as plain index rows over the domain
and codomain of the instance's block (a law with its grades and sets),
which ``Report.compare`` compares without building a map; every law of the
strength and costrength suites is read off the components' index tables
and the product grids.  The reference suites below are the FinFn-sided
ones that came before, which build both sides with ``then``/``tensor_fn``/
``alpha`` composites for every instance, hand the two maps to
``Report.compare`` and render each note with ``f.mapping``.  The other laws
of those suites are carried along unchanged, so that whole reports
compare: both sides must give the same ``to_json()`` bytes, and a planted
fault the same witness and values.  ``Report.compare`` itself must give two
rows the record a token-by-token scan gives the two maps with those tables.

The fetch-order test logs the key of every component the monad builds
(unit, mult, strength, costrength, lift and fmap) in the order it first
builds it, on check_all and on each suite with a rewritten law alone.  A
faulty component then raises the same first error as before: the digests
of those logs were recorded on the composite loops, with the costrength
derived from the strength.  A second set of digests pins the logs with the
built-ins' own costrengths.
"""

import collections
import hashlib
import sys
from dataclasses import replace
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrekit import finkit
from centrekit import graded_monad as gm
from centrekit import relaxations
from centrekit.centre import build_centre_monad
from centrekit.finkit import (
    FinFn,
    FinSet,
    all_fns,
    alpha,
    alpha_inv,
    identity_fn,
    lam,
    rho,
    tensor,
    tensor_fn,
    unit_set,
)
from centrekit.graded_monad import (
    bool_writer_pair,
    canonical_sets,
    check_all,
    check_graded_monad_morphism,
    discrete_to_topped_morphism,
    multi_error_writer,
    registry,
)
from centrekit.pomonoid import check_pomonoid_morphism
from centrekit.relaxations import build_language_writer, check_duoidal_gradation, language_duoid
from centrekit.report import LawRecord, Report, run_suite
from test_graded_monad import (
    constant_lift_writer,
    identity_graded_morphism,
    left_unnatural_strength_writer,
    noncompositional_fmap_monad,
    right_swapped_costrength_writer,
    right_swapped_strength_writer,
    right_unnatural_strength_writer,
    swapped_costrength_writer,
    swapped_strength_writer,
    unnatural_component_morphism,
    unnatural_mult_writer,
    unnatural_unit_writer,
)


# --- the composite loops -------------------------------------------------------

def ref_order_laws(M, k):
    P = M.pomonoid
    sets = canonical_sets(k)
    comparable = P.comparable_pairs()
    if P.is_discrete():
        yield LawRecord(law="order-vacuous", note="discrete order")
        return
    for X in sets:
        for a in P.elements:
            yield "lift-refl", (a, a), (X.name,), M.lift_fn(a, a, X), identity_fn(M.carrier(a, X))
        for (a, b), c in product(comparable, P.elements):
            if P.le(b, c):
                composed = M.lift_fn(a, b, X).then(M.lift_fn(b, c, X))
                yield "lift-compose", (a, b, c), (X.name,), composed, M.lift_fn(a, c, X)
    for X, Y in product(sets, sets):
        for f, (a, b) in product(all_fns(X, Y), comparable):
            if a != b:
                lhs = M.fmap(a, f).then(M.lift_fn(a, b, Y))
                rhs = M.lift_fn(a, b, X).then(M.fmap(b, f))
                yield "lift-natural", (a, b), (X.name, Y.name), lhs, rhs, f"f={f.mapping}"
    for X, (a, a2), (b, b2) in product(sets, comparable, comparable):
        if a == a2 and b == b2:
            continue
        direct = M.mult_fn(a, b, X).then(M.lift_fn(P.times(a, b), P.times(a2, b2), X))
        inside = (M.lift_fn(a, a2, M.carrier(b, X)).then(M.fmap(a2, M.lift_fn(b, b2, X)))
                  .then(M.mult_fn(a2, b2, X)))
        yield "mult-lift", (a, a2, b, b2), (X.name,), direct, inside


def ref_strength_laws(M, k):
    P = M.pomonoid
    sets = canonical_sets(k)
    I = unit_set()
    for Y, a in product(sets, P.elements):
        TaY = M.carrier(a, Y)
        lhs = M.strength_fn(a, I, Y).then(M.fmap(a, lam(Y)))
        yield "strength-unitor", (a,), (Y.name,), lhs, lam(TaY)
    for X, Y, Z, a in product(sets, sets, sets, P.elements):
        TaZ = M.carrier(a, Z)
        via_assoc = (alpha(X, Y, TaZ)
                     .then(tensor_fn(identity_fn(X), M.strength_fn(a, Y, Z)))
                     .then(M.strength_fn(a, X, tensor(Y, Z))))
        direct = M.strength_fn(a, tensor(X, Y), Z).then(M.fmap(a, alpha(X, Y, Z)))
        yield "strength-assoc", (a,), (X.name, Y.name, Z.name), via_assoc, direct
    for X, Y in product(sets, sets):
        XY = tensor(X, Y)
        lhs = tensor_fn(identity_fn(X), M.unit_fn(Y)).then(M.strength_fn(P.unit, X, Y))
        yield "strength-unit", (P.unit,), (X.name, Y.name), lhs, M.unit_fn(XY)
        for a, b in product(P.elements, P.elements):
            TbY = M.carrier(b, Y)
            lhs = tensor_fn(identity_fn(X), M.mult_fn(a, b, Y)).then(
                M.strength_fn(P.times(a, b), X, Y))
            rhs = (M.strength_fn(a, X, TbY)
                   .then(M.fmap(a, M.strength_fn(b, X, Y)))
                   .then(M.mult_fn(a, b, XY)))
            yield "strength-mult", (a, b), (X.name, Y.name), lhs, rhs
    for X, X2, Y, a in product(sets, sets, sets, P.elements):
        TaY = M.carrier(a, Y)
        for f in all_fns(X, X2):
            lhs = tensor_fn(f, identity_fn(TaY)).then(M.strength_fn(a, X2, Y))
            rhs = M.strength_fn(a, X, Y).then(M.fmap(a, tensor_fn(f, identity_fn(Y))))
            yield ("strength-natural-left", (a,), (X.name, X2.name, Y.name), lhs, rhs,
                   f"f={f.mapping}")
    for X, Y, Y2, a in product(sets, sets, sets, P.elements):
        for g in all_fns(Y, Y2):
            lhs = tensor_fn(identity_fn(X), M.fmap(a, g)).then(M.strength_fn(a, X, Y2))
            rhs = M.strength_fn(a, X, Y).then(M.fmap(a, tensor_fn(identity_fn(X), g)))
            yield ("strength-natural-right", (a,), (X.name, Y.name, Y2.name), lhs, rhs,
                   f"g={g.mapping}")
    if not P.is_discrete():
        for X, Y, (a, b) in product(sets, sets, P.comparable_pairs()):
            if a != b:
                lhs = M.strength_fn(a, X, Y).then(M.lift_fn(a, b, tensor(X, Y)))
                rhs = tensor_fn(identity_fn(X), M.lift_fn(a, b, Y)).then(M.strength_fn(b, X, Y))
                yield "strength-lift", (a, b), (X.name, Y.name), lhs, rhs
    for W, X, Y, a in product(sets, sets, sets, P.elements):
        TaX = M.carrier(a, X)
        WX = tensor(W, X)
        lhs = tensor_fn(M.strength_fn(a, W, X), identity_fn(Y)).then(M.costrength_fn(a, WX, Y))
        rhs = (alpha(W, TaX, Y)
               .then(tensor_fn(identity_fn(W), M.costrength_fn(a, X, Y)))
               .then(M.strength_fn(a, W, tensor(X, Y)))
               .then(M.fmap(a, alpha_inv(W, X, Y))))
        yield "strength-interchange", (a,), (W.name, X.name, Y.name), lhs, rhs


def ref_costrength_coherence(M, k):
    P = M.pomonoid
    sets = canonical_sets(k)
    I = unit_set()
    for X, a in product(sets, P.elements):
        TaX = M.carrier(a, X)
        lhs = M.costrength_fn(a, X, I).then(M.fmap(a, rho(X)))
        yield "costrength-unitor", (a,), (X.name,), lhs, rho(TaX)
    for X, Y in product(sets, sets):
        XY = tensor(X, Y)
        lhs = tensor_fn(M.unit_fn(X), identity_fn(Y)).then(M.costrength_fn(P.unit, X, Y))
        yield "costrength-unit", (P.unit,), (X.name, Y.name), lhs, M.unit_fn(XY)
        for a, b in product(P.elements, P.elements):
            TbX = M.carrier(b, X)
            lhs = tensor_fn(M.mult_fn(a, b, X), identity_fn(Y)).then(
                M.costrength_fn(P.times(a, b), X, Y))
            rhs = (M.costrength_fn(a, TbX, Y)
                   .then(M.fmap(a, M.costrength_fn(b, X, Y)))
                   .then(M.mult_fn(a, b, XY)))
            yield "costrength-mult", (a, b), (X.name, Y.name), lhs, rhs
    for X, Y, Z, a in product(sets, sets, sets, P.elements):
        TaX = M.carrier(a, X)
        via_assoc = (alpha_inv(TaX, Y, Z)
                     .then(tensor_fn(M.costrength_fn(a, X, Y), identity_fn(Z)))
                     .then(M.costrength_fn(a, tensor(X, Y), Z)))
        direct = M.costrength_fn(a, X, tensor(Y, Z)).then(M.fmap(a, alpha_inv(X, Y, Z)))
        yield "costrength-assoc", (a,), (X.name, Y.name, Z.name), via_assoc, direct
    for X, Y, a in product(sets, sets, P.elements):
        yield ("costrength-involution", (a,), (X.name, Y.name),
               gm.strength_from_costrength(M, a, X, Y), M.strength_fn(a, X, Y))


def ref_naturality(M, k):
    P = M.pomonoid
    sets = canonical_sets(k)
    for X, a in product(sets, P.elements):
        yield "fmap-id", (a,), (X.name,), M.fmap(a, identity_fn(X)), identity_fn(M.carrier(a, X))
    small = [S for S in sets if len(S) <= 2]
    for X, Y, Z in product(small, small, small):
        for f in all_fns(X, Y):
            for g, a in product(all_fns(Y, Z), P.elements):
                yield ("fmap-compose", (a,), (X.name, Y.name, Z.name),
                       M.fmap(a, f).then(M.fmap(a, g)), M.fmap(a, f.then(g)),
                       f"f={f.mapping} g={g.mapping}")
    for X, Y in product(sets, sets):
        for f in all_fns(X, Y):
            lhs = f.then(M.unit_fn(Y))
            rhs = M.unit_fn(X).then(M.fmap(P.unit, f))
            yield "unit-natural", (P.unit,), (X.name, Y.name), lhs, rhs, f"f={f.mapping}"
            for a, b in product(P.elements, P.elements):
                lhs = M.fmap(a, M.fmap(b, f)).then(M.mult_fn(a, b, Y))
                rhs = M.mult_fn(a, b, X).then(M.fmap(P.times(a, b), f))
                yield "mult-natural", (a, b), (X.name, Y.name), lhs, rhs, f"f={f.mapping}"


def ref_morphism_laws(m, k):
    grades = check_pomonoid_morphism(m.phi)
    for r in grades.records:
        yield replace(r, law=f"grades.{r.law}")
    if not grades.ok:
        return
    S, T, phi = m.source, m.target, m.phi
    GP, HP = S.pomonoid, T.pomonoid
    sets = canonical_sets(k)
    for X in sets:
        lhs = S.unit_fn(X).then(m.component_fn(GP.unit, X))
        rhs = T.unit_fn(X).then(T.lift_fn(HP.unit, phi(GP.unit), X))
        yield "unit-square", (GP.unit,), (X.name,), lhs, rhs
    for X, a, b in product(sets, GP.elements, GP.elements):
        ab = GP.times(a, b)
        SbX = S.carrier(b, X)
        lhs = S.mult_fn(a, b, X).then(m.component_fn(ab, X))
        rhs = (m.component_fn(a, SbX)
               .then(T.fmap(phi(a), m.component_fn(b, X)))
               .then(T.mult_fn(phi(a), phi(b), X))
               .then(T.lift_fn(HP.times(phi(a), phi(b)), phi(ab), X)))
        yield "mult-square", (a, b), (X.name,), lhs, rhs
    for X, Y, a in product(sets, sets, GP.elements):
        lhs = S.strength_fn(a, X, Y).then(m.component_fn(a, tensor(X, Y)))
        rhs = tensor_fn(identity_fn(X), m.component_fn(a, Y)).then(T.strength_fn(phi(a), X, Y))
        yield "strength-square", (a,), (X.name, Y.name), lhs, rhs
    for X, (a, b) in product(sets, GP.comparable_pairs()):
        if a != b:
            lhs = S.lift_fn(a, b, X).then(m.component_fn(b, X))
            rhs = m.component_fn(a, X).then(T.lift_fn(phi(a), phi(b), X))
            yield "lift-square", (a, b), (X.name,), lhs, rhs
    for X, Y in product(sets, sets):
        for f, a in product(all_fns(X, Y), GP.elements):
            lhs = S.fmap(a, f).then(m.component_fn(a, Y))
            rhs = m.component_fn(a, X).then(T.fmap(phi(a), f))
            yield "component-natural", (a,), (X.name, Y.name), lhs, rhs, f"f={f.mapping}"


def ref_check_all(M, k):
    return run_suite(f"all-laws({M.name})", chain(
        gm._monad_laws(M, k), ref_order_laws(M, k), ref_strength_laws(M, k),
        ref_costrength_coherence(M, k), ref_naturality(M, k)))


def ref_check_morphism(m, k):
    return run_suite(f"monad-morphism({m.name})", ref_morphism_laws(m, k))


# --- both sides ----------------------------------------------------------------

def assert_same_report(new, ref):
    # the record lists first: a failure names the first differing record,
    # where a diff of two multi-megabyte JSON texts would take minutes
    assert new.records == ref.records
    assert new.to_json() == ref.to_json()


def assert_same_check_all(make, k):
    """check_all and the reference on two fresh monads, byte for byte."""
    new = check_all(make(), k)
    assert_same_report(new, ref_check_all(make(), k))
    return new


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(registry()))
def test_builtins(name, k):
    assert_same_check_all(registry()[name], k)


def test_multi_error_writer_k4():
    assert_same_check_all(multi_error_writer, 4)


def test_centre_monad_through_fmap_fn():
    rep = assert_same_check_all(lambda: build_centre_monad(bool_writer_pair()).monad, 2)
    assert {"strength-natural-left", "mult-natural", "lift-natural"} <= {r.law for r in rep.records}


@pytest.mark.parametrize("k", [2, 3])
def test_discrete_to_topped_morphism(k):
    assert_same_report(check_graded_monad_morphism(discrete_to_topped_morphism(), k),
                       ref_check_morphism(discrete_to_topped_morphism(), k))


PLANTED = {
    "constant-lift": constant_lift_writer,
    "left-unnatural-strength": left_unnatural_strength_writer,
    "right-unnatural-strength": right_unnatural_strength_writer,
    "unnatural-mult": unnatural_mult_writer,
    "unnatural-unit": unnatural_unit_writer,
    "noncompositional-fmap": noncompositional_fmap_monad,
    "swapped-costrength": swapped_costrength_writer,
    "right-swapped-costrength": right_swapped_costrength_writer,
    "swapped-strength": swapped_strength_writer,
    "right-swapped-strength": right_swapped_strength_writer,
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_bugs(name):
    assert not assert_same_check_all(PLANTED[name], 2).ok


def test_planted_unnatural_component():
    new = check_graded_monad_morphism(unnatural_component_morphism(), 2)
    assert not new.ok
    assert_same_report(new, ref_check_morphism(unnatural_component_morphism(), 2))


# the laws whose sides the suites yield as rows
ROW_LAWS = {"lift-natural", "strength-natural-left", "strength-natural-right", "fmap-compose",
            "unit-natural", "mult-natural", "component-natural"}


def row_law_failures(rep):
    return [(r.law, r.grades, r.sets, r.note, r.witness, r.lhs, r.rhs)
            for r in rep.failures() if r.law in ROW_LAWS]


@pytest.mark.parametrize("name", [
    "constant-lift", "left-unnatural-strength", "right-unnatural-strength",
    "noncompositional-fmap", "swapped-strength", "right-swapped-strength", "unnatural-mult",
    "unnatural-unit"])
def test_planted_faults_in_the_row_laws(name):
    """A fault that lands in a row law fails it at the same instances, with the
    same witness and values, as the maps of the reference do."""
    new = row_law_failures(check_all(PLANTED[name](), 2))
    assert new and new == row_law_failures(ref_check_all(PLANTED[name](), 2))


def test_planted_component_fault_in_the_row_laws():
    new = row_law_failures(check_graded_monad_morphism(unnatural_component_morphism(), 2))
    ref = row_law_failures(ref_check_morphism(unnatural_component_morphism(), 2))
    assert new and new == ref


def test_no_row_law_instance_builds_a_side(monkeypatch):
    """With every component and fmap image memoised, an instance of a row law
    builds no map: the map builders are charged, as perfbench charges time,
    to the instance whose comparison follows them.  fmap-compose builds the
    one map f;g that it hands to fmap."""
    M = bool_writer_pair()
    morphism = identity_graded_morphism(bool_writer_pair())
    check_all(M, 3)
    check_graded_monad_morphism(morphism, 3)
    built = [0]

    def counted(fn):
        def wrapper(*args):
            built[0] += 1
            return fn(*args)
        return wrapper

    # every builder of a map, by the names graded_monad and finkit call it by
    for module, name in product((gm, finkit), ("seq", "tensor_then", "alpha_then",
                                               "alpha_inv_then", "tensor_fn", "gamma", "lam",
                                               "rho")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    charged = collections.defaultdict(list)   # law -> maps built per instance
    add, compare = Report.add, Report.compare

    def charge(law):
        charged[law].append(built[0])
        built[0] = 0

    monkeypatch.setattr(Report, "add", lambda rep, rec: (add(rep, rec), charge(rec.law))[0])
    monkeypatch.setattr(Report, "compare",
                        lambda rep, law, *args: (compare(rep, law, *args), charge(law))[0])
    assert check_all(M, 3).ok and check_graded_monad_morphism(morphism, 3).ok
    assert set(charged) >= ROW_LAWS
    for law in ROW_LAWS - {"fmap-compose"}:
        assert set(charged[law]) == {0}, law
    assert set(charged["fmap-compose"]) == {1}
    # the laws whose sides are still maps are charged theirs
    assert min(charged["strength-assoc"]) >= 2 and min(charged["assoc"]) >= 2

    # duoidal-main and m-natural give one record per grade tuple, and none of
    # their instances builds a map either
    DM = build_language_writer("ab", 2, language_duoid("ab", 2))
    check_duoidal_gradation(DM, 2)
    for name in ("seq", "tensor_then", "tensor_fn"):
        monkeypatch.setattr(relaxations, name, counted(getattr(relaxations, name)))
    charged.clear()
    built[0] = 0
    assert check_duoidal_gradation(DM, 2).ok
    assert charged["duoidal-main"] and set(charged["duoidal-main"]) == {0}
    # m-natural's first record is charged the f (x) g maps it hands to fmap,
    # built once per suite before its first grade pair
    natural = charged["m-natural"]
    assert natural[0] > 0 and natural[1:] and set(natural[1:]) == {0}


# --- Report.compare on rows against a token scan of maps --------------------------

leaves = st.text(alphabet="ab*", min_size=1, max_size=2)
plain_sets = st.builds(lambda name, elems: FinSet(name, elems),
                       st.sampled_from(["A", "B", "Y0"]), st.frozensets(leaves, max_size=3))
# products with a factor that prefixes another's tokens sort off row-major order
compare_sets = st.one_of(plain_sets, st.builds(tensor, plain_sets, plain_sets))


@st.composite
def row_pairs(draw):
    """A domain, a codomain and two rows over them; the second row equals the
    first but at a few drawn places."""
    dom, cod = draw(compare_sets), draw(compare_sets)
    if not cod:
        dom = draw(st.sampled_from([FinSet("E", ()), tensor(cod, dom)]))
    row = st.integers(0, len(cod) - 1) if cod else st.nothing()
    lhs = draw(st.lists(row, min_size=len(dom), max_size=len(dom)))
    rhs = list(lhs)
    for i in draw(st.lists(st.integers(0, len(dom) - 1), max_size=3) if dom else st.just([])):
        rhs[i] = draw(row)
    return dom, cod, tuple(lhs), tuple(rhs)


@settings(max_examples=300, deadline=None)
@given(row_pairs(), st.sampled_from(["", "f={}"]))
def test_compare_on_rows_is_first_mismatch_on_maps(sides, note):
    dom, cod, lhs, rhs = sides
    f, g = FinFn._table(dom, cod, lhs), FinFn._table(dom, cod, rhs)
    tok = next((t for t in sorted(dom) if f(t) != g(t)), None)
    expected = (LawRecord("law", ("a",), (dom.name,), note=note) if tok is None else
                LawRecord("law", ("a",), (dom.name,), False, tok, f(tok), g(tok), note))
    rows, maps = Report("rows"), Report("maps")
    rows.compare("law", ("a",), (dom.name,), dom, cod, lhs, rhs, note)
    maps.compare("law", ("a",), (dom.name,), f, g, note)
    assert rows.records == maps.records == [expected]


# --- first builds --------------------------------------------------------------

class FirstBuilds(dict):
    """A component memo that logs each component other than a carrier as it is
    first built: the key's grades and tables (not the sets it names, which a
    memo may key by set or by vid) and ``repr`` of the map's domain and
    codomain."""

    def __init__(self):
        super().__init__()
        self.log = []

    def __setitem__(self, key, value):
        if key[0] != "carrier":
            parts = tuple(p for p in key if isinstance(p, (str, tuple)))
            self.log.append((parts, repr(value.dom), repr(value.cod)))
        super().__setitem__(key, value)


# (entries, SHA-256 of the log), recorded on the composite loops at k=3
FETCH_ORDER = {
    ("check_all", "multi_error_writer_topped"):
        (4260, "948f2096183a512af93070133caff047ca0fb959390b201d14adfbb7b1bd6344"),
    ("check_all", "bool_writer_pair"):
        (1996, "d69407c3e3b60d1d1ae2ee98afb88c9aa1edc9416c2a6efd79c012eddc48d520"),
    ("check_order_laws", "multi_error_writer_topped"):
        (384, "a38accea547c694baed7859927c68b8261e7de1f2dfec8d1913a5504c1e9d0ad"),
    ("check_order_laws", "bool_writer_pair"):
        (158, "b13e5e362eb7ced1548814de541c1ff978c479abfc8ca6edb2b6f9f98df4eeba"),
    ("check_strength_laws", "multi_error_writer_topped"):
        (2984, "21f1a061ebcd62b5579ec6dfc3d15331dbb0a1b4c30afe27dfbd4ab0c8e1cf94"),
    ("check_strength_laws", "bool_writer_pair"):
        (1424, "ab9573ab9f37d3c3bb50e042d9cabd859a887b6b40a37ba042c760261aad2d7d"),
    ("check_naturality", "multi_error_writer_topped"):
        (784, "ad3bb92cb731783df5e4acdb016f91b5e5655f8f0b707aea31c5c560b3190707"),
    ("check_naturality", "bool_writer_pair"):
        (376, "59d583be7412f87777b07d468d414428c1327291549dfab583716e41ba1bcb69"),
    ("check_costrength_coherence", "multi_error_writer_topped"):
        (1769, "eca80a6287be267ed8f4b48b0d2bc4750541607c3ef8124a938a242a094a2776"),
    ("check_costrength_coherence", "bool_writer_pair"):
        (793, "479d0c2da95b0a6ab5ef82e99345caae9a1b6ed4c8edf843fcb983cd06996f86"),
}


# The same logs with the built-ins' own costrengths, which build no strength or
# fmap image to derive one; the suites that fetch no costrength log as above.
KERNEL_FETCH_ORDER = {
    ("check_all", "multi_error_writer_topped"):
        (3956, "55ca9ce208ea58068e315b9893026437548f6e14eea6809004d1440dd54bbf32"),
    ("check_all", "bool_writer_pair"):
        (1850, "fe02f92bf0e4418741fc9cde972f74230d0d3b96ad238d3a725ae4aee2e0a410"),
    ("check_strength_laws", "multi_error_writer_topped"):
        (2848, "40ac27c91aa0f0b3d3feb3bca97f78d319f59b16a85470f9a45830c4a9b8dc39"),
    ("check_strength_laws", "bool_writer_pair"):
        (1356, "15484f004c7542273ded4a8817d46657bfe82780455bc0d06c5150a1a1ca5f9a"),
    ("check_costrength_coherence", "multi_error_writer_topped"):
        (1045, "a1ca93622237698b503ea2dde0b398d2cc23c47ba6acd79614560a956cc1d3a9"),
    ("check_costrength_coherence", "bool_writer_pair"):
        (445, "a8a7d56826a0f1090b4eccec2e23adfc0177c084f3bbb2279fa0938abfab8cf4"),
}


def first_builds(suite, name, derived):
    """(entries, SHA-256) of the log of suite on the built-in name at k=3,
    with its costrength derived from the strength when ``derived``."""
    M = registry()[name]()
    if derived:
        M.costrength = None
    M._memo = FirstBuilds()
    getattr(gm, suite)(M, 3)
    log = "\n".join(map(repr, M._memo.log))
    return len(M._memo.log), hashlib.sha256(log.encode()).hexdigest()


@pytest.mark.parametrize("suite, name", sorted(FETCH_ORDER))
def test_components_are_first_built_in_the_same_order(suite, name):
    # the derived costrength, as the composite loops had it
    assert first_builds(suite, name, derived=True) == FETCH_ORDER[suite, name]


@pytest.mark.parametrize("suite, name", sorted(FETCH_ORDER))
def test_components_are_first_built_in_order_with_a_given_costrength(suite, name):
    expected = KERNEL_FETCH_ORDER.get((suite, name), FETCH_ORDER[suite, name])
    assert first_builds(suite, name, derived=False) == expected


# the suite frames that build law sides; the duoidal suite's are its generator
# and the functions it checks one instance with
SIDE_FRAMES = ("_monad_laws", "_order_laws", "_strength_laws", "_costrength_coherence",
               "_naturality", "_morphism_laws", "_duoidal_laws", "main_failure",
               "assoc_failure", "natural_failure")


def test_no_composite_is_built_by_the_strength_suites(monkeypatch):
    calls = collections.Counter()   # (calling function, called builder)

    def counted(fn, name):
        def wrapper(*args):
            calls[sys._getframe(1).f_code.co_name, name] += 1
            return fn(*args)
        return wrapper

    for module in (gm, relaxations):
        for name in ("tensor_fn", "alpha", "alpha_inv"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    monkeypatch.setattr(FinFn, "then", counted(FinFn.then, "then"))
    assert check_all(multi_error_writer(), 4).ok
    # at most one associator per set triple and law: 5**3 at k=4
    mine = {key: n for key, n in calls.items()
            if key[0] in ("_strength_laws", "_costrength_coherence")}
    assert mine and all(n <= 125 for n in mine.values())
    # the order laws and the lift-square need a grading that is not discrete
    assert check_all(bool_writer_pair(), 2).ok
    assert check_graded_monad_morphism(identity_graded_morphism(bool_writer_pair()), 3).ok
    DM = build_language_writer("ab", 2, language_duoid("ab", 2))
    assert check_duoidal_gradation(DM, 2).ok
    assert calls["_strength_laws", "alpha"]   # the counters see the calls
    # no law side is built with then or tensor_fn; m-natural's f (x) g maps,
    # built once per suite in _duoidal_laws, are only handed to fmap
    assert not [key for key in calls if key[0] in SIDE_FRAMES and (
        key[1] == "then" or key[1] == "tensor_fn" and key[0] != "_duoidal_laws")]
