"""The duoidal suite against a reference that builds every composite.

``reference_check_duoidal_gradation`` is the materialising form of
``check_duoidal_gradation``: both sides of every diagram are composed into
``FinFn`` tables with ``then``/``tensor_fn``/``alpha`` and scanned in sorted
domain order.  The suite reads the sides of duoidal-main, m-assoc and
m-natural off index tables and product grids as rows, building no map per
instance; its reports must be byte for byte the same, also where a witness
domain's tokens sort off row-major order.  The reference draws its
grade tuples with its own samplers, ``_quadruples`` and ``_triples``, which
``_grade_tuples`` must reproduce draw for draw.
"""

import random

import pytest

from centrekit.centre import build_centre_monad
from centrekit.finkit import (
    Const,
    FinFn,
    FinSet,
    Id,
    alpha,
    all_fns,
    canonical_set,
    identity_fn,
    lam,
    lam_inv,
    make_pair,
    rho,
    rho_inv,
    split_pair,
    tensor,
    tensor_fn,
    unit_set,
)
from centrekit.graded_monad import (
    GradedStrongMonad,
    bool_writer_pair,
    canonical_sets,
    check_all,
    check_commutative,
    registry,
)
from centrekit.pomonoid import validate_pomonoid
from centrekit.relaxations import (
    DuoidalGradedMonad,
    _grade_tuples,
    build_language_writer,
    check_duoidal_gradation,
    derive_monoidal_m,
    language_duoid,
)
from centrekit.report import LawRecord, Report
from test_report import report_from_json


def _quadruples(elements, budget, seed):
    n = len(elements)
    if n ** 4 <= budget:
        return [(a, b, c, d) for a in elements for b in elements
                for c in elements for d in elements]
    rng = random.Random(seed)
    quads = set()
    i = elements[0]
    for a in elements:
        for b in elements:
            quads.add((i, a, b, i))
    while len(quads) < budget:
        quads.add(tuple(rng.choice(elements) for _ in range(4)))
    return sorted(quads)


def _triples(elements, budget, seed):
    n = len(elements)
    if n ** 3 <= budget:
        return [(a, b, c) for a in elements for b in elements for c in elements]
    rng = random.Random(seed)
    triples = set()
    while len(triples) < budget:
        triples.add(tuple(rng.choice(elements) for _ in range(3)))
    return sorted(triples)


def reference_check_duoidal_gradation(DM, k=2, budget=300, seed=2026):
    M, D = DM.monad, DM.duoid
    P = M.pomonoid
    rep = Report(title=f"duoidal gradation for {DM.name or M.name or 'monad'}")
    sets = canonical_sets(k)

    def transported_pair(g_from, g_to, fn, XY):
        if g_from == g_to:
            return fn, True
        if P.le(g_from, g_to):
            return fn.then(M.lift_fn(g_from, g_to, XY)), True
        if M.carrier(g_from, XY) == M.carrier(g_to, XY):
            return fn, True
        return fn, False

    def scan(lhs, rhs, eq):
        return next((t for t in sorted(lhs.dom) if not eq(lhs(t), rhs(t))), None)

    def same(l, r):
        return l == r

    for (a, b, c, d) in _quadruples(P.elements, budget, seed):
        g_par_first = P.times(D.par_of(a, c), D.par_of(b, d))
        g_mul_first = D.par_of(P.times(a, b), P.times(c, d))
        ok, witness, note = True, "", ""
        for X in sets:
            for Y in sets:
                XY = tensor(X, Y)
                inner = DM.m_fn(b, d, X, Y)
                outer = DM.m_fn(a, c, M.carrier(b, X), M.carrier(d, Y))
                par_first = outer.then(M.fmap(D.par_of(a, c), inner)).then(
                    M.mult_fn(D.par_of(a, c), D.par_of(b, d), XY))
                mul_first = tensor_fn(M.mult_fn(a, b, X), M.mult_fn(c, d, Y)).then(
                    DM.m_fn(P.times(a, b), P.times(c, d), X, Y))
                par_first, typed = transported_pair(g_par_first, g_mul_first, par_first, XY)
                if not typed:
                    ok, note = False, "delta-unrelated"
                    break
                t = scan(par_first, mul_first, DM.elements_equal)
                if t is not None:
                    ok, witness = False, t
                    break
            if not ok:
                break
        rep.add(LawRecord(law="duoidal-main", grades=(a, b, c, d), ok=ok,
                          witness=witness, note=note))

    i = P.unit
    g_ii = D.par_of(i, i)
    for X in sets:
        for Y in sets:
            XY = tensor(X, Y)
            both_units = tensor_fn(M.unit_fn(X), M.unit_fn(Y)).then(DM.m_fn(i, i, X, Y))
            unit_path, typed = (M.unit_fn(XY), True) if g_ii == i else (
                (M.unit_fn(XY).then(M.lift_fn(i, g_ii, XY)), True)
                if P.le(i, g_ii) else (M.unit_fn(XY), False))
            if not typed:
                rep.add(LawRecord(law="m-unit", grades=(i,), sets=(X.name, Y.name),
                                  ok=False, note="unit-grade-unrelated"))
                continue
            rep.compare("m-unit", (i,), (X.name, Y.name), both_units, unit_path)

    for (a, b, c) in _triples(P.elements, budget, seed):
        witness = None
        for X in sets:
            for Y in sets:
                for Z in sets:
                    TX, TY, TZ = M.carrier(a, X), M.carrier(b, Y), M.carrier(c, Z)
                    lhs = alpha(TX, TY, TZ).then(
                        tensor_fn(identity_fn(TX), DM.m_fn(b, c, Y, Z))).then(
                        DM.m_fn(a, D.par_of(b, c), X, tensor(Y, Z)))
                    rhs = tensor_fn(DM.m_fn(a, b, X, Y), identity_fn(TZ)).then(
                        DM.m_fn(D.par_of(a, b), c, tensor(X, Y), Z)).then(
                        M.fmap(D.par_of(D.par_of(a, b), c), alpha(X, Y, Z)))
                    witness = scan(lhs, rhs, same)
                    if witness is not None:
                        break
                if witness is not None:
                    break
            if witness is not None:
                break
        rep.add(LawRecord(law="m-assoc", grades=(a, b, c), ok=witness is None,
                          witness=witness or ""))

    I = unit_set()
    for a in P.elements:
        left_grade = D.par_of(i, a)
        right_grade = D.par_of(a, i)
        for X in sets:
            TX = M.carrier(a, X)
            if left_grade == a:
                via_m = tensor_fn(M.unit_fn(I), identity_fn(TX)).then(DM.m_fn(i, a, I, X))
                direct = lam(TX).then(M.fmap(a, lam_inv(X)))
                rep.compare("m-unitor-left", (a,), (X.name,), via_m, direct)
            else:
                rep.add(LawRecord(law="m-unitor-left", grades=(a,), ok=True,
                                  note="skipped: i||a differs from a"))
            if right_grade == a:
                via_m = tensor_fn(identity_fn(TX), M.unit_fn(I)).then(DM.m_fn(a, i, X, I))
                direct = rho(TX).then(M.fmap(a, rho_inv(X)))
                rep.compare("m-unitor-right", (a,), (X.name,), via_m, direct)
            else:
                rep.add(LawRecord(law="m-unitor-right", grades=(a,), ok=True,
                                  note="skipped: a||i differs from a"))

    small = [canonical_set(n) for n in range(min(k, 2) + 1)]
    pairs = [(a, b) for a in P.elements for b in P.elements]
    if len(pairs) > 36:
        rng = random.Random(seed)
        pairs = sorted(set(tuple(rng.choice(P.elements) for _ in range(2))
                           for _ in range(36)))
    for (a, b) in pairs:
        witness = None
        instances = ((f, g) for X in small for X2 in small for Y in small for Y2 in small
                     for f in all_fns(X, X2) for g in all_fns(Y, Y2))
        for f, g in instances:
            lhs = tensor_fn(M.fmap(a, f), M.fmap(b, g)).then(DM.m_fn(a, b, f.cod, g.cod))
            rhs = DM.m_fn(a, b, f.dom, g.dom).then(
                M.fmap(D.par_of(a, b), tensor_fn(f, g)))
            witness = scan(lhs, rhs, same)
            if witness is not None:
                break
        rep.add(LawRecord(law="m-natural", grades=(a, b), ok=witness is None,
                          witness=witness or ""))
    return rep


@pytest.mark.parametrize("n", range(1, 24))
def test_grade_tuples_draw_as_the_reference_samplers(n):
    elements = tuple(f"g{i:02d}" for i in range(n))
    for budget in (1, 9, 36, 300, 529, 10**9):
        for seed in (2026, 7):
            assert _grade_tuples(elements, 4, budget, seed, elements[0]) == \
                _quadruples(elements, budget, seed)
            assert _grade_tuples(elements, 3, budget, seed) == _triples(elements, budget, seed)


def test_grade_tuples_on_lang_ab3_where_the_corners_fill_the_budget():
    elements = language_duoid("ab", 3).base.elements
    assert len(elements) ** 2 == 529
    quads = _grade_tuples(elements, 4, 300, 2026, elements[0])
    assert quads == _quadruples(elements, 300, 2026) and len(quads) == 529
    assert _grade_tuples(elements, 3, 300, 2026) == _triples(elements, 300, 2026)


def same_reports(DM, k, **kw):
    new = check_duoidal_gradation(DM, k, **kw).to_json()
    ref = reference_check_duoidal_gradation(DM, k, **kw).to_json()
    assert new == ref
    return report_from_json(new)


LANG = language_duoid("ab", 2)


def language_writer():
    return build_language_writer("ab", 2, LANG)


def test_language_writer_k1():
    assert same_reports(language_writer(), 1, budget=40).ok


def test_language_writer_k2():
    assert same_reports(language_writer(), 2).ok


def test_dropping_m():
    good = language_writer()

    def dropping(a, b, X, Y):
        fn = good.m(a, b, X, Y)
        return FinFn(fn.dom, fn.cod, {t: make_pair(split_pair(fn(t))[0], "{}") for t in fn.dom})

    bad = DuoidalGradedMonad(monad=good.monad, duoid=good.duoid, m=dropping)
    rep = same_reports(bad, 1, budget=40)
    assert {"m-unit", "m-unitor-left"} <= {r.law for r in rep.failures()}


def test_one_corrupted_entry():
    good = language_writer()

    def corrupted(a, b, X, Y):
        # m({a},{b}) sends its greatest element to a wrong pair of values
        fn = good.m(a, b, X, Y)
        XY = tensor(X, Y)
        if (a, b) != ("{a}", "{b}") or len(XY) < 2 or len(fn.dom) == 0:
            return fn
        t = max(fn.dom)
        value, ann = split_pair(fn(t))
        mapping = dict(fn.mapping)
        mapping[t] = make_pair(min(v for v in XY if v != value), ann)
        return FinFn(fn.dom, fn.cod, mapping)

    bad = DuoidalGradedMonad(monad=good.monad, duoid=good.duoid, m=corrupted,
                             element_leq=good.element_leq, name="corrupted")
    rep = same_reports(bad, 2, budget=40)
    witnessed = {r.law for r in rep.failures() if r.witness}
    assert witnessed == {"m-assoc", "m-natural", "duoidal-main"}


COMMUTATIVE = [name for name, build in registry().items()
               if name != "language_writer" and check_commutative(build(), 2).ok]
# centres of the language writer take seconds to build, so they are left out
CENTRES = [name for name in registry() if name != "language_writer"]


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_derived_m_on_commutative_builtin(name):
    DM, rep = derive_monoidal_m(registry()[name](), 2)
    assert rep.to_json() == reference_check_duoidal_gradation(DM, 2).to_json()


@pytest.mark.parametrize("name", CENTRES)
def test_derived_m_on_centre_of_builtin(name):
    DM, rep = derive_monoidal_m(build_centre_monad(registry()[name]()).monad, 2)
    assert rep.to_json() == reference_check_duoidal_gradation(DM, 2).to_json()


def planted_m(good, key, token=None):
    """good's interchange map, but m(key) sends one element (token, or its
    least) to another value, the least other one."""
    def m(a, b, X, Y):
        fn = good.m(a, b, X, Y)
        if (a, b, X.name, Y.name) != key:
            return fn
        t = token or min(fn.dom)
        return FinFn(fn.dom, fn.cod, {**fn.mapping, t: min(v for v in fn.cod if v != fn(t))})

    return DuoidalGradedMonad(monad=good.monad, duoid=good.duoid, m=m, name="planted")


def test_planted_m_entry_over_carriers_off_row_major():
    """Z/3 with elements u, b and b(c): "b)" sorts after "b(c))", so every
    carrier X (x) W of the bool writer pair, annotations on the right, lists
    its tokens off token order, and so do the products built over them."""
    els = ("u", "b", "b(c)")
    Z3 = validate_pomonoid(els, "u", {(x, y): els[(els.index(x) + els.index(y)) % 3]
                                      for x in els for y in els}, name="Z3")
    good, _ = derive_monoidal_m(bool_writer_pair(Z3), 2)
    carrier = good.monad.carrier("ff", canonical_set(1))
    assert carrier.elems == ("(y0,b)", "(y0,b(c))", "(y0,u)") != tuple(sorted(carrier))
    rep = same_reports(planted_m(good, ("tt", "ff", "Y1", "Y2")), 2)
    witnessed = {r.law for r in rep.failures() if r.witness}
    assert witnessed == {"m-assoc", "m-natural", "duoidal-main"}


def constant_error_monad():
    """Grades t and an absorbing e: T^t X = X, and T^e X = W, a constant set
    whose tokens b and b(c) put W (x) W off row-major order.  mult(e, e)
    collapses W to b and the strength at e forgets X, so the monad is
    commutative."""
    P = validate_pomonoid(("t", "e"), "t", {("t", "t"): "t", ("t", "e"): "e",
                                            ("e", "t"): "e", ("e", "e"): "e"}, name="TE")
    W = FinSet("W", ("b", "b(c)"))
    exprs = {"t": Id(), "e": Const(W)}

    def mult(a, b, X):
        if a == b == "e":
            return FinFn(W, W, {w: "b" for w in W})
        return identity_fn(W if "e" in (a, b) else X)

    def strength(a, X, Y):
        if a == "t":
            return identity_fn(tensor(X, Y))
        XW = tensor(X, W)
        return FinFn(XW, W, {make_pair(x, w): w for x in X for w in W})

    return GradedStrongMonad(pomonoid=P, functor=exprs.__getitem__, unit=identity_fn,
                             mult=mult, strength=strength, name="constant_error")


def test_planted_m_entry_over_witness_domains_off_row_major():
    """W (x) W lists (b(c),b(c)) first and (b,b) last, the reverse of pair
    order.  With m(e, e) on Y1 wrong at (b,b), every element of the
    duoidal-main instance at (e, e, e, e) fails, and the witness is the first
    in token order."""
    M = constant_error_monad()
    assert check_all(M, 2).ok
    good, rep = derive_monoidal_m(M, 2)
    assert rep.ok
    rep = same_reports(planted_m(good, ("e", "e", "Y1", "Y1"), "(b,b)"), 2)
    witnesses = {(r.law, r.grades): r.witness for r in rep.failures()}
    assert witnesses["duoidal-main", ("e", "e", "e", "e")] == "(b(c),b(c))"
    assert {law for law, _ in witnesses} == {"m-assoc", "m-natural", "duoidal-main"}
