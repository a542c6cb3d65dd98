"""The commutation scans against the token-level scans they replaced.

check_commutative, commuting_pair, central_subset/is_central,
check_central_cone and bimonoidal_centre_at all read the composites of one
kernel, ``graded_monad.commute_sides``, on the sets of one sizing rule,
``graded_monad.scan_sets``.  The reference scans below are the
token-level ones that came before: they build the two sequencing composites
with ``commute_maps`` and apply them to ``make_pair(t, s)`` token by token.
They are kept as they were, except that the bimonoid is read through the
``Duoid`` API (``par_of``), the reference central subset is not memoised,
the centre's scans take their test sets from ``scan_sets``, and the scans
that name an element walk its set sorted: they were written
when a set iterated in token order, and a product now iterates in pair
order.
Both sides must give the same reports byte for byte, the same verdicts and
subsets, and the same exceptions.
"""

import dataclasses
import hashlib
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrekit import graded_monad
from centrekit.centre import (
    CentralCone,
    CentralityViolation,
    CentreError,
    ElementNotInCarrier,
    _central_grades,
    _require_central_grade,
    build_centre_monad,
    central_subset,
    check_central_cone,
    factor_through,
    graded_centre_at,
    is_central,
)
from centrekit.finkit import (
    FinFn,
    FinSet,
    all_fns,
    canonical_set,
    degree,
    make_pair,
    split_pair,
    tensor,
)
from centrekit.graded_monad import (
    bool_writer_pair,
    canonical_sets,
    check_commutative,
    commutation_witness,
    commute_maps,
    commuting_pair,
    identity_monad,
    multi_error_writer,
    registry,
    scan_sets,
)
from centrekit.pomonoid import (
    Duoid,
    bool_pomonoid,
    multi_error_pomonoid,
    structurally_equal,
    validate_pomonoid,
)
from centrekit.relaxations import BimonoidMismatch, bimonoidal_centre_at
from centrekit.report import LawRecord, Report
from test_pomonoid import bimonoid_from_absorbing_top


# --- the token-level scans -----------------------------------------------------

def first_mismatch(lhs, rhs):
    """The least domain token at which two maps disagree, or None; their
    domains and codomains must agree."""
    assert lhs.dom == rhs.dom and lhs.cod == rhs.cod
    return next((t for t in sorted(lhs.dom) if lhs(t) != rhs(t)), None)


def ref_check_commutative(M, k=3):
    rep = Report(f"commutative({M.name})")
    P = M.pomonoid
    sets = canonical_sets(k)
    for a in P.elements:
        for b in P.elements:
            rec = LawRecord(law="commute", grades=(a, b))
            for X in sets:
                for Y in sets:
                    XY = tensor(X, Y)
                    Cab = M.carrier(P.times(a, b), XY)
                    Cba = M.carrier(P.times(b, a), XY)
                    if Cab != Cba:
                        rec.ok = False
                        rec.note = "carrier-mismatch"
                        rec.sets = (X.name, Y.name)
                        only = sorted(set(Cab.elems) ^ set(Cba.elems))
                        rec.witness = only[0] if only else None
                        break
                    left, right = commute_maps(M, a, b, X, Y)
                    t = first_mismatch(left, right)
                    if t is not None:
                        rec.ok = False
                        rec.note = "value-mismatch"
                        rec.sets = (X.name, Y.name)
                        rec.witness = t
                        rec.lhs = left(t)
                        rec.rhs = right(t)
                        break
                if not rec.ok:
                    break
            rep.add(rec)
    return rep


def ref_commuting_pair(M, a, b, k=3):
    P = M.pomonoid
    for X in canonical_sets(k):
        for Y in canonical_sets(k):
            XY = tensor(X, Y)
            if M.carrier(P.times(a, b), XY) != M.carrier(P.times(b, a), XY):
                return False
            left, right = commute_maps(M, a, b, X, Y)
            if left != right:
                return False
    return True


def ref_commuting(M, z, X, candidates, bound=None):
    survivors = list(candidates)
    sizes = {b: scan_sets(M, b, bound=bound) for b in M.pomonoid.elements}
    for b in M.pomonoid.elements:
        if not survivors:
            break
        for Y in sizes[b]:
            if not survivors:
                break
            TbY = M.carrier(b, Y)
            if len(TbY) == 0:
                continue
            left, right = commute_maps(M, z, b, X, Y)
            survivors = [t for t in survivors
                         if all(left(p) == right(p) for p in (make_pair(t, s) for s in TbY))]
    return survivors


def ref_is_central(M, z, X, t, bound=None):
    _require_central_grade(M, z)
    if t not in M.carrier(z, X):
        raise ElementNotInCarrier(f"{t} is not in the carrier at ({z}, {X.name})")
    return bool(ref_commuting(M, z, X, (t,), bound))


def ref_central_subset(M, z, X, bound=None):
    _require_central_grade(M, z)
    return FinSet(f"Z^{z}({X.name})", tuple(ref_commuting(M, z, X, M.carrier(z, X), bound)))


def ref_check_central_cone(M, cone, bound=None, closure_lemmas=False):
    _require_central_grade(M, z := cone.grade)
    X = cone.base
    if cone.leg.cod != M.carrier(z, X):
        raise CentreError("leg codomain is not the carrier at the cone's grade")
    rep = Report(title=f"central cone ({z}, {X.name})")
    for b in M.pomonoid.elements:
        ok, witness = True, ""
        for Y in scan_sets(M, b, bound=bound):
            TbY = M.carrier(b, Y)
            if len(TbY) == 0:
                continue
            left, right = commute_maps(M, z, b, X, Y)
            for p in sorted(cone.apex):
                for s in sorted(TbY):
                    pair = make_pair(cone.leg(p), s)
                    if left(pair) != right(pair):
                        ok, witness = False, f"apex {p} vs {s} in T^{b} {Y.name}"
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add(LawRecord(law="cone-eq", grades=(z, b), sets=(X.name,), ok=ok,
                          witness=witness))
    if not closure_lemmas:
        return rep
    base_ok = rep.ok
    for n in range(3):
        W = canonical_set(n)
        ok = True
        for g in all_fns(W, cone.apex):
            pre = CentralCone(grade=z, base=X, apex=W, leg=g.then(cone.leg))
            if base_ok and not ref_check_central_cone(M, pre, bound).ok:
                ok = False
                break
        rep.add(LawRecord(law="cone-precompose", grades=(z,), sets=(W.name, X.name),
                          ok=ok))
    for n in range(3):
        X2 = canonical_set(n)
        ok = True
        for h in all_fns(X, X2):
            post = CentralCone(grade=z, base=X2, apex=cone.apex,
                               leg=cone.leg.then(M.fmap(z, h)))
            if base_ok and not ref_check_central_cone(M, post, bound).ok:
                ok = False
                break
        rep.add(LawRecord(law="cone-postcompose", grades=(z,), sets=(X.name, X2.name),
                          ok=ok))
    return rep


def ref_bimonoidal_centre_at(M, B, a, X, bound=None):
    if not structurally_equal(B.base, M.pomonoid):
        raise BimonoidMismatch("bimonoid is not over this monad's grading")
    P = M.pomonoid
    survivors = list(M.carrier(a, X))
    for b in P.elements:
        ab, ba, top = P.times(a, b), P.times(b, a), B.par_of(a, b)
        if not (P.le(ab, top) and P.le(ba, top)):
            raise BimonoidMismatch(
                f"{ab} or {ba} is not below {top}; the relaxed product does not dominate")
    for b in P.elements:
        ab, ba, top = P.times(a, b), P.times(b, a), B.par_of(a, b)
        for Y in scan_sets(M, b, bound=bound):
            TbY = M.carrier(b, Y)
            if len(TbY) == 0:
                continue
            XY = tensor(X, Y)
            left, right = commute_maps(M, a, b, X, Y)
            left = left.then(M.lift_fn(ab, top, XY))
            right = right.then(M.lift_fn(ba, top, XY))
            for t in list(survivors):
                for s in TbY:
                    p = make_pair(t, s)
                    if left(p) != right(p):
                        survivors.remove(t)
                        break
    apex = FinSet(f"ZB^{a}({X.name})", tuple(survivors))
    leg = FinFn(apex, M.carrier(a, X), {t: t for t in apex})
    return CentralCone(grade=a, base=X, apex=apex, leg=leg)


# --- comparing outcomes -----------------------------------------------------------

def outcome(fn, *args, **kwargs):
    """What a call returned, made comparable, or the exception it raised."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:   # the exception is the outcome
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, Report):
        return ("report", value.to_json())
    if isinstance(value, FinSet):
        return ("set", value.name, value.elems)
    if isinstance(value, CentralCone):
        leg = value.leg
        return ("cone", value.grade, value.base.name, value.apex.name, value.apex.elems,
                leg.dom.elems, leg.cod.name, leg.idx)
    return ("value", value)


def agree(make, new, ref, *args, **kwargs):
    """new and ref, each on a fresh monad from make(), give the same outcome."""
    got = outcome(new, make(), *args, **kwargs)
    assert got == outcome(ref, make(), *args, **kwargs)
    return got


def check_commutation(make, k):
    agree(make, check_commutative, ref_check_commutative, k)
    M = make()
    for a in M.pomonoid.elements:
        for b in M.pomonoid.elements:
            agree(make, commuting_pair, ref_commuting_pair, a, b, k)


def check_centre(make, sets, bound=None):
    M = make()
    for z in M.pomonoid.elements:
        for X in sets:
            got = agree(make, central_subset, ref_central_subset, z, X, bound)
            if got[0] == "raised":
                continue
            for t in M.carrier(z, X):
                agree(make, is_central, ref_is_central, z, X, t, bound)


def check_cones(make, sets, sizes=(1, 2), bound=None, closure_lemmas=False):
    """Every cone whose apex has one or two points, over every central grade."""
    M = make()
    for z in sorted(_central_grades(M)):
        for X in sets:
            TzX = M.carrier(z, X)
            for n in sizes:
                W = canonical_set(n)
                for leg in all_fns(W, TzX):
                    cone = CentralCone(grade=z, base=X, apex=W, leg=leg)
                    agree(make, check_central_cone, ref_check_central_cone, cone, bound,
                          closure_lemmas=closure_lemmas)


def check_bimonoidal(make, D, sets, bound=None):
    M = make()
    for a in M.pomonoid.elements:
        for X in sets:
            agree(make, bimonoidal_centre_at, ref_bimonoidal_centre_at, D, a, X, bound)


def times_as_par(P):
    return Duoid(base=P, par={(x, y): P.times(x, y) for x in P.elements for y in P.elements},
                 unit2=P.unit)


# --- built-ins ----------------------------------------------------------------------

BUILTINS = registry()
SMALL = [name for name in BUILTINS if name != "language_writer"]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_commutativity_on_builtins(name):
    # the scans stop at the grades' degree, 1 for every built-in, and the
    # reference scans every set up to k
    for k in range(3 if name == "language_writer" else 4):
        check_commutation(BUILTINS[name], k)


def scanned_sizes(monkeypatch, scan, M, *args):
    """(built, compared): the (|X|, |Y|) of every pair of sets whose composites
    ``scan`` builds over M, and of every pair at which it runs the commutation
    kernel ``commute_sides`` over M, where the target carriers are compared,
    leaving out those a centre monad's carriers build over its parent."""
    built, compared = [], []

    def building(N, a, b, X, Y, orig=graded_monad.commute_maps):
        if N is M:
            built.append((len(X), len(Y)))
        return orig(N, a, b, X, Y)

    def comparing(X, Y, orig=graded_monad.tensor):
        # the kernel builds X (x) Y once per pair, before it compares carriers
        caller = sys._getframe(1)
        if caller.f_code is graded_monad.commute_sides.__code__ and caller.f_locals["M"] is M:
            compared.append((len(X), len(Y)))
        return orig(X, Y)

    monkeypatch.setattr(graded_monad, "commute_maps", building)
    monkeypatch.setattr(graded_monad, "tensor", comparing)
    scan(M, *args)
    monkeypatch.undo()
    return sorted(set(built)), sorted(set(compared))


def test_the_scans_stop_at_the_degree(monkeypatch):
    # bool_writer_pair commutes at (tt, tt): the carriers of every pair of
    # sets up to the degree 1 are compared, and none larger; a composite is
    # built only where T^a X (x) T^b Y is not empty, at (1, 1)
    for k in range(4):
        full = [(m, n) for m in range(k + 1) for n in range(k + 1)]
        deg = [(m, n) for m, n in full if m <= 1 and n <= 1]
        built = [(1, 1)] if k else []
        assert scanned_sizes(monkeypatch, commuting_pair, bool_writer_pair(), "tt", "tt",
                             k) == (built, deg)
        assert scanned_sizes(monkeypatch, check_commutative, identity_monad(bool_pomonoid()),
                             k) == (built, deg)


def test_a_monad_without_functor_expressions_is_scanned_up_to_k(monkeypatch):
    # the centre monad gives carrier_fn and fmap_fn, so no degree bounds the
    # scan: the carriers of every pair of sets up to k are compared, the
    # composites built wherever both sets are non-empty, and the reports
    # still agree
    def make():
        return build_centre_monad(bool_writer_pair()).monad
    assert make().functor_expr("tt") is None
    for k in range(4):
        full = [(m, n) for m in range(k + 1) for n in range(k + 1)]
        built = [(m, n) for m, n in full if m and n]
        assert scanned_sizes(monkeypatch, commuting_pair, make(), "tt", "tt", k) == (built, full)
        assert scanned_sizes(monkeypatch, check_commutative, make(), k) == (built, full)
    check_commutation(make, 3)


def test_the_scans_skip_an_empty_carrier_not_an_empty_set(monkeypatch):
    # multi_error_writer's grade e is Const(I): T^e Y0 is a point, so the
    # composites are built over Y0 at (e, e), of degree 0, and at (e, wa),
    # where T^wa Y0 is empty and only Y1 has a non-empty carrier
    M = multi_error_writer()
    assert len(M.carrier("e", canonical_set(0))) == 1
    assert scanned_sizes(monkeypatch, commuting_pair, M, "e", "e", 3) == ([(0, 0)], [(0, 0)])
    assert scanned_sizes(monkeypatch, commuting_pair, M, "e", "wa", 3) == (
        [(0, 1), (1, 1)], [(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.mark.parametrize("k, message", [
    (-1, "largest set size -1 is negative: the scan would check nothing"),
    (10, "canonical set size 10 is outside 0..9: canonical sets are meant for small "
         "exhaustive scans")])
def test_set_sizes_out_of_range_are_refused(k, message):
    # refused as before, though the degree-sized scan never reaches size k
    refused = ("raised", "SetSizeError", message)
    assert agree(bool_writer_pair, check_commutative, ref_check_commutative, k) == refused
    for a, b in product(("tt", "ff"), repeat=2):
        assert agree(bool_writer_pair, commuting_pair, ref_commuting_pair, a, b, k) == refused


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_central_subsets_on_builtins(name):
    check_centre(BUILTINS[name], canonical_sets(1 if name == "language_writer" else 2))


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("bound", [0, 1, 3, lambda b: 2 if b in ("t", "tt") else 1, -1])
def test_central_subsets_with_explicit_bounds(name, bound):
    check_centre(BUILTINS[name], canonical_sets(2), bound)


@pytest.mark.parametrize("name", SMALL)
def test_centre_monads(name):
    # carrier_fn monads: no functor expression, so no default bound
    def make():
        return build_centre_monad(BUILTINS[name]()).monad
    check_commutation(make, 2)
    check_centre(make, canonical_sets(1))
    check_centre(make, canonical_sets(1), bound=2)
    check_cones(make, canonical_sets(1), sizes=(0, 1), bound=2)


@pytest.mark.parametrize("name", SMALL)
def test_one_and_two_point_cones(name):
    check_cones(BUILTINS[name], canonical_sets(2))


@pytest.mark.parametrize("name", SMALL)
def test_cones_with_closure_lemmas(name):
    check_cones(BUILTINS[name], canonical_sets(1), sizes=(0, 1), closure_lemmas=True)
    M = BUILTINS[name]()
    for z in sorted(_central_grades(M)):
        for X in canonical_sets(2):
            cone = graded_centre_at(M, z, X)
            agree(BUILTINS[name], check_central_cone, ref_check_central_cone, cone,
                  closure_lemmas=True)


def test_failing_cones_name_a_witness():
    # the non-central annotations wa, wb of bool_writer_pair at ff fail the
    # cone equation; the witness text must be the same
    M = bool_writer_pair()
    X = canonical_set(2)
    legs = list(all_fns(canonical_set(2), M.carrier("ff", X)))
    failed = 0
    for leg in legs:
        cone = CentralCone(grade="ff", base=X, apex=canonical_set(2), leg=leg)
        got = agree(bool_writer_pair, check_central_cone, ref_check_central_cone, cone)
        failed += '"ok": false' in got[1]
    assert failed > 0


def test_cone_errors():
    M = bool_writer_pair()
    X = canonical_set(1)
    wrong = CentralCone(grade="tt", base=X, apex=canonical_set(1),
                        leg=FinFn(canonical_set(1), M.carrier("ff", X),
                                  {"y0": min(M.carrier("ff", X))}))
    assert agree(bool_writer_pair, check_central_cone, ref_check_central_cone,
                 wrong)[0] == "raised"
    Mm = multi_error_writer()
    leg = FinFn(canonical_set(1), Mm.carrier("wa", X), {"y0": min(Mm.carrier("wa", X))})
    cone = CentralCone(grade="wa", base=X, apex=canonical_set(1), leg=leg)
    assert agree(multi_error_writer, check_central_cone, ref_check_central_cone,
                 cone)[1] == "GradeNotCentral"


def test_centrality_errors():
    X = canonical_set(1)
    assert agree(multi_error_writer, is_central, ref_is_central, "t", X, "nope")[1] == \
        "ElementNotInCarrier"
    assert agree(multi_error_writer, central_subset, ref_central_subset, "wa", X)[1] == \
        "GradeNotCentral"
    assert agree(multi_error_writer, central_subset, ref_central_subset, "t", X, -1)[1] == \
        "SetSizeError"


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_bimonoidal_with_times_as_par(name):
    # par = * dominates only where a*b and b*a are ordered: elsewhere both raise
    sets = canonical_sets(1 if name == "language_writer" else 2)
    check_bimonoidal(BUILTINS[name], times_as_par(BUILTINS[name]().pomonoid), sets)


@pytest.mark.parametrize("bound", [None, 1])
def test_bimonoidal_over_absorbing_top(bound):
    def make():
        return multi_error_writer(topped=True)
    check_bimonoidal(make, bimonoid_from_absorbing_top(make().pomonoid, "e"),
                     canonical_sets(2), bound)


def test_bimonoid_mismatches():
    X = canonical_set(2)
    wrong_base = bimonoid_from_absorbing_top(multi_error_pomonoid(topped=True), "e")
    assert agree(bool_writer_pair, bimonoidal_centre_at, ref_bimonoidal_centre_at,
                 wrong_base, "tt", X)[1] == "BimonoidMismatch"
    P = multi_error_pomonoid(topped=True)
    low = Duoid(base=P, par={(x, y): "t" for x in P.elements for y in P.elements}, unit2="t")
    for a in P.elements:
        assert agree(lambda: multi_error_writer(topped=True), bimonoidal_centre_at,
                     ref_bimonoidal_centre_at, low, a, X)[1] == "BimonoidMismatch"
        # a bad duoid is refused before a bad bound
        assert agree(lambda: multi_error_writer(topped=True), bimonoidal_centre_at,
                     ref_bimonoidal_centre_at, low, a, X, -1)[1] == "BimonoidMismatch"


def test_empty_test_computations_are_skipped():
    # mult raises on the empty set, which only a test set Y with an empty
    # T^b Y reaches: the scans must skip it, as the token-level ones did
    def make():
        M = bool_writer_pair()

        def mult(a, b, X, orig=M.mult):
            if not X.elems:
                raise RuntimeError(f"mult({a},{b}) asked at an empty set")
            return orig(a, b, X)
        return dataclasses.replace(M, mult=mult, _memo={})

    sets = [canonical_set(1), canonical_set(2)]
    check_centre(make, sets)
    check_cones(make, sets, sizes=(1,))
    check_bimonoidal(make, times_as_par(make().pomonoid), sets)
    check_bimonoidal(make, bimonoid_from_absorbing_top(bool_pomonoid(), "ff"), sets)


# --- writers with prefix tokens -------------------------------------------------------

def keep_last(tokens, name="K"):
    """The monoid on 1 + tokens in which a product keeps its right factor."""
    els = ("1",) + tuple(tokens)
    mul = {(x, y): x if y == "1" else y for x in els for y in els}
    return validate_pomonoid(els, "1", mul, name=name)


def keep_first(tokens, name="F"):
    els = ("1",) + tuple(tokens)
    mul = {(x, y): y if x == "1" else x for x in els for y in els}
    return validate_pomonoid(els, "1", mul, name=name)


PREFIXED = [("a", "a*"), ("b", "b(c)"), ("a", "a*", "b", "b(c)")]


@pytest.mark.parametrize("tokens", PREFIXED)
@pytest.mark.parametrize("monoid", [keep_last, keep_first])
def test_writers_with_prefix_tokens(tokens, monoid):
    def make():
        return bool_writer_pair(monoid(tokens))
    X = FinSet("Xp", ("a", "a*"))
    sets = canonical_sets(2) + [X]
    check_commutation(make, 2)
    check_centre(make, sets)
    check_cones(make, [canonical_set(1), X])
    check_bimonoidal(make, times_as_par(make().pomonoid), sets)
    check_bimonoidal(make, bimonoid_from_absorbing_top(bool_pomonoid(), "ff"), sets)


def test_identity_monad_on_prefix_tokens():
    def make():
        return identity_monad(keep_last(("b", "b(c)")))
    X = FinSet("Xp", ("a", "a*", "b", "b(c)"))
    check_commutation(make, 2)
    check_centre(make, [X])
    check_cones(make, [X], sizes=(1,))


def z3_times_keep_last():
    """Z/3 on u, b, b(c) times keep-last on 1, p, q: its centre is u, b and
    b(c), and (b, p) is named p1."""
    def name(z, k):
        return ("u", "b", "b(c)")[z] if k == "1" else f"{k}{z}"
    pairs = [(z, k) for z in range(3) for k in ("1", "p", "q")]
    mul = {(name(*x), name(*y)): name((x[0] + y[0]) % 3, x[1] if y[1] == "1" else y[1])
           for x in pairs for y in pairs}
    return validate_pomonoid(tuple(name(*x) for x in pairs), "u", mul, name="ZK")


# SHA-256 of check_commutative(M, k).to_json() on the built-ins and the
# prefix-token gradings: one at k=0, and one at every k from 1 to 4 (to 3 on
# language_writer), since no grade has degree above 1
COMMUTATIVE_JSON = {
    "bool_writer_pair":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "04c21184eb9dfaf2a069e40efdd79b76402e063609055a008ac01b94c1292e03"),
    "identity":
        ("8c6290065aecb02c799b5884423c120bba8060641a214e7232cc2a785fe031a0",
         "8c6290065aecb02c799b5884423c120bba8060641a214e7232cc2a785fe031a0"),
    "language_writer":
        ("11821c491714652509f27a49815669915688ba71198249f2724570f2bd2a68df",
         "a0c0815d5b5ef09e47bb0adb58a03f64e59a314f2ab7bcabb655e72679ec4f01"),
    "multi_error_writer":
        ("ce6b2f6e870b1f0baf66869eeb4a2d16808f59ba6a1f762d4df1e12e5caa8420",
         "13f0b9916d2adc05bf0b0055ba55bf55b0cbe6e313ae2c5fdb301d7142c9d164"),
    "multi_error_writer_topped":
        ("90585fe592ce19b0d40546c055870fbf8f065ba26f7f12c020c6519ce2de547a",
         "e9a1245e32b610fcabc66fb04d27e38aef6442f10e7987314cf2d64833da4bd2"),
    "bool_writer_pair(keep_last('a', 'a*'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "4ecca1c965d151e207429c726f541823bb5d3bca426b62cd6af815c18075c184"),
    "bool_writer_pair(keep_last('b', 'b(c)'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "03683e8b7b0d8c2e6e231432992730f14d3d3d03b8ffb437b1f7e3d3c17d4b12"),
    "bool_writer_pair(keep_last('a', 'a*', 'b', 'b(c)'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "4ecca1c965d151e207429c726f541823bb5d3bca426b62cd6af815c18075c184"),
    "bool_writer_pair(keep_first('a', 'a*'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "acb47a4a21c798286cc6df0b88889f838d6f3eae20b0b6205bb1b3823aaacac7"),
    "bool_writer_pair(keep_first('b', 'b(c)'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "5cd17213ea7bc1fca79cfc695515fb12085d53d4901f0f791810ff1b4495332b"),
    "bool_writer_pair(keep_first('a', 'a*', 'b', 'b(c)'))":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "acb47a4a21c798286cc6df0b88889f838d6f3eae20b0b6205bb1b3823aaacac7"),
    "identity_monad(keep_last('b', 'b(c)'))":
        ("5eb573ab3bc16bf5483a6df1deb3884eb0de2cf16eba91e3ea833a5bf47b2cc3",
         "5eb573ab3bc16bf5483a6df1deb3884eb0de2cf16eba91e3ea833a5bf47b2cc3"),
    "bool_writer_pair(z3_times_keep_last())":
        ("a72a9970f640a3c754a49cf50e438dce302668324c5a3bcc362596e3305172b6",
         "fe4ec8379bb6747e6f2f52c3045f930d735b4bec9d129c889ba967bf71bf6778"),
}


def commutative_makers():
    makers = dict(BUILTINS)
    for monoid, toks in product((keep_last, keep_first), PREFIXED):
        makers[f"bool_writer_pair({monoid.__name__}{toks})"] = (
            lambda monoid=monoid, toks=toks: bool_writer_pair(monoid(toks)))
    makers["identity_monad(keep_last('b', 'b(c)'))"] = (
        lambda: identity_monad(keep_last(("b", "b(c)"))))
    makers["bool_writer_pair(z3_times_keep_last())"] = (
        lambda: bool_writer_pair(z3_times_keep_last()))
    return makers


@pytest.mark.parametrize("name", sorted(COMMUTATIVE_JSON))
def test_commutation_reports_keep_their_bytes(name):
    make = commutative_makers()[name]
    first, rest = COMMUTATIVE_JSON[name]
    for k in range(4 if name == "language_writer" else 5):
        digest = hashlib.sha256(check_commutative(make(), k).to_json().encode()).hexdigest()
        assert digest == (rest if k else first), k


# SHA-256 of the centre side's outputs on the same monads, over X of sizes 0..2
# (0..1 on language_writer): the central subsets' members at every central
# grade, with the default bound and with the degree + 1; the identity cones'
# reports in full; the bimonoidal centres' apexes at every grade, with the
# grade product as the parallel one, or the refusal where it does not dominate
CENTRE_OUTPUTS = {
    "bool_writer_pair":
        ("1113323e33324dac7b2dbe2a1a1a8f1ddc708f7f43c46c3a2619870c5a8f56d7",
         "9ef76524f098f23cec2efdda92adb6fea16d6fe5146773c28e648d062a38ca14",
         "7f4357a7aceb1d442db0bb59cb0e7b114b77fa08f6f48e54f40c82a6a0eb04de"),
    "bool_writer_pair(keep_first('a', 'a*'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "57e4844b545430739f7e41c9c8f1b48986eee356d95e3198d769efd7fa355479",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(keep_first('a', 'a*', 'b', 'b(c)'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "57e4844b545430739f7e41c9c8f1b48986eee356d95e3198d769efd7fa355479",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(keep_first('b', 'b(c)'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "a7098748c42c09db1e00e86f93081ce662e69ce56649346d0ca006fd6652d298",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(keep_last('a', 'a*'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "57e4844b545430739f7e41c9c8f1b48986eee356d95e3198d769efd7fa355479",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(keep_last('a', 'a*', 'b', 'b(c)'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "57e4844b545430739f7e41c9c8f1b48986eee356d95e3198d769efd7fa355479",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(keep_last('b', 'b(c)'))":
        ("9886e984e76c1f2b591373918cd74900ec063ec21cff3ccc3be8887cb931229c",
         "a7098748c42c09db1e00e86f93081ce662e69ce56649346d0ca006fd6652d298",
         "32da71e757ce0df36630c2056ba96fddf4bc60c1fdebfe7e1ec2c23934af1bcb"),
    "bool_writer_pair(z3_times_keep_last())":
        ("14f6762d61939ad81e8dc8c53a2bbcc53564e71b7ca18684d6bdfd60bef66ba5",
         "0b8293fd8b73f32b300059867428e85a6709ba012f2040fb6818cffbfbc9dcb5",
         "bf900d60780213b4af61b1b94d511c1528352b99fdc365c882fec26c717b5cf7"),
    "identity":
        ("d9768c1edd592941fa8e304231b3da9639bea8a764f2748c6e3268c69a774b3f",
         "9072987d661cad0e5a6907ca5516c11f97a1efce9f42bfa07448ff154539443b",
         "00efe2cbc2945d34a6fbd06c47de7a324262980dddb309ffe69e17f43b6ff386"),
    "identity_monad(keep_last('b', 'b(c)'))":
        ("397bc5cfc10ccd0d6d46cf455854d9d27e680c9cc88f3c29157264a8d4982954",
         "476f38399dc3adf163a57ef848b0775c9864456d34c45471ab0fbd6255d4cde4",
         "2d883e041fe569f3ab2297855db3b6392162907e61d665c4b74042facf2a8c20"),
    "language_writer":
        ("3ad3990412c346ddeb28eabf0ad342a72304b9da8d148ec2d479ba7ac52d7209",
         "30043a41043fd02b52c82a6ee385fc5720d4a712ba8a2f8136a4aad3e49d28cb",
         "9543ec56dd20a6e54b97c97991ab37434abcdd6b6cc6ac7feda2e4938e22b43f"),
    "multi_error_writer":
        ("44f337deb9dea6d7a1860755214c539da0b4f429d4133d5487b411da9c59b80d",
         "9072987d661cad0e5a6907ca5516c11f97a1efce9f42bfa07448ff154539443b",
         "08c7fecc17593a8f84d2b0d92eb5df21164778ef3321f6f6a4e35940a75578e1"),
    "multi_error_writer_topped":
        ("44f337deb9dea6d7a1860755214c539da0b4f429d4133d5487b411da9c59b80d",
         "9072987d661cad0e5a6907ca5516c11f97a1efce9f42bfa07448ff154539443b",
         "08c7fecc17593a8f84d2b0d92eb5df21164778ef3321f6f6a4e35940a75578e1"),
}


def centre_outputs(make, name):
    """The three texts that CENTRE_OUTPUTS digests, on a fresh monad from make()."""
    M = make()
    P = M.pomonoid
    wide = max(degree(M.functor_expr(b)) for b in P.elements) + 1
    sets = canonical_sets(1 if name == "language_writer" else 2)
    subsets, cones, apexes = [], [], []
    for z, X in product(sorted(_central_grades(M)), sets):
        for bound in (None, wide):
            subsets.append(f"{z} {X.name} {bound} {central_subset(M, z, X, bound).elems}")
        TzX = M.carrier(z, X)
        cone = CentralCone(grade=z, base=X, apex=TzX, leg=FinFn(TzX, TzX, {t: t for t in TzX}))
        cones.append(check_central_cone(M, cone).to_text(False))
    for a, X in product(P.elements, sets):
        try:
            apex = bimonoidal_centre_at(M, times_as_par(P), a, X).apex.elems
        except BimonoidMismatch as exc:   # a grade that is not central may be refused
            apex = str(exc)
        apexes.append(f"{a} {X.name} {apex}")
    return ["\n".join(text) for text in (subsets, cones, apexes)]


@pytest.mark.parametrize("name", sorted(COMMUTATIVE_JSON))
def test_centre_outputs_keep_their_bytes(name):
    texts = centre_outputs(commutative_makers()[name], name)
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == CENTRE_OUTPUTS[name]


class TestPrefixTokenWitnesses:
    """The witnesses of the index-table scan and of the centre monad over
    gradings with elements b and b(c), named by tokens: "(y0,b(c))" sorts
    before "(y0,b)", though T^ff Y1 lists (y0,b) first."""

    def test_cone_witness(self):
        M = bool_writer_pair(keep_last(("b", "b(c)")))
        X = canonical_set(1)
        TX = M.carrier("ff", X)
        cone = CentralCone(grade="ff", base=X, apex=TX, leg=FinFn(TX, TX, {t: t for t in TX}))
        assert [r.witness for r in check_central_cone(M, cone).records] == [
            "", "apex (y0,b(c)) vs (y0,b) in T^ff Y1"]
        with pytest.raises(CentreError) as exc:
            factor_through(cone, graded_centre_at(M, "ff", X))
        assert str(exc.value) == "cone hits the non-central element (y0,b(c))"

    def test_column_map(self):
        M = bool_writer_pair(keep_last(("b", "b(c)")))
        X, Y = canonical_set(2), canonical_set(1)
        TX, TY = M.carrier("ff", X), M.carrier("ff", Y)
        bad = commutation_witness(M, "ff", "ff", X, Y)
        assert {TX.elems[i]: TY.elems[j] for i, j in bad.items()} == {
            "(y0,b(c))": "(y0,b)", "(y0,b)": "(y0,b(c))",
            "(y1,b(c))": "(y0,b)", "(y1,b)": "(y0,b(c))"}

    def test_least_of_two_failing_columns(self):
        # (y0,a) fails against both (y0,b) and (y0,b(c))
        M = bool_writer_pair(keep_last(("a", "b", "b(c)")))
        X = canonical_set(1)
        TX = M.carrier("ff", X)
        bad = commutation_witness(M, "ff", "ff", X, X)
        assert {TX.elems[i]: TX.elems[j] for i, j in bad.items()} == {
            "(y0,a)": "(y0,b(c))", "(y0,b(c))": "(y0,a)", "(y0,b)": "(y0,a)"}
        cone = CentralCone(grade="ff", base=X, apex=TX, leg=FinFn(TX, TX, {t: t for t in TX}))
        assert [r.witness for r in check_central_cone(M, cone).records] == [
            "", "apex (y0,a) vs (y0,b(c)) in T^ff Y1"]

    @pytest.mark.parametrize("component", ["mult", "lift"])
    def test_centre_monad_names_the_least_escaping_token(self, component):
        M = bool_writer_pair(z3_times_keep_last())
        good_mult, good_lift = M.mult, M.lift

        def escaping_mult(a, b, X):
            # only the centre monad's restriction asks for mult over a plain set
            fn = good_mult(a, b, X)
            if (a, b) != ("ff", "ff") or X.factors is not None:
                return fn
            return FinFn(fn.dom, fn.cod,
                         {t: make_pair(split_pair(split_pair(t)[0])[0], "p0") for t in fn.dom})

        def escaping_lift(a, b, X):
            # (x,u) goes to (x,p0); only the centre monad's restriction asks
            # for a lift
            fn = good_lift(a, b, X)
            return FinFn(fn.dom, fn.cod, {t: make_pair(split_pair(t)[0], "p0") for t in fn.dom})

        S, X = build_centre_monad(M).monad, canonical_set(1)
        with pytest.raises(CentralityViolation) as exc:
            if component == "mult":
                M.mult = escaping_mult
                S.mult_fn("ff", "ff", X)
            else:
                M.lift = escaping_lift
                S.lift_fn("tt", "ff", X)
        assert (exc.value.component, exc.value.witness) == {
            "mult": ("mult(ff,ff)", "((y0,b(c)),b(c)) -> (y0,p0)"),
            "lift": ("lift(tt,ff)", "(y0,b(c)) -> (y0,p0)")}[component]


# --- drawn writers ----------------------------------------------------------------------

tokens = st.sampled_from(PREFIXED + [("x", "y"), ("u",)])
test_sets = st.one_of(st.integers(0, 2).map(canonical_set),
                      st.sampled_from([FinSet("Xp", ("a", "a*")),
                                       FinSet("Xq", ("b", "b(c)", "c"))]))
bounds = st.sampled_from([None, 0, 1, 2])


@st.composite
def writer_makers(draw):
    monoid = draw(st.sampled_from([keep_last, keep_first]))
    toks = draw(tokens)
    return lambda: bool_writer_pair(monoid(toks))


class TestDrawnWriters:
    @settings(max_examples=25, deadline=None)
    @given(writer_makers(), st.integers(0, 2))
    def test_commutativity(self, make, k):
        check_commutation(make, k)

    @settings(max_examples=25, deadline=None)
    @given(writer_makers(), test_sets, bounds)
    def test_centre(self, make, X, bound):
        check_centre(make, [X], bound)

    @settings(max_examples=25, deadline=None)
    @given(writer_makers(), st.data(), test_sets, bounds)
    def test_cone(self, make, data, X, bound):
        M = make()
        z = data.draw(st.sampled_from(M.pomonoid.elements))
        W = canonical_set(data.draw(st.integers(0, 2)))
        TzX = M.carrier(z, X)
        if not TzX.elems and W.elems:
            return
        leg = FinFn(W, TzX, {p: data.draw(st.sampled_from(TzX.elems)) for p in W})
        cone = CentralCone(grade=z, base=X, apex=W, leg=leg)
        agree(make, check_central_cone, ref_check_central_cone, cone, bound,
              closure_lemmas=data.draw(st.booleans()))

    @settings(max_examples=25, deadline=None)
    @given(writer_makers(), test_sets, bounds, st.booleans())
    def test_bimonoidal(self, make, X, bound, absorbing):
        P = make().pomonoid
        D = bimonoid_from_absorbing_top(P, "ff") if absorbing else times_as_par(P)
        check_bimonoidal(make, D, [X], bound)
