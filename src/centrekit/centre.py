"""Central elements of a graded monad and the centre submonad they assemble into.

An element t of T^z X is central when sequencing it with any other computation
s, in either order, gives the same result.  The grade z itself has to be
central in the grading pomonoid first, otherwise the two composites land in
different carriers and the comparison is meaningless.

The quantifier over all test sets Y collapses to finitely many canonical sets:
an element of a polynomial T^b Y mentions at most degree(T^b) points of Y, so
by naturality every instance of the centrality equation factors through an
injection from a canonical set of that size.  `bound` widens the scan for
paranoia runs: at or above the degree it never changes the answer for
polynomial carriers.  `scan_sets` sizes it, as it sizes the commute records.

Central subsets and bimonoidal centres share one centrality filter,
`central_rows`, and cones its per-grade scan, over the column map of
`commutation_witness`: rows are elements t, columns test computations s.
It reads the commute records' kernel, `commute_sides`.

A central subset is kept as its inclusion into the carrier, an index table
built from the surviving rows by `subset_inclusion`, once per (z, X, bound).
Whatever must land in the centre is factored through that inclusion by one
function, `_factor`: the centre monad's components, `factor_through` and
condition 2.  Tokens appear only at the edge: `is_central`'s input, member
lists and witnesses.
"""

from dataclasses import dataclass, replace
from functools import partial

from .finkit import FinFn, FinSet, all_fns, canonical_set, identity_fn, seq, tensor, tensor_then
from .graded_monad import (
    CentreError,
    GradedMonadMorphism,
    GradedStrongMonad,
    canonical_sets,
    check_commutative,
    check_graded_monad_morphism,
    commutation_witness,
    scan_sets,
)
from .pomonoid import Pomonoid, PomonoidMorphism, centre_of_pomonoid
from .report import LawRecord, Report


class GradeNotCentral(CentreError):
    pass


class ElementNotInCarrier(CentreError):
    pass


class NotASubmonad(CentreError):
    pass


class CentralityViolation(RuntimeError):
    """A restricted component escaped the computed central subsets.

    Either the bound was unsound for this monad or a component is buggy;
    both must surface, so this is never caught internally.
    """

    def __init__(self, component: str, witness: str):
        super().__init__(f"{component} left the centre at {witness}")
        self.component = component
        self.witness = witness


def _central_grades(M: GradedStrongMonad) -> frozenset:
    key = ("central-grades",)
    if (grades := M._memo.get(key)) is None:
        Z, _ = centre_of_pomonoid(M.pomonoid)
        grades = M._memo[key] = frozenset(Z.elements)
    return grades


def _require_central_grade(M: GradedStrongMonad, z: str) -> None:
    if z not in _central_grades(M):
        what = "central in" if z in M.pomonoid.elements else "a grade of"
        raise GradeNotCentral(f"{z} is not {what} {M.pomonoid.name or 'the grading'}")


def _failing_rows(M: GradedStrongMonad, z: str, b: str, X: FinSet, rows, sets, top=None):
    """Yield (row, Y, column) for each entry of ``rows`` (positions in T^z X)
    that fails to commute with some s in T^b Y, at the first such Y of ``sets``,
    and drop it; the column is the least failing s (``commutation_witness``).
    A Y with T^b Y empty is skipped unscanned: z*b = b*z for a central z, and a
    ``top`` lifts both sides, so the kernel would compare no carriers there
    and find no element to fail at."""
    alive = list(rows)
    for Y in sets:
        if not alive:
            return
        if len(M.carrier(b, Y)) == 0:
            continue
        bad = commutation_witness(M, z, b, X, Y, top)
        if bad:
            yield from ((r, Y, bad[r]) for r in alive if r in bad)
            alive = [r for r in alive if r not in bad]


def central_rows(M: GradedStrongMonad, z: str, X: FinSet, rows, bound=None, tops=None) -> list:
    """The rows (positions in T^z X) that commute with every test computation,
    in order.  Every grade's test sets are resolved before anything is
    scanned, so a bad bound is refused whatever the carrier; with ``tops``
    both composites against grade b are lifted to grade ``tops[b]``."""
    sizes = [(b, scan_sets(M, b, bound=bound)) for b in M.pomonoid.elements]
    for b, sets in sizes:
        failed = {r for r, _, _ in _failing_rows(M, z, b, X, rows, sets, tops and tops[b])}
        rows = [r for r in rows if r not in failed]
    return rows


def is_central(M: GradedStrongMonad, z: str, X: FinSet, t: str, bound=None) -> bool:
    _require_central_grade(M, z)
    TzX = M.carrier(z, X)
    if t not in TzX:
        raise ElementNotInCarrier(f"{t} is not in the carrier at ({z}, {X.name})")
    return bool(central_rows(M, z, X, [TzX.token_index()[t]], bound))


def subset_inclusion(name: str, T: FinSet, rows) -> FinFn:
    """The subset of T at the positions ``rows``, sharing T's tokens, as its
    inclusion into T: the subset is the map's domain."""
    at = {T.elems[r]: r for r in rows}
    sub = FinSet(name, at)
    return FinFn._table(sub, T, tuple(map(at.__getitem__, sub.elems)))


def central_inclusion(M: GradedStrongMonad, z: str, X: FinSet, bound=None) -> FinFn:
    """The inclusion Z^z X -> T^z X of the central elements, kept once per
    (z, X, bound)."""
    _require_central_grade(M, z)
    key = ("central-inclusion", z, X.vid, bound)
    if (leg := M._memo.get(key)) is None:
        TzX = M.carrier(z, X)
        rows = central_rows(M, z, X, range(len(TzX)), bound)
        leg = M._memo[key] = subset_inclusion(f"Z^{z}({X.name})", TzX, rows)
    return leg


def central_subset(M: GradedStrongMonad, z: str, X: FinSet, bound=None) -> FinSet:
    """The central elements of T^z X, as a subset sharing the same tokens."""
    return central_inclusion(M, z, X, bound).dom


def _factor(f: FinFn, incl: FinFn) -> tuple:
    """(g, None) for the g with g ; incl = f, given an injective ``incl`` into
    f's codomain; else (None, (t, v)) for the least token t of f's domain that
    f sends outside incl's image, and its image v."""
    at = dict(zip(incl.idx, range(len(incl.idx))))
    try:
        return FinFn._table(f.dom, incl.dom, tuple(map(at.__getitem__, f.idx))), None
    except KeyError:
        t, v = min((t, v) for t, v in zip(f.dom.elems, f.idx) if v not in at)
        return None, (t, f.cod.elems[v])


@dataclass
class CentralCone:
    """An object with a leg into T^z X whose image commutes with everything."""

    grade: str
    base: FinSet
    apex: FinSet
    leg: FinFn

    def __post_init__(self):
        if self.leg.dom.vid != self.apex.vid:
            raise CentreError("leg domain is not the apex")


def graded_centre_at(M: GradedStrongMonad, z: str, X: FinSet, bound=None) -> CentralCone:
    leg = central_inclusion(M, z, X, bound)
    return CentralCone(grade=z, base=X, apex=leg.dom, leg=leg)


def check_central_cone(M: GradedStrongMonad, cone: CentralCone, bound=None,
                       closure_lemmas: bool = False) -> Report:
    """Verify the cone equation after the leg, against every test grade.

    With closure_lemmas the stability facts are exercised too: precomposing
    the leg with any map into the apex, and pushing the whole cone along any
    map out of the base, must both give cones again.
    """
    _require_central_grade(M, z := cone.grade)
    X = cone.base
    if cone.leg.cod.vid != M.carrier(z, X).vid:
        raise CentreError("leg codomain is not the carrier at the cone's grade")
    sizes = [(b, scan_sets(M, b, bound=bound)) for b in M.pomonoid.elements]
    rep = Report(title=f"central cone ({z}, {X.name})")
    # the leg's images, by the apex's tokens in order: a witness names the least
    apex = sorted(zip(cone.apex.elems, cone.leg.idx))
    rows = [r for _, r in apex]
    for b, sets in sizes:
        failure = next(_failing_rows(M, z, b, X, rows, sets), None)
        witness = ""
        if failure is not None:
            r, Y, j = failure
            p, s = apex[rows.index(r)][0], M.carrier(b, Y).elems[j]
            witness = f"apex {p} vs {s} in T^{b} {Y.name}"
        rep.add(LawRecord(law="cone-eq", grades=(z, b), sets=(X.name,), ok=failure is None,
                          witness=witness))
    if not closure_lemmas:
        return rep
    base_ok = rep.ok

    def hold(cones):
        # every cone is built; each is checked only if the base cone passed
        return all(not base_ok or check_central_cone(M, c, bound).ok for c in cones)

    for n in range(3):
        W = canonical_set(n)
        pre = (CentralCone(grade=z, base=X, apex=W, leg=g.then(cone.leg))
               for g in all_fns(W, cone.apex))
        rep.add(LawRecord(law="cone-precompose", grades=(z,), sets=(W.name, X.name),
                          ok=hold(pre)))
    for n in range(3):
        X2 = canonical_set(n)
        post = (CentralCone(grade=z, base=X2, apex=cone.apex, leg=cone.leg.then(M.fmap(z, h)))
                for h in all_fns(X, X2))
        rep.add(LawRecord(law="cone-postcompose", grades=(z,), sets=(X.name, X2.name),
                          ok=hold(post)))
    return rep


def factor_through(cone: CentralCone, centre: CentralCone) -> FinFn:
    """The unique map apex -> centre apex with centre.leg after it = cone.leg.

    Exists iff the cone's leg lands in the centre's carrier and hits only
    central elements; unique because the centre leg is injective.
    """
    if cone.grade != centre.grade or cone.base.vid != centre.base.vid:
        raise CentreError("cones are not over the same grade and base")
    if cone.leg.cod.vid != centre.leg.cod.vid:
        raise CentreError("leg codomain is not the carrier at the cone's grade")
    if not centre.leg.is_injective():
        raise CentreError("centre leg is not injective")
    h, escape = _factor(cone.leg, centre.leg)
    if escape:
        raise CentreError(f"cone hits the non-central element {escape[1]}")
    return h


@dataclass
class CentreResult:
    monad: GradedStrongMonad
    inclusion: GradedMonadMorphism
    source: GradedStrongMonad
    bound: int | None = None

    def describe(self, X: FinSet) -> list:
        out = []
        for z in self.monad.pomonoid.elements:
            sub = central_subset(self.source, z, X, self.bound)
            out.append({
                "grade": z,
                "set": X.name,
                "carrier_size": len(self.source.carrier(z, X)),
                "centre_size": len(sub),
                "members": sorted(sub),
            })
        return out


def build_centre_monad(M: GradedStrongMonad, bound=None) -> CentreResult:
    """Assemble the central subsets into a monad over the grading's centre.

    Every component is the restriction of the corresponding component of M,
    the costrength included: the centre is a submonad, so a fault in M's
    costrength shows in the centre's laws as it does in M's.  A restriction
    is M's component after the inclusion of its domain, factored through the
    inclusion of its target: the domain's inclusion is the central one for
    fmap and lift, the identity for unit, id (x) inclusion for the strength
    and inclusion (x) id for the costrength, and for mult the outer
    inclusion then T^z1 of the inner one.  A value outside the target
    central subset raises CentralityViolation, naming the least escaping
    token, rather than producing a quietly wrong monad.
    """
    ZP, phi = centre_of_pomonoid(M.pomonoid)

    incl = partial(central_inclusion, M, bound=bound)

    def restrict(into: FinFn, z: str, X: FinSet, component: str) -> FinFn:
        # into ; M's component, factored through Z^z X's inclusion
        g, escape = _factor(into, incl(z, X))
        if escape:
            raise CentralityViolation(component, f"{escape[0]} -> {escape[1]}")
        return g

    def fmap_fn(z, f):
        return restrict(seq(incl(z, f.dom), M.fmap(z, f)), z, f.cod, f"fmap({z})")

    def unit(X):
        return restrict(M.unit_fn(X), ZP.unit, X, "unit")

    def mult(z1, z2, X):
        into = seq(incl(z1, S.carrier(z2, X)), M.fmap(z1, incl(z2, X)), M.mult_fn(z1, z2, X))
        return restrict(into, ZP.times(z1, z2), X, f"mult({z1},{z2})")

    def strength(z, X, Y):
        return restrict(tensor_then(identity_fn(X), incl(z, Y), M.strength_fn(z, X, Y)),
                        z, tensor(X, Y), f"strength({z})")

    def costrength(z, X, Y):
        return restrict(tensor_then(incl(z, X), identity_fn(Y), M.costrength_fn(z, X, Y)),
                        z, tensor(X, Y), f"costrength({z})")

    lift = None
    if M.lift is not None:
        def lift(z1, z2, X):
            return restrict(seq(incl(z1, X), M.lift_fn(z1, z2, X)), z2, X,
                            f"lift({z1},{z2})")

    S = GradedStrongMonad(
        pomonoid=ZP,
        unit=unit,
        mult=mult,
        strength=strength,
        costrength=costrength,
        carrier_fn=partial(central_subset, M, bound=bound),
        fmap_fn=fmap_fn,
        lift=lift,
        name=f"Z({M.name})" if M.name else "Z",
    )

    iota = GradedMonadMorphism(phi=phi, source=S, target=M, name="centre-inclusion",
                               component=incl)
    return CentreResult(monad=S, inclusion=iota, source=M, bound=bound)


def restrict_grades(M: GradedStrongMonad, sub: Pomonoid,
                    phi: PomonoidMorphism) -> tuple:
    """M with its grading cut down to a sub-pomonoid, carriers untouched.

    phi must embed sub into M's grading.  Returns the regraded monad and the
    evident inclusion morphism.
    """
    for z in sub.elements:
        if phi(z) != z:
            raise CentreError("grade restriction must embed elements by name")
    S = replace(M, pomonoid=sub, name=f"{M.name}|{sub.name}" if M.name else sub.name, _memo={})
    return S, GradedMonadMorphism(phi=phi, source=S, target=M, name="grade-restriction",
                                  component=lambda z, X: identity_fn(M.carrier(z, X)))


def check_centrality_conditions(S: GradedStrongMonad, iota: GradedMonadMorphism,
                                k: int = 2, bound=None) -> Report:
    """Test the two equivalent descriptions of a central graded submonad.

    Condition (1): every component of iota is a central cone.  Condition (2):
    iota factors through the centre inclusion, read by the one factorisation
    the centre monad uses, and S is commutative.  The two
    verdicts must agree; a mismatch is reported, not raised, since it means
    the equivalence itself failed on this instance.
    """
    if iota.source is not S:
        raise CentreError("iota does not start at S")
    M = iota.target
    pre = check_graded_monad_morphism(iota, k)
    if not pre.ok:
        raise NotASubmonad("iota is not a graded monad morphism")
    for z in S.pomonoid.elements:
        for X in canonical_sets(k):
            if not iota.component_fn(z, X).is_injective():
                raise NotASubmonad(f"component at ({z}, {X.name}) is not injective")

    rep = Report(title=f"centrality conditions for {S.name or 'S'}")
    cond1 = True
    for z in S.pomonoid.elements:
        for X in canonical_sets(k):
            cone = CentralCone(grade=iota.phi(z), base=X,
                               apex=S.carrier(z, X), leg=iota.component_fn(z, X))
            sub_rep = check_central_cone(M, cone, bound)
            ok = sub_rep.ok
            cond1 = cond1 and ok
            witness = sub_rep.failures()[0].witness if not ok else ""
            rep.add(LawRecord(law="condition-1-cone", grades=(z,), sets=(X.name,), ok=ok,
                              witness=witness))

    factors = True
    for z in S.pomonoid.elements:
        for X in canonical_sets(k):
            _, escape = _factor(iota.component_fn(z, X),
                                central_inclusion(M, iota.phi(z), X, bound))
            factors = factors and not escape
            rep.add(LawRecord(law="condition-2-factorisation", grades=(z,), sets=(X.name,),
                              ok=not escape, witness=escape[0] if escape else ""))
    commutative = check_commutative(S, k).ok
    rep.add(LawRecord(law="condition-2-commutative", ok=commutative))
    cond2 = factors and commutative

    agree = cond1 == cond2
    rep.add(LawRecord(law="theorem-agreement", ok=agree,
                      witness="" if agree else f"condition-1={cond1} condition-2={cond2}",
                      note="" if agree else "THEOREM-VIOLATION"))
    # the conditions agreeing on False is a legitimate outcome, so surface
    # the shared verdict separately from the report's own ok flag
    rep.add(LawRecord(law="conditions-verdict", ok=cond1,
                      note="both-true" if cond1 and agree else ("both-false" if agree else "")))
    return rep
