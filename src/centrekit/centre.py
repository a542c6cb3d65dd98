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
polynomial carriers, and a bound below the degree is refused.

Central subsets, cones and bimonoidal centres share one row filter,
`failing_rows`, over one scan of the composites' index tables,
`commutation_witness`: rows are elements t, columns test computations s.
"""

from dataclasses import dataclass, replace

from .finkit import FinFn, FinSet, SetSizeError, all_fns, canonical_set, degree, tensor
from .graded_monad import (
    GradedMonadMorphism,
    GradedStrongMonad,
    canonical_sets,
    check_commutative,
    check_graded_monad_morphism,
    commutation_witness,
)
from .pomonoid import Pomonoid, PomonoidMorphism, centre_of_pomonoid
from .report import LawRecord, Report


class CentreError(ValueError):
    pass


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


def bound_for(M: GradedStrongMonad, b: str, bound=None) -> int:
    """Test-set size needed to decide centrality against grade b.

    The default is the degree of T^b.  A negative bound raises SetSizeError,
    and so does one below the degree of T^b when the monad has a functor
    expression: either would pass elements that are not central.
    """
    expr = M.functor_expr(b)
    if callable(bound):
        n = bound(b)
    elif bound is not None:
        n = int(bound)
    elif expr is None:
        raise CentreError("monad has no functor expression; pass an explicit bound")
    else:
        n = degree(expr)
    if n < 0:
        raise SetSizeError(
            f"test-set bound {n} is negative: every element would pass as central")
    if expr is not None and n < degree(expr):
        raise SetSizeError(f"test-set bound {n} is below the degree {degree(expr)} of grade {b}")
    return n


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


def failing_rows(M: GradedStrongMonad, z: str, b: str, X: FinSet, rows, bound=None, top=None):
    """Yield (row, Y, column) for each entry of ``rows`` (positions in T^z X)
    that fails to commute with some s in T^b Y, at the first such Y.

    Y runs over the canonical sets up to ``bound_for(M, b, bound)``, skipping
    an empty T^b Y; the column is the first failing s.  Failing entries come
    in the order of ``rows`` and drop out; the scan ends when none is left.
    """
    alive = list(rows)
    for n in range(bound_for(M, b, bound) + 1):
        if not alive:
            return
        Y = canonical_set(n)
        if len(M.carrier(b, Y)) == 0:
            continue
        bad = commutation_witness(M, z, b, X, Y, top)[2]
        if bad:
            yield from ((r, Y, bad[r]) for r in alive if r in bad)
            alive = [r for r in alive if r not in bad]


def _central_rows(M: GradedStrongMonad, z: str, X: FinSet, rows, bound=None) -> list:
    """The rows (positions in T^z X) that commute with every test computation,
    in order; the scan stops as soon as none is left."""
    for b in M.pomonoid.elements:
        if not rows:
            break
        failed = {r for r, _, _ in failing_rows(M, z, b, X, rows, bound)}
        rows = [r for r in rows if r not in failed]
    return rows


def is_central(M: GradedStrongMonad, z: str, X: FinSet, t: str, bound=None) -> bool:
    _require_central_grade(M, z)
    TzX = M.carrier(z, X)
    if t not in TzX:
        raise ElementNotInCarrier(f"{t} is not in the carrier at ({z}, {X.name})")
    return bool(_central_rows(M, z, X, [TzX.token_index()[t]], bound))


def central_subset(M: GradedStrongMonad, z: str, X: FinSet, bound=None) -> FinSet:
    """The central elements of T^z X, as a subset sharing the same tokens."""
    _require_central_grade(M, z)
    key = ("central-subset", z, X.vid, bound if not callable(bound) else None)
    sub = None if callable(bound) else M._memo.get(key)
    if sub is None:
        TzX = M.carrier(z, X)
        rows = _central_rows(M, z, X, range(len(TzX)), bound)
        sub = FinSet(f"Z^{z}({X.name})", tuple(TzX.elems[r] for r in rows))
        if not callable(bound):
            M._memo[key] = sub
    return sub


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
    sub = central_subset(M, z, X, bound)
    leg = FinFn(sub, M.carrier(z, X), {t: t for t in sub})
    return CentralCone(grade=z, base=X, apex=sub, leg=leg)


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
    rep = Report(title=f"central cone ({z}, {X.name})")
    rows = cone.leg.idx
    for b in M.pomonoid.elements:
        failure = next(failing_rows(M, z, b, X, rows, bound), None)
        witness = ""
        if failure is not None:
            r, Y, j = failure
            p, s = cone.apex.elems[rows.index(r)], M.carrier(b, Y).elems[j]
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

    Exists iff the cone only hits central elements; unique because the centre
    leg is injective.
    """
    if cone.grade != centre.grade or cone.base.vid != centre.base.vid:
        raise CentreError("cones are not over the same grade and base")
    preimage = {}
    for q in centre.apex:
        v = centre.leg(q)
        if v in preimage:
            raise CentreError("centre leg is not injective")
        preimage[v] = q
    mapping = {}
    for p in cone.apex:
        v = cone.leg(p)
        if v not in preimage:
            raise CentreError(f"cone hits the non-central element {v}")
        mapping[p] = preimage[v]
    return FinFn(cone.apex, centre.apex, mapping)


@dataclass
class CentreResult:
    monad: GradedStrongMonad
    inclusion: GradedMonadMorphism
    source: GradedStrongMonad
    bound: object = None

    def subset_at(self, z: str, X: FinSet) -> FinSet:
        return central_subset(self.source, z, X, self.bound)

    def describe(self, X: FinSet) -> list:
        out = []
        for z in self.monad.pomonoid.elements:
            sub = self.subset_at(z, X)
            out.append({
                "grade": z,
                "set": X.name,
                "carrier_size": len(self.source.carrier(z, X)),
                "centre_size": len(sub),
                "members": list(sub),
            })
        return out


def build_centre_monad(M: GradedStrongMonad, bound=None) -> CentreResult:
    """Assemble the central subsets into a monad over the grading's centre.

    Every component is the restriction of the corresponding component of M.
    Membership of each computed value in the target central subset is checked
    on the spot; an escape raises CentralityViolation rather than producing a
    quietly wrong monad.
    """
    ZP, phi = centre_of_pomonoid(M.pomonoid)

    def sub(z: str, X: FinSet) -> FinSet:
        return central_subset(M, z, X, bound)

    def restrict(fn: FinFn, dom: FinSet, cod: FinSet, component: str) -> FinFn:
        mapping = {}
        for t in dom:
            v = fn(t)
            if v not in cod:
                raise CentralityViolation(component, f"{t} -> {v}")
            mapping[t] = v
        return FinFn(dom, cod, mapping)

    def carrier_fn(z, X):
        return sub(z, X)

    def fmap_fn(z, f):
        return restrict(M.fmap(z, f), sub(z, f.dom), sub(z, f.cod), f"fmap({z})")

    def unit(X):
        return restrict(M.unit_fn(X), X, sub(ZP.unit, X), "unit")

    def mult(z1, z2, X):
        # tokens of Z^z1(Z^z2 X) are tokens of T^z1(T^z2 X), so the big
        # multiplication applies directly
        dom = sub(z1, sub(z2, X))
        return restrict(M.mult_fn(z1, z2, X), dom, sub(ZP.times(z1, z2), X),
                        f"mult({z1},{z2})")

    def strength(z, X, Y):
        dom = tensor(X, sub(z, Y))
        return restrict(M.strength_fn(z, X, Y), dom, sub(z, tensor(X, Y)), f"strength({z})")

    lift = None
    if M.lift is not None:
        def lift(z1, z2, X):
            return restrict(M.lift_fn(z1, z2, X), sub(z1, X), sub(z2, X),
                            f"lift({z1},{z2})")

    S = GradedStrongMonad(
        pomonoid=ZP,
        unit=unit,
        mult=mult,
        strength=strength,
        carrier_fn=carrier_fn,
        fmap_fn=fmap_fn,
        lift=lift,
        name=f"Z({M.name})" if M.name else "Z",
    )

    def component(z, X):
        s = sub(z, X)
        return FinFn(s, M.carrier(z, X), {t: t for t in s})

    iota = GradedMonadMorphism(phi=phi, source=S, target=M,
                               component=component, name="centre-inclusion")
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
                                  component=lambda z, X: FinFn(S.carrier(z, X), M.carrier(z, X),
                                                               {t: t for t in S.carrier(z, X)}))


def check_centrality_conditions(S: GradedStrongMonad, iota: GradedMonadMorphism,
                                k: int = 2, bound=None) -> Report:
    """Test the two equivalent descriptions of a central graded submonad.

    Condition (1): every component of iota is a central cone.  Condition (2):
    iota factors through the centre inclusion and S is commutative.  The two
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
            target = central_subset(M, iota.phi(z), X, bound)
            comp = iota.component_fn(z, X)
            missing = [t for t in comp.dom if comp(t) not in target]
            ok = not missing
            factors = factors and ok
            rep.add(LawRecord(law="condition-2-factorisation", grades=(z,), sets=(X.name,),
                              ok=ok, witness=missing[0] if missing else ""))
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
