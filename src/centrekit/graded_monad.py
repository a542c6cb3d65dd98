"""Graded strong monads on finite sets, their law suites, and built-ins.

Conventions that everything below depends on:

* The composite T^a T^b X is carrier(a, carrier(b, X)): b is the inner
  grade.  mu(a, b, X) therefore consumes elements whose outer layer is
  graded a, and lands in the carrier at grade a*b.
* For writer-shaped instances the result annotation is outer-then-inner,
  matching the grade product orientation.
* Components are plain callables returning FinFns.  Nothing is natural by
  construction; the law suites check naturality exhaustively over all
  maps between the canonical test sets.
* Each law suite is a private generator of its law instances in record
  order; ``report.run_suite`` builds the Report, and ``check_all`` chains
  the five suites into one.  Every instance reaches ``Report.compare`` or
  ``Report.add`` once.  Two sides are compared by ``finkit.mismatch``, the
  one comparator: ``Report.compare`` calls it, and so does the commute
  record of each grade pair, on the composites of ``commute_sides``.
* The laws quantified over every map f between canonical sets (lift-,
  strength-, unit-, mult- and component-natural, fmap-compose) yield their
  two sides as index rows, ``(law, grades, sets, dom, cod, lhs, rhs,
  note)``: no map is built for an instance, and a passing one costs one row
  comparison.  A block, a law with its grades and sets, checks its
  endpoints once with ``report.endpoints``; an fmap image runs between the
  carriers of f's domain and codomain, so the carriers stand for it.  Each
  law calls fmap on every f, the component under test, and hoists the rest
  out of the loop over f: an earlier law of the suite has fetched them, and
  mult-natural fetches each mult at its first f, so a faulty component
  raises the same first error.  The strength-natural laws read the hoisted
  strength as rows (``pair_rows``); each note, and each f (x) id handed to
  fmap, is built once per set tuple.
* Every law side is a chain read by finkit's composite vocabulary, which
  checks each link: the row laws read their sides with ``seq_row`` and the
  other laws build theirs as maps with ``seq``, ``tensor_then`` and
  ``alpha_then``.  No then, tensor_fn or associator is built per instance,
  and the associator that fmap is handed is built once per set triple.
  Components are fetched in the composites' order.
* Memos and the suites' own tables key a set by its ``vid``, and type
  checks compare vids, so no suite calls the Python-level set hash or
  equality.
* ``remember`` alone type-checks a component, by vid, and stores it; what it
  rejects is never stored, so the next call for that key raises again.
* The built-ins supply their costrengths as index tables, a writer's being
  ``finkit.twist``, and the centre monad restricts its parent's, so no
  commutation scan over them derives one; ``derive_costrength`` serves a
  caller-built monad that gives none, and ``costrength-involution`` checks
  a supplied one against the strength.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import chain, product

from .finkit import (
    Const,
    FinFn,
    FinSet,
    FunctorExpr,
    Id,
    Prod,
    SetSizeError,
    all_fns,
    alpha,
    alpha_inv,
    alpha_inv_then,
    alpha_then,
    apply_mor,
    apply_obj,
    canonical_set,
    check_ends,
    degree,
    gamma,
    identity_fn,
    lam,
    mismatch,
    op_table,
    pair_rows,
    rho,
    seq,
    seq_row,
    tensor,
    tensor_fn,
    tensor_then,
    twist,
    unit_set,
)
from .pomonoid import (
    Pomonoid,
    PomonoidMorphism,
    bool_pomonoid,
    centre_of_pomonoid,
    check_pomonoid_morphism,
    multi_error_pomonoid,
    structurally_equal,
)
from .report import LawRecord, Report, endpoints, run_suite


class GradedMonadError(ValueError):
    pass


class ComponentMissing(GradedMonadError):
    pass


class UnknownName(GradedMonadError):
    pass


class CarrierMismatch(GradedMonadError):
    """The two sequencing composites land in different carriers; ``args[0]``
    is the least token in only one of them, or None."""


class CentreError(ValueError):
    """A centre or centrality scan refused its input."""


def remember(memo: dict, key, fn: FinFn, dom: FinSet, cod: FinSet, what: str,
             error=ComponentMissing) -> FinFn:
    """Store ``fn`` at ``key`` in ``memo`` and return it, once its vids show it
    runs dom -> cod; raise ``error`` naming ``what`` otherwise."""
    if fn.dom.vid != dom.vid or fn.cod.vid != cod.vid:
        raise error(f"{what} has wrong type")
    memo[key] = fn
    return fn


def canonical_sets(k: int) -> list[FinSet]:
    """The canonical sets of sizes 0..k; a negative k raises SetSizeError,
    since a scan over no set would pass without checking anything."""
    if k < 0:
        raise SetSizeError(f"largest set size {k} is negative: the scan would check nothing")
    canonical_set(k)   # an oversized k fails here, so the error names k itself
    return [canonical_set(n) for n in range(k + 1)]


@dataclass
class GradedStrongMonad:
    """A pomonoid-graded strong monad presented by components.

    Either ``functor`` (grade -> FunctorExpr) or the pair
    ``carrier_fn``/``fmap_fn`` must be provided; the latter exists for
    monads whose carriers are not polynomial, like computed centres.
    ``lift`` may be omitted when the grading order is discrete.
    ``costrength`` may be omitted, as a caller-built ``fmap_fn`` monad may
    omit it; it is then derived from the strength by conjugation with the
    symmetry (``derive_costrength``), which costs two symmetries, one more
    strength and one more fmap image.  The built-ins supply theirs, and the
    centre monad restricts its parent's; ``costrength-involution`` checks a
    supplied one against the strength.
    """

    pomonoid: Pomonoid
    unit: callable           # X -> FinFn: X -> T^i X
    mult: callable           # (a, b, X) -> FinFn: T^a T^b X -> T^{a*b} X
    strength: callable       # (a, X, Y) -> FinFn: X (x) T^a Y -> T^a (X (x) Y)
    functor: callable | None = None
    carrier_fn: callable | None = None
    fmap_fn: callable | None = None
    lift: callable | None = None        # (a, b, X) -> FinFn: T^a X -> T^b X
    costrength: callable | None = None  # (a, X, Y) -> FinFn: T^a X (x) Y -> T^a (X (x) Y)
    name: str = ""
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.functor is None and (self.carrier_fn is None or self.fmap_fn is None):
            raise ComponentMissing("need functor or carrier_fn+fmap_fn")

    def functor_expr(self, a: str) -> FunctorExpr | None:
        return self.functor(a) if self.functor is not None else None

    def carrier(self, a: str, X: FinSet) -> FinSet:
        key = ("carrier", a, X.vid)
        if (S := self._memo.get(key)) is None:
            if self.functor is not None:
                S = self._memo[key] = apply_obj(self.functor(a), X)
            else:
                S = self._memo[key] = self.carrier_fn(a, X)
        return S

    def fmap(self, a: str, f: FinFn) -> FinFn:
        """T^a f, memoised by f's value: equal maps share one image, named after the
        first.  An ``fmap_fn`` image is type-checked once; ``apply_mor`` types its own."""
        key = ("fmap", a, f.dom.vid, f.cod.vid, f.idx)
        if (fn := self._memo.get(key)) is None:
            if self.functor is not None:
                fn = self._memo[key] = apply_mor(self.functor(a), f)
            else:
                fn = remember(self._memo, key, self.fmap_fn(a, f), self.carrier(a, f.dom),
                              self.carrier(a, f.cod), f"fmap({a})")
        return fn

    def unit_fn(self, X: FinSet) -> FinFn:
        key = ("unit", X.vid)
        if (fn := self._memo.get(key)) is None:
            fn = remember(self._memo, key, self.unit(X), X, self.carrier(self.pomonoid.unit, X),
                          "unit")
        return fn

    def mult_fn(self, a: str, b: str, X: FinSet) -> FinFn:
        key = ("mult", a, b, X.vid)
        if (fn := self._memo.get(key)) is None:
            fn = remember(self._memo, key, self.mult(a, b, X), self.carrier(a, self.carrier(b, X)),
                          self.carrier(self.pomonoid.times(a, b), X), f"mult({a},{b})")
        return fn

    def lift_fn(self, a: str, b: str, X: FinSet) -> FinFn:
        if not self.pomonoid.le(a, b):
            raise GradedMonadError(f"no lift: {a} is not below {b}")
        if a == b:
            return identity_fn(self.carrier(a, X))
        if self.lift is None:
            raise ComponentMissing(f"lift for {a} <= {b} not provided")
        key = ("lift", a, b, X.vid)
        if (fn := self._memo.get(key)) is None:
            fn = remember(self._memo, key, self.lift(a, b, X), self.carrier(a, X),
                          self.carrier(b, X), f"lift({a},{b})")
        return fn

    def strength_fn(self, a: str, X: FinSet, Y: FinSet) -> FinFn:
        key = ("tau", a, X.vid, Y.vid)
        if (fn := self._memo.get(key)) is None:
            fn = remember(self._memo, key, self.strength(a, X, Y), tensor(X, self.carrier(a, Y)),
                          self.carrier(a, tensor(X, Y)), f"strength({a})")
        return fn

    def costrength_fn(self, a: str, X: FinSet, Y: FinSet) -> FinFn:
        key = ("tau'", a, X.vid, Y.vid)
        if (fn := self._memo.get(key)) is None:
            if self.costrength is not None:
                fn = remember(self._memo, key, self.costrength(a, X, Y),
                              tensor(self.carrier(a, X), Y), self.carrier(a, tensor(X, Y)),
                              f"costrength({a})")
            else:
                fn = self._memo[key] = derive_costrength(self, a, X, Y)
        return fn


def derive_costrength(M: GradedStrongMonad, a: str, X: FinSet, Y: FinSet) -> FinFn:
    """T^a X (x) Y -> T^a (X (x) Y) by swapping, strength, swapping inside: the
    costrength of a monad that gives none."""
    return seq(gamma(M.carrier(a, X), Y), M.strength_fn(a, Y, X), M.fmap(a, gamma(Y, X)))


def strength_from_costrength(M: GradedStrongMonad, a: str, X: FinSet, Y: FinSet) -> FinFn:
    """The inverse derivation; coincides with the strength when tau' came from tau."""
    return seq(gamma(X, M.carrier(a, Y)), M.costrength_fn(a, Y, X), M.fmap(a, gamma(Y, X)))


def commute_maps(M: GradedStrongMonad, a: str, b: str, X: FinSet, Y: FinSet):
    """The two sequencing composites T^a X (x) T^b Y -> T^{..}(X (x) Y).

    Left-first runs the a-computation's strength pass first and lands at
    grade a*b; right-first is the mirror landing at b*a.
    """
    XY = tensor(X, Y)
    left = seq(M.costrength_fn(a, X, M.carrier(b, Y)), M.fmap(a, M.strength_fn(b, X, Y)),
               M.mult_fn(a, b, XY))
    right = seq(M.strength_fn(b, M.carrier(a, X), Y), M.fmap(b, M.costrength_fn(a, X, Y)),
                M.mult_fn(b, a, XY))
    return left, right


def scan_sets(M: GradedStrongMonad, *grades: str, k: int | None = None,
              bound=None) -> list[FinSet]:
    """The canonical sets every commutation scan against ``grades`` reads, up
    to their largest degree d: the composites are natural in X and Y, so with
    a natural strength and costrength the first failing (X, Y) lies there.

    A commute record caps d by ``k``, or reads up to k if a grade has no
    functor expression; a centrality scan reads up to ``bound``, or d if it is
    None.  SetSizeError, naming it, refuses a negative or oversized k or bound,
    and a bound below d, which would pass elements that are not central."""
    exprs = [M.functor_expr(g) for g in grades]
    d = None if None in exprs else max(map(degree, exprs))
    if k is not None:
        sets = canonical_sets(k)
        return sets if d is None else sets[:d + 1]
    if bound is None and d is None:
        raise CentreError("monad has no functor expression; pass an explicit bound")
    n = d if bound is None else int(bound)
    if n < 0:
        raise SetSizeError(
            f"test-set bound {n} is negative: every element would pass as central")
    if d is not None and n < d:
        raise SetSizeError(f"test-set bound {n} is below the degree {d} of grade {grades[0]}")
    return canonical_sets(n)


def commute_sides(M: GradedStrongMonad, a: str, b: str, X: FinSet, Y: FinSet,
                  top: str | None = None):
    """The kernel of every commutation scan: the two composites of
    ``commute_maps`` at one (a, b, X, Y), both lifted to grade ``top`` if given.

    CarrierMismatch if their target carriers differ; None where T^a X (x) T^b Y
    is empty, since no composite is built over a domain with no element."""
    P, XY = M.pomonoid, tensor(X, Y)
    ab, ba = P.times(a, b), P.times(b, a)
    # both sides land in one carrier when lifted to a top or graded alike
    if top is None and ab != ba:
        Cab, Cba = M.carrier(ab, XY), M.carrier(ba, XY)
        if Cab.vid != Cba.vid:
            only = sorted(set(Cab.elems) ^ set(Cba.elems))
            raise CarrierMismatch(only[0] if only else None)
    if len(M.carrier(a, X)) == 0 or len(M.carrier(b, Y)) == 0:
        return None
    left, right = commute_maps(M, a, b, X, Y)
    if top is not None:
        left = seq(left, M.lift_fn(ab, top, XY))
        right = seq(right, M.lift_fn(ba, top, XY))
    check_ends(left.dom, left.cod, right.dom, right.cod)
    return left, right


def commutation_witness(M: GradedStrongMonad, a: str, b: str, X: FinSet, Y: FinSet,
                        top: str | None = None):
    """Where the two sequencing composites of T^a X (x) T^b Y disagree.

    Returns the column map ``bad`` of the kernel's composites (``commute_sides``,
    which ``_commute_record`` reads too): ``bad[i] = j`` for each row i of T^a X
    at which they disagree somewhere, j being the column, of those where they
    do, whose token of T^b Y is least.  Reads the composites' rows
    (``pair_rows``), and T^b Y's tokens when they differ.
    """
    sides = commute_sides(M, a, b, X, Y, top)
    if sides is None or sides[0].idx == sides[1].idx:
        return {}
    TaX, TbY = M.carrier(a, X), M.carrier(b, Y)
    columns = sorted(range(len(TbY)), key=TbY.elems.__getitem__)
    rows = zip(*(pair_rows(side, TaX, TbY) for side in sides))
    firsts = (next((j for j in columns if lhs[j] != rhs[j]), None) for lhs, rhs in rows)
    return {i: j for i, j in enumerate(firsts) if j is not None}


# --- law suites ----------------------------------------------------------
# Instances are LawRecords or comparisons, of rows (law, grades, sets, dom, cod,
# lhs, rhs, note) or of maps (law, grades, sets, lhs, rhs[, note]).

def _maps(X: FinSet, Y: FinSet, name: str = "f"):
    """Every map f: X -> Y in ``all_fns`` order, with its note f"{name}={f.mapping}"
    joined from one table of ``'x': 'y'`` parts."""
    parts = [[f"{x!r}: {y!r}" for y in Y.elems] for x in X.elems]
    for f in all_fns(X, Y):
        yield f, f"{name}={{" + ", ".join([row[j] for row, j in zip(parts, f.idx)]) + "}"


def _monad_laws(M: GradedStrongMonad, k: int):
    P = M.pomonoid
    i = P.unit
    sets = canonical_sets(k)
    for X, a in product(sets, P.elements):
        TaX = M.carrier(a, X)
        left = seq(M.unit_fn(TaX), M.mult_fn(i, a, X))
        yield "unit-left", (a,), (X.name,), left, identity_fn(TaX)
        right = seq(M.fmap(a, M.unit_fn(X)), M.mult_fn(a, i, X))
        yield "unit-right", (a,), (X.name,), right, identity_fn(TaX)
    for X, a, b, c in product(sets, P.elements, P.elements, P.elements):
        TcX = M.carrier(c, X)
        outer_first = seq(M.mult_fn(a, b, TcX), M.mult_fn(P.times(a, b), c, X))
        inner_first = seq(M.fmap(a, M.mult_fn(b, c, X)), M.mult_fn(a, P.times(b, c), X))
        yield "assoc", (a, b, c), (X.name,), outer_first, inner_first


def _order_laws(M: GradedStrongMonad, k: int):
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
                composed = seq(M.lift_fn(a, b, X), M.lift_fn(b, c, X))
                yield "lift-compose", (a, b, c), (X.name,), composed, M.lift_fn(a, c, X)
    for X, Y in product(sets, sets):
        names = (X.name, Y.name)
        lifts = [(a, b, M.lift_fn(a, b, Y), M.lift_fn(a, b, X)) for a, b in comparable if a != b]
        lifts = [((a, b), up_Y, up_X, *endpoints("lift-natural", M.carrier(a, X), up_Y.cod,
                                                 up_X.dom, M.carrier(b, Y)))
                 for a, b, up_Y, up_X in lifts]
        for f, note in _maps(X, Y):
            for grades, up_Y, up_X, dom, cod in lifts:
                a, b = grades
                yield ("lift-natural", grades, names, dom, cod, seq_row(M.fmap(a, f), up_Y),
                       seq_row(up_X, M.fmap(b, f)), note)
    for X, (a, a2), (b, b2) in product(sets, comparable, comparable):
        if a == a2 and b == b2:
            continue
        direct = seq(M.mult_fn(a, b, X), M.lift_fn(P.times(a, b), P.times(a2, b2), X))
        inside = seq(M.lift_fn(a, a2, M.carrier(b, X)), M.fmap(a2, M.lift_fn(b, b2, X)),
                     M.mult_fn(a2, b2, X))
        yield "mult-lift", (a, a2, b, b2), (X.name,), direct, inside


def _strength_laws(M: GradedStrongMonad, k: int):
    P = M.pomonoid
    sets = canonical_sets(k)
    I = unit_set()
    maps_of = {}   # _maps(X, Y, name) as a list, by (X.vid, Y.vid, name)

    def maps(X, Y, name):
        key = (X.vid, Y.vid, name)
        if key not in maps_of:
            maps_of[key] = list(_maps(X, Y, name))
        return maps_of[key]

    for Y, a in product(sets, P.elements):
        TaY = M.carrier(a, Y)
        lhs = seq(M.strength_fn(a, I, Y), M.fmap(a, lam(Y)))
        yield "strength-unitor", (a,), (Y.name,), lhs, lam(TaY)
    for X, Y, Z in product(sets, sets, sets):
        names, XY, YZ = (X.name, Y.name, Z.name), tensor(X, Y), tensor(Y, Z)
        assoc = alpha(X, Y, Z)
        for a in P.elements:
            via_assoc = alpha_then(X, Y, M.carrier(a, Z), M.strength_fn(a, Y, Z),
                                   M.strength_fn(a, X, YZ))
            direct = seq(M.strength_fn(a, XY, Z), M.fmap(a, assoc))
            yield "strength-assoc", (a,), names, via_assoc, direct
    for X, Y in product(sets, sets):
        XY = tensor(X, Y)
        lhs = tensor_then(identity_fn(X), M.unit_fn(Y), M.strength_fn(P.unit, X, Y))
        yield "strength-unit", (P.unit,), (X.name, Y.name), lhs, M.unit_fn(XY)
        for a, b in product(P.elements, P.elements):
            TbY = M.carrier(b, Y)
            lhs = tensor_then(identity_fn(X), M.mult_fn(a, b, Y),
                              M.strength_fn(P.times(a, b), X, Y))
            rhs = seq(M.strength_fn(a, X, TbY), M.fmap(a, M.strength_fn(b, X, Y)),
                      M.mult_fn(a, b, XY))
            yield "strength-mult", (a, b), (X.name, Y.name), lhs, rhs
    for X, X2, Y in product(sets, sets, sets):
        names, XY, X2Y = (X.name, X2.name, Y.name), tensor(X, Y), tensor(X2, Y)
        xy, at = XY.pair_list(), X2Y.pair_grid()
        # each f with f (x) id_Y, the map fmap is handed, and its note
        fs = [(f.idx, FinFn._table(XY, X2Y, tuple([at[f.idx[x]][y] for x, y in xy])), note)
              for f, note in maps(X, X2, "f")]
        for a in P.elements:
            TaY, grades = M.carrier(a, Y), (a,)
            tau2, tau = M.strength_fn(a, X2, Y), M.strength_fn(a, X, Y)
            rows, XT = pair_rows(tau2, X2, TaY), tensor(X, TaY)
            dom, cod = endpoints("strength-natural-left", XT, tau2.cod, tau.dom,
                                 M.carrier(a, X2Y))
            for fi, f_id, note in fs:
                lhs = tuple(chain.from_iterable(map(rows.__getitem__, fi)))
                yield ("strength-natural-left", grades, names, dom, cod, lhs,
                       seq_row(tau, M.fmap(a, f_id)), note)
    for X, Y, Y2 in product(sets, sets, sets):
        names, XY, XY2 = (X.name, Y.name, Y2.name), tensor(X, Y), tensor(X, Y2)
        xy, at = XY.pair_list(), XY2.pair_grid()
        # each g with id_X (x) g, the map fmap is handed, and its note
        gs = [(g, FinFn._table(XY, XY2, tuple([at[x][g.idx[y]] for x, y in xy])), note)
              for g, note in maps(Y, Y2, "g")]
        for a in P.elements:
            TaY, grades = M.carrier(a, Y), (a,)
            tau2, tau = M.strength_fn(a, X, Y2), M.strength_fn(a, X, Y)
            rows, XT = pair_rows(tau2, X, M.carrier(a, Y2)), tensor(X, TaY)
            dom, cod = endpoints("strength-natural-right", XT, tau2.cod, tau.dom,
                                 M.carrier(a, XY2))
            for g, g_id, note in gs:
                G = M.fmap(a, g).idx
                lhs = tuple([row[j] for row in rows for j in G])
                yield ("strength-natural-right", grades, names, dom, cod, lhs,
                       seq_row(tau, M.fmap(a, g_id)), note)
    if not P.is_discrete():
        for X, Y, (a, b) in product(sets, sets, P.comparable_pairs()):
            if a != b:
                lhs = seq(M.strength_fn(a, X, Y), M.lift_fn(a, b, tensor(X, Y)))
                rhs = tensor_then(identity_fn(X), M.lift_fn(a, b, Y), M.strength_fn(b, X, Y))
                yield "strength-lift", (a, b), (X.name, Y.name), lhs, rhs
    # strength/costrength interchange across a sandwiched tensor
    for W, X, Y in product(sets, sets, sets):
        names, WX, XY = (W.name, X.name, Y.name), tensor(W, X), tensor(X, Y)
        unassoc = alpha_inv(W, X, Y)
        for a in P.elements:
            TaX = M.carrier(a, X)
            lhs = tensor_then(M.strength_fn(a, W, X), identity_fn(Y), M.costrength_fn(a, WX, Y))
            rhs = alpha_then(W, TaX, Y, M.costrength_fn(a, X, Y), M.strength_fn(a, W, XY),
                             M.fmap(a, unassoc))
            yield "strength-interchange", (a,), names, lhs, rhs


def _costrength_coherence(M: GradedStrongMonad, k: int):
    P = M.pomonoid
    sets = canonical_sets(k)
    I = unit_set()
    for X, a in product(sets, P.elements):
        TaX = M.carrier(a, X)
        lhs = seq(M.costrength_fn(a, X, I), M.fmap(a, rho(X)))
        yield "costrength-unitor", (a,), (X.name,), lhs, rho(TaX)
    for X, Y in product(sets, sets):
        XY = tensor(X, Y)
        lhs = tensor_then(M.unit_fn(X), identity_fn(Y), M.costrength_fn(P.unit, X, Y))
        yield "costrength-unit", (P.unit,), (X.name, Y.name), lhs, M.unit_fn(XY)
        for a, b in product(P.elements, P.elements):
            TbX = M.carrier(b, X)
            lhs = tensor_then(M.mult_fn(a, b, X), identity_fn(Y),
                              M.costrength_fn(P.times(a, b), X, Y))
            rhs = seq(M.costrength_fn(a, TbX, Y), M.fmap(a, M.costrength_fn(b, X, Y)),
                      M.mult_fn(a, b, XY))
            yield "costrength-mult", (a, b), (X.name, Y.name), lhs, rhs
    for X, Y, Z in product(sets, sets, sets):
        names, XY, YZ = (X.name, Y.name, Z.name), tensor(X, Y), tensor(Y, Z)
        unassoc = alpha_inv(X, Y, Z)
        for a in P.elements:
            via_assoc = alpha_inv_then(M.carrier(a, X), Y, Z, M.costrength_fn(a, X, Y),
                                       M.costrength_fn(a, XY, Z))
            direct = seq(M.costrength_fn(a, X, YZ), M.fmap(a, unassoc))
            yield "costrength-assoc", (a,), names, via_assoc, direct
    for X, Y, a in product(sets, sets, P.elements):
        yield ("costrength-involution", (a,), (X.name, Y.name),
               strength_from_costrength(M, a, X, Y), M.strength_fn(a, X, Y))


def _naturality(M: GradedStrongMonad, k: int):
    P = M.pomonoid
    sets = canonical_sets(k)
    for X, a in product(sets, P.elements):
        yield "fmap-id", (a,), (X.name,), M.fmap(a, identity_fn(X)), identity_fn(M.carrier(a, X))
    # composition is quadratic in the function count, so cap the sizes
    small = [S for S in sets if len(S) <= 2]
    for X, Y, Z in product(small, small, small):
        names = (X.name, Y.name, Z.name)
        # both sides run carrier(a, X) -> carrier(a, Z), as every fmap image does
        ends = {a: (M.carrier(a, X), M.carrier(a, Z)) for a in P.elements}
        for f, f_note in _maps(X, Y):
            for (g, g_note), a in product(_maps(Y, Z, "g"), P.elements):
                yield ("fmap-compose", (a,), names, *ends[a], seq_row(M.fmap(a, f), M.fmap(a, g)),
                       M.fmap(a, seq(f, g)).idx, f"{f_note} {g_note}")
    i = P.unit
    grade_pairs = [(a, b, P.times(a, b)) for a, b in product(P.elements, P.elements)]
    for X, Y in product(sets, sets):
        names, mults = (X.name, Y.name), {}
        unit_Y, unit_X = M.unit_fn(Y), M.unit_fn(X)
        dom, cod = endpoints("unit-natural", X, unit_Y.cod, unit_X.dom, M.carrier(i, Y))
        for f, note in _maps(X, Y):
            yield ("unit-natural", (i,), names, dom, cod, seq_row(f, unit_Y),
                   seq_row(unit_X, M.fmap(i, f)), note)
            for a, b, ab in grade_pairs:
                FF = M.fmap(a, M.fmap(b, f))
                if (a, b) not in mults:
                    mu_Y, mu_X = M.mult_fn(a, b, Y), M.mult_fn(a, b, X)
                    mults[a, b] = (a, b), mu_Y, mu_X, *endpoints(
                        "mult-natural", M.carrier(a, M.carrier(b, X)), mu_Y.cod, mu_X.dom,
                        M.carrier(ab, Y))
                grades, mu_Y, mu_X, dom_ab, cod_ab = mults[a, b]
                F = M.fmap(ab, f)
                yield ("mult-natural", grades, names, dom_ab, cod_ab, seq_row(FF, mu_Y),
                       seq_row(mu_X, F), note)


def check_monad_laws(M: GradedStrongMonad, k: int = 3) -> Report:
    """Unit and associativity diagrams, exhaustively over canonical sets."""
    return run_suite(f"monad-laws({M.name})", _monad_laws(M, k))


def check_order_laws(M: GradedStrongMonad, k: int = 3) -> Report:
    """Lift functoriality, naturality, and compatibility with mu."""
    return run_suite(f"order-laws({M.name})", _order_laws(M, k))


def check_strength_laws(M: GradedStrongMonad, k: int = 3) -> Report:
    """The four strength axioms, naturality in both slots, lift and
    strength/costrength interchange compatibility."""
    return run_suite(f"strength-laws({M.name})", _strength_laws(M, k))


def check_costrength_coherence(M: GradedStrongMonad, k: int = 3) -> Report:
    """Mirror diagrams for the costrength, plus the swap involution."""
    return run_suite(f"costrength-coherence({M.name})", _costrength_coherence(M, k))


def check_naturality(M: GradedStrongMonad, k: int = 3) -> Report:
    """Functoriality of every T^a and naturality of unit and mult."""
    return run_suite(f"naturality({M.name})", _naturality(M, k))


def _commute_record(M: GradedStrongMonad, a: str, b: str, sets) -> LawRecord:
    """The commute record of grades a, b over every (X, Y) of ``sets``, at the
    first that fails: ``mismatch`` on the kernel's composites (``commute_sides``),
    which ``commutation_witness`` reads row by row."""
    for X, Y in product(sets, sets):
        try:
            sides = commute_sides(M, a, b, X, Y)
        except CarrierMismatch as exc:
            return LawRecord("commute", (a, b), (X.name, Y.name), False, exc.args[0],
                             note="carrier-mismatch")
        failure = sides and mismatch(sides[0].dom, sides[0].cod, sides[0].idx, sides[1].idx)
        if failure:
            return LawRecord("commute", (a, b), (X.name, Y.name), False, *failure,
                             "value-mismatch")
    return LawRecord("commute", (a, b))


def check_commutative(M: GradedStrongMonad, k: int = 3) -> Report:
    """Left-first vs right-first sequencing at every grade pair.

    A pair passes only if the two target carriers are equal as sets of
    tokens and the two composites agree pointwise; the record notes which
    of the two comparisons broke.  Each pair is decided on ``scan_sets``: a
    claim about every set, sound when the strength and costrength are natural.
    """
    return run_suite(f"commutative({M.name})", (
        _commute_record(M, a, b, scan_sets(M, a, b, k=k))
        for a, b in product(M.pomonoid.elements, repeat=2)))


def commuting_pair(M: GradedStrongMonad, a: str, b: str, k: int = 3) -> bool:
    """The pairwise slice of check_commutative for one grade pair, read on the
    same sets: sound when the strength and costrength are natural."""
    return _commute_record(M, a, b, scan_sets(M, a, b, k=k)).ok


def check_all(M: GradedStrongMonad, k: int = 3) -> Report:
    """The five suites above in one report, in that order."""
    return run_suite(f"all-laws({M.name})", chain(
        _monad_laws(M, k), _order_laws(M, k), _strength_laws(M, k),
        _costrength_coherence(M, k), _naturality(M, k)))


# --- morphisms ------------------------------------------------------------

@dataclass
class GradedMonadMorphism:
    """Components source^a X -> target^{phi a} X over a pomonoid morphism."""

    phi: PomonoidMorphism
    source: GradedStrongMonad
    target: GradedStrongMonad
    component: callable     # (a, X) -> FinFn
    name: str = ""
    _memo: dict = field(default_factory=dict, repr=False)

    def component_fn(self, a: str, X: FinSet) -> FinFn:
        """The component at (a, X), built and type-checked once per key."""
        if (fn := self._memo.get((a, X.vid))) is None:
            fn = remember(self._memo, (a, X.vid), self.component(a, X), self.source.carrier(a, X),
                          self.target.carrier(self.phi(a), X), f"component({a})")
        return fn


def _morphism_laws(m: GradedMonadMorphism, k: int):
    grades = check_pomonoid_morphism(m.phi)
    for r in grades.records:
        yield replace(r, law=f"grades.{r.law}")
    if not grades.ok:
        return
    S, T, phi = m.source, m.target, m.phi
    GP, HP = S.pomonoid, T.pomonoid
    sets = canonical_sets(k)
    for X in sets:
        lhs = seq(S.unit_fn(X), m.component_fn(GP.unit, X))
        rhs = seq(T.unit_fn(X), T.lift_fn(HP.unit, phi(GP.unit), X))
        yield "unit-square", (GP.unit,), (X.name,), lhs, rhs
    for X, a, b in product(sets, GP.elements, GP.elements):
        ab = GP.times(a, b)
        SbX = S.carrier(b, X)
        lhs = seq(S.mult_fn(a, b, X), m.component_fn(ab, X))
        rhs = seq(m.component_fn(a, SbX), T.fmap(phi(a), m.component_fn(b, X)),
                  T.mult_fn(phi(a), phi(b), X), T.lift_fn(HP.times(phi(a), phi(b)), phi(ab), X))
        yield "mult-square", (a, b), (X.name,), lhs, rhs
    for X, Y, a in product(sets, sets, GP.elements):
        lhs = seq(S.strength_fn(a, X, Y), m.component_fn(a, tensor(X, Y)))
        rhs = tensor_then(identity_fn(X), m.component_fn(a, Y), T.strength_fn(phi(a), X, Y))
        yield "strength-square", (a,), (X.name, Y.name), lhs, rhs
    for X, (a, b) in product(sets, GP.comparable_pairs()):
        if a != b:
            lhs = seq(S.lift_fn(a, b, X), m.component_fn(b, X))
            rhs = seq(m.component_fn(a, X), T.lift_fn(phi(a), phi(b), X))
            yield "lift-square", (a, b), (X.name,), lhs, rhs
    for X, Y in product(sets, sets):
        names = (X.name, Y.name)
        comps = [(a, phi(a), m.component_fn(a, Y), m.component_fn(a, X)) for a in GP.elements]
        comps = [((a,), a, pa, c_Y, c_X, *endpoints("component-natural", S.carrier(a, X),
                                                    c_Y.cod, c_X.dom, T.carrier(pa, Y)))
                 for a, pa, c_Y, c_X in comps]
        for f, note in _maps(X, Y):
            for grades, a, pa, c_Y, c_X, dom, cod in comps:
                yield ("component-natural", grades, names, dom, cod, seq_row(S.fmap(a, f), c_Y),
                       seq_row(c_X, T.fmap(pa, f)), note)


def check_graded_monad_morphism(m: GradedMonadMorphism, k: int = 3) -> Report:
    """Unit, mult, strength, lift squares plus naturality of each component."""
    return run_suite(f"monad-morphism({m.name})", _morphism_laws(m, k))


# --- built-in instances ----------------------------------------------------

def identity_monad(P: Pomonoid) -> GradedStrongMonad:
    """Every grade maps to the identity functor; all components identities."""
    return GradedStrongMonad(
        pomonoid=P,
        functor=lambda a: Id(),
        unit=identity_fn,
        mult=lambda a, b, X: identity_fn(X),
        strength=lambda a, X, Y: identity_fn(tensor(X, Y)),
        costrength=lambda a, X, Y: identity_fn(tensor(X, Y)),
        lift=lambda a, b, X: identity_fn(X),
        name=f"identity({P.name or 'G'})",
    )


def multi_error_writer(topped: bool = False) -> GradedStrongMonad:
    """Writer with per-grade annotation sets and an absorbing error grade.

    The unit grade carries no annotation, each warning grade carries its
    own one-element annotation, and the error grade collapses everything
    to a point.  mult keeps the value and the annotation selected by the
    grade product; any error grade in the product discards both.
    """
    P = multi_error_pomonoid(topped=topped)
    warnings = {"wa": FinSet("Wa", ("a",)), "wb": FinSet("Wb", ("b",))}
    exprs = {"t": Id(), "e": Const(unit_set())}
    exprs.update((a, Prod(Id(), Const(W))) for a, W in warnings.items())

    def to_point(dom):
        return FinFn._table(dom, unit_set(), (0,) * len(dom))

    def mult(a, b, X):
        dom_inner = apply_obj(exprs[b], X)
        dom = apply_obj(exprs[a], dom_inner)
        if P.times(a, b) == "e":
            return to_point(dom)
        if a in warnings and b in warnings:
            # ((x,v),u) -> (x,v), and the inner carrier is the target one
            cod = apply_obj(exprs[P.times(a, b)], X)
            return FinFn._table(dom, cod,
                                tuple([p for p in range(len(dom_inner)) for _ in warnings[a]]))
        # remaining cases have a = t or b = t, so the carriers coincide
        return identity_fn(dom)

    def strength(a, X, Y):
        dom = tensor(X, apply_obj(exprs[a], Y))
        if a == "e":
            return to_point(dom)
        if a == "t":
            return identity_fn(dom)
        return alpha_inv(X, Y, warnings[a])

    def costrength(a, X, Y):
        # the mirror of strength
        dom = tensor(apply_obj(exprs[a], X), Y)
        if a == "e":
            return to_point(dom)
        if a == "t":
            return identity_fn(dom)
        return twist(X, warnings[a], Y)

    def lift(a, b, X):
        # only grade e sits above others, and its carrier is a point
        if b == "e":
            return to_point(apply_obj(exprs[a], X))
        raise ComponentMissing(f"unexpected lift {a} <= {b}")

    return GradedStrongMonad(
        pomonoid=P,
        functor=lambda a: exprs[a],
        unit=identity_fn,
        mult=mult,
        strength=strength,
        costrength=costrength,
        lift=lift if topped else None,
        name="multi_error_writer_topped" if topped else "multi_error_writer",
    )


def writer_monad(P: Pomonoid, carriers: dict[str, FinSet],
                 annotation_mul, unit_ann: str, name: str = "writer") -> GradedStrongMonad:
    """Graded writer over per-grade annotation sets.

    carriers[a] is the annotation set at grade a; annotation_mul(u, v)
    multiplies an outer annotation u with an inner one v, and must land
    in carriers[a*b] whenever u is in carriers[a] and v in carriers[b].
    Lifts are token inclusions, so carriers must grow along the order.
    """
    exprs = {a: Prod(Id(), Const(carriers[a])) for a in P.elements}

    @functools.cache
    def products(a, b):
        return op_table(annotation_mul, carriers[a], carriers[b], carriers[P.times(a, b)])

    def mult(a, b, X):
        # ((x,v),u) -> (x,u*v) for outer annotation u and inner v
        table = products(a, b)
        inner = tensor(X, carriers[b])
        cod = tensor(X, carriers[P.times(a, b)])
        at = cod.pair_grid()
        return FinFn._table(tensor(inner, carriers[a]), cod,
                            tuple([at[x][row[v]] for x, v in inner.pair_list() for row in table]))

    def strength(a, X, Y):
        # (x,(y,u)) -> ((x,y),u)
        return alpha_inv(X, Y, carriers[a])

    def costrength(a, X, Y):
        # ((x,u),y) -> ((x,y),u)
        return twist(X, carriers[a], Y)

    def lift(a, b, X):
        # (x,u) -> (x,u); the checked constructor rejects a carrier that shrinks
        inclusion = FinFn(carriers[a], carriers[b], {u: u for u in carriers[a]})
        return tensor_fn(identity_fn(X), inclusion)

    def unit(X):
        # x -> (x,unit_ann); the checked constructor rejects a unit_ann outside the carrier
        e = FinFn(unit_set(), carriers[P.unit], {"*": unit_ann}).idx[0]
        cod = tensor(X, carriers[P.unit])
        return FinFn._table(X, cod, tuple([row[e] for row in cod.pair_grid()]))

    return GradedStrongMonad(
        pomonoid=P,
        functor=lambda a: exprs[a],
        unit=unit,
        mult=mult,
        strength=strength,
        costrength=costrength,
        lift=lift,
        name=name,
    )


def bool_writer_pair(M: Pomonoid | None = None) -> GradedStrongMonad:
    """Two-level writer: central annotations at tt, the full monoid at ff.

    M is any finite monoid given as a (discretely ordered is fine)
    pomonoid; annotations multiply in M, and the tt-grade carrier is cut
    down to the centre of M so that the lift along tt <= ff is a plain
    inclusion.
    """
    if M is None:
        M = multi_error_pomonoid()
    Z, _ = centre_of_pomonoid(M)
    P = bool_pomonoid()
    carriers = {
        "tt": FinSet(f"Z({M.name or 'M'})", Z.elements),
        "ff": FinSet(M.name or "M", M.elements),
    }
    return writer_monad(P, carriers, M.times, M.unit, name="bool_writer_pair")


def discrete_to_topped_morphism() -> GradedMonadMorphism:
    """Same writer, finer grade order: identity components over identity grades."""
    S = multi_error_writer()
    T = multi_error_writer(topped=True)
    phi = PomonoidMorphism(source=S.pomonoid, target=T.pomonoid,
                           mapping={a: a for a in S.pomonoid.elements})
    return GradedMonadMorphism(
        phi=phi, source=S, target=T,
        component=lambda a, X: identity_fn(S.carrier(a, X)),
        name="discrete-to-topped",
    )


def registry() -> dict:
    """Zero-config builders for the named built-ins."""
    def language_writer():
        from .relaxations import build_language_writer, language_duoid
        duoid = language_duoid("ab", 2)
        return build_language_writer("ab", 2, duoid).monad

    return {
        "identity": lambda: identity_monad(multi_error_pomonoid()),
        "multi_error_writer": multi_error_writer,
        "multi_error_writer_topped": lambda: multi_error_writer(topped=True),
        "bool_writer_pair": bool_writer_pair,
        "language_writer": language_writer,
    }


# the built-ins that take a pomonoid: identity is graded by it, and the bool
# writer pair takes its annotations from it
REGRADABLE = {"identity": identity_monad, "bool_writer_pair": bool_writer_pair}


def build(name: str, pomonoid: Pomonoid | None = None) -> GradedStrongMonad:
    """The built-in named ``name``, built with ``pomonoid`` when it takes one;
    any other built-in keeps its own grading, and refuses a different one."""
    reg = registry()
    if name not in reg:
        raise UnknownName(f"no built-in monad named {name!r}")
    if pomonoid is not None and name in REGRADABLE:
        return REGRADABLE[name](pomonoid)
    return own_grading(name, reg[name](), pomonoid)


def own_grading(name: str, M: GradedStrongMonad, pomonoid: Pomonoid | None) -> GradedStrongMonad:
    """M, when ``pomonoid`` is None or is M's own grading up to names."""
    if pomonoid is not None and not structurally_equal(M.pomonoid, pomonoid):
        raise GradedMonadError(
            f"{name} is graded by its own pomonoid, not by {pomonoid.name or 'the given one'}")
    return M
