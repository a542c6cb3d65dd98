"""Relative centres and parallel-composition structure on the grading.

Two relaxations live here, both over a `Duoid`: a pomonoid with a second
multiplication ||.  Bimonoidal centres run the centrality filter
`central_rows` with both sequencing composites lifted into the common
over-approximating grade a||b.  Duoidal gradations add an interchange
map m that runs two computations side by side, graded by ||.

The running example is the duoid of capped languages under concatenation
and shuffle, with its graded writer monad.  Capping keeps everything
finite: a word is kept iff its final length fits, which preserves
associativity because intermediate words are never shorter than the final
one they end up in.
"""

import functools
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from .centre import CentralCone, central_rows
from .finkit import (
    FinFn,
    FinSet,
    all_fns,
    alpha,
    canonical_set,
    check_ends,
    identity_fn,
    lam,
    lam_inv,
    mismatch,
    op_table,
    rho,
    rho_inv,
    seq,
    seq_row,
    split_pair,
    tensor,
    tensor_fn,
    tensor_row,
    tensor_then,
    unit_set,
)
from .graded_monad import (
    GradedStrongMonad,
    canonical_sets,
    check_commutative,
    commute_maps,
    remember,
    writer_monad,
)
from .pomonoid import Duoid, structurally_equal, validate_pomonoid
from .report import LawRecord, Report, failure_record, run_suite


class LanguageError(ValueError):
    pass


class LanguageFormatError(LanguageError):
    pass


class AlphabetMismatch(LanguageError):
    pass


class ClosureExplosion(LanguageError):
    pass


class BimonoidMismatch(ValueError):
    pass


class NotCommutative(ValueError):
    pass


@dataclass(frozen=True)
class CappedLanguage:
    alphabet: str
    cap: int
    words: frozenset

    def __post_init__(self):
        for w in self.words:
            if len(w) > self.cap:
                raise LanguageFormatError(f"word {w!r} exceeds cap {self.cap}")
            for ch in w:
                if ch not in self.alphabet:
                    raise LanguageFormatError(f"word {w!r} uses {ch!r}, not in alphabet")

    def literal(self) -> str:
        return format_language_literal(self)


def parse_language_literal(text: str, alphabet: str, cap: int) -> CappedLanguage:
    """Literals: {} for empty, {_} for the empty word, {ab,ba} otherwise."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise LanguageFormatError(f"language literal must be braced: {text!r}")
    body = text[1:-1]
    if body == "":
        return CappedLanguage(alphabet, cap, frozenset())
    words = []
    for part in body.split(","):
        part = part.strip()
        if part == "_":
            words.append("")
        elif part == "":
            raise LanguageFormatError(f"empty word slot in {text!r} (use _ for the empty word)")
        else:
            words.append(part)
    return CappedLanguage(alphabet, cap, frozenset(words))


def format_language_literal(L: CappedLanguage) -> str:
    if not L.words:
        return "{}"
    shown = sorted("_" if w == "" else w for w in L.words)
    return "{" + ",".join(shown) + "}"


def _same_shape(L1: CappedLanguage, L2: CappedLanguage) -> None:
    if L1.alphabet != L2.alphabet or L1.cap != L2.cap:
        raise AlphabetMismatch(
            f"({L1.alphabet},{L1.cap}) does not match ({L2.alphabet},{L2.cap})")


def language_concat(L1: CappedLanguage, L2: CappedLanguage) -> CappedLanguage:
    _same_shape(L1, L2)
    words = frozenset(u + v for u in L1.words for v in L2.words
                      if len(u) + len(v) <= L1.cap)
    return CappedLanguage(L1.alphabet, L1.cap, words)


def _interleavings(u: str, v: str):
    n, m = len(u), len(v)
    for slots in combinations(range(n + m), n):
        out = [""] * (n + m)
        for i, p in enumerate(slots):
            out[p] = u[i]
        rest = iter(v)
        for i in range(n + m):
            if out[i] == "":
                out[i] = next(rest)
        yield "".join(out)


def language_shuffle(L1: CappedLanguage, L2: CappedLanguage) -> CappedLanguage:
    _same_shape(L1, L2)
    words = set()
    for u in L1.words:
        for v in L2.words:
            if len(u) + len(v) <= L1.cap:
                words.update(_interleavings(u, v))
    return CappedLanguage(L1.alphabet, L1.cap, frozenset(words))


def language_duoid(alphabet: str, cap: int, generators=None,
                   max_elements: int = 64) -> Duoid:
    """Close the generators under capped concat and shuffle.

    Default generators are the single-letter singletons.  The result is a
    duoid on the closure (plus {eps}), ordered by language inclusion, with
    concat as the sequential and shuffle as the parallel multiplication.
    Letters that language literals use as syntax, and repeated letters, are
    refused.
    """
    clash = sorted({ch for ch in alphabet if ch in "{},_" or ch.isspace()})
    if clash:
        raise LanguageError(f"language literals use {', '.join(map(repr, clash))} as syntax")
    repeated = sorted({ch for ch in alphabet if alphabet.count(ch) > 1})
    if repeated:
        raise LanguageError(f"alphabet repeats {', '.join(map(repr, repeated))}")
    if generators is None:
        generators = [CappedLanguage(alphabet, cap, frozenset({ch}))
                      for ch in alphabet]
    if not generators:
        raise LanguageError("need at least one generator")
    for g in generators:
        if g.alphabet != alphabet or g.cap != cap:
            raise AlphabetMismatch(f"generator {g.literal()} has the wrong shape")
    langs = {CappedLanguage(alphabet, cap, frozenset({""}))}
    langs.update(generators)
    frontier = list(langs)
    while frontier:
        fresh = []
        for L1 in list(langs):
            for L2 in frontier:
                for op in (language_concat, language_shuffle):
                    for R in (op(L1, L2), op(L2, L1)):
                        if R not in langs:
                            langs.add(R)
                            fresh.append(R)
                            if len(langs) > max_elements:
                                raise ClosureExplosion(
                                    f"closure exceeds {max_elements} languages")
        frontier = fresh

    by_literal = {format_language_literal(L): L for L in langs}
    elements = tuple(sorted(by_literal))
    mul = {}
    par = {}
    for e1 in elements:
        for e2 in elements:
            mul[(e1, e2)] = format_language_literal(
                language_concat(by_literal[e1], by_literal[e2]))
            par[(e1, e2)] = format_language_literal(
                language_shuffle(by_literal[e1], by_literal[e2]))
    le_pairs = [(e1, e2) for e1 in elements for e2 in elements
                if by_literal[e1].words <= by_literal[e2].words]
    base = validate_pomonoid(elements, "{_}", mul, le_pairs,
                             name=f"Lang({alphabet},{cap})")
    return Duoid(base=base, par=par, unit2="{_}")


@dataclass
class DuoidalGradedMonad:
    """A graded strong monad together with an interchange map m.

    m(a, b, X, Y) runs an a-graded and a b-graded computation in parallel,
    landing at the parallel product grade.  element_leq, when set, is the
    order on carrier elements used to read the main diagram laxly; without
    it the diagram is checked as an equality.  The order must be reflexive:
    it is consulted only where the two sides' values differ.
    """

    monad: GradedStrongMonad
    duoid: Duoid
    m: object
    element_leq: object = None
    name: str = ""
    _memo: dict = field(default_factory=dict, repr=False)

    def m_fn(self, a: str, b: str, X: FinSet, Y: FinSet) -> FinFn:
        key = (a, b, X.vid, Y.vid)
        if (fn := self._memo.get(key)) is None:
            M = self.monad
            fn = remember(self._memo, key, self.m(a, b, X, Y),
                          tensor(M.carrier(a, X), M.carrier(b, Y)),
                          M.carrier(self.duoid.par_of(a, b), tensor(X, Y)), f"m({a},{b})",
                          LanguageError)
        return fn

    def elements_equal(self, lhs: str, rhs: str) -> bool:
        if self.element_leq is None:
            return lhs == rhs
        return self.element_leq(lhs, rhs)


def _annotation_subset(lhs: str, rhs: str) -> bool:
    """Writer-pair order: same value, smaller language annotation."""
    if lhs == rhs:
        return True
    xl, al = split_pair(lhs)
    xr, ar = split_pair(rhs)
    if xl != xr:
        return False
    left = set(al[1:-1].split(",")) if al != "{}" else set()
    right = set(ar[1:-1].split(",")) if ar != "{}" else set()
    return left <= right


def build_language_writer(alphabet: str, cap: int, duoid: Duoid) -> DuoidalGradedMonad:
    """The writer monad graded by a language duoid.

    An element of T^L X is a value with a sublanguage of L as its log.
    Sequencing concatenates logs, parallel composition shuffles them.  The
    main duoidal diagram holds laxly: running the interchange first can
    only produce a smaller log, so the carriers are compared with the
    annotation-inclusion order.
    """
    P = duoid.base
    parsed = {lit: parse_language_literal(lit, alphabet, cap) for lit in P.elements}

    def subsets(L: CappedLanguage):
        ws = sorted(L.words)
        for r in range(len(ws) + 1):
            for chosen in combinations(ws, r):
                yield CappedLanguage(alphabet, cap, frozenset(chosen))

    carriers = {lit: FinSet(f"P({lit})",
                            tuple(sorted(s.literal() for s in subsets(L))))
                for lit, L in parsed.items()}

    def tabulated(op):
        # op on annotation literals, computed once per literal pair
        return functools.cache(lambda u, v: op(parse_language_literal(u, alphabet, cap),
                                               parse_language_literal(v, alphabet, cap)).literal())

    ann_concat = tabulated(language_concat)
    ann_shuffle = tabulated(language_shuffle)

    M = writer_monad(P, carriers, ann_concat, "{_}", name=f"lang_writer({alphabet},{cap})")

    @functools.cache
    def shuffles(a, b):
        return op_table(ann_shuffle, carriers[a], carriers[b], carriers[duoid.par_of(a, b)])

    def m(a, b, X, Y):
        # ((x,u),(y,v)) -> ((x,y),u||v)
        table = shuffles(a, b)
        TaX, TbY, XY = M.carrier(a, X), M.carrier(b, Y), tensor(X, Y)
        cod = M.carrier(duoid.par_of(a, b), XY)
        xy, at = XY.pair_grid(), cod.pair_grid()
        right = TbY.pair_list()
        rows = [(xy[x], table[u]) for x, u in TaX.pair_list()]
        return FinFn._table(tensor(TaX, TbY), cod,
                            tuple([at[xr[y]][sr[v]] for xr, sr in rows for y, v in right]))

    return DuoidalGradedMonad(monad=M, duoid=duoid, m=m,
                              element_leq=_annotation_subset,
                              name=M.name)


def _grade_tuples(elements, n: int, budget: int, seed: int, corner=None):
    """Every n-tuple of grades if there are at most ``budget``, else a sorted
    seeded sample of ``budget`` distinct ones.  Given a ``corner`` grade, the
    sample first takes every tuple with it at both ends: degenerate corners
    catch easy bugs."""
    if len(elements) ** n <= budget:
        return list(product(elements, repeat=n))
    rng = random.Random(seed)
    tuples = set()
    if corner is not None:
        tuples.update((corner, *mid, corner) for mid in product(elements, repeat=n - 2))
    while len(tuples) < budget:
        tuples.add(tuple(rng.choice(elements) for _ in range(n)))
    return sorted(tuples)


def check_duoidal_gradation(DM: DuoidalGradedMonad, k: int = 2,
                            budget: int = 300, seed: int = 2026) -> Report:
    """Diagram checks for an interchange map over a duoid-graded monad.

    The main diagram compares interchange-then-multiply against
    multiply-then-interchange, transported along the duoid inequality
    (a||c)*(b||d) <= (a*b)||(c*d).  Grade tuples are scanned exhaustively
    when the grading is small and by a seeded deterministic sample above
    the budget, which must be at least 1; a sampled duoidal-main first takes
    every corner (i, a, b, i) at the grading's unit i.  ``_duoidal_laws``
    yields the records and comparisons in order, for ``run_suite``.  Both
    sides of every diagram are read with finkit's composite vocabulary and
    compared pointwise by ``mismatch``.  duoidal-main, m-assoc and m-natural
    give one record per grade tuple, built by ``failure_record``: a grade
    tuple stops at its first failing instance, and its record keeps that
    instance's witness.  Their sides are rows, and no map is built per
    instance: duoidal-main's interchange-first side is one ``seq_row``
    chain and its multiply-first side m(mult(x), mult(y)) a ``tensor_row``;
    m-natural's sides are a ``tensor_row`` and a ``seq_row``; m-assoc's are
    two ``tensor_row`` readings, id (x) m and m (x) id, the latter with the
    reassociator as a tail.  Both bracketings of TX, TY, TZ share one
    pair-order position, so the two rows line up: the domain product
    (TX (x) TY) (x) TZ is built only to name a failing instance's witness.
    Grade-level values are worked out once per grade tuple.

    An instance whose diagram has an empty domain (on the language writer,
    every set tuple holding ``Y0``) is vacuous: no element can fail.
    duoidal-main and m-assoc read the emptiness off memoised carriers and
    build none of its composites (m-assoc builds no set), but keep every
    check that could still raise:

    * every component and ``fmap`` image the full instance uses is fetched,
      in the same order, so every accessor type check runs on the same keys;
    * duoidal-main still takes the ``delta-unrelated`` branch;
    * the two sides' codomains are compared, so ``codomains differ`` still
      raises.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1: the sampled scans would check nothing")
    M = DM.monad
    return run_suite(f"duoidal gradation for {DM.name or M.name or 'monad'}",
                     _duoidal_laws(DM, k, budget, seed))


def _duoidal_laws(DM: DuoidalGradedMonad, k: int, budget: int, seed: int):
    M, D = DM.monad, DM.duoid
    P = M.pomonoid
    sets = canonical_sets(k)
    products = {(X.vid, Y.vid): tensor(X, Y) for X in sets for Y in sets}

    def main_failure(a, b, c, d):
        ac, bd, ab, cd = D.par_of(a, c), D.par_of(b, d), P.times(a, b), P.times(c, d)
        # move the interchange-first grade to the other one if the order allows
        g_from, g_to = P.times(ac, bd), D.par_of(ab, cd)
        lifted = g_from != g_to and P.le(g_from, g_to)
        for X, Y in product(sets, repeat=2):
            XY = products[X.vid, Y.vid]
            inner = DM.m_fn(b, d, X, Y)
            outer = DM.m_fn(a, c, M.carrier(b, X), M.carrier(d, Y))
            par_first = [outer, M.fmap(ac, inner), M.mult_fn(ac, bd, XY)]
            mul_ab, mul_cd = M.mult_fn(a, b, X), M.mult_fn(c, d, Y)
            m_ab_cd = DM.m_fn(ab, cd, X, Y)
            if lifted:
                par_first.append(M.lift_fn(g_from, g_to, XY))
            elif g_from != g_to and M.carrier(g_from, XY).vid != M.carrier(g_to, XY).vid:
                yield "", None, None, "delta-unrelated"
                continue
            lhs = seq_row(*par_first)
            if outer.idx:
                dom = tensor(mul_ab.dom, mul_cd.dom)
                rhs = tensor_row(mul_ab, mul_cd, m_ab_cd)
            else:   # vacuous: no element can fail
                dom, rhs = outer.dom, ()
            check_ends(outer.dom, par_first[-1].cod, dom, m_ab_cd.cod)
            failure = mismatch(dom, m_ab_cd.cod, lhs, rhs, DM.elements_equal)
            yield failure and failure[:1]   # the witness: duoidal records keep no values

    for grades in _grade_tuples(P.elements, 4, budget, seed, P.unit):
        yield failure_record("duoidal-main", main_failure(*grades), grades, "")

    i = P.unit
    g_ii = D.par_of(i, i)
    for X, Y in product(sets, repeat=2):
        XY = products[X.vid, Y.vid]
        both_units = tensor_then(M.unit_fn(X), M.unit_fn(Y), DM.m_fn(i, i, X, Y))
        unit = M.unit_fn(XY)
        if g_ii != i:
            if not P.le(i, g_ii):
                yield LawRecord(law="m-unit", grades=(i,), sets=(X.name, Y.name), ok=False,
                                note="unit-grade-unrelated")
                continue
            unit = seq(unit, M.lift_fn(i, g_ii, XY))
        yield "m-unit", (i,), (X.name, Y.name), both_units, unit

    # alpha(X,Y,Z) by the vids of (X, Y, Z), built once per suite
    alphas = {(X.vid, Y.vid, Z.vid): alpha(X, Y, Z) for X in sets for Y in sets for Z in sets}

    def assoc_failure(a, b, c):
        ab, bc = D.par_of(a, b), D.par_of(b, c)
        g = D.par_of(ab, c)
        for X, Y, Z in product(sets, repeat=3):
            TX, TY, TZ = M.carrier(a, X), M.carrier(b, Y), M.carrier(c, Z)
            m_bc = DM.m_fn(b, c, Y, Z)
            lhs_m = DM.m_fn(a, bc, X, products[Y.vid, Z.vid])
            re = M.fmap(g, alphas[X.vid, Y.vid, Z.vid])
            m_ab = DM.m_fn(a, b, X, Y)
            rhs_m = DM.m_fn(ab, c, products[X.vid, Y.vid], Z)
            if TX and TY and TZ:   # both sides in pair order over TX (x) TY and TZ
                lhs = tensor_row(identity_fn(TX), m_bc, lhs_m)
                rhs = tensor_row(m_ab, identity_fn(TZ), rhs_m, re)
            else:                  # vacuous: no element can fail, and no set is built
                lhs = rhs = ()
            # both sides run out of m_ab.dom (x) TZ, so only their codomains can differ
            check_ends(m_ab.dom, lhs_m.cod, m_ab.dom, re.cod)
            if lhs == rhs:
                yield None
            else:   # the least failing token, read off the domain product built for it
                dom = tensor(tensor(TX, TY), TZ)
                yield mismatch(dom, re.cod, lhs, rhs)[:1]

    for grades in _grade_tuples(P.elements, 3, budget, seed):
        yield failure_record("m-assoc", assoc_failure(*grades), grades, "")

    I = unit_set()
    for a, X in product(P.elements, sets):
        TX = M.carrier(a, X)
        if D.par_of(i, a) == a:
            via_m = tensor_then(M.unit_fn(I), identity_fn(TX), DM.m_fn(i, a, I, X))
            yield "m-unitor-left", (a,), (X.name,), via_m, seq(lam(TX), M.fmap(a, lam_inv(X)))
        else:
            yield LawRecord(law="m-unitor-left", grades=(a,), ok=True,
                            note="skipped: i||a differs from a")
        if D.par_of(a, i) == a:
            via_m = tensor_then(identity_fn(TX), M.unit_fn(I), DM.m_fn(a, i, X, I))
            yield "m-unitor-right", (a,), (X.name,), via_m, seq(rho(TX), M.fmap(a, rho_inv(X)))
        else:
            yield LawRecord(law="m-unitor-right", grades=(a,), ok=True,
                            note="skipped: a||i differs from a")

    def natural_failure(a, b, f, g, fg):
        Ff, Fg, m_cod = M.fmap(a, f), M.fmap(b, g), DM.m_fn(a, b, f.cod, g.cod)
        lhs = tensor_row(Ff, Fg, m_cod)   # in pair order over Ff.dom and Fg.dom
        m_dom, Ffg = DM.m_fn(a, b, f.dom, g.dom), M.fmap(D.par_of(a, b), fg)
        dom = tensor(Ff.dom, Fg.dom)
        check_ends(dom, m_cod.cod, m_dom.dom, Ffg.cod)
        failure = mismatch(dom, m_cod.cod, lhs, seq_row(m_dom, Ffg))
        return failure and failure[:1]

    small = [canonical_set(n) for n in range(min(k, 2) + 1)]
    # every pair of test maps with their product f (x) g, built once per suite
    maps = [(f, g, tensor_fn(f, g))
            for X in small for X2 in small for Y in small for Y2 in small
            for f in all_fns(X, X2) for g in all_fns(Y, Y2)]
    pairs = [(a, b) for a in P.elements for b in P.elements]
    if len(pairs) > 36:
        rng = random.Random(seed)
        pairs = sorted(set(tuple(rng.choice(P.elements) for _ in range(2))
                           for _ in range(36)))
    for grades in pairs:
        yield failure_record("m-natural", (natural_failure(*grades, f, g, fg)
                                           for f, g, fg in maps), grades, "")


def derive_monoidal_m(M: GradedStrongMonad, k: int = 2):
    """For a commutative monad, the two sequencing composites agree and
    define an interchange map with the sequential product as the parallel
    one.  Returns the duoidal structure and the report of its diagrams.
    """
    if not check_commutative(M, k).ok:
        raise NotCommutative("monad is not commutative; no canonical m exists")
    P = M.pomonoid

    def m(a, b, X, Y):
        return commute_maps(M, a, b, X, Y)[0]

    duoid = Duoid(base=P,
                  par={(x, y): P.times(x, y) for x in P.elements for y in P.elements},
                  unit2=P.unit)
    DM = DuoidalGradedMonad(monad=M, duoid=duoid, m=m,
                            name=f"monoidal({M.name})" if M.name else "monoidal")
    return DM, check_duoidal_gradation(DM, k)


def bimonoidal_centre_at(M: GradedStrongMonad, D: Duoid, a: str, X: FinSet,
                         bound=None) -> CentralCone:
    """Centrality relative to a commutative over-approximation of the grades.

    The two sequencing composites are lifted into the common grade a||b of
    D's second operation before comparison, so grades that only disagree
    below the over-approximation still count as interchangeable.  Any grade
    may be tested, not just central ones.
    """
    if not structurally_equal(D.base, M.pomonoid):
        raise BimonoidMismatch("bimonoid is not over this monad's grading")
    P = M.pomonoid
    tops = {b: D.par_of(a, b) for b in P.elements}
    for b, top in tops.items():
        ab, ba = P.times(a, b), P.times(b, a)
        if not (P.le(ab, top) and P.le(ba, top)):
            raise BimonoidMismatch(
                f"{ab} or {ba} is not below {top}; the relaxed product does not dominate")
    TaX = M.carrier(a, X)
    rows = central_rows(M, a, X, range(len(TaX)), bound, tops)
    apex = FinSet(f"ZB^{a}({X.name})", tuple(TaX.elems[r] for r in rows))
    leg = FinFn._table(apex, TaX, tuple(map(TaX.token_index().__getitem__, apex.elems)))
    return CentralCone(grade=a, base=X, apex=apex, leg=leg)
