"""The index-built structure maps and built-in components against the
token-dict builders they replaced.

The reference builders below spell every map out token by token, through
``make_pair`` and the checked ``FinFn`` constructor.  The library builds the
same maps from the positions of the factors' tokens.  Both must give the
same index table between the same sets, with the same set names, also for
empty sets and for factors whose pairs sort off row-major order (``a`` and
``a*``, ``b`` and ``b(c)``).  Products with an empty factor and maps out of
them take a shortcut in the library; the references build them through the
checked constructors like any other.
"""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrekit.centre import central_subset
from centrekit.finkit import (
    FinFn,
    FinSet,
    alpha,
    alpha_inv,
    apply_obj,
    canonical_set,
    gamma,
    identity_fn,
    lam,
    lam_inv,
    make_pair,
    mismatch,
    rho,
    rho_inv,
    tensor,
    tensor_fn,
    twist,
    unit_set,
)
from centrekit.graded_monad import (
    bool_writer_pair,
    canonical_sets,
    check_all,
    check_commutative,
    multi_error_writer,
    writer_monad,
)
from centrekit.pomonoid import bool_pomonoid
from centrekit.relaxations import (
    build_language_writer,
    check_duoidal_gradation,
    language_duoid,
    language_shuffle,
    parse_language_literal,
)
from centrekit.report import Report
from test_centre import keep_last_on_prefix_tokens
from test_relaxations import prefix_token_sets


# --- reference builders: tables of tokens ---------------------------------------

def ref_tensor(A, B):
    return FinSet(f"({A.name}x{B.name})", [make_pair(a, b) for a in A for b in B])


def ref_tensor_fn(f, g):
    mapping = {make_pair(x, y): make_pair(f(x), g(y)) for x in f.dom for y in g.dom}
    return FinFn(ref_tensor(f.dom, g.dom), ref_tensor(f.cod, g.cod), mapping)


def ref_inverse(f):
    return FinFn(f.cod, f.dom, {v: t for t, v in f.mapping.items()})


def ref_gamma(X, Y):
    mapping = {make_pair(x, y): make_pair(y, x) for x in X for y in Y}
    return FinFn(tensor(X, Y), tensor(Y, X), mapping)


def ref_alpha(X, Y, Z):
    mapping = {}
    for x in X:
        for y in Y:
            for z in Z:
                mapping[make_pair(make_pair(x, y), z)] = make_pair(x, make_pair(y, z))
    return FinFn(tensor(tensor(X, Y), Z), tensor(X, tensor(Y, Z)), mapping)


def ref_lam(X):
    return FinFn(tensor(unit_set(), X), X, {make_pair("*", x): x for x in X})


def ref_rho(X):
    return FinFn(tensor(X, unit_set()), X, {make_pair(x, "*"): x for x in X})


def ref_twist(X, Y, Z):
    """((x,y),z) -> ((x,z),y)."""
    mapping = {make_pair(make_pair(x, y), z): make_pair(make_pair(x, z), y)
               for x in X for y in Y for z in Z}
    return FinFn(tensor(tensor(X, Y), Z), tensor(tensor(X, Z), Y), mapping)


def ref_writer_strength(X, Y, annotations):
    """(x,(y,u)) -> ((x,y),u)."""
    mapping = {make_pair(x, make_pair(y, u)): make_pair(make_pair(x, y), u)
               for x in X for y in Y for u in annotations}
    return FinFn(tensor(X, tensor(Y, annotations)), tensor(tensor(X, Y), annotations), mapping)


def ref_writer_costrength(X, Y, annotations):
    """((x,u),y) -> ((x,y),u)."""
    return ref_twist(X, annotations, Y)


def ref_writer(P, carriers, annotation_mul, unit_ann):
    """The graded writer's components, as writer_monad documents them."""
    def mult(a, b, X):
        # ((x,v),u) -> (x,u*v)
        mapping = {make_pair(make_pair(x, v), u): make_pair(x, annotation_mul(u, v))
                   for x in X for v in carriers[b] for u in carriers[a]}
        return FinFn(tensor(tensor(X, carriers[b]), carriers[a]),
                     tensor(X, carriers[P.times(a, b)]), mapping)

    def lift(a, b, X):
        dom = tensor(X, carriers[a])
        return FinFn(dom, tensor(X, carriers[b]), {t: t for t in dom})

    def unit(X):
        return FinFn(X, tensor(X, carriers[P.unit]), {x: make_pair(x, unit_ann) for x in X})

    return {"mult": mult, "lift": lift, "unit": unit,
            "strength": lambda a, X, Y: ref_writer_strength(X, Y, carriers[a]),
            "costrength": lambda a, X, Y: ref_writer_costrength(X, Y, carriers[a])}


def ref_multi_error(M):
    """multi_error_writer's components: e collapses to a point, t is the
    identity, a warning grade carries its one-element annotation set."""
    P = M.pomonoid
    warnings = {"wa": FinSet("Wa", ("a",)), "wb": FinSet("Wb", ("b",))}

    def carrier(a, X):
        return apply_obj(M.functor(a), X)

    def mult(a, b, X):
        inner = carrier(b, X)
        dom, cod = carrier(a, inner), carrier(P.times(a, b), X)
        if P.times(a, b) == "e":
            return FinFn(dom, cod, {t: "*" for t in dom})
        if a in warnings and b in warnings:
            return FinFn(dom, cod, {make_pair(t, u): t for t in inner for u in warnings[a]})
        return FinFn(dom, cod, {t: t for t in dom})

    def strength(a, X, Y):
        dom, cod = tensor(X, carrier(a, Y)), carrier(a, tensor(X, Y))
        if a == "e":
            return FinFn(dom, cod, {t: "*" for t in dom})
        if a == "t":
            return FinFn(dom, cod, {t: t for t in dom})
        return ref_writer_strength(X, Y, warnings[a])

    def costrength(a, X, Y):
        dom, cod = tensor(carrier(a, X), Y), carrier(a, tensor(X, Y))
        if a == "e":
            return FinFn(dom, cod, {t: "*" for t in dom})
        if a == "t":
            return FinFn(dom, cod, {t: t for t in dom})
        return ref_writer_costrength(X, Y, warnings[a])

    def lift(a, b, X):
        dom = carrier(a, X)
        return FinFn(dom, carrier(b, X), {t: "*" for t in dom})

    return {"mult": mult, "strength": strength, "costrength": costrength, "lift": lift}


def ref_language_m(DM, a, b, X, Y):
    """((x,u),(y,v)) -> ((x,y),u||v), shuffling the parsed literals."""
    M, D = DM.monad, DM.duoid

    def shuffle(u, v):
        return language_shuffle(parse_language_literal(u, "ab", 2),
                                parse_language_literal(v, "ab", 2)).literal()

    mapping = {make_pair(make_pair(x, u), make_pair(y, v)):
               make_pair(make_pair(x, y), shuffle(u, v))
               for x in X for u in annotations(M, a) for y in Y for v in annotations(M, b)}
    return FinFn(ref_tensor(M.carrier(a, X), M.carrier(b, Y)),
                 M.carrier(D.par_of(a, b), tensor(X, Y)), mapping)


def annotations(M, a):
    # a writer's carrier at grade a is Prod(Id(), Const(annotations))
    return M.functor(a).right.value


def same_table(new, ref):
    assert new.idx == ref.idx
    assert (new.dom, new.cod) == (ref.dom, ref.cod)
    assert (new.dom.name, new.cod.name) == (ref.dom.name, ref.cod.name)


# --- sets: plain tokens, empty sets and prefix-sharing tokens --------------------

leaf_tokens = st.text(alphabet="abc*", min_size=1, max_size=3)
pair_tokens = st.builds(make_pair, leaf_tokens, leaf_tokens)
prefixed = st.sampled_from([("a", "a*"), ("a", "a*", "ab"), ("b", "b(c)"), ("b", "b!", "b(c)"),
                            ("y0",), ()])


@st.composite
def token_sets(draw, max_size=3):
    name = draw(st.sampled_from(["A", "B", "C"]))
    elems = draw(st.one_of(
        prefixed,
        st.frozensets(st.one_of(leaf_tokens, pair_tokens), max_size=max_size)))
    return FinSet(name, elems)


class TestStructureMaps:
    @settings(max_examples=150, deadline=None)
    @given(token_sets(), token_sets())
    def test_gamma(self, A, B):
        same_table(gamma(A, B), ref_gamma(A, B))

    @settings(max_examples=150, deadline=None)
    @given(token_sets(), token_sets(), token_sets())
    def test_alpha(self, A, B, C):
        same_table(alpha(A, B, C), ref_alpha(A, B, C))

    @settings(deadline=None)
    @given(token_sets())
    def test_unitors(self, A):
        same_table(lam(A), ref_lam(A))
        same_table(rho(A), ref_rho(A))

    @settings(max_examples=150, deadline=None)
    @given(token_sets(), token_sets(), token_sets())
    def test_twist(self, A, B, C):
        same_table(twist(A, B, C), ref_twist(A, B, C))

    def test_twist_with_empty_factors(self):
        sets = (FinSet("E", ()), canonical_set(0), FinSet("S", ("b", "b(c)")), canonical_set(2))
        for A, B, C in itertools.product(sets, repeat=3):
            same_table(twist(A, B, C), ref_twist(A, B, C))

    def test_twist_tables_are_shared_by_shape(self):
        # two 2 x 3 x 2 shapes over different tokens read one table object
        first = twist(FinSet("A", ("a0", "a1")), FinSet("B", ("b", "b(c)", "c")),
                      canonical_set(2))
        second = twist(canonical_set(2), canonical_set(3), FinSet("P", ("p", "q")))
        assert first.dom != second.dom and first.cod != second.cod
        assert first.idx is second.idx


class TestPositionTables:
    """A product's position of (x, y) is x*|Y| + y, so both bracketings of
    three factors, and a writer's strength, have the identity's table, and
    the symmetry reads the grid of Y (x) X column by column.  The sets: the
    canonical ones of sizes 0..3, an empty plain set, and the keep-last
    monoid on 1, b, b(c) with two of its writer's carriers, which list (y0,b)
    before (y0,b(c))."""

    M = bool_writer_pair(keep_last_on_prefix_tokens())
    SETS = canonical_sets(3) + [FinSet("E", ()), annotations(M, "ff"),
                                M.carrier("ff", canonical_set(1)),
                                M.carrier("ff", canonical_set(2))]

    def test_gamma_is_the_row_by_row_reading(self):
        for X, Y in itertools.product(self.SETS, repeat=2):
            at = tensor(Y, X).pair_grid()
            assert gamma(X, Y).idx == tuple([row[x] for x in range(len(X)) for row in at])

    def test_associators_and_writer_strength_are_identities(self):
        for X, Y, Z in itertools.product(self.SETS, repeat=3):
            for fn in (alpha(X, Y, Z), alpha_inv(X, Y, Z)):
                assert len(fn.dom) == len(fn.cod)
                assert fn.idx == identity_fn(fn.cod).idx == tuple(range(len(fn.cod)))
        for a, X, Y in itertools.product(self.M.pomonoid.elements, self.SETS, self.SETS):
            tau = self.M.strength(a, X, Y)
            assert tau.idx == tuple(range(len(tau.cod)))
            assert tau == alpha_inv(X, Y, annotations(self.M, a))
            tau2 = self.M.costrength(a, X, Y)
            assert tau2 == twist(X, annotations(self.M, a), Y)
            assert tau2.idx is twist(X, annotations(self.M, a), Y).idx


@st.composite
def factor_sets(draw, depth=2):
    """A prefix-sharing set (possibly empty) or a product of two such factors."""
    if depth and draw(st.booleans()):
        return tensor(draw(factor_sets(depth - 1)), draw(factor_sets(depth - 1)))
    return draw(prefix_token_sets(draw(st.sampled_from(["A", "B"]))))


def same_and_alike(x, y):
    assert x == y and y == x and hash(x) == hash(y)


class TestProductEquality:
    """A product hashes and compares without its tokens, yet equals, and hashes
    like, the plain set of the same tokens, whatever the names."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), factor_sets(), factor_sets())
    def test_a_product_is_the_plain_set_of_its_tokens(self, data, A, B):
        product, ref = tensor(A, B), ref_tensor(A, B)
        same_and_alike(product, ref)
        same_and_alike(product, tensor(FinSet("A2", A.elems), FinSet("B2", B.elems)))
        extra = make_pair("c", data.draw(st.sampled_from(B.elems or ("c",))))
        off = [ref.elems + (extra,)]
        if ref:
            dropped = data.draw(st.sampled_from(ref.elems))
            off.append(tuple(t for t in ref.elems if t != dropped))
        for tokens in off:
            other = FinSet("R", tokens)
            assert product != other and other != product

    def test_a_fully_central_subset_is_its_carrier(self):
        M, X = bool_writer_pair(), canonical_set(2)
        carrier, sub = M.carrier("tt", X), central_subset(M, "tt", X)
        assert carrier.factors and sub.factors is None
        same_and_alike(carrier, sub)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.one_of(factor_sets(), token_sets()))
    def test_equal_exactly_when_the_tokens_and_the_vids_are(self, data, A):
        others = [FinSet("P", A.elems), FinSet("E", ()),
                  data.draw(st.one_of(factor_sets(), token_sets()))]
        if A.factors:
            L, R = A.factors
            others += [tensor(FinSet("L", L.elems), FinSet("R", R.elems)), tensor(R, L)]
            # one more pair with a left token or a right one: off by a token,
            # and sometimes the product of a bigger factor
            extra = data.draw(st.sampled_from([make_pair("c", r) for r in R.elems]
                                              + [make_pair(l, "c") for l in L.elems] or ["c"]))
        else:
            extra = data.draw(st.sampled_from(["c", "a*", make_pair("a", "c")]))
        if extra not in A:
            others.append(FinSet("Q", A.elems + (extra,)))
        if A:
            dropped = data.draw(st.sampled_from(A.elems))
            others.append(FinSet("Q", tuple(t for t in A.elems if t != dropped)))
        for B in others:
            for X, Y in ((A, B), (B, A)):
                assert (X == Y) == (X.elems == Y.elems)
                assert (X == Y) == (X.vid == Y.vid)
                if X == Y:
                    assert hash(X) == hash(Y)


class TestSetsCompareByVid:
    """The law suites key and compare sets by their vids: no scan calls the
    Python-level ``FinSet.__hash__`` or ``FinSet.__eq__``."""

    SCANS = {
        "check_all": lambda: check_all(multi_error_writer(), 3),
        "check_duoidal_gradation": lambda: check_duoidal_gradation(
            build_language_writer("ab", 2, language_duoid("ab", 2)), k=2, budget=300),
        "check_commutative": lambda: check_commutative(bool_writer_pair(), 3),
    }

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_no_set_hash_or_equality_call(self, monkeypatch, scan):
        calls = collections.Counter()

        def counted(name):
            method = getattr(FinSet, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        for name in ("__hash__", "__eq__"):
            monkeypatch.setattr(FinSet, name, counted(name))
        S = FinSet("S", ("s",))
        assert {S: 0} and S == S
        assert calls == {"__hash__": 1, "__eq__": 1}   # the counters see the calls
        calls.clear()
        assert self.SCANS[scan]().records
        assert calls == {}


@st.composite
def writers(draw):
    """A writer over tt <= ff: the tt annotations are a nonempty subset of
    the ff ones, and the product is a drawn table that keeps tt annotations
    among themselves, as the grade product tt*tt = tt requires."""
    P = bool_pomonoid()
    big = FinSet("Big", draw(st.one_of(prefixed.filter(len),
                                       st.frozensets(leaf_tokens, min_size=1, max_size=3))))
    small = FinSet("Small", draw(st.lists(st.sampled_from(big.elems), min_size=1, unique=True)))
    table = {(u, v): draw(st.sampled_from((small if u in small and v in small else big).elems))
             for u in big for v in big}
    unit_ann = draw(st.sampled_from(small.elems))
    return P, {"tt": small, "ff": big}, lambda u, v: table[u, v], unit_ann


class TestWriterComponents:
    @settings(max_examples=100, deadline=None)
    @given(writers(), token_sets(), token_sets())
    def test_components(self, writer, X, Y):
        M = writer_monad(*writer)
        ref = ref_writer(*writer)
        same_table(M.unit(X), ref["unit"](X))
        same_table(M.lift("tt", "ff", X), ref["lift"]("tt", "ff", X))
        for a in M.pomonoid.elements:
            same_table(M.strength(a, X, Y), ref["strength"](a, X, Y))
            same_table(M.costrength(a, X, Y), ref["costrength"](a, X, Y))
            for b in M.pomonoid.elements:
                same_table(M.mult(a, b, X), ref["mult"](a, b, X))


class TestMultiErrorComponents:
    @settings(max_examples=60, deadline=None)
    @given(token_sets(), token_sets())
    def test_components(self, X, Y):
        M = multi_error_writer(topped=True)
        ref = ref_multi_error(M)
        P = M.pomonoid
        for a in P.elements:
            same_table(M.strength(a, X, Y), ref["strength"](a, X, Y))
            same_table(M.costrength(a, X, Y), ref["costrength"](a, X, Y))
            if a != "e":
                same_table(M.lift(a, "e", X), ref["lift"](a, "e", X))
            for b in P.elements:
                same_table(M.mult(a, b, X), ref["mult"](a, b, X))


# --- maps out of the empty set ----------------------------------------------------

empty_sets = st.builds(FinSet, st.sampled_from(["E", "Y0", "(Y0xY2)"]), st.just(()))


@st.composite
def with_an_empty_set(draw, n):
    """n sets, at least one of them empty."""
    sets = [draw(token_sets()) for _ in range(n)]
    sets[draw(st.integers(0, n - 1))] = draw(empty_sets)
    return sets


@st.composite
def maps_into(draw, dom, cod):
    """A map dom -> cod; cod is replaced by dom when it cannot receive one."""
    if dom.elems and not cod.elems:
        cod = dom
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


def same_set(new, ref):
    assert new == ref and new.elems == ref.elems and new.name == ref.name


class TestEmptyDomains:
    @settings(max_examples=100, deadline=None)
    @given(with_an_empty_set(2))
    def test_tensor(self, sets):
        A, B = sets
        for P, Q in ((A, B), (B, A)):
            product = tensor(P, Q)
            same_set(product, ref_tensor(P, Q))
            assert product.factors == (P, Q)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), with_an_empty_set(2), token_sets(), token_sets())
    def test_tensor_fn(self, data, doms, A2, B2):
        f = data.draw(maps_into(doms[0], A2))
        g = data.draw(maps_into(doms[1], B2))
        same_table(tensor_fn(f, g), ref_tensor_fn(f, g))
        same_table(tensor_fn(g, f), ref_tensor_fn(g, f))

    @settings(max_examples=100, deadline=None)
    @given(with_an_empty_set(3))
    def test_structure_maps_and_inverses(self, sets):
        A, B, C = sets
        for X, Y, Z in ((A, B, C), (B, C, A), (C, A, B)):
            same_table(gamma(X, Y), ref_gamma(X, Y))
            same_table(alpha(X, Y, Z), ref_alpha(X, Y, Z))
            same_table(alpha_inv(X, Y, Z), ref_inverse(ref_alpha(X, Y, Z)))

    @settings(max_examples=30, deadline=None)
    @given(empty_sets)
    def test_unitors_and_inverses(self, E):
        same_table(lam(E), ref_lam(E))
        same_table(rho(E), ref_rho(E))
        same_table(lam_inv(E), ref_inverse(ref_lam(E)))
        same_table(rho_inv(E), ref_inverse(ref_rho(E)))

    @settings(max_examples=50, deadline=None)
    @given(with_an_empty_set(2), token_sets())
    def test_empty_map_out_of_an_empty_product(self, factors, cod):
        dom = tensor(*factors)
        same_table(FinFn(dom, cod, {}), FinFn(ref_tensor(*factors), cod, {}))

    @settings(max_examples=50, deadline=None)
    @given(with_an_empty_set(2), token_sets().filter(len))
    def test_then_still_checks_an_empty_maps_codomain(self, factors, cod):
        empty = FinFn(tensor(*factors), cod, {})
        wrong = FinSet("W", cod.elems + ("w!",))
        with pytest.raises(ValueError, match="cannot compose"):
            empty.then(identity_fn(wrong))
        assert empty.then(identity_fn(cod)).idx == ()

    @settings(max_examples=50, deadline=None)
    @given(with_an_empty_set(2), token_sets().filter(len))
    def test_comparing_empty_maps_still_checks_their_codomains(self, factors, cod):
        dom = tensor(*factors)
        wrong = FinSet("W", cod.elems + ("w!",))
        with pytest.raises(ValueError, match="law: codomains differ"):
            Report("maps").compare("law", (), (), FinFn(dom, cod, {}), FinFn(dom, wrong, {}))
        rep = Report("maps")
        rep.compare("law", (), (), FinFn(dom, cod, {}), FinFn(dom, cod, {}))
        assert rep.records[-1].ok
        assert mismatch(dom, cod, (), ()) is None


class TestLanguageInterchange:
    DM = build_language_writer("ab", 2, language_duoid("ab", 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), token_sets(max_size=2), token_sets(max_size=2))
    def test_m(self, data, X, Y):
        a = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        b = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        same_table(self.DM.m(a, b, X, Y), ref_language_m(self.DM, a, b, X, Y))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), with_an_empty_set(2))
    def test_m_out_of_an_empty_set(self, data, sets):
        a = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        b = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        X, Y = sets
        same_table(self.DM.m(a, b, X, Y), ref_language_m(self.DM, a, b, X, Y))
