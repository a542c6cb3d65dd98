import collections
import gc
import itertools
import operator
import sys
import weakref
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from centrekit import finkit
from centrekit.finkit import (
    Const,
    FinFn,
    FinSet,
    Id,
    Prod,
    SetSizeError,
    TokenError,
    all_fns,
    alpha,
    alpha_inv,
    alpha_inv_then,
    alpha_then,
    apply_mor,
    apply_obj,
    canonical_set,
    check_ends,
    check_token,
    degree,
    gamma,
    identity_fn,
    lam,
    lam_inv,
    make_pair,
    mismatch,
    pair_rows,
    rho,
    rho_inv,
    seq,
    split_pair,
    tensor,
    tensor_fn,
    tensor_then,
    unit_set,
)
from centrekit.graded_monad import check_all, multi_error_writer


# Helpers only the tests use, kept here rather than in the library: the size
# of a functor's carrier, element trees, the inverse of a bijection, and the
# structure maps as one bundle.

def size_at(expr, n: int) -> int:
    """Cardinality of the functor at an n-element set, computed symbolically."""
    if isinstance(expr, Id):
        return n
    if isinstance(expr, Const):
        return len(expr.value)
    if isinstance(expr, Prod):
        return size_at(expr.left, n) * size_at(expr.right, n)
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def decode(expr, tok: str):
    """View an element token as a tree guided by the functor shape."""
    if isinstance(expr, (Id, Const)):
        return ("leaf", tok)
    if isinstance(expr, Prod):
        l, r = split_pair(tok)
        return ("pair", decode(expr.left, l), decode(expr.right, r))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def encode(tree) -> str:
    tag = tree[0]
    if tag == "leaf":
        return tree[1]
    if tag == "pair":
        return make_pair(encode(tree[1]), encode(tree[2]))
    raise ValueError(f"bad element tree: {tree!r}")


def inverse(f: FinFn) -> FinFn:
    """The inverse of a bijection; ValueError for any other map."""
    if not f.is_injective() or len(f.dom) != len(f.cod):
        raise ValueError(f"{f!r} is not a bijection")
    # for a bijection, listing the domain's positions by their images inverts it
    return FinFn._table(f.cod, f.dom, tuple(sorted(range(len(f.idx)), key=f.idx.__getitem__)))


@dataclass
class MonoidalKit:
    product: FinSet
    gamma: FinFn
    gamma_inv: FinFn
    alpha: FinFn
    alpha_inv: FinFn
    lam: FinFn
    lam_inv: FinFn
    rho: FinFn
    rho_inv: FinFn


def monoidal_kit(X: FinSet, Y: FinSet, Z: FinSet) -> MonoidalKit:
    return MonoidalKit(
        product=tensor(X, Y),
        gamma=gamma(X, Y),
        gamma_inv=gamma(Y, X),
        alpha=alpha(X, Y, Z),
        alpha_inv=alpha_inv(X, Y, Z),
        lam=lam(X),
        lam_inv=lam_inv(X),
        rho=rho(X),
        rho_inv=rho_inv(X),
    )


X = FinSet("X", ("x0", "x1"))
Y = FinSet("Y", ("y0", "y1", "y2"))


class TestFinSet:
    def test_sorted_and_duplicates_rejected(self):
        s = FinSet("S", ("b", "a"))
        assert s.elems == ("a", "b")
        with pytest.raises(TokenError):
            FinSet("S", ("b", "a", "b"))

    def test_eq_ignores_name(self):
        assert FinSet("A", ("x",)) == FinSet("B", ("x",))
        assert hash(FinSet("A", ("x",))) == hash(FinSet("B", ("x",)))

    def test_contains(self):
        assert "x0" in X
        assert "z" not in X

    def test_bad_token(self):
        with pytest.raises(TokenError):
            FinSet("S", ("a b",))
        with pytest.raises(TokenError):
            FinSet("S", ("(a",))
        with pytest.raises(TokenError):
            FinSet("S", ("",))


class TestFinFn:
    def test_total_and_codomain_enforced(self):
        with pytest.raises(ValueError):
            FinFn(X, Y, {"x0": "y0"})
        with pytest.raises(ValueError):
            FinFn(X, Y, {"x0": "y0", "x1": "nope"})

    def test_then_is_diagrammatic(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        g = FinFn(Y, X, {"y0": "x0", "y1": "x0", "y2": "x1"})
        h = f.then(g)
        assert h("x0") == "x0"
        assert h("x1") == "x1"

    def test_then_rejects_mismatch(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        with pytest.raises(ValueError):
            f.then(f)

    def test_identity(self):
        i = identity_fn(X)
        assert all(i(x) == x for x in X)

    def test_inverse(self):
        f = FinFn(X, X, {"x0": "x1", "x1": "x0"})
        assert inverse(f).then(f) == identity_fn(X)
        g = FinFn(X, X, {"x0": "x0", "x1": "x0"})
        assert not g.is_injective()
        with pytest.raises(ValueError):
            inverse(g)

    def test_all_fns_count(self):
        assert len(list(all_fns(X, Y))) == 9
        empty = FinSet("E", ())
        assert len(list(all_fns(empty, Y))) == 1
        assert len(list(all_fns(X, empty))) == 0


class TestPairs:
    def test_pair_round_trip(self):
        tok = make_pair("a", "(b,c)")
        assert tok == "(a,(b,c))"
        assert split_pair(tok) == ("a", "(b,c)")

    def test_split_uses_top_level_comma(self):
        assert split_pair("((a,b),c)") == ("(a,b)", "c")
        assert split_pair("({p,q},c)") == ("{p,q}", "c")

    def test_split_rejects_non_pairs(self):
        with pytest.raises(TokenError):
            split_pair("abc")
        with pytest.raises(TokenError):
            split_pair("(abc)")

    token = st.text(alphabet="abc*", min_size=1, max_size=4)

    @given(token, token)
    def test_pair_round_trip_property(self, left, right):
        assert split_pair(make_pair(left, right)) == (left, right)


class TestFunctors:
    W = Prod(Id(), Const(FinSet("Ann", ("p", "q"))))

    def test_degree(self):
        assert degree(Id()) == 1
        assert degree(Const(X)) == 0
        assert degree(self.W) == 1
        assert degree(Prod(Id(), Id())) == 2

    def test_size_at(self):
        assert size_at(Id(), 3) == 3
        assert size_at(Const(Y), 5) == 3
        assert size_at(self.W, 2) == 4

    def test_apply_obj_prod(self):
        WX = apply_obj(self.W, X)
        assert set(WX) == {"(x0,p)", "(x0,q)", "(x1,p)", "(x1,q)"}

    def test_apply_mor_structural(self):
        f = FinFn(X, Y, {"x0": "y2", "x1": "y0"})
        Wf = apply_mor(self.W, f)
        assert Wf("(x0,p)") == "(y2,p)"
        assert Wf("(x1,q)") == "(y0,q)"

    def test_apply_mor_is_functorial(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        g = FinFn(Y, X, {"y0": "x0", "y1": "x0", "y2": "x1"})
        lhs = apply_mor(self.W, f).then(apply_mor(self.W, g))
        rhs = apply_mor(self.W, f.then(g))
        assert lhs == rhs
        assert apply_mor(self.W, identity_fn(X)) == identity_fn(apply_obj(self.W, X))

    def test_decode_encode(self):
        tok = make_pair(make_pair("x0", "x1"), "p")
        expr = Prod(Prod(Id(), Id()), Const(FinSet("Ann", ("p", "q"))))
        tree = decode(expr, tok)
        assert tree == ("pair", ("pair", ("leaf", "x0"), ("leaf", "x1")), ("leaf", "p"))
        assert encode(tree) == tok


class TestMonoidalKit:
    def test_tensor(self):
        XY = tensor(X, Y)
        assert len(XY) == 6
        assert "(x0,y1)" in XY

    def test_tensor_fn(self):
        f = FinFn(X, X, {"x0": "x1", "x1": "x0"})
        g = identity_fn(Y)
        fg = tensor_fn(f, g)
        assert fg("(x0,y2)") == "(x1,y2)"

    def test_gamma_swaps(self):
        c = gamma(X, Y)
        assert c("(x1,y0)") == "(y0,x1)"
        assert c.then(gamma(Y, X)) == identity_fn(tensor(X, Y))

    def test_alpha_round_trip(self):
        Z = FinSet("Z", ("z",))
        a = alpha(X, Y, Z)
        assert a("((x0,y1),z)") == "(x0,(y1,z))"
        assert a.then(alpha_inv(X, Y, Z)) == identity_fn(tensor(tensor(X, Y), Z))

    def test_unitors(self):
        assert lam(X)("(*,x1)") == "x1"
        assert lam_inv(X).then(lam(X)) == identity_fn(X)
        assert rho(X)("(x0,*)") == "x0"
        assert rho_inv(X).then(rho(X)) == identity_fn(X)

    def test_kit_bundle(self):
        kit = monoidal_kit(X, Y, FinSet("Z", ("z",)))
        assert kit.gamma.then(kit.gamma_inv) == identity_fn(tensor(X, Y))

    def test_triangle_coherence(self):
        # (X x I) x Y -> X x (I x Y) -> X x Y agrees with rho x id.
        I = unit_set()
        lhs = alpha(X, I, Y).then(tensor_fn(identity_fn(X), lam(Y)))
        rhs = tensor_fn(rho(X), identity_fn(Y))
        assert lhs == rhs


def test_canonical_set():
    s = canonical_set(3)
    assert s.elems == ("y0", "y1", "y2")
    assert canonical_set(0).elems == ()
    with pytest.raises(SetSizeError):
        canonical_set(11)
    with pytest.raises(ValueError):
        canonical_set(-1)


class TestSharedProducts:
    def test_equal_operands_share_the_product(self):
        assert tensor(canonical_set(2), canonical_set(3)) is tensor(canonical_set(2),
                                                                    canonical_set(3))

    def test_product_takes_the_names_of_its_operands(self):
        A1 = FinSet("A1", ("a", "b"))
        A2 = FinSet("A2", ("a", "b"))
        P1, P2 = tensor(A1, Y), tensor(A2, Y)
        assert P1 == P2
        assert (P1.name, P2.name) == ("(A1xY)", "(A2xY)")
        swap = gamma(A2, Y)
        assert (swap.dom.name, swap.cod.name) == ("(A2xY)", "(YxA2)")

    def test_canonical_sets_and_identities_are_shared(self):
        assert canonical_set(3) is canonical_set(3)
        A = FinSet("A", ("a0", "a1"))
        assert identity_fn(A) is identity_fn(A)
        assert identity_fn(tensor(A, A)) is identity_fn(tensor(A, A))
        # the identity's table is one tuple per size, and every structure map
        # with the identity's table shares it
        B = FinSet("B", ("b0", "b1", "b2", "b3"))
        table = identity_fn(B).idx
        for fn in (identity_fn(tensor(A, A)), lam(B), rho(B), lam_inv(B), rho_inv(B),
                   alpha(A, A, unit_set()), alpha_inv(A, unit_set(), A)):
            assert len(fn.idx) == 4 and fn.idx is table
        # a product's grid holds its identity's int objects, above the
        # interpreter's small ints too
        big = FinSet("Big", tuple(f"b{i}" for i in range(20)))
        P = tensor(big, big)
        grid = list(itertools.chain.from_iterable(P.pair_grid()))
        assert len(grid) == 400 and all(map(operator.is_, grid, identity_fn(P).idx))

    def test_a_product_with_an_empty_factor_is_shared(self):
        W = FinSet("W", ("u0", "u1"))
        held = tensor(canonical_set(0), W)
        assert tensor(canonical_set(0), W) is held
        assert tensor(W, canonical_set(0)) is tensor(W, canonical_set(0))

    def test_a_shared_product_may_hold_a_plain_factor(self):
        # an empty plain set named like a product is equal to it, so the
        # product over it is the one the writer strength gets back.  No other
        # test names an annotation set Wheld, so no ((Y0xY2)xWheld) product
        # that an earlier test left alive can answer for this one.
        from centrekit.graded_monad import writer_monad
        from centrekit.pomonoid import bool_pomonoid

        W = FinSet("Wheld", ("a",))
        held = tensor(FinSet("(Y0xY2)", ()), W)
        M = writer_monad(bool_pomonoid(), {"tt": W, "ff": W}, lambda u, v: u, "a")
        s = M.strength("tt", canonical_set(0), canonical_set(2))
        assert held.factors[0].factors is None
        assert len(s.dom) == 0 and s.cod == held

    def test_a_scan_builds_no_product_while_its_equal_lives(self, monkeypatch):
        # a scan builds only the composites over non-empty domains, so the
        # products with an empty factor it builds are its carriers'.  No
        # other test names a grading Mscan, so no carrier product an earlier
        # test left alive can answer for these.
        from dataclasses import replace

        from centrekit.graded_monad import bool_writer_pair, commuting_pair
        from centrekit.pomonoid import multi_error_pomonoid

        last, builds = {}, []
        init = FinSet.__init__

        def counting_init(self, name, elems=(), factors=None):
            init(self, name, elems, factors)
            if factors is not None:
                A, B = factors
                key = (A.vid, B.vid, A.name, B.name)
                builds.append(key)
                assert last.get(key, lambda: None)() is None, key
                last[key] = weakref.ref(self)

        monkeypatch.setattr(FinSet, "__init__", counting_init)
        M = bool_writer_pair(replace(multi_error_pomonoid(), name="Mscan"))
        assert commuting_pair(M, "tt", "ff", 3)
        # a product is built again only once the last one is gone; products
        # with an empty factor are among those built
        assert any(0 in key[:2] for key in builds)

    def test_product_dies_with_its_last_user(self):
        A = FinSet("A", ("a0", "a1"))
        B = FinSet("B", ("b0",))
        f = identity_fn(tensor(A, B))
        product = weakref.ref(f.dom)
        gc.collect()
        assert tensor(A, B) is product()
        del A, B, f
        gc.collect()
        assert product() is None


class TestPlainSetsOfPairs:
    """A plain set whose tokens are exactly the pairs L x R is equal to
    tensor(L, R), built before it or after it, and a map carried from one to
    the other by its index table is the same map.  "(a*," sorts before
    "(a,", and "b(c))" before "b)"."""

    L = FinSet("L", ("a", "a*"))
    R = FinSet("R", ("b", "b(c)"))
    TOKENS = ("(a,b)", "(a,b(c))", "(a*,b)", "(a*,b(c))")

    def carried(self, plain, LR):
        assert plain == LR and plain.elems == LR.elems
        for src, dst in ((plain, LR), (LR, plain)):
            f = FinFn(src, self.R, {"(a,b)": "b(c)", "(a,b(c))": "b", "(a*,b)": "b",
                                    "(a*,b(c))": "b(c)"})
            g = FinFn._table(dst, self.R, f.idx)
            assert g == f and list(g.mapping.items()) == list(f.mapping.items())
            h = FinFn(src, self.R, {**f.mapping, "(a,b)": "b", "(a*,b(c))": "b"})
            assert mismatch(dst, self.R, g.idx, h.idx) == ("(a*,b(c))", "b(c)", "b")
            into = FinFn(self.L, src, {"a": "(a*,b)", "a*": "(a,b(c))"})
            assert FinFn._table(self.L, dst, into.idx).mapping == into.mapping

    def test_a_value_outside_the_codomain_is_named_at_the_least_token(self):
        with pytest.raises(ValueError, match="^value 'x' outside codomain R$"):
            FinFn(tensor(self.L, self.R), self.R,
                  {"(a,b)": "y", "(a,b(c))": "b", "(a*,b)": "b", "(a*,b(c))": "x"})

    def test_plain_set_built_before_the_product(self):
        plain = FinSet("P", self.TOKENS)
        self.carried(plain, tensor(self.L, self.R))

    def test_plain_set_built_after_the_product(self):
        LR = tensor(self.L, self.R)
        self.carried(FinSet("P", reversed(self.TOKENS)), LR)


# --- reference oracle: the structure maps parsed back out of product tokens ---

def ref_gamma(X, Y):
    dom = tensor(X, Y)
    mapping = {}
    for t in dom:
        l, r = split_pair(t)
        mapping[t] = make_pair(r, l)
    return FinFn(dom, tensor(Y, X), mapping)


def ref_alpha(X, Y, Z):
    dom = tensor(tensor(X, Y), Z)
    mapping = {}
    for t in dom:
        lr, z = split_pair(t)
        x, y = split_pair(lr)
        mapping[t] = make_pair(x, make_pair(y, z))
    return FinFn(dom, tensor(X, tensor(Y, Z)), mapping)


def ref_lam(X):
    dom = tensor(unit_set(), X)
    return FinFn(dom, X, {t: split_pair(t)[1] for t in dom})


def ref_rho(X):
    dom = tensor(X, unit_set())
    return FinFn(dom, X, {t: split_pair(t)[0] for t in dom})


def ref_map_token(expr, f, tok):
    if isinstance(expr, Id):
        return f(tok)
    if isinstance(expr, Const):
        return tok
    if isinstance(expr, Prod):
        l, r = split_pair(tok)
        return make_pair(ref_map_token(expr.left, f, l), ref_map_token(expr.right, f, r))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def ref_apply_mor(expr, f):
    dom = apply_obj(expr, f.dom)
    cod = apply_obj(expr, f.cod)
    return FinFn(dom, cod, {t: ref_map_token(expr, f, t) for t in dom})


leaf_tokens = st.text(alphabet="abc*", min_size=1, max_size=3)
tokens = st.recursive(
    leaf_tokens,
    lambda inner: st.one_of(
        st.builds(make_pair, inner, inner),
        st.lists(leaf_tokens, min_size=1, max_size=2).map(lambda ws: "{" + ",".join(ws) + "}"),
    ),
    max_leaves=3,
)


@st.composite
def token_sets(draw, min_size=0, max_size=3):
    name = draw(st.sampled_from(["A", "B", "C", "Y2"]))
    return FinSet(name, draw(st.frozensets(tokens, min_size=min_size, max_size=max_size)))


@st.composite
def finite_maps(draw):
    dom = draw(token_sets())
    cod = draw(token_sets(min_size=1))
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


exprs = st.recursive(
    st.one_of(st.just(Id()), token_sets(max_size=2).map(Const)),
    lambda inner: st.builds(Prod, inner, inner),
    max_leaves=4,
)


def same_map(new, ref):
    assert new == ref
    assert (new.dom.name, new.cod.name) == (ref.dom.name, ref.cod.name)


class TestStructureMapsMatchReference:
    @given(token_sets(), token_sets())
    def test_gamma(self, A, B):
        same_map(gamma(A, B), ref_gamma(A, B))

    @given(token_sets(), token_sets(), token_sets())
    def test_alpha(self, A, B, C):
        same_map(alpha(A, B, C), ref_alpha(A, B, C))
        same_map(alpha_inv(A, B, C), inverse(ref_alpha(A, B, C)))

    @given(token_sets())
    def test_unitors(self, A):
        same_map(lam(A), ref_lam(A))
        same_map(rho(A), ref_rho(A))

    @settings(max_examples=200)
    @given(exprs, finite_maps())
    def test_apply_mor(self, expr, f):
        same_map(apply_mor(expr, f), ref_apply_mor(expr, f))


# --- reference oracle: the dict-based maps the index tables replaced ----------

def dict_then(f, g):
    assert f.cod == g.dom
    return f.dom, g.cod, {k: g.mapping[v] for k, v in f.mapping.items()}


def dict_tensor_fn(f, g):
    gm = g.mapping.items()
    return (tensor(f.dom, g.dom), tensor(f.cod, g.cod),
            {make_pair(a, b): make_pair(fa, gb) for a, fa in f.mapping.items() for b, gb in gm})


def dict_identity(S):
    return S, S, {t: t for t in S}


def dict_all_fns(S, T):
    if len(S) == 0:
        return [{}]
    return [dict(zip(S.elems, images)) for images in itertools.product(T.elems, repeat=len(S))]


def dict_apply_mor(expr, f):
    if isinstance(expr, Id):
        return f.dom, f.cod, dict(f.mapping)
    if isinstance(expr, Const):
        return dict_identity(expr.value)
    l, r = (FinFn(*dict_apply_mor(e, f)) for e in (expr.left, expr.right))
    return dict_tensor_fn(l, r)


def is_table(fn, dom, cod, table):
    """fn is the map the checked constructor builds from the token table."""
    assert fn.dom == dom and fn.cod == cod
    assert list(fn.mapping.items()) == [(t, table[t]) for t in dom.elems]
    assert fn.idx == tuple(cod.elems.index(table[t]) for t in dom.elems)
    checked = FinFn(dom, cod, table)
    assert fn == checked and hash(fn) == hash(checked)
    assert all(fn(t) == table[t] for t in dom)


# factors with a token that is a prefix of another ("a" and "a*"), where the
# pairs may sort off row-major order
prefixed_sets = st.sampled_from([("a", "ab"), ("a", "a*", "ab"), ("b", "b!", "b(c)"), ("y0",), ()]).map(
    lambda ts: FinSet("P", ts))
oracle_sets = st.one_of(token_sets(), prefixed_sets)


@st.composite
def oracle_maps(draw, dom=None):
    dom = draw(oracle_sets) if dom is None else dom
    cod = draw(st.one_of(token_sets(min_size=1), prefixed_sets.filter(len)))
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


# --- the comparator on index-table composites --------------------------------

def witness_of(lhs, rhs, eq=None):
    """The token ``mismatch`` names for two maps' rows, once ``check_ends`` has
    seen that they run between the same sets; the values it gives with it
    must be the two maps' images of that token."""
    check_ends(lhs.dom, lhs.cod, rhs.dom, rhs.cod)
    failure = mismatch(lhs.dom, lhs.cod, lhs.idx, rhs.idx, eq)
    if failure is None:
        return None
    t, l, r = failure
    assert (l, r) == (lhs(t), rhs(t))
    return t


def sorted_scan(lhs, rhs, eq):
    """The witness a sorted scan of two built maps reports."""
    assert lhs.dom == rhs.dom
    return next((t for t in sorted(lhs.dom) if not eq(lhs(t), rhs(t))), None)


def ref_then(*maps):
    """The diagrammatic composite, built with the dict-based reference."""
    out = maps[0]
    for g in maps[1:]:
        out = FinFn(*dict_then(out, g))
    return out


def ref_par(f, g):
    return FinFn(*dict_tensor_fn(f, g))


def ref_id(S):
    return FinFn(*dict_identity(S))


@st.composite
def maps_into(draw, dom, min_cod=1):
    cod = draw(token_sets(min_size=min_cod))
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


@st.composite
def with_mismatches(draw, f):
    """f with some entries moved to other values of its codomain."""
    mapping = dict(f.mapping)
    for t in draw(st.lists(st.sampled_from(f.dom.elems), max_size=3) if len(f.dom) else
                  st.just([])):
        mapping[t] = draw(st.sampled_from(f.cod.elems))
    return FinFn(f.dom, f.cod, mapping)


EQS = [lambda l, r: l == r, lambda l, r: l <= r]


class TestFirstMismatch:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), token_sets(), token_sets(), token_sets(), st.sampled_from(EQS))
    def test_naturality_of_alpha_pointwise(self, data, A, B, C, eq):
        f = data.draw(maps_into(A))
        g = data.draw(maps_into(B))
        h1 = data.draw(maps_into(tensor(f.cod, tensor(g.cod, C))))
        h2 = data.draw(with_mismatches(h1))
        lhs = alpha(A, B, C).then(tensor_fn(f, tensor_fn(g, identity_fn(C)))).then(h1)
        rhs = tensor_fn(tensor_fn(f, g), identity_fn(C)).then(
            alpha(f.cod, g.cod, C)).then(h2)
        lhs_ref = ref_then(ref_alpha(A, B, C), ref_par(f, ref_par(g, ref_id(C))), h1)
        rhs_ref = ref_then(ref_par(ref_par(f, g), ref_id(C)), ref_alpha(f.cod, g.cod, C), h2)
        assert lhs == lhs_ref and rhs == rhs_ref
        expected = sorted_scan(lhs_ref, rhs_ref, eq)
        assert witness_of(lhs, rhs, eq) == expected
        assert witness_of(lhs, rhs_ref, eq) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data(), token_sets(), token_sets())
    def test_rebracketings(self, data, A, B):
        I = unit_set()
        moves = [
            (gamma(A, B), ref_gamma(A, B)),
            (lam(A), ref_lam(A)),
            (rho(A), ref_rho(A)),
            (alpha(A, I, B), ref_alpha(A, I, B)),
            (identity_fn(A), ref_id(A)),
        ]
        for table, ref in moves:
            h1 = data.draw(maps_into(table.cod))
            h2 = data.draw(with_mismatches(h1))
            assert table.then(h1) == ref_then(ref, h1)
            assert witness_of(table.then(h1), table.then(h2)) == \
                sorted_scan(ref_then(ref, h1), ref_then(ref, h2), EQS[0])

    def test_composites_are_typed_by_then(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        with pytest.raises(ValueError, match="cannot compose"):
            f.then(f)
        with pytest.raises(ValueError, match="cannot compose"):
            tensor_fn(f, f).then(identity_fn(tensor(Y, X)))
        with pytest.raises(ValueError, match="cannot compose"):
            alpha(X, X, Y).then(identity_fn(tensor(X, tensor(Y, X))))
        assert tensor_fn(f, f).then(identity_fn(tensor(Y, Y))).cod == tensor(Y, Y)

    def test_empty_factors_make_equal_products(self):
        E = canonical_set(0)
        p = tensor_fn(identity_fn(E), identity_fn(X)).then(identity_fn(tensor(E, Y)))
        assert len(p.dom) == 0
        assert witness_of(p, identity_fn(tensor(Y, E))) is None

    def test_different_domains_raise(self):
        for eq in (None, lambda l, r: True):
            with pytest.raises(ValueError, match="domains differ"):
                witness_of(identity_fn(X), identity_fn(Y), eq)
            with pytest.raises(ValueError, match="domains differ"):
                witness_of(tensor_fn(identity_fn(X), identity_fn(Y)),
                           identity_fn(tensor(Y, X)), eq)

    def test_different_codomains_raise(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        with pytest.raises(ValueError, match="codomains differ"):
            witness_of(f, identity_fn(X))
        with pytest.raises(ValueError, match="codomains differ"):
            witness_of(tensor_fn(identity_fn(X), identity_fn(Y)), gamma(X, Y))
        with pytest.raises(ValueError, match="codomains differ"):
            witness_of(f.then(identity_fn(Y)), identity_fn(X), lambda l, r: True)
        # products with an empty factor are one set, whatever the other factor
        E = canonical_set(0)
        into_empty = FinFn(E, tensor(E, X), {})
        assert witness_of(into_empty, FinFn(E, tensor(Y, E), {})) is None

    def test_witness_is_least_in_sorted_order(self):
        # "a" sorts before "a*", yet "(a*,b)" sorts before "(a,b)": the product
        # lists its pairs in its factors' order, and the witness is the least
        # token all the same
        A = FinSet("A", ("a", "a*"))
        B = FinSet("B", ("b",))
        good = identity_fn(tensor(A, B))
        bad = FinFn(good.dom, good.cod, {"(a,b)": "(a*,b)", "(a*,b)": "(a,b)"})
        assert list(tensor(A, B)) == ["(a,b)", "(a*,b)"]
        assert witness_of(tensor_fn(identity_fn(A), identity_fn(B)), bad) == "(a*,b)"

    @settings(max_examples=100, deadline=None)
    @given(st.data(), oracle_maps())
    def test_eq_runs_only_where_the_tables_differ(self, data, f):
        g = data.draw(with_mismatches(f))
        differ = [t for t in sorted(f.dom) if f(t) != g(t)]
        failing = data.draw(st.sets(st.sampled_from([(f(t), g(t)) for t in differ]))
                            if differ else st.just(set()))
        calls = []

        def eq(l, r):
            calls.append((l, r))
            return (l, r) not in failing

        witness = witness_of(f, g, eq)
        stop = next((i for i, t in enumerate(differ) if (f(t), g(t)) in failing), None)
        scanned = differ if stop is None else differ[:stop + 1]
        assert calls == [(f(t), g(t)) for t in scanned]
        assert witness == (None if stop is None else differ[stop])


class TestIndexTablesMatchReference:
    def test_products_list_pairs_off_token_order(self):
        A = FinSet("A", ("a", "ab"))
        AC = tensor(A, FinSet("C", ("c",)))
        assert AC.elems == ("(a,c)", "(ab,c)")
        # "a," sorts after "a*,", and "b)" after "b(c))": pair order is the
        # reverse of token order
        L = FinSet("L", ("a", "a*"))
        R = FinSet("R", ("b", "b(c)"))
        LR = tensor(L, R)
        assert LR.elems == ("(a,b)", "(a,b(c))", "(a*,b)", "(a*,b(c))")
        assert sorted(LR) == list(reversed(LR.elems))
        f = FinFn(L, L, {"a": "a*", "a*": "a*"})
        g = FinFn(R, A, {"b": "a", "b(c)": "ab"})
        is_table(tensor_fn(f, g), *dict_tensor_fn(f, g))
        is_table(tensor_fn(g, f), *dict_tensor_fn(g, f))

    def test_pair_grid_and_list_are_kept_on_the_product(self):
        L = FinSet("L", ("a", "a*"))
        R = FinSet("R", ("b", "b(c)"))
        for P in (tensor(L, R), tensor(R, L), tensor(R, R), tensor(L, FinSet("C", ("c",)))):
            grid, pairs = P.pair_grid(), P.pair_list()
            assert P.pair_grid() is grid and P.pair_list() is pairs
            A, B = P.factors
            # worked out afresh from the tokens
            assert grid == tuple(tuple(P.elems.index(make_pair(a, b)) for b in B) for a in A)
            assert pairs == tuple((A.elems.index(l), B.elems.index(r))
                                  for l, r in map(split_pair, P.elems))
        # positions depend on the shape alone: products of one shape share them
        U, V = FinSet("U", ("u0", "u1")), FinSet("V", ("v0", "v1"))
        for P in (tensor(L, R), tensor(R, L)):
            assert P.pair_grid() is tensor(U, V).pair_grid()
            assert P.pair_list() is tensor(V, U).pair_list()
        assert tensor(L, FinSet("E", ())).pair_grid() == ((), ())
        assert tensor(FinSet("E", ()), L).pair_list() == ()

    @settings(max_examples=100, deadline=None)
    @given(st.data(), oracle_maps())
    def test_then(self, data, f):
        g = data.draw(oracle_maps(f.cod))
        is_table(f.then(g), *dict_then(f, g))
        if f.cod != f.dom:
            with pytest.raises(ValueError, match="cannot compose"):
                f.then(f)

    @settings(max_examples=100, deadline=None)
    @given(oracle_maps(), oracle_maps())
    def test_tensor_fn(self, f, g):
        is_table(tensor_fn(f, g), *dict_tensor_fn(f, g))

    @settings(deadline=None)
    @given(oracle_sets)
    def test_identity(self, S):
        is_table(identity_fn(S), *dict_identity(S))
        assert identity_fn(S).is_injective()

    @settings(deadline=None)
    @given(oracle_sets, oracle_sets.filter(lambda S: len(S) <= 2))
    def test_all_fns(self, S, T):
        if len(T) ** len(S) > 100:
            return
        fns = list(all_fns(S, T))
        tables = dict_all_fns(S, T)
        assert len(fns) == len(tables)
        for fn, table in zip(fns, tables):
            is_table(fn, S, T, table)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(exprs, st.builds(Prod, prefixed_sets.map(Const), st.just(Id()))),
           oracle_maps())
    def test_apply_mor(self, expr, f):
        is_table(apply_mor(expr, f), *dict_apply_mor(expr, f))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), oracle_maps())
    def test_eq_hash_inverse_and_witness(self, data, f):
        g = data.draw(with_mismatches(f))
        assert (f == g) == (f.mapping == g.mapping)
        if f == g:
            assert hash(f) == hash(g)
        assert witness_of(f, g) == sorted_scan(f, g, EQS[0])
        assert witness_of(f, g) == witness_of(f.then(identity_fn(f.cod)), g)
        values = set(f.mapping.values())
        assert f.is_injective() == (len(values) == len(f.dom))
        if f.is_injective() and len(f.dom) == len(f.cod):
            is_table(inverse(f), f.cod, f.dom, {v: k for k, v in f.mapping.items()})
            assert f.then(inverse(f)) == identity_fn(f.dom)
        else:
            with pytest.raises(ValueError, match="not a bijection"):
                inverse(f)


# --- law sides: the chain builders against the composites they stand for -------

@st.composite
def chain_sets(draw, name="S", min_size=0):
    # "a," sorts after "a*," and "b)" after "b(c))", so products of these
    # sets are not in row-major order; an empty set is drawn too
    tokens = draw(st.lists(st.sampled_from(["a", "a*", "b", "b(c)"]), unique=True,
                           min_size=min_size, max_size=3))
    return FinSet(name, tokens)


@st.composite
def chain_maps(draw, dom, name="C"):
    """A map out of dom into a drawn non-empty set."""
    cod = draw(chain_sets(name, min_size=1))
    return FinFn(dom, cod, {t: draw(st.sampled_from(cod.elems)) for t in dom})


class TestLawSideBuilders:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), chain_sets("A"))
    def test_seq(self, data, A):
        f = data.draw(chain_maps(A, "B"))
        g = data.draw(chain_maps(f.cod, "C"))
        h = data.draw(chain_maps(g.cod, "D"))
        same_map(seq(f), f)
        same_map(seq(f, g), ref_then(f, g))
        same_map(seq(f, g, h), ref_then(f, g, h))
        same_map(f.then(g), ref_then(f, g))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), chain_sets("A"), chain_sets("B"))
    def test_tensor_then(self, data, A, B):
        f, g = data.draw(chain_maps(A, "A2")), data.draw(chain_maps(B, "B2"))
        h = data.draw(chain_maps(tensor(f.cod, g.cod), "C"))
        k = data.draw(chain_maps(h.cod, "D"))
        same_map(tensor_then(f, g, h), ref_then(ref_par(f, g), h))
        same_map(tensor_then(f, g, h, k), ref_then(ref_par(f, g), h, k))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), chain_sets("X"), chain_sets("Y"), chain_sets("Z"))
    def test_alpha_then(self, data, X, Y, Z):
        g = data.draw(chain_maps(tensor(Y, Z), "G"))
        h = data.draw(chain_maps(tensor(X, g.cod), "H"))
        k = data.draw(chain_maps(h.cod, "K"))
        ref = [ref_alpha(X, Y, Z), ref_par(ref_id(X), g), h]
        same_map(alpha_then(X, Y, Z, g, h), ref_then(*ref))
        same_map(alpha_then(X, Y, Z, g, h, k), ref_then(*ref, k))
        same_map(alpha(X, Y, Z), ref_alpha(X, Y, Z))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), chain_sets("X"), chain_sets("Y"), chain_sets("Z"))
    def test_alpha_inv_then(self, data, X, Y, Z):
        g = data.draw(chain_maps(tensor(X, Y), "G"))
        h = data.draw(chain_maps(tensor(g.cod, Z), "H"))
        k = data.draw(chain_maps(h.cod, "K"))
        ref = [inverse(ref_alpha(X, Y, Z)), ref_par(g, ref_id(Z)), h]
        same_map(alpha_inv_then(X, Y, Z, g, h), ref_then(*ref))
        same_map(alpha_inv_then(X, Y, Z, g, h, k), ref_then(*ref, k))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), chain_sets("A"), chain_sets("B"))
    def test_pair_rows(self, data, A, B):
        h = data.draw(chain_maps(tensor(A, B)))
        rows = pair_rows(h, A, B)
        assert [[h.cod.elems[v] for v in row] for row in rows] == \
            [[h(make_pair(a, b)) for b in B] for a in A]

    @pytest.mark.parametrize("build", [
        lambda f, W: seq(f, identity_fn(W)),
        lambda f, W: seq(f, identity_fn(f.cod), identity_fn(W)),
        lambda f, W: f.then(identity_fn(W)),
        lambda f, W: pair_rows(identity_fn(tensor(W, W)), f.dom, f.cod),
        lambda f, W: tensor_then(f, f, identity_fn(tensor(W, f.cod))),
        lambda f, W: tensor_then(f, f, identity_fn(tensor(f.cod, f.cod)), identity_fn(W)),
        lambda f, W: alpha_then(W, f.dom, f.dom, tensor_fn(f, f), identity_fn(tensor(W, f.cod))),
        lambda f, W: alpha_then(W, W, f.dom, tensor_fn(f, f), identity_fn(tensor(W, W))),
        lambda f, W: alpha_then(f.dom, W, W, identity_fn(tensor(W, W)),
                                identity_fn(tensor(f.dom, tensor(W, W))), identity_fn(W)),
        lambda f, W: alpha_inv_then(f.dom, f.dom, W, f, identity_fn(tensor(f.cod, W))),
        lambda f, W: alpha_inv_then(W, W, W, identity_fn(tensor(W, W)),
                                    identity_fn(tensor(f.cod, W))),
        lambda f, W: alpha_inv_then(W, W, W, identity_fn(tensor(W, W)),
                                    identity_fn(tensor(tensor(W, W), W)), identity_fn(W)),
    ])
    def test_a_mistyped_link_cannot_compose(self, build):
        # f's domain and codomain differ from W, and from each other, as sets
        f = FinFn(FinSet("A", ("a", "a*")), FinSet("B", ("b", "b(c)", "c")),
                  {"a": "b", "a*": "b(c)"})
        with pytest.raises(ValueError, match="cannot compose"):
            build(f, FinSet("W", ("w",)))


# --- f (x) id read as whole rows of the product grid ---------------------------

@pytest.fixture
def entry_readings(monkeypatch):
    """Counts the calls to ``_tensor_positions``, the entry-by-entry reading of
    f (x) g, by whether an ``apply_mor`` frame is on the stack."""
    calls = collections.Counter()
    reading = finkit._tensor_positions

    def counted(f, g, AB):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not apply_mor.__code__:
            frame = frame.f_back
        calls["apply_mor" if frame is not None else "other"] += 1
        return reading(f, g, AB)

    monkeypatch.setattr(finkit, "_tensor_positions", counted)
    return calls


def small_maps():
    """Every map between the canonical sets of sizes 0..3."""
    for n, m in itertools.product(range(4), repeat=2):
        yield from all_fns(canonical_set(n), canonical_set(m))


# annotation sets: empty, a point, three tokens one of which prefixes another,
# and a product, whose pairs sort off row-major order
ANNOTATIONS = (FinSet("E", ()), FinSet("W1", ("w",)), FinSet("W3", ("a", "a*", "b")),
               tensor(FinSet("L", ("a", "a*")), FinSet("R", ("b", "b(c)"))))


class TestTensorWithAnIdentity:
    @pytest.mark.parametrize("W", ANNOTATIONS, ids=lambda W: W.name)
    def test_rows_are_the_entry_by_entry_reading(self, entry_readings, W):
        g = identity_fn(W)
        for f in small_maps():
            image = tensor_fn(f, g)
            assert image.idx == tuple(finkit._tensor_positions(f, g, image.cod))
            is_table(image, *dict_tensor_fn(f, g))
            same_map(image, ref_par(f, g))
            if len(W) == 1:
                assert image.idx is f.idx
        # only the reference readings above called it
        assert entry_readings["other"] == sum(1 for _ in small_maps())

    @pytest.mark.parametrize("W", ANNOTATIONS, ids=lambda W: W.name)
    def test_look_alikes_take_the_entry_by_entry_reading(self, entry_readings, W):
        copied = FinFn(W, W, {t: t for t in W})
        look_alikes = [lam(W), rho(W), alpha(W, unit_set(), W)]
        if W:
            # the empty table is one tuple, so only a non-empty copy differs
            assert copied.idx == identity_fn(W).idx and copied.idx is not identity_fn(W).idx
            look_alikes.append(copied)
        assert lam(W).idx is rho(W).idx is identity_fn(W).idx
        for g in look_alikes:
            entry_readings.clear()
            for f in small_maps():
                image = tensor_fn(f, g)
                is_table(image, *dict_tensor_fn(f, g))
            assert entry_readings["other"] == sum(1 for _ in small_maps())

    def test_a_writer_image_over_a_point_keeps_the_maps_table(self):
        M = multi_error_writer()
        f = FinFn(X, Y, {"x0": "y2", "x1": "y0"})
        assert M.fmap("wa", f).idx is f.idx

    def test_check_all_reads_no_fmap_image_entry_by_entry(self, entry_readings):
        assert check_all(multi_error_writer(), 2).ok
        assert entry_readings["apply_mor"] == 0
        assert entry_readings["other"] > 0   # the counter sees the law sides' readings

    @pytest.mark.parametrize("expr, entry_by_entry", [
        (Prod(Const(FinSet("W", ("a", "a*"))), Id()), True),
        (Prod(Id(), Id()), True),
        (Prod(Prod(Id(), Const(FinSet("W", ("a", "a*")))), Const(FinSet("V", ("b", "b(c)")))),
         False),
    ])
    def test_apply_mor_is_the_token_definition(self, entry_readings, expr, entry_by_entry):
        for f in small_maps():
            dom = apply_obj(expr, f.dom)
            is_table(apply_mor(expr, f), dom, apply_obj(expr, f.cod),
                     {t: ref_map_token(expr, f, t) for t in dom})
        # the first two still read an entry at a time: the general path stays covered
        assert (entry_readings["apply_mor"] > 0) == entry_by_entry


# --- product tokens are built from checked tokens and not checked again -------

invalid_tokens = st.one_of(
    st.just(""),
    st.builds("{},{}".format, leaf_tokens, leaf_tokens),
    st.builds("{} ".format, tokens),
    st.builds("({}".format, tokens),
    st.builds("{})".format, tokens),
    st.builds("{{{}".format, tokens),
)


class TestProductTokens:
    @settings(deadline=None)
    @given(tokens, tokens)
    def test_pairs_of_valid_tokens_are_valid(self, left, right):
        check_token(left)
        check_token(right)
        check_token(make_pair(left, right))

    @settings(deadline=None)
    @given(token_sets(), token_sets())
    def test_tensor_tokens_are_valid_pairs(self, A, B):
        AB = tensor(A, B)
        assert set(AB) == {make_pair(a, b) for a in A for b in B}
        for tok in AB:
            check_token(tok)

    @settings(deadline=None)
    @given(st.lists(tokens, max_size=2), invalid_tokens)
    def test_outside_tokens_are_still_checked(self, good, bad):
        with pytest.raises(TokenError):
            FinSet("S", set(good) | {bad})
