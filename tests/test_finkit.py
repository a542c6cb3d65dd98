import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from centrekit.finkit import (
    Const,
    FinFn,
    FinSet,
    Id,
    Prod,
    Sum,
    SetSizeError,
    TokenError,
    all_fns,
    alpha,
    alpha_inv,
    apply_mor,
    apply_obj,
    canonical_set,
    decode,
    degree,
    encode,
    gamma,
    identity_fn,
    lam,
    lam_inv,
    make_inl,
    make_inr,
    make_pair,
    monoidal_kit,
    rho,
    rho_inv,
    size_at,
    split_pair,
    split_sum,
    tensor,
    tensor_fn,
    unit_set,
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
        assert f.inverse().then(f) == identity_fn(X)
        g = FinFn(X, X, {"x0": "x0", "x1": "x0"})
        assert not g.is_injective()
        with pytest.raises(ValueError):
            g.inverse()

    def test_all_fns_count(self):
        assert len(list(all_fns(X, Y))) == 9
        empty = FinSet("E", ())
        assert len(list(all_fns(empty, Y))) == 1
        assert len(list(all_fns(X, empty))) == 0


class TestPairsAndSums:
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

    def test_sum_round_trip(self):
        assert split_sum(make_inl("v")) == ("inl", "v")
        assert split_sum(make_inr("(a,b)")) == ("inr", "(a,b)")
        with pytest.raises(TokenError):
            split_sum("plain")

    token = st.text(alphabet="abc*", min_size=1, max_size=4)

    @given(token, token)
    def test_pair_round_trip_property(self, left, right):
        assert split_pair(make_pair(left, right)) == (left, right)


class TestFunctors:
    W = Prod(Id(), Const(FinSet("Ann", ("p", "q"))))
    E = Sum(Id(), Const(unit_set()))

    def test_degree(self):
        assert degree(Id()) == 1
        assert degree(Const(X)) == 0
        assert degree(self.W) == 1
        assert degree(Prod(Id(), Id())) == 2
        assert degree(self.E) == 1

    def test_size_at(self):
        assert size_at(Id(), 3) == 3
        assert size_at(Const(Y), 5) == 3
        assert size_at(self.W, 2) == 4
        assert size_at(self.E, 2) == 3

    def test_apply_obj_prod(self):
        WX = apply_obj(self.W, X)
        assert set(WX) == {"(x0,p)", "(x0,q)", "(x1,p)", "(x1,q)"}

    def test_apply_obj_sum(self):
        EX = apply_obj(self.E, X)
        assert set(EX) == {"inl:x0", "inl:x1", "inr:*"}

    def test_apply_mor_structural(self):
        f = FinFn(X, Y, {"x0": "y2", "x1": "y0"})
        Wf = apply_mor(self.W, f)
        assert Wf("(x0,p)") == "(y2,p)"
        assert Wf("(x1,q)") == "(y0,q)"
        Ef = apply_mor(self.E, f)
        assert Ef("inl:x0") == "inl:y2"
        assert Ef("inr:*") == "inr:*"

    def test_apply_mor_is_functorial(self):
        f = FinFn(X, Y, {"x0": "y1", "x1": "y2"})
        g = FinFn(Y, X, {"y0": "x0", "y1": "x0", "y2": "x1"})
        lhs = apply_mor(self.W, f).then(apply_mor(self.W, g))
        rhs = apply_mor(self.W, f.then(g))
        assert lhs == rhs
        assert apply_mor(self.W, identity_fn(X)) == identity_fn(apply_obj(self.W, X))

    def test_decode_encode(self):
        tok = make_pair(make_inl("x0"), "p")
        expr = Prod(self.E, Const(FinSet("Ann", ("p", "q"))))
        tree = decode(expr, tok)
        assert tree == ("pair", ("inl", ("leaf", "x0")), ("leaf", "p"))
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
    tag, v = split_sum(tok)
    if tag == "inl":
        return make_inl(ref_map_token(expr.left, f, v))
    return make_inr(ref_map_token(expr.right, f, v))


def ref_apply_mor(expr, f):
    dom = apply_obj(expr, f.dom)
    cod = apply_obj(expr, f.cod)
    return FinFn(dom, cod, {t: ref_map_token(expr, f, t) for t in dom})


leaf_tokens = st.text(alphabet="abc*", min_size=1, max_size=3)
tokens = st.recursive(
    leaf_tokens,
    lambda inner: st.one_of(
        st.builds(make_pair, inner, inner),
        st.builds(make_inl, inner),
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
    lambda inner: st.one_of(st.builds(Prod, inner, inner), st.builds(Sum, inner, inner)),
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
        same_map(alpha_inv(A, B, C), ref_alpha(A, B, C).inverse())

    @given(token_sets())
    def test_unitors(self, A):
        same_map(lam(A), ref_lam(A))
        same_map(rho(A), ref_rho(A))

    @settings(max_examples=200)
    @given(exprs, finite_maps())
    def test_apply_mor(self, expr, f):
        same_map(apply_mor(expr, f), ref_apply_mor(expr, f))
