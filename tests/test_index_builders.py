"""The index-built structure maps and built-in components against the
token-dict builders they replaced.

The reference builders below spell every map out token by token, through
``make_pair`` and the checked ``FinFn`` constructor.  The library builds the
same maps from the positions of the factors' tokens.  Both must give the
same index table between the same sets, with the same set names, also for
empty sets and for factors whose pairs sort off row-major order (``a`` and
``a*``, ``b`` and ``b(c)``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from centrekit.finkit import (
    FinFn,
    FinSet,
    alpha,
    apply_obj,
    gamma,
    lam,
    make_pair,
    rho,
    tensor,
    unit_set,
)
from centrekit.graded_monad import multi_error_writer, writer_monad
from centrekit.pomonoid import bool_pomonoid
from centrekit.relaxations import (
    build_language_writer,
    language_duoid,
    language_shuffle,
    parse_language_literal,
)


# --- reference builders: tables of tokens ---------------------------------------

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


def ref_writer_strength(X, Y, annotations):
    """(x,(y,u)) -> ((x,y),u)."""
    mapping = {make_pair(x, make_pair(y, u)): make_pair(make_pair(x, y), u)
               for x in X for y in Y for u in annotations}
    return FinFn(tensor(X, tensor(Y, annotations)), tensor(tensor(X, Y), annotations), mapping)


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
            "strength": lambda a, X, Y: ref_writer_strength(X, Y, carriers[a])}


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

    def lift(a, b, X):
        dom = carrier(a, X)
        return FinFn(dom, carrier(b, X), {t: "*" for t in dom})

    return {"mult": mult, "strength": strength, "lift": lift}


def ref_language_m(DM, a, b, X, Y):
    """((x,u),(y,v)) -> ((x,y),u||v), shuffling the parsed literals."""
    M, D = DM.monad, DM.duoid

    def shuffle(u, v):
        return language_shuffle(parse_language_literal(u, "ab", 2),
                                parse_language_literal(v, "ab", 2)).literal()

    mapping = {make_pair(make_pair(x, u), make_pair(y, v)):
               make_pair(make_pair(x, y), shuffle(u, v))
               for x in X for u in annotations(M, a) for y in Y for v in annotations(M, b)}
    return FinFn(tensor(M.carrier(a, X), M.carrier(b, Y)),
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
            if a != "e":
                same_table(M.lift(a, "e", X), ref["lift"](a, "e", X))
            for b in P.elements:
                same_table(M.mult(a, b, X), ref["mult"](a, b, X))


class TestLanguageInterchange:
    DM = build_language_writer("ab", 2, language_duoid("ab", 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), token_sets(max_size=2), token_sets(max_size=2))
    def test_m(self, data, X, Y):
        a = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        b = data.draw(st.sampled_from(self.DM.monad.pomonoid.elements))
        same_table(self.DM.m(a, b, X, Y), ref_language_m(self.DM, a, b, X, Y))
