"""Finite sets, finite functions, and polynomial endofunctors over them.

Everything downstream evaluates structure maps pointwise, so carriers are
kept as plain string tokens.  Structured values use a fixed encoding:
pairs are ``(l,r)``, sum injections are ``inl:v`` / ``inr:v``, and leaves
stay bare.  Set membership and all law comparisons are string equality on
this encoding, which is why it is never allowed to drift.

``FinSet`` and ``FinFn`` are immutable values: nothing may change a set's
name or tokens, or a map's table, once built.  Structure is shared on that
basis: ``tensor`` hands back the product it already built for the same
operands while that product is still in use, so equal products may be the
same object.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

__all__ = [
    "TokenError",
    "SetSizeError",
    "FinSet",
    "FinFn",
    "FunctorExpr",
    "Id",
    "Const",
    "Prod",
    "Sum",
    "degree",
    "size_at",
    "apply_obj",
    "apply_mor",
    "decode",
    "encode",
    "make_pair",
    "split_pair",
    "make_inl",
    "make_inr",
    "split_sum",
    "unit_set",
    "tensor",
    "tensor_fn",
    "gamma",
    "alpha",
    "alpha_inv",
    "lam",
    "lam_inv",
    "rho",
    "rho_inv",
    "MonoidalKit",
    "monoidal_kit",
    "canonical_set",
    "identity_fn",
    "all_fns",
]


class TokenError(ValueError):
    """A token the pair/sum encoding cannot accommodate."""


class SetSizeError(ValueError):
    """A canonical test set outside the sizes exhaustive scans can afford."""


def _check_token(tok: str) -> None:
    # Tokens must survive being spliced into "(l,r)": brackets balanced,
    # commas only inside brackets, no whitespace.
    if not tok:
        raise TokenError("empty token")
    depth = 0
    for ch in tok:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise TokenError(f"unbalanced brackets in token {tok!r}")
        elif ch == "," and depth == 0:
            raise TokenError(f"top-level comma in token {tok!r}")
        elif ch.isspace():
            raise TokenError(f"whitespace in token {tok!r}")
    if depth:
        raise TokenError(f"unbalanced brackets in token {tok!r}")


class FinSet:
    """A finite set of distinct tokens, stored sorted.

    The name is cosmetic: equality and hashing look at the tokens only, so
    two differently-named sets with the same tokens are the same set.
    Instances are immutable and may be shared, so the hash is computed once.
    """

    __slots__ = ("name", "elems", "_members", "_hash", "__weakref__")

    def __init__(self, name: str, elems):
        elems = tuple(sorted(elems))
        for tok in elems:
            _check_token(tok)
        members = frozenset(elems)
        if len(members) != len(elems):
            raise TokenError(f"duplicate tokens in {name or 'set'}: {elems}")
        self.name = name
        self.elems = elems
        self._members = members
        self._hash = hash(elems)

    def __contains__(self, tok) -> bool:
        return tok in self._members

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        return (isinstance(other, FinSet) and self._hash == other._hash
                and self.elems == other.elems)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {{{', '.join(self.elems)}}})"


class FinFn:
    """A total function between two FinSets, given by an explicit table.

    The table is copied in domain order and keyed by the domain's own token
    objects, so maps over a shared domain do not hold copies of its tokens.
    """

    __slots__ = ("dom", "cod", "mapping")

    def __init__(self, dom: FinSet, cod: FinSet, mapping):
        if not isinstance(mapping, dict):
            mapping = dict(mapping)
        if mapping.keys() != dom._members:
            missing = dom._members - set(mapping)
            extra = set(mapping) - dom._members
            raise ValueError(f"map not total on {dom.name}: missing={missing} extra={extra}")
        table = {t: mapping[t] for t in dom.elems}
        if not cod._members.issuperset(table.values()):
            bad = next(v for v in table.values() if v not in cod._members)
            raise ValueError(f"value {bad!r} outside codomain {cod.name}")
        self.dom = dom
        self.cod = cod
        self.mapping = table

    def __call__(self, tok: str) -> str:
        return self.mapping[tok]

    def then(self, other: "FinFn") -> "FinFn":
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError(f"cannot compose {self.cod.name} -> {other.dom.name}")
        return FinFn(self.dom, other.cod, {k: other.mapping[v] for k, v in self.mapping.items()})

    def is_injective(self) -> bool:
        return len(set(self.mapping.values())) == len(self.mapping)

    def inverse(self) -> "FinFn":
        if not self.is_injective() or len(self.dom) != len(self.cod):
            raise ValueError(f"{self!r} is not a bijection")
        return FinFn(self.cod, self.dom, {v: k for k, v in self.mapping.items()})

    @staticmethod
    def identity(X: FinSet) -> "FinFn":
        return FinFn(X, X, {t: t for t in X})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinFn)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.mapping == other.mapping
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, tuple(sorted(self.mapping.items()))))

    def __repr__(self) -> str:
        return f"FinFn({self.dom.name} -> {self.cod.name})"


# --- element encoding -------------------------------------------------

def make_pair(l: str, r: str) -> str:
    return f"({l},{r})"


def split_pair(tok: str) -> tuple[str, str]:
    if not (tok.startswith("(") and tok.endswith(")")):
        raise TokenError(f"not a pair token: {tok!r}")
    depth = 0
    for idx, ch in enumerate(tok):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 1:
            return tok[1:idx], tok[idx + 1 : -1]
    raise TokenError(f"not a pair token: {tok!r}")


def make_inl(v: str) -> str:
    return f"inl:{v}"


def make_inr(v: str) -> str:
    return f"inr:{v}"


def split_sum(tok: str) -> tuple[str, str]:
    if tok.startswith("inl:"):
        return "inl", tok[4:]
    if tok.startswith("inr:"):
        return "inr", tok[4:]
    raise TokenError(f"not a sum token: {tok!r}")


# --- polynomial functor expressions -----------------------------------

class FunctorExpr:
    """Shape of a polynomial endofunctor: Id | Const(S) | Prod(F,G) | Sum(F,G)."""

    __slots__ = ()


@dataclass(frozen=True)
class Id(FunctorExpr):
    pass


@dataclass(frozen=True)
class Const(FunctorExpr):
    value: FinSet


@dataclass(frozen=True)
class Prod(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class Sum(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


def degree(expr: FunctorExpr) -> int:
    """Maximum number of Id leaves along any one value of the functor."""
    if isinstance(expr, Id):
        return 1
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Prod):
        return degree(expr.left) + degree(expr.right)
    if isinstance(expr, Sum):
        return max(degree(expr.left), degree(expr.right))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def size_at(expr: FunctorExpr, n: int) -> int:
    """Cardinality of the functor at an n-element set, computed symbolically."""
    if isinstance(expr, Id):
        return n
    if isinstance(expr, Const):
        return len(expr.value)
    if isinstance(expr, Prod):
        return size_at(expr.left, n) * size_at(expr.right, n)
    if isinstance(expr, Sum):
        return size_at(expr.left, n) + size_at(expr.right, n)
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def _sum_set(l: FinSet, r: FinSet) -> FinSet:
    return FinSet(
        f"({l.name}+{r.name})",
        itertools.chain((make_inl(t) for t in l), (make_inr(t) for t in r)),
    )


def apply_obj(expr: FunctorExpr, X: FinSet) -> FinSet:
    """Evaluate the functor at a set.  Id is identity on the nose."""
    if isinstance(expr, Id):
        return X
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Prod):
        return tensor(apply_obj(expr.left, X), apply_obj(expr.right, X))
    if isinstance(expr, Sum):
        return _sum_set(apply_obj(expr.left, X), apply_obj(expr.right, X))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def apply_mor(expr: FunctorExpr, f: FinFn) -> FinFn:
    """Functor action on a map: relabel Id leaves by f, fix Const leaves.

    Built bottom-up from the action on the parts, so no token is parsed.
    """
    if isinstance(expr, Id):
        return f
    if isinstance(expr, Const):
        return FinFn.identity(expr.value)
    if isinstance(expr, Prod):
        return tensor_fn(apply_mor(expr.left, f), apply_mor(expr.right, f))
    if isinstance(expr, Sum):
        l = apply_mor(expr.left, f)
        r = apply_mor(expr.right, f)
        mapping = {make_inl(t): make_inl(v) for t, v in l.mapping.items()}
        mapping.update((make_inr(t), make_inr(v)) for t, v in r.mapping.items())
        return FinFn(_sum_set(l.dom, r.dom), _sum_set(l.cod, r.cod), mapping)
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def decode(expr: FunctorExpr, tok: str):
    """View an element token as a tree guided by the functor shape."""
    if isinstance(expr, (Id, Const)):
        return ("leaf", tok)
    if isinstance(expr, Prod):
        l, r = split_pair(tok)
        return ("pair", decode(expr.left, l), decode(expr.right, r))
    if isinstance(expr, Sum):
        tag, v = split_sum(tok)
        branch = expr.left if tag == "inl" else expr.right
        return (tag, decode(branch, v))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def encode(tree) -> str:
    tag = tree[0]
    if tag == "leaf":
        return tree[1]
    if tag == "pair":
        return make_pair(encode(tree[1]), encode(tree[2]))
    if tag == "inl":
        return make_inl(encode(tree[1]))
    if tag == "inr":
        return make_inr(encode(tree[1]))
    raise ValueError(f"bad element tree: {tree!r}")


# --- symmetric monoidal kit on FinSet ----------------------------------

_UNIT = FinSet("I", ("*",))

# Products still in use, keyed by both operands and their names so that a
# shared product carries the names of the operands it was asked for.  The
# values are weak: an entry, and the operands its key holds, go away with
# the last user of the product.
_PRODUCTS = weakref.WeakValueDictionary()


def unit_set() -> FinSet:
    return _UNIT


def tensor(A: FinSet, B: FinSet) -> FinSet:
    key = (A, B, A.name, B.name)
    product = _PRODUCTS.get(key)
    if product is None:
        product = FinSet(f"({A.name}x{B.name})", [make_pair(a, b) for a in A for b in B])
        _PRODUCTS[key] = product
    return product


def tensor_fn(f: FinFn, g: FinFn) -> FinFn:
    dom = tensor(f.dom, g.dom)
    cod = tensor(f.cod, g.cod)
    gm = g.mapping.items()
    mapping = {make_pair(a, b): make_pair(fa, gb) for a, fa in f.mapping.items() for b, gb in gm}
    return FinFn(dom, cod, mapping)


# The structure maps below are tabulated from the factors' tokens: a
# product's tokens are exactly make_pair(a, b) for its factors' tokens.

def gamma(X: FinSet, Y: FinSet) -> FinFn:
    """Symmetry (x,y) -> (y,x)."""
    mapping = {make_pair(x, y): make_pair(y, x) for x in X for y in Y}
    return FinFn(tensor(X, Y), tensor(Y, X), mapping)


def alpha(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    """Associator ((x,y),z) -> (x,(y,z))."""
    dom = tensor(tensor(X, Y), Z)
    cod = tensor(X, tensor(Y, Z))
    mapping = {}
    for x in X:
        for y in Y:
            xy = make_pair(x, y)
            for z in Z:
                mapping[make_pair(xy, z)] = make_pair(x, make_pair(y, z))
    return FinFn(dom, cod, mapping)


def alpha_inv(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    return alpha(X, Y, Z).inverse()


def lam(X: FinSet) -> FinFn:
    """Left unitor (*,x) -> x."""
    return FinFn(tensor(_UNIT, X), X, {make_pair(u, x): x for u in _UNIT for x in X})


def lam_inv(X: FinSet) -> FinFn:
    return lam(X).inverse()


def rho(X: FinSet) -> FinFn:
    """Right unitor (x,*) -> x."""
    return FinFn(tensor(X, _UNIT), X, {make_pair(x, u): x for x in X for u in _UNIT})


def rho_inv(X: FinSet) -> FinFn:
    return rho(X).inverse()


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


def canonical_set(n: int) -> FinSet:
    """The standard n-element test set y0..y{n-1}."""
    if not 0 <= n <= 9:
        raise SetSizeError(
            f"canonical set size {n} is outside 0..9: canonical sets are meant "
            "for small exhaustive scans")
    return FinSet(f"Y{n}", tuple(f"y{i}" for i in range(n)))


def identity_fn(X: FinSet) -> FinFn:
    return FinFn.identity(X)


def all_fns(X: FinSet, Y: FinSet):
    """Every function X -> Y, in a fixed order."""
    if len(X) == 0:
        yield FinFn(X, Y, {})
        return
    for images in itertools.product(Y.elems, repeat=len(X)):
        yield FinFn(X, Y, dict(zip(X.elems, images)))
