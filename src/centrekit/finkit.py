"""Finite sets, finite functions, and polynomial endofunctors over them.

Everything downstream evaluates structure maps pointwise, so carriers are
kept as plain string tokens.  Structured values use a fixed encoding:
pairs are ``(l,r)``, sum injections are ``inl:v`` / ``inr:v``, and leaves
stay bare.  Set membership and all law comparisons are string equality on
this encoding, which is why it is never allowed to drift.

``FinSet`` and ``FinFn`` are immutable values: nothing may change a set's
name or tokens, or a map's table, once built.  Structure is shared on that
basis: ``tensor`` hands back the product it already built for the same
operands while that product is still in use, ``canonical_set(n)`` is one
set per n, and a set keeps its identity map once built.

A ``FinFn`` stores its table as ``idx``, a tuple of codomain positions:
``idx[i]`` is the place, in the codomain's sorted tokens, of the image of
the domain's i-th token.  The token dict ``mapping`` is built from it on
first use.  Composition, tensor, identities, ``all_fns``, ``apply_mor``,
equality, the structure maps and the built-in monads' components work on
these integer tables and never re-check a table they built;
``FinFn(dom, cod, mapping)`` checks every table it is given.  A product
built by ``tensor`` knows where the pair of its factors' i-th and j-th
tokens sits among its own sorted tokens (``pair_grid``, ``pair_list``),
which can differ from row-major order when a factor token is a prefix of
another (``a`` and ``a*``: ``(a*,b)`` sorts before ``(a,b)``).

The two sides of a law diagram are compared pointwise, without building
them.  ``seq`` (a diagrammatic composite), ``par`` (the tensor of two
maps) and the re-bracketings ``alpha_path``, ``lam_path``, ``rho_path``,
``gamma_path`` and ``identity_path`` are paths: they carry no table and act
on elements, with a ``FinFn`` as the leaf.  A path's domain is a
``Product`` of its factor sets, enumerated from the factors and never
built.  ``first_mismatch`` evaluates both sides over the common domain a
list at a time, then compares them in sorted token order and stops at the
first element they disagree on: the witness is the least failing token,
the one a sorted scan of the built composites reports.  Every law
comparison goes through it.
"""

from __future__ import annotations

import itertools
import operator
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
    "apply_obj",
    "apply_mor",
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
    "canonical_set",
    "identity_fn",
    "op_table",
    "all_fns",
    "Product",
    "Path",
    "seq",
    "par",
    "alpha_path",
    "lam_path",
    "rho_path",
    "gamma_path",
    "identity_path",
    "first_mismatch",
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
    A product built by ``tensor`` keeps its two factors in ``factors``; its
    tokens are pairs of the factors' checked tokens and are not checked again.
    """

    __slots__ = ("name", "elems", "factors", "_members", "_hash", "_prefix_free",
                 "_index", "_pairs", "_identity", "__weakref__")

    def __init__(self, name: str, elems, factors=None):
        elems = tuple(sorted(elems))
        if factors is None:
            for tok in elems:
                _check_token(tok)
        members = frozenset(elems)
        if len(members) != len(elems):
            raise TokenError(f"duplicate tokens in {name or 'set'}: {elems}")
        self.name = name
        self.elems = elems
        self.factors = factors
        self._prefix_free = None
        self._members = members
        self._hash = hash(elems)
        self._index = None
        self._pairs = _UNKNOWN
        self._identity = None

    def __contains__(self, tok) -> bool:
        return tok in self._members

    def prefix_free(self) -> bool:
        """No token is a proper prefix of another (worked out on first use)."""
        if self._prefix_free is None:
            e = self.elems
            self._prefix_free = not any(b.startswith(a) for a, b in zip(e, e[1:]))
        return self._prefix_free

    def token_index(self) -> dict:
        """Token -> its position in ``elems`` (built on first use)."""
        if self._index is None:
            self._index = dict(zip(self.elems, range(len(self.elems))))
        return self._index

    def pair_positions(self):
        """Where a product's factor pairs sit among its sorted tokens.

        None when the pair of the factors' i-th and j-th tokens is token
        i*|B| + j (row-major order); otherwise ``(pos, order)``, with pos
        mapping row-major positions to sorted ones and order its inverse.
        Worked out on first use, for products built by ``tensor`` only.
        """
        if self._pairs is _UNKNOWN:
            A, B = self.factors
            ra, rb = _key_ranks(A, ","), _key_ranks(B, ")")
            if ra is None and rb is None:
                self._pairs = None
            else:
                nb = len(B)
                pos = [x * nb + y for x in (ra or range(len(A))) for y in (rb or range(nb))]
                self._pairs = (pos, _inverse(pos))
        return self._pairs

    def pair_grid(self) -> list:
        """grid[i][j]: the position of the pair of a product's factors' i-th
        and j-th tokens among its own tokens."""
        A, B = self.factors
        nb = len(B)
        pairs = self.pair_positions()
        if pairs is None:
            return [range(i * nb, i * nb + nb) for i in range(len(A))]
        return [pairs[0][i * nb:i * nb + nb] for i in range(len(A))]

    def pair_list(self) -> list:
        """(i, j) for each of a product's tokens, in order: the token is the
        pair of its factors' i-th and j-th tokens."""
        A, B = self.factors
        rows = list(itertools.product(range(len(A)), range(len(B))))
        pairs = self.pair_positions()
        return rows if pairs is None else list(map(rows.__getitem__, pairs[1]))

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


_UNKNOWN = object()


def _inverse(perm) -> list:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def _key_ranks(S: FinSet, suffix: str):
    """rank[i]: the place of S's i-th token when tokens are ordered with
    suffix appended, or None when that is their own order."""
    if S.prefix_free():
        return None
    e = S.elems
    order = sorted(range(len(e)), key=lambda i: e[i] + suffix)
    return None if order == list(range(len(e))) else _inverse(order)


class FinFn:
    """A total function between two FinSets, given by a table.

    ``idx[i]`` is the position in ``cod.elems`` of the image of
    ``dom.elems[i]``.  The token dict ``mapping`` is built from ``idx`` when
    something reads it.  The constructor takes a token table and checks that
    it is total on the domain and lands in the codomain.
    """

    __slots__ = ("dom", "cod", "idx", "_mapping")

    def __init__(self, dom: FinSet, cod: FinSet, mapping):
        if not isinstance(mapping, dict):
            mapping = dict(mapping)
        if mapping.keys() != dom._members:
            missing = dom._members - set(mapping)
            extra = set(mapping) - dom._members
            raise ValueError(f"map not total on {dom.name}: missing={missing} extra={extra}")
        image = list(map(mapping.__getitem__, dom.elems))
        position = cod.token_index()
        try:
            idx = tuple(map(position.__getitem__, image))
        except KeyError:
            bad = next(v for v in image if v not in position)
            raise ValueError(f"value {bad!r} outside codomain {cod.name}") from None
        self.dom = dom
        self.cod = cod
        self.idx = idx
        self._mapping = None

    @classmethod
    def _table(cls, dom: FinSet, cod: FinSet, idx: tuple) -> "FinFn":
        # an index table built here from checked ones: no check needed
        fn = object.__new__(cls)
        fn.dom = dom
        fn.cod = cod
        fn.idx = idx
        fn._mapping = None
        return fn

    @classmethod
    def from_pairs(cls, dom: FinSet, cod: FinSet, images) -> "FinFn":
        """The map from a product sending the pair of its factors' i-th and
        j-th tokens to cod's images[i*|B| + j]-th token (images unchecked)."""
        pairs = dom.pair_positions()
        if pairs is not None:
            images = map(images.__getitem__, pairs[1])
        return cls._table(dom, cod, tuple(images))

    @property
    def mapping(self) -> dict:
        """The table as token -> token, in domain order."""
        if self._mapping is None:
            self._mapping = dict(zip(self.dom.elems, map(self.cod.elems.__getitem__, self.idx)))
        return self._mapping

    def __call__(self, tok: str) -> str:
        return self.mapping[tok]

    def _compile(self, form):
        get = self.mapping.__getitem__
        if form.__class__ is not tuple:
            return (lambda vs: list(map(get, vs))), None
        if form[0].__class__ is not tuple and form[1].__class__ is not tuple:
            return (lambda vs: list(map(get, map("(%s,%s)".__mod__, vs)))), None
        return (lambda vs: list(map(get, map(_encode, vs)))), None

    def then(self, other: "FinFn") -> "FinFn":
        """Diagrammatic composite: first self, then other."""
        if self.cod != other.dom:
            raise ValueError(f"cannot compose {self.cod.name} -> {other.dom.name}")
        return FinFn._table(self.dom, other.cod, tuple(map(other.idx.__getitem__, self.idx)))

    def is_injective(self) -> bool:
        return len(set(self.idx)) == len(self.idx)

    def inverse(self) -> "FinFn":
        if not self.is_injective() or len(self.dom) != len(self.cod):
            raise ValueError(f"{self!r} is not a bijection")
        return FinFn._table(self.cod, self.dom, tuple(_inverse(self.idx)))

    @staticmethod
    def identity(X: FinSet) -> "FinFn":
        """X's identity, built once and kept on X."""
        if X._identity is None:
            X._identity = FinFn._table(X, X, tuple(range(len(X))))
        return X._identity

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinFn)
            and self.idx == other.idx
            and self.dom == other.dom
            and self.cod == other.cod
        )

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.idx))

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

    Built bottom-up from the index tables of the parts, so no token is
    parsed or built.
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
        # a sum lists its inl: tokens, in the left set's order, before its inr: ones
        shift = len(l.cod)
        return FinFn._table(_sum_set(l.dom, r.dom), _sum_set(l.cod, r.cod),
                            l.idx + tuple([shift + j for j in r.idx]))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


# --- symmetric monoidal kit on FinSet ----------------------------------

_UNIT = FinSet("I", ("*",))

# Products still in use, keyed by both operands and their names so that a
# shared product carries the names of the operands it was asked for.  The
# values are weak references: an entry, and the operands its key holds, go
# away with the last user of the product.
_PRODUCTS = {}
_GONE = weakref.ref(set())   # a reference whose object is gone: calling it gives None
_CANONICAL = {}              # canonical_set(n) by n


def unit_set() -> FinSet:
    return _UNIT


def tensor(A: FinSet, B: FinSet) -> FinSet:
    key = (A, B, A.name, B.name)
    product = _PRODUCTS.get(key, _GONE)()
    if product is None:
        product = FinSet(f"({A.name}x{B.name})", [make_pair(a, b) for a in A for b in B],
                         factors=(A, B))

        def forget(ref, key=key):
            if _PRODUCTS.get(key) is ref:
                del _PRODUCTS[key]
        _PRODUCTS[key] = weakref.ref(product, forget)
    return product


def tensor_fn(f: FinFn, g: FinFn) -> FinFn:
    dom = tensor(f.dom, g.dom)
    cod = tensor(f.cod, g.cod)
    # row-major position in cod of the image of each row-major element of dom
    n = len(g.cod)
    gi = g.idx
    images = [row + j for row in [i * n for i in f.idx] for j in gi]
    pairs = cod.pair_positions()
    if pairs is not None:
        images = list(map(pairs[0].__getitem__, images))
    return FinFn.from_pairs(dom, cod, images)


# The structure maps below are index tables computed from the positions of
# the factors' tokens: no token is built or looked up.

def gamma(X: FinSet, Y: FinSet) -> FinFn:
    """Symmetry (x,y) -> (y,x)."""
    cod = tensor(Y, X)
    at = cod.pair_grid()
    return FinFn.from_pairs(tensor(X, Y), cod, [row[x] for x in range(len(X)) for row in at])


def alpha(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    """Associator ((x,y),z) -> (x,(y,z))."""
    XY, YZ = tensor(X, Y), tensor(Y, Z)
    cod = tensor(X, YZ)
    yz, at = YZ.pair_grid(), cod.pair_grid()
    return FinFn.from_pairs(tensor(XY, Z), cod,
                            [at[x][w] for x, y in XY.pair_list() for w in yz[y]])


def alpha_inv(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    return alpha(X, Y, Z).inverse()


def lam(X: FinSet) -> FinFn:
    """Left unitor (*,x) -> x."""
    return FinFn.from_pairs(tensor(_UNIT, X), X, range(len(X)))


def lam_inv(X: FinSet) -> FinFn:
    return lam(X).inverse()


def rho(X: FinSet) -> FinFn:
    """Right unitor (x,*) -> x."""
    return FinFn.from_pairs(tensor(X, _UNIT), X, range(len(X)))


def rho_inv(X: FinSet) -> FinFn:
    return rho(X).inverse()


def canonical_set(n: int) -> FinSet:
    """The standard n-element test set y0..y{n-1}, one shared set per n."""
    if not 0 <= n <= 9:
        raise SetSizeError(
            f"canonical set size {n} is outside 0..9: canonical sets are meant "
            "for small exhaustive scans")
    S = _CANONICAL.get(n)
    if S is None:
        S = _CANONICAL[n] = FinSet(f"Y{n}", tuple(f"y{i}" for i in range(n)))
    return S


def identity_fn(X: FinSet) -> FinFn:
    return FinFn.identity(X)


def op_table(op, A: FinSet, B: FinSet, C: FinSet) -> list:
    """table[i][j]: the position in C of op(a, b), for A's i-th token a and
    B's j-th token b.  Raises ValueError when a value falls outside C."""
    values = [[op(a, b) for b in B] for a in A]
    position = C.token_index()
    try:
        return [list(map(position.__getitem__, row)) for row in values]
    except KeyError as exc:
        raise ValueError(f"value {exc.args[0]!r} outside {C.name}") from None


def all_fns(X: FinSet, Y: FinSet):
    """Every function X -> Y, in a fixed order."""
    for idx in itertools.product(range(len(Y)), repeat=len(X)):
        yield FinFn._table(X, Y, idx)


# --- lazy paths and pointwise comparison --------------------------------
#
# Inside a comparison an element is a token or a (left, right) tuple of
# elements.  Its form says which: a tuple of two forms, or anything else
# for a token.  Each map compiles, for the form of its input, a step that
# maps a list of elements to the list of their images (None for the
# identity), and the form of its output.
#
# A product token "(l,r)" sorts like the pair of keys (l + ",", r + ")"):
# a factor token has no top-level comma, so "l," is never a proper prefix
# of another "l2,".  Pair tokens are prefix-free, so for a product factor
# the suffix does not change the order.


class Product:
    """The product of two sets, described by its factors and never built.

    It answers ``len``, ``in`` and iteration (tokens in sorted order, as a
    built product lists them) from the factors alone.
    """

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def name(self) -> str:
        return f"({self.left.name}x{self.right.name})"

    def __len__(self) -> int:
        return len(self.left) * len(self.right)

    def __iter__(self):
        return map(_encode, _values(self, ""))

    def __contains__(self, tok) -> bool:
        try:
            l, r = split_pair(tok)
        except (TokenError, AttributeError):
            return False
        return l in self.left and r in self.right

    def build(self) -> FinSet:
        return tensor(_build(self.left), _build(self.right))


def _build(S) -> FinSet:
    return S.build() if S.__class__ is Product else S


def _factors(S):
    return (S.left, S.right) if S.__class__ is Product else S.factors


def _same_set(A, B):
    """The finer of two descriptions of one set, or None if the sets differ.

    Products, described or built by ``tensor``, are compared factor by
    factor.  The sets are built and compared only when the factors differ,
    since an empty factor makes such products equal.
    """
    if A is B:
        return A
    if A.__class__ is not Product and B.__class__ is not Product:
        return A if A == B else None
    fa, fb = _factors(A), _factors(B)
    if fa is not None and fb is not None:
        left = _same_set(fa[0], fb[0])
        right = _same_set(fa[1], fb[1]) if left is not None else None
        if right is not None:
            for S in (A, B):
                if S.__class__ is Product and S.left is left and S.right is right:
                    return S
            return Product(left, right)
    return (A if A.__class__ is Product else B) if _build(A) == _build(B) else None


def _form(S):
    return (_form(S.left), _form(S.right)) if S.__class__ is Product else None


def _values(S, suffix: str):
    """S's elements ordered by their tokens followed by suffix."""
    if S.__class__ is Product:
        return itertools.product(_values(S.left, ","), _values(S.right, ")"))
    if suffix and not S.prefix_free():
        return sorted(S.elems, key=lambda t: t + suffix)
    return S.elems


def _encode(v) -> str:
    if v.__class__ is str:
        return v
    l, r = v
    return (f"({l if l.__class__ is str else _encode(l)},"
            f"{r if r.__class__ is str else _encode(r)})")


_first = operator.itemgetter(0)
_second = operator.itemgetter(1)


def _halves(form) -> tuple:
    return form if form.__class__ is tuple else (None, None)


def _then(f, g):
    if f is None or g is None:
        return g if f is None else f
    return lambda vs: g(f(vs))


def _on_halves(form, f, g):
    """The step applying f and g (None: leave alone) to the two halves of
    every element, taking tokens apart first."""
    def step(vs):
        ls, rs = map(_first, vs), map(_second, vs)
        return list(zip(ls if f is None else f(list(ls)), rs if g is None else g(list(rs))))
    if form.__class__ is tuple:
        return step
    return lambda vs: step(list(map(split_pair, vs)))


def _expand(form, pattern):
    """(step, form): take tokens apart until elements are tuples at least
    as deep as pattern (a form)."""
    if pattern.__class__ is not tuple:
        return None, form
    fl, fr = _halves(form)
    f, fl = _expand(fl, pattern[0])
    g, fr = _expand(fr, pattern[1])
    if f is None and g is None and form.__class__ is tuple:
        return None, form
    return _on_halves(form, f, g), (fl, fr)


class Path:
    """A map given by how it acts on elements; it holds no table.

    Called on a token it returns a token, like a FinFn.
    """

    __slots__ = ("dom", "cod")

    def __call__(self, tok: str) -> str:
        step, _ = self._compile(None)
        return _encode((step([tok]) if step is not None else [tok])[0])


class _Seq(Path):
    __slots__ = ("maps",)

    def __init__(self, maps):
        for f, g in zip(maps, maps[1:]):
            if _same_set(f.cod, g.dom) is None:
                raise ValueError(f"cannot compose {f.cod.name} -> {g.dom.name}")
        self.maps = maps
        self.dom = maps[0].dom
        self.cod = maps[-1].cod

    def _compile(self, form):
        steps = []
        for f in self.maps:
            step, form = f._compile(form)
            if step is not None:
                steps.append(step)
        if len(steps) < 2:
            return (steps[0] if steps else None), form

        def run(vs):
            for step in steps:
                vs = step(vs)
            return vs
        return run, form


class _Par(Path):
    __slots__ = ("f", "g")

    def __init__(self, f, g):
        self.dom = Product(f.dom, g.dom)
        self.cod = Product(f.cod, g.cod)
        self.f = f
        self.g = g

    def _compile(self, form):
        fl, fr = _halves(form)
        f, out_l = self.f._compile(fl)
        g, out_r = self.g._compile(fr)
        if f is None and g is None:
            return None, form
        return _on_halves(form, f, g), (out_l, out_r)


class _Rebracket(Path):
    """A move such as ((x,y),z) -> (x,(y,z)) on elements whose tuples are
    at least as deep as pattern; the same move turns the input form into
    the output form."""

    __slots__ = ("pattern", "move")

    def __init__(self, dom, cod, pattern, move):
        self.dom = dom
        self.cod = cod
        self.pattern = pattern
        self.move = move

    def _compile(self, form):
        expand, form = _expand(form, self.pattern)
        if self.move is None:
            return expand, form
        move = self.move
        return _then(expand, lambda vs: list(map(move, vs))), move(form)


def seq(*maps) -> Path:
    """Diagrammatic composite of FinFns and paths: first maps[0], then the rest.

    Raises the ValueError of ``FinFn.then`` when a codomain and the next
    domain differ as sets.
    """
    flat = []
    for f in maps:
        flat.extend(f.maps if isinstance(f, _Seq) else (f,))
    return _Seq(tuple(flat))


def par(f, g) -> Path:
    """The tensor of two maps: (x,y) -> (f x, g y)."""
    return _Par(f, g)


_PAIR = (None, None)


def alpha_path(X, Y, Z) -> Path:
    """Associator ((x,y),z) -> (x,(y,z)) on elements."""
    return _Rebracket(Product(Product(X, Y), Z), Product(X, Product(Y, Z)), (_PAIR, None),
                      lambda v: (v[0][0], (v[0][1], v[1])))


def lam_path(X) -> Path:
    """Left unitor (*,x) -> x on elements."""
    return _Rebracket(Product(_UNIT, X), X, _PAIR, _second)


def rho_path(X) -> Path:
    """Right unitor (x,*) -> x on elements."""
    return _Rebracket(Product(X, _UNIT), X, _PAIR, _first)


def gamma_path(X, Y) -> Path:
    """Symmetry (x,y) -> (y,x) on elements."""
    return _Rebracket(Product(X, Y), Product(Y, X), _PAIR, lambda v: (v[1], v[0]))


def identity_path(X) -> Path:
    return _Rebracket(X, X, None, None)


def _to_tokens(f, form):
    """f's step for elements of the given form, with tokens as values."""
    step, out = f._compile(form)
    if out.__class__ is tuple:
        return _then(step, lambda vs: list(map(_encode, vs)))
    return step or list


def first_mismatch(lhs, rhs, eq=None):
    """The least domain token at which two maps disagree, or None.

    lhs and rhs are FinFns or paths over the same set; eq(l, r) says
    whether two values agree and defaults to token equality.  Both sides
    are evaluated on the whole domain; eq is then applied in sorted token
    order up to the first failure; two FinFns compared by equality are
    compared as index tables.  Raises ValueError when the two domains, or
    the two codomains, differ as sets.
    """
    dom = _same_set(lhs.dom, rhs.dom)
    if dom is None:
        raise ValueError(f"domains differ: {lhs.dom.name} vs {rhs.dom.name}")
    if _same_set(lhs.cod, rhs.cod) is None:
        raise ValueError(f"codomains differ: {lhs.cod.name} vs {rhs.cod.name}")
    if eq is None and lhs.__class__ is FinFn and rhs.__class__ is FinFn:
        if lhs.idx == rhs.idx:
            return None
        return next(t for t, l, r in zip(dom.elems, lhs.idx, rhs.idx) if l != r)
    elems = list(_values(dom, ""))
    if not elems:
        return None
    form = _form(dom)
    lvals, rvals = _to_tokens(lhs, form)(elems), _to_tokens(rhs, form)(elems)
    if eq is None:
        eq = operator.eq
    for v, l, r in zip(elems, lvals, rvals):
        if not eq(l, r):
            return _encode(v)
    return None
