"""Finite sets, finite functions, and polynomial endofunctors over them.

Everything downstream evaluates structure maps pointwise, so carriers are
kept as plain string tokens.  Structured values use a fixed encoding:
pairs are ``(l,r)`` and leaves stay bare.  Set membership and all law
comparisons are string equality on this encoding, which is why it is never
allowed to drift.  Functors are Id | Const | Prod, so every fmap image is an
index table; another shape is given through ``carrier_fn``/``fmap_fn``.

``FinSet`` and ``FinFn`` are immutable values: nothing may change a set's
name or tokens, or a map's table, once built.  Every set carries ``vid``,
an exact integer id of its tokens: equal token sets share a vid and no two
different ones do, so sets hash and compare by it, and memos key on it.  A
plain set's tokens are interned once (a plain set of exactly the pairs
L x R gets the vid of that product); a product's vid is an injective
pairing of its factors' vids, kept apart from the interned ones, so no
table holds an entry per product; every empty set has vid 0.  Structure is
shared on that basis: ``tensor`` hands back the product it already built
for the same operands while that product is still in use (its registry is
keyed by the operands' vids and names), ``canonical_set(n)`` is one set
per n, and a set keeps its identity map once built.  A product with an
empty factor is shared through that registry like any other, and every map
out of an empty domain is the empty table.  Tokens live at the edge: a
product holds its factors and builds its token list only when something
reads it (a witness, ``in``, iteration, ``mapping``, the checked ``FinFn``
constructor); ``in`` and that constructor read the one ``token_index``.

One rule fixes every set's positions.  A product is in pair order: the
pair of A's i-th and B's j-th tokens is the product's token i*|B| + j.  A
plain set is sorted, unless its tokens are exactly the pairs L x R: then it
shares that product's vid and is listed in its pair order, so that equal
sets list their tokens alike.  Pair order is not token order when a factor
token prefixes another (``a`` and ``a*``: ``(a*,b)`` sorts before
``(a,b)``), so whatever names or shows an element of a set, a witness or a
rendered member list, takes the least token in string order, never the
first position.

A ``FinFn`` stores its table as ``idx``, a tuple of codomain positions:
``idx[i]`` is the position in the codomain of the image of the domain's
i-th token.  The token dict ``mapping`` is built from it on first use.
Composition, tensor, identities, ``all_fns``, ``apply_mor``, equality, the
structure maps and the built-in monads' components work on these integer
tables and never re-check a table they built; ``FinFn(dom, cod, mapping)``
checks every table it is given.  ``pair_grid`` and ``pair_list`` give a
product's positions row by row and as (i, j) pairs.  Positions depend on
sizes alone, so they are shared by shape: every product of one shape reads
the same tables, built once, and the identity's table is one tuple per size,
whose ints a grid's rows share.

Every side of a law diagram is a chain of maps, read as one index row by
the composite vocabulary: ``seq_row``, ``tensor_row`` and ``pair_rows``.
Each link is checked by vid with ``then``'s ``cannot compose`` error.  A
row out of a product is in its pair order, so it is the product's table as
it stands.  The ``FinFn`` builders ``seq`` and ``tensor_then`` wrap these
readers, and so do ``alpha_then`` and ``alpha_inv_then``: both bracketings
of x, y, z share one position, so a re-bracketing then id (x) g, or g (x)
id, is that tensor's row read over the other bracketing.  ``then`` is one
call into ``seq``, and ``tensor_fn`` reads f (x) g with ``tensor_row``'s
code, unless g is an identity: then f (x) id is f's rows of the product
grid, taken whole, and over a one-element set it is f's own table, so a
writer's fmap image over a one-element annotation set builds no table.
The structure maps are read off pair-order positions: the associators, the
unitors and their inverses have the identity's table, ``gamma`` is a
transpose of a grid, and ``twist``, a writer's costrength, reads a grid
block by block; both tables are kept per shape.
Two sides are compared as rows by ``mismatch``, the one comparator: it
applies the comparison only where the rows differ, in the order of the
domain's tokens, and names the least failing token of the domain with both
sides' values there.
``check_ends`` is the one check that two sides run between the same sets.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from operator import itemgetter

__all__ = [
    "TokenError",
    "SetSizeError",
    "check_token",
    "FinSet",
    "FinFn",
    "FunctorExpr",
    "Id",
    "Const",
    "Prod",
    "degree",
    "apply_obj",
    "apply_mor",
    "make_pair",
    "split_pair",
    "unit_set",
    "tensor",
    "tensor_fn",
    "check_ends",
    "seq_row",
    "seq",
    "tensor_row",
    "tensor_then",
    "alpha_then",
    "alpha_inv_then",
    "pair_rows",
    "gamma",
    "twist",
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
    "mismatch",
]


class TokenError(ValueError):
    """A token the pair encoding cannot accommodate."""


class SetSizeError(ValueError):
    """A canonical test set outside the sizes exhaustive scans can afford."""


def check_token(tok: str) -> None:
    """Raise TokenError unless ``tok`` survives being spliced into ``(l,r)``:
    non-empty, brackets balanced, commas only inside brackets, no whitespace."""
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
    """A finite set of distinct tokens, listed in ``elems``.

    The name is cosmetic: two sets are equal when their tokens are, whatever
    their names.  ``vid`` is the integer id of the tokens, fixed at
    construction: equality and the hash read it and nothing else.  A plain
    set's tokens are interned and listed sorted; a plain set whose tokens
    are exactly the pairs L x R gets the vid of the product of L and R, and
    is listed in its pair order.  A product built by ``tensor`` holds only
    its factors (``factors``) and its size; its vid pairs its factors'
    vids, and ``elems`` (in pair order) and ``token_index`` are built on
    first read, from the factors' checked tokens.  Its position
    tables, ``pair_grid`` and ``pair_list``, are shared by every product of
    its shape.  Every empty set, plain or a product, has vid 0.
    """

    __slots__ = ("name", "factors", "vid", "_elems", "_size", "_index", "_identity",
                 "__weakref__")

    def __init__(self, name: str, elems=(), factors=None):
        self.name = name
        self.factors = factors
        if factors is None:
            elems = tuple(sorted(elems))
            for tok in elems:
                check_token(tok)
            if len(set(elems)) != len(elems):
                raise TokenError(f"duplicate tokens in {name or 'set'}: {elems}")
            self.vid, self._elems = _plain(elems)
            self._size = len(elems)
        else:
            A, B = factors
            self._size = A._size * B._size
            self._elems = None if self._size else ()
            self.vid = _pair_vid(A.vid, B.vid) if self._size else 0
        self._index = self._identity = None

    @property
    def elems(self) -> tuple:
        """The tokens, in position order (a product's are built on first read)."""
        if self._elems is None:
            A, B = self.factors
            self._elems = tuple([make_pair(a, b) for a in A.elems for b in B.elems])
        return self._elems

    def __contains__(self, tok) -> bool:
        return tok in self.token_index()

    def token_index(self) -> dict:
        """Token -> its position in ``elems`` (built on first use)."""
        if self._index is None:
            self._index = dict(zip(self.elems, range(self._size)))
        return self._index

    def pair_grid(self) -> tuple:
        """grid[i] = (i*|B|, ..., i*|B| + |B| - 1): a product's positions, row
        by row of its first factor, shared by every product of its shape."""
        A, B = self.factors
        return _grid(A._size, B._size)

    def pair_list(self) -> tuple:
        """(i, j) for each of a product's positions, in order, shared by every
        product of its shape."""
        A, B = self.factors
        return _pairs(A._size, B._size)

    def __iter__(self):
        return iter(self.elems)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other) -> bool:
        return isinstance(other, FinSet) and self.vid == other.vid

    def __hash__(self) -> int:
        return hash(self.vid)

    def __repr__(self) -> str:
        return f"FinSet({self.name!r}, {{{', '.join(sorted(self.elems))}}})"


# Position tables depend on sizes alone, so each is built once per shape and
# shared by every set, product and structure map of that shape.  A grid's rows
# are slices of ``_positions`` of the product's size, which is also the
# identity's table: no product holds ints of its own.

@functools.cache
def _positions(n: int) -> tuple:
    """(0, ..., n-1): the identity's table on an n-element set."""
    return tuple(range(n))


@functools.cache
def _grid(na: int, nb: int) -> tuple:
    """The positions of an na x nb product, row by row of its first factor."""
    flat = _positions(na * nb)
    return tuple([flat[i * nb:i * nb + nb] for i in range(na)])


@functools.cache
def _pairs(na: int, nb: int) -> tuple:
    """(i, j) for each position of an na x nb product, in pair order."""
    return tuple(itertools.product(_positions(na), _positions(nb)))


# The vid and listing of every sorted plain token tuple met so far: interned
# ids are even, from 2 up; a product's vid (_pair_vid) is odd, and the empty
# set's is 0.
_VIDS = {(): (0, ())}
_FRESH = itertools.count(1)


def _pair_vid(a: int, b: int) -> int:
    """The vid of the product of two non-empty sets with vids a and b: twice
    the Cantor pairing of a and b, plus one."""
    s = a + b
    return s * (s + 1) + 2 * b + 1


def _plain(elems: tuple) -> tuple:
    """(vid, listing) of the set of these sorted tokens: those of the product
    L (x) R when they are exactly its pairs, else a fresh interned id and
    the tokens as they are."""
    known = _VIDS.get(elems)
    if known is None:
        known = _VIDS[elems] = _product_listing(elems) or (2 * next(_FRESH), elems)
    return known


def _product_listing(elems: tuple):
    """(vid, tokens in pair order) of L (x) R when these non-empty tokens are
    exactly its pairs, else None."""
    if not all(tok.startswith("(") for tok in elems):
        return None
    try:
        halves = [split_pair(tok) for tok in elems]
    except TokenError:
        return None
    left, right = sorted({l for l, _ in halves}), sorted({r for _, r in halves})
    if len(left) * len(right) != len(elems):
        return None
    (lvid, left), (rvid, right) = _plain(tuple(left)), _plain(tuple(right))
    token = dict(zip(halves, elems))
    return _pair_vid(lvid, rvid), tuple([token[l, r] for l in left for r in right])


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
        index = dom.token_index()
        if mapping.keys() != index.keys():
            missing = frozenset(index).difference(mapping)
            extra = set(mapping).difference(index)
            raise ValueError(f"map not total on {dom.name}: missing={missing} extra={extra}")
        image = list(map(mapping.__getitem__, dom.elems))
        position = cod.token_index()
        try:
            idx = tuple(map(position.__getitem__, image))
        except KeyError:
            bad = mapping[min(t for t, v in mapping.items() if v not in position)]
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

    @property
    def mapping(self) -> dict:
        """The table as token -> token, in domain order."""
        if self._mapping is None:
            self._mapping = dict(zip(self.dom.elems, map(self.cod.elems.__getitem__, self.idx)))
        return self._mapping

    def __call__(self, tok: str) -> str:
        return self.mapping[tok]

    def then(self, other: "FinFn") -> "FinFn":
        """Diagrammatic composite: first self, then other."""
        return seq(self, other)

    def is_injective(self) -> bool:
        return len(set(self.idx)) == len(self.idx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinFn)
            and self.idx == other.idx
            and self.dom.vid == other.dom.vid
            and self.cod.vid == other.cod.vid
        )

    def __hash__(self) -> int:
        return hash((self.dom.vid, self.cod.vid, self.idx))

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


# --- polynomial functor expressions -----------------------------------

class FunctorExpr:
    """Shape of a polynomial endofunctor: Id | Const(S) | Prod(F,G)."""

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


def degree(expr: FunctorExpr) -> int:
    """The number of Id leaves: how many elements of X one value holds."""
    if isinstance(expr, Id):
        return 1
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Prod):
        return degree(expr.left) + degree(expr.right)
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def apply_obj(expr: FunctorExpr, X: FinSet) -> FinSet:
    """Evaluate the functor at a set.  Id is identity on the nose."""
    if isinstance(expr, Id):
        return X
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Prod):
        return tensor(apply_obj(expr.left, X), apply_obj(expr.right, X))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


def apply_mor(expr: FunctorExpr, f: FinFn) -> FinFn:
    """Functor action on a map: relabel Id leaves by f, fix Const leaves.

    Built bottom-up, a Prod's image as the product of its parts' index
    tables, so no token is parsed or built.
    """
    if isinstance(expr, Id):
        return f
    if isinstance(expr, Const):
        return identity_fn(expr.value)
    if isinstance(expr, Prod):
        return tensor_fn(apply_mor(expr.left, f), apply_mor(expr.right, f))
    raise TypeError(f"not a FunctorExpr: {expr!r}")


# --- symmetric monoidal kit on FinSet ----------------------------------

_UNIT = FinSet("I", ("*",))

# Products still in use, keyed by both operands' vids and names so that a
# shared product carries the names of the operands it was asked for.  The
# values are weak references that carry their key: an entry goes away with
# the last user of the product.
_PRODUCTS = {}
_GONE = weakref.ref(set())   # a reference whose object is gone: calling it gives None


class _ProductRef(weakref.ref):
    # a slot for the key costs less than a callback closure per entry
    __slots__ = ("key",)


def _forget(ref: _ProductRef) -> None:
    # the product is gone; a newer product may hold its key by now
    if _PRODUCTS.get(ref.key) is ref:
        del _PRODUCTS[ref.key]


def unit_set() -> FinSet:
    return _UNIT


def tensor(A: FinSet, B: FinSet) -> FinSet:
    """The product A (x) B, named ``(AxB)``.

    The product keeps the two operands and builds no token until one is
    read.  A product in use is shared: equal operands with the same names get
    the same set back, whether or not a factor is empty.
    """
    key = (A.vid, B.vid, A.name, B.name)
    product = _PRODUCTS.get(key, _GONE)()
    if product is None:
        product = FinSet(f"({A.name}x{B.name})", factors=(A, B))
        ref = _PRODUCTS[key] = _ProductRef(product, _forget)
        ref.key = key
    return product


def tensor_fn(f: FinFn, g: FinFn) -> FinFn:
    """f (x) g: (x,y) goes to (f(x), g(y)), read as ``tensor_row`` reads it.

    When g is an identity (its domain is its codomain and its table is the
    shared ``_positions`` tuple), f (x) id sends row i of the product grid
    to row f(i) whole, so the table is f's rows of the codomain's grid; over
    a one-element set that is f's own table.
    """
    cod = tensor(f.cod, g.cod)
    dom = tensor(f.dom, g.dom)
    gi = g.idx
    if g.dom is g.cod and gi is _positions(len(gi)):
        idx = f.idx if len(gi) == 1 else tuple(
            itertools.chain.from_iterable(_pick(cod.pair_grid(), f.idx)))
    else:
        idx = tuple(_tensor_positions(f, g, cod))
    return FinFn._table(dom, cod, idx)


# --- law sides: chains of maps read as one index row ------------------------
# Each reader gives the composite of a chain as one row, read off the links'
# tables and the product grids: no intermediate map, product of maps or
# associator is built.  Every link is checked by vid, as ``then`` checks one;
# a tail of maps after h is composed into h's row first.  The FinFn builders
# wrap the readers.

def _check_links(*links) -> None:
    """Each (set, map): the map's domain is the set, or it cannot compose."""
    for cod, g in links:
        if cod.vid != g.dom.vid:
            raise ValueError(f"cannot compose {cod.name} -> {g.dom.name}")


def check_ends(dom: FinSet, cod: FinSet, dom2: FinSet, cod2: FinSet) -> None:
    """Two sides, dom -> cod and dom2 -> cod2, run between the same sets."""
    if dom.vid != dom2.vid:
        raise ValueError(f"domains differ: {dom.name} vs {dom2.name}")
    if cod.vid != cod2.vid:
        raise ValueError(f"codomains differ: {cod.name} vs {cod2.name}")


def _pick(table, idx) -> tuple:
    """table[i] for each i in idx: itemgetter reads a tuple's entries in C,
    where mapping ``table.__getitem__`` calls a slot wrapper per entry."""
    if len(idx) > 1:
        return itemgetter(*idx)(table)
    return (table[idx[0]],) if idx else ()


def seq_row(f: FinFn, *maps: FinFn) -> tuple:
    """The row of f, then each of maps, over f.dom."""
    idx, cod = f.idx, f.cod
    for g in maps:
        # seq_row is the hottest reader: the link is checked here first, and
        # _pick is spelt out, which saves a call per link
        if cod.vid != g.dom.vid:
            _check_links((cod, g))
        table = g.idx
        idx = (itemgetter(*idx)(table) if len(idx) > 1 else
               (table[idx[0]],) if idx else ())
        cod = g.cod
    return idx


def seq(f: FinFn, *maps: FinFn) -> FinFn:
    """f, then each of maps."""
    return FinFn._table(f.dom, (maps[-1] if maps else f).cod, seq_row(f, *maps))


def pair_rows(h: FinFn, A: FinSet, B: FinSet) -> list:
    """rows[i][j]: where h, out of A (x) B, sends the pair of A's i-th and B's
    j-th tokens: h's table cut into rows."""
    AB = tensor(A, B)
    _check_links((AB, h))
    idx, nb = h.idx, len(B)
    return [idx[i * nb:i * nb + nb] for i in range(len(A))]


def tensor_row(f: FinFn, g: FinFn, h: FinFn, *maps: FinFn) -> tuple:
    """(f (x) g) ; h, then each of maps, in pair order over f.dom and g.dom:
    (x,y) goes to h(f(x), g(y))."""
    AB = tensor(f.cod, g.cod)
    _check_links((AB, h))
    return _pick(seq_row(h, *maps), _tensor_positions(f, g, AB))


def _tensor_positions(f: FinFn, g: FinFn, AB: FinSet) -> list:
    """The position in AB, the product of f.cod and g.cod, of each
    (f(x), g(y)), in pair order over f.dom and g.dom."""
    at, gi = AB.pair_grid(), g.idx
    return [row[j] for row in _pick(at, f.idx) for j in gi]


def tensor_then(f: FinFn, g: FinFn, h: FinFn, *maps: FinFn) -> FinFn:
    return FinFn._table(tensor(f.dom, g.dom), (maps[-1] if maps else h).cod,
                        tensor_row(f, g, h, *maps))


def alpha_then(X: FinSet, Y: FinSet, Z: FinSet, g: FinFn, h: FinFn, *maps: FinFn) -> FinFn:
    """alpha(X, Y, Z) ; (id_X (x) g) ; h, then each of maps: ((x,y),z) goes to
    h(x, g(y,z)).  Both bracketings share one pair-order position, so this is
    id_X (x) g's row read over (X (x) Y) (x) Z."""
    _check_links((tensor(Y, Z), g))
    return FinFn._table(tensor(tensor(X, Y), Z), (maps[-1] if maps else h).cod,
                        tensor_row(identity_fn(X), g, h, *maps))


def alpha_inv_then(X: FinSet, Y: FinSet, Z: FinSet, g: FinFn, h: FinFn, *maps: FinFn) -> FinFn:
    """alpha_inv(X, Y, Z) ; (g (x) id_Z) ; h, then each of maps: (x,(y,z)) goes
    to h(g(x,y), z), g (x) id_Z's row read over X (x) (Y (x) Z)."""
    _check_links((tensor(X, Y), g))
    return FinFn._table(tensor(X, tensor(Y, Z)), (maps[-1] if maps else h).cod,
                        tensor_row(g, identity_fn(Z), h, *maps))


# The structure maps below are index tables read off pair-order positions: no
# token is built or looked up.  Both bracketings of x, y, z sit at position
# (x*|Y| + y)*|Z| + z, so the associators, like the unitors and their inverses,
# have the identity's table, the one ``_positions`` tuple of their size.
# ``gamma`` and ``twist`` read a grid's columns, kept per shape, whose ints are
# the same.

@functools.cache
def _transpose(nx: int, ny: int) -> tuple:
    """gamma's table on an nx x ny product: the columns of the ny x nx grid."""
    return tuple(itertools.chain.from_iterable(zip(*_grid(ny, nx))))


def gamma(X: FinSet, Y: FinSet) -> FinFn:
    """Symmetry (x,y) -> (y,x): the transpose of (YxX)'s grid."""
    return FinFn._table(tensor(X, Y), tensor(Y, X), _transpose(len(X), len(Y)))


@functools.cache
def _twist(nx: int, ny: int, nz: int) -> tuple:
    """For each x, the rows x (x) Z of the (nx*nz) x ny grid, column by column."""
    at = _grid(nx * nz, ny)
    blocks = (zip(*at[x * nz:x * nz + nz]) for x in range(nx))
    return tuple([p for block in blocks for column in block for p in column])


def twist(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    """((x,y),z) -> ((x,z),y); a writer's costrength is twist(X, W, Y)."""
    return FinFn._table(tensor(tensor(X, Y), Z), tensor(tensor(X, Z), Y),
                        _twist(len(X), len(Y), len(Z)))


def alpha(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    """Associator ((x,y),z) -> (x,(y,z))."""
    cod = tensor(X, tensor(Y, Z))
    return FinFn._table(tensor(tensor(X, Y), Z), cod, _positions(cod._size))


def alpha_inv(X: FinSet, Y: FinSet, Z: FinSet) -> FinFn:
    """(x,(y,z)) -> ((x,y),z), which is also a writer's strength."""
    cod = tensor(tensor(X, Y), Z)
    return FinFn._table(tensor(X, tensor(Y, Z)), cod, _positions(cod._size))


def lam(X: FinSet) -> FinFn:
    """Left unitor (*,x) -> x."""
    return FinFn._table(tensor(_UNIT, X), X, _positions(X._size))


def lam_inv(X: FinSet) -> FinFn:
    return FinFn._table(X, tensor(_UNIT, X), _positions(X._size))


def rho(X: FinSet) -> FinFn:
    """Right unitor (x,*) -> x."""
    return FinFn._table(tensor(X, _UNIT), X, _positions(X._size))


def rho_inv(X: FinSet) -> FinFn:
    return FinFn._table(X, tensor(X, _UNIT), _positions(X._size))


@functools.cache
def canonical_set(n: int) -> FinSet:
    """The standard n-element test set y0..y{n-1}, one shared set per n."""
    if not 0 <= n <= 9:
        raise SetSizeError(
            f"canonical set size {n} is outside 0..9: canonical sets are meant "
            "for small exhaustive scans")
    return FinSet(f"Y{n}", tuple(f"y{i}" for i in range(n)))


def identity_fn(X: FinSet) -> FinFn:
    """X's identity, built once and kept on X; its table is the one
    ``_positions`` tuple of X's size."""
    if X._identity is None:
        X._identity = FinFn._table(X, X, _positions(X._size))
    return X._identity


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


# --- pointwise comparison -----------------------------------------------

def mismatch(dom: FinSet, cod: FinSet, lhs, rhs, eq=None):
    """Where two index rows over dom into cod disagree: None, or the least
    token of dom at which they do and both sides' tokens of cod there.

    eq(l, r) says whether two of cod's tokens agree and defaults to equality.
    It must be reflexive: it is applied only where the two rows differ, in
    the order of dom's tokens, up to the first failure.
    """
    if lhs == rhs:
        return None
    names, elems = dom.elems, cod.elems
    differ = [i for i, (l, r) in enumerate(zip(lhs, rhs)) if l != r]
    for i in sorted(differ, key=names.__getitem__):
        l, r = elems[lhs[i]], elems[rhs[i]]
        if eq is None or not eq(l, r):
            return names[i], l, r
    return None
