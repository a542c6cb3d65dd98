"""Planted faults that the law, commutation and centre scans must catch.

The gate enumerates every single-entry mutant of four components of four
built-ins: each mutant moves one entry of one table of ``unit``, ``mult``,
``strength`` or ``costrength``, over sets of size 1 and 2 at every grade or
grade pair, to each other position of its codomain.  A mutant is caught when
it fails ``check_all(k=2)``, or when it passes that and its
``check_commutative(k=2)`` report differs from the unmutated monad's (three
of the four built-ins are not commutative, so failing alone would prove
nothing).  Nothing is drawn at random.

``check_commutative`` decides each grade pair at the degree of its grades,
which is sound only when the strength and costrength are natural.  A second
test holds the same mutants to that premise: a mutant whose report there
differs from a full k=2 scan must fail a law suite.

The centre cases pin three faults in the centre computation: a test-set
bound one below the degree, cone legs that take the central rows in the
order they come instead of the apex's, and a centre monad that derives its
costrength from the strength instead of restricting its parent's, which
would pass a parent's faulty costrength as lawful.
"""

import dataclasses
import itertools

from centrekit.centre import build_centre_monad, central_subset, graded_centre_at
from centrekit.finkit import FinFn, canonical_set
from centrekit.graded_monad import (
    _commute_record,
    bool_writer_pair,
    canonical_sets,
    check_all,
    check_commutative,
    check_costrength_coherence,
    check_monad_laws,
    check_naturality,
    check_order_laws,
    check_strength_laws,
    identity_monad,
    multi_error_writer,
)
from centrekit.pomonoid import (
    bool_pomonoid,
    multi_error_pomonoid,
    validate_pomonoid,
)
from centrekit.relaxations import bimonoidal_centre_at
from test_centre import assert_leg_is_the_inclusion
from test_pomonoid import bimonoid_from_absorbing_top

BUILT_INS = {
    "bool_writer_pair": bool_writer_pair,
    "multi_error_writer": multi_error_writer,
    "multi_error_writer_topped": lambda: multi_error_writer(topped=True),
    "identity": lambda: identity_monad(multi_error_pomonoid()),
}
COMPONENTS = ("unit", "mult", "strength", "costrength")
SETS = (canonical_set(1), canonical_set(2))

# check_all's records are its five suites' records, so it passes exactly when
# each suite does.  The suites run one at a time and stop at the first that
# fails; the costrength suite comes second, as its involution law also
# compares the strength.
SUITES = (check_monad_laws, check_costrength_coherence, check_order_laws, check_strength_laws,
          check_naturality)


def component_args(M, component):
    """The arguments of every table the gate mutates."""
    grades = M.pomonoid.elements
    if component == "unit":
        return [(X,) for X in SETS]
    if component == "mult":
        return [(a, b, X) for a, b, X in itertools.product(grades, grades, SETS)]
    return [(a, X, Y) for a, X, Y in itertools.product(grades, SETS, SETS)]


def mutants(M):
    """(component, args, i, p) for each single-entry mutant: entry i of the
    table at args moved to codomain position p."""
    for component in COMPONENTS:
        for args in component_args(M, component):
            table = getattr(M, component)(*args)
            for i, p in itertools.product(range(len(table.idx)), range(len(table.cod))):
                if p != table.idx[i]:
                    yield component, args, i, p


def mutated(M, component, args, i, p):
    """A fresh copy of M whose component gives the mutated table at args."""
    original = getattr(M, component)

    def planted(*call):
        fn = original(*call)
        if call == args:
            idx = list(fn.idx)
            idx[i] = p
            fn = FinFn._table(fn.dom, fn.cod, tuple(idx))
        return fn

    return dataclasses.replace(M, **{component: planted}, _memo={})


def caught(mutant, commutative_records) -> bool:
    if not all(suite(mutant, 2).ok for suite in SUITES):
        return True
    return check_commutative(mutant, 2).records != commutative_records


def test_every_single_entry_mutant_is_caught():
    counts, survivors = {}, []
    for name, build in BUILT_INS.items():
        M = build()
        assert check_all(M, 2).ok, name
        commutative_records = check_commutative(M, 2).records
        found = list(mutants(M))
        missed = [m for m in found if not caught(mutated(M, *m), commutative_records)]
        counts[name] = (len(found), len(found) - len(missed))
        survivors += [(name, *m) for m in missed]
    total = sum(n for n, _ in counts.values())
    print(f"mutation gate: {total} mutants, {total - len(survivors)} caught", counts)
    assert total > 0 and not survivors, survivors[:10]


def test_the_degree_sized_scan_changes_no_lawful_mutant():
    # the premise is a natural strength and costrength, and the costrength
    # suite, whose involution law also reads the strength, is the cheaper of
    # the two suites that check them, so it runs first
    suites = sorted(SUITES, key=lambda suite: suite is not check_costrength_coherence)
    sets = canonical_sets(2)
    total, differ, lawful = 0, 0, []
    for name, build in BUILT_INS.items():
        M = build()
        pairs = list(itertools.product(M.pomonoid.elements, repeat=2))
        for m in mutants(M):
            mutant = mutated(M, *m)
            full = [_commute_record(mutant, a, b, sets) for a, b in pairs]
            total += 1
            if check_commutative(mutant, 2).records != full:
                differ += 1
                if all(suite(mutant, 2).ok for suite in suites):
                    lawful.append((name, *m))
    print(f"degree-sized scan: {total} mutants, {differ} differ from the full scan, "
          f"{len(lawful)} of those pass the laws")
    assert total > 0 and not lawful, lawful[:10]


# --- the two centre blind spots -------------------------------------------------

def left_zero_monoid():
    """e, a, b with a*x = a and b*x = b: a and b do not commute, so e alone
    is central."""
    els = ("e", "a", "b")
    mul = {(x, y): y if x == "e" else x for x in els for y in els}
    return validate_pomonoid(els, "e", mul, name="LZ")


def pair_named_monoid():
    """1, 0 and a left-zero pair x, y, named by the four pairs of {b, b(c)}
    and {1, p}: the monoid's set is that product, listed in pair order, but
    its centre, 1 = (b,1) and 0 = (b(c),p), is no product, so it is listed
    sorted, and "(b(c),p)" sorts before "(b,1)"."""
    one, zero, x, y = "(b,1)", "(b(c),p)", "(b,p)", "(b(c),1)"

    def times(u, v):
        if u == one:
            return v
        if v == one:
            return u
        return zero if zero in (u, v) else u

    els = (one, zero, x, y)
    return validate_pomonoid(els, one, {(u, v): times(u, v) for u in els for v in els}, name="N")


class TestCentreBlindSpots:
    def test_degree_bound_decides_the_left_zero_writer(self):
        # a bound one below the degree scans only the empty test set, whose
        # carrier is empty, so every element would pass as central
        M = bool_writer_pair(left_zero_monoid())
        for n in range(3):
            X = canonical_set(n)
            assert central_subset(M, "ff", X).elems == tuple(f"(y{i},e)" for i in range(n))

    def test_legs_follow_the_apex_order_over_a_partial_centre(self):
        M = bool_writer_pair(pair_named_monoid())
        X = canonical_set(1)
        cone = graded_centre_at(M, "ff", X)
        # the apex lists its tokens in another order than the carrier's rows
        rows = [M.carrier("ff", X).elems.index(t) for t in cone.apex.elems]
        assert cone.apex.elems == ("(y0,(b(c),p))", "(y0,(b,1))") and rows != sorted(rows)
        assert_leg_is_the_inclusion(M, cone)
        D = bimonoid_from_absorbing_top(bool_pomonoid(), "ff")
        assert_leg_is_the_inclusion(M, bimonoidal_centre_at(M, D, "ff", X))

    def test_the_centre_restricts_the_costrength_it_is_given(self):
        # the ff costrength swaps the two values of a size-2 left set: the
        # first half of its domain, x = y0, with the second, x = y1; the
        # annotations are untouched, so central elements stay central
        M = bool_writer_pair()
        given = M.costrength

        def costrength(a, X, Y):
            fn = given(a, X, Y)
            if a != "ff" or len(X) != 2:
                return fn
            half = len(fn.idx) // 2
            return FinFn._table(fn.dom, fn.cod, fn.idx[half:] + fn.idx[:half])

        M = dataclasses.replace(M, costrength=costrength, _memo={})
        failing = {"costrength-assoc", "costrength-involution", "costrength-mult",
                   "costrength-unitor", "strength-interchange"}
        for S in (M, build_centre_monad(M).monad):
            assert {r.law for r in check_all(S, 2).records if not r.ok} == failing
