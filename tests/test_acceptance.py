"""End-to-end gate: the twelve headline behaviours, one test each.

Every test prints a single PASS/FAIL line (visible under pytest -s) so the
whole gate reads as a checklist.  Each is independent and uses the public
API or the CLI, not internals.
"""

import os

from centrekit.centre import (
    build_centre_monad,
    central_subset,
    check_centrality_conditions,
    restrict_grades,
)
from centrekit.cli import main
from centrekit.effectlang import FORCED, FREE, parse_program, reorder_report
from centrekit.finkit import canonical_set
from centrekit.graded_monad import (
    bool_writer_pair,
    build,
    check_all,
    check_commutative,
    check_costrength_coherence,
    check_graded_monad_morphism,
    check_monad_laws,
    check_order_laws,
    check_strength_laws,
    identity_monad,
    multi_error_writer,
    registry,
)
from centrekit.pomonoid import (
    PomonoidMorphism,
    bool_pomonoid,
    centre_of_pomonoid,
    check_duoid,
    load_pomonoid,
    multi_error_pomonoid,
)
from centrekit.relaxations import (
    build_language_writer,
    check_duoidal_gradation,
    derive_monoidal_m,
    language_duoid,
    language_shuffle,
    parse_language_literal,
)
from test_centre import largest_test_set

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n:2d}: {desc}")


def test_criterion_01_pomonoid_centre(capsys):
    ok = False
    try:
        code = main(["pomonoid", "centre",
                     os.path.join(FIXTURES, "multi_error.pom")])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "{t,e}\n"
        ok = True
    finally:
        with capsys.disabled():
            _line(1, ok, "centre of the multi-error pomonoid is exactly {t,e}")


def test_criterion_02_law_suites_k3():
    M = multi_error_writer()
    ok = False
    try:
        for suite in (check_monad_laws, check_order_laws,
                      check_strength_laws, check_costrength_coherence):
            rep = suite(M, 3)
            assert rep.ok, rep.to_text()
        ok = True
    finally:
        _line(2, ok, "multi-error writer passes all four law suites at K=3")


def test_criterion_03_noncommutativity_pattern():
    M = multi_error_writer()
    ok = False
    try:
        rep = check_commutative(M, 3)
        assert not rep.ok
        central = {"t", "e"}
        bad_pairs = {r.grades for r in rep.failures()}
        assert bad_pairs
        for a, b in bad_pairs:
            assert not ({a, b} <= central), (a, b)
        for r in rep.records:
            a, b = r.grades
            if a in central or b in central:
                assert r.ok, (a, b)
        ok = True
    finally:
        _line(3, ok, "commutativity fails only outside {t,e}, and every "
                     "{t,e}-anchored pair passes")


def test_criterion_04_centre_reproduction():
    M = multi_error_writer()
    ok = False
    try:
        res = build_centre_monad(M)
        Z = res.monad
        assert tuple(Z.pomonoid.elements) == ("t", "e")
        for n in range(4):
            X = canonical_set(n)
            assert len(Z.carrier("t", X)) == len(X)
            assert len(Z.carrier("e", X)) == 1
        assert check_all(Z, 3).ok
        assert check_commutative(Z, 3).ok
        ok = True
    finally:
        _line(4, ok, "computed centre has |Z^t X|=|X|, |Z^e X|=1 and is a "
                     "lawful commutative monad")


def test_criterion_05_identity_monad_commutative():
    M = identity_monad(multi_error_pomonoid())
    ok = False
    try:
        assert check_commutative(M, 3).ok
        ok = True
    finally:
        _line(5, ok, "identity monad over the noncommutative grading is "
                     "commutative")


def test_criterion_06_inclusion_morphism():
    M = multi_error_writer()
    ok = False
    try:
        res = build_centre_monad(M)
        rep = check_graded_monad_morphism(res.inclusion, 3)
        assert rep.ok, rep.to_text()
        for z in res.monad.pomonoid.elements:
            for n in range(4):
                X = canonical_set(n)
                comp = res.inclusion.component_fn(z, X)
                images = [comp(t) for t in comp.dom]
                assert len(set(images)) == len(images)
        ok = True
    finally:
        _line(6, ok, "centre inclusion is a graded monad morphism with "
                     "injective components")


def test_criterion_07_centrality_theorem_agreement():
    ok = False
    try:
        M = multi_error_writer()
        res = build_centre_monad(M)
        rep = check_centrality_conditions(res.monad, res.inclusion, k=2)
        agree = next(r for r in rep.records if r.law == "theorem-agreement")
        verdict = next(r for r in rep.records if r.law == "conditions-verdict")
        assert agree.ok and verdict.note == "both-true"

        B = bool_writer_pair()
        ZP, phi = centre_of_pomonoid(B.pomonoid)
        S, iota = restrict_grades(B, ZP, phi)
        rep = check_centrality_conditions(S, iota, k=2)
        agree = next(r for r in rep.records if r.law == "theorem-agreement")
        verdict = next(r for r in rep.records if r.law == "conditions-verdict")
        assert agree.ok and verdict.note == "both-false"
        ok = True
    finally:
        _line(7, ok, "centrality conditions agree: both true on the computed "
                     "centre, both false on a full-carrier regrade")


def test_criterion_08_bound_robustness():
    ok = False
    try:
        for name in sorted(registry()):
            M = build(name)
            ZP, _ = centre_of_pomonoid(M.pomonoid)
            # every grade is scanned at least two sizes past its own degree
            wider = max(largest_test_set(M, b) for b in M.pomonoid.elements) + 2
            for z in ZP.elements:
                for n in range(3):
                    X = canonical_set(n)
                    at_default = central_subset(M, z, X)
                    at_wider = central_subset(M, z, X, bound=wider)
                    assert tuple(at_default) == tuple(at_wider), (name, z, n)
        ok = True
    finally:
        _line(8, ok, "central subsets are identical at the default bound "
                     "and bound+2 for every built-in")


def test_criterion_09_language_duoid_and_shuffle():
    ok = False
    try:
        D = language_duoid("ab", 3)
        assert len(D.base.elements) == 23
        assert check_duoid(D).ok

        import random
        from itertools import permutations
        rng = random.Random(9)

        def brute(u, v):
            out = set()
            for merged in permutations(range(len(u) + len(v))):
                # positions of u-letters among the merged word, order kept
                pos_u = sorted(merged[:len(u)])
                pos_v = sorted(merged[len(u):])
                word = [""] * (len(u) + len(v))
                for ch, i in zip(u, pos_u):
                    word[i] = ch
                for ch, i in zip(v, pos_v):
                    word[i] = ch
                out.add("".join(word))
            return out

        words = ["", "a", "b", "ab", "ba", "ba", "aab", "abb", "bba"]
        for _ in range(20):
            u, v = rng.choice(words), rng.choice(words)
            L = parse_language_literal("{%s}" % (u or "_"), "ab", 6)
            R = parse_language_literal("{%s}" % (v or "_"), "ab", 6)
            got = language_shuffle(L, R).words
            want = {w for w in brute(u, v) if len(w) <= 6}
            assert got == frozenset(want), (u, v)
        ok = True
    finally:
        _line(9, ok, "cap-3 language duoid passes check_duoid; shuffle "
                     "matches brute-force interleaving on 20 pairs")


def test_criterion_10_duoidal_writer():
    ok = False
    try:
        D = language_duoid("ab", 2)
        assert len(D.base.elements) <= 12
        DM = build_language_writer("ab", 2, D)
        rep = check_duoidal_gradation(DM, k=2)
        assert rep.ok, rep.to_text()
        ok = True
    finally:
        _line(10, ok, "language writer over a <=12-language duoid passes "
                      "the duoidal gradation suite at set sizes <=2")


def test_criterion_11_monoidality_of_centre():
    ok = False
    try:
        res = build_centre_monad(multi_error_writer())
        DM, rep = derive_monoidal_m(res.monad, k=2)
        assert rep.ok, rep.to_text()
        ok = True
    finally:
        _line(11, ok, "derived interchange map on the computed centre "
                      "passes every diagram")


def test_criterion_12_analyzer_verdicts():
    ok = False
    try:
        with open(os.path.join(FIXTURES, "reorder.eff")) as fh:
            program = parse_program(fh.read())
        P = bool_pomonoid()
        rep = reorder_report(program, P, M=bool_writer_pair(), k=2)
        by_pair = {(e.left_grade, e.right_grade): e.verdict for e in rep.entries}
        assert by_pair[("tt", "ff")] == FREE
        assert by_pair[("ff", "tt")] == FREE
        assert by_pair[("tt", "tt")] == FREE
        assert by_pair[("ff", "ff")] == FORCED
        ok = True
    finally:
        _line(12, ok, "analyzer: FREE at (tt,ff),(ff,tt),(tt,tt), FORCED "
                      "at (ff,ff)")
