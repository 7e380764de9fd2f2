"""Acceptance gate: the twelve exit criteria, one test and one printed line each.

Every check is exact (integer equality); each criterion also carries a wall
clock budget which is asserted.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import itertools
import time

from affschub.cartan import minuscule_nodes, parse_type, root_datum
from affschub.classify import all_canonical_types, bott_nodes, type_report
from affschub.cohomology import PDStatus, chain_coeffs, levi_nodes, pd_status
from affschub.affine import (
    bruhat_leq,
    enumerate_minreps,
    is_antidominant,
    min_rep,
    translation,
)
from affschub.schubert import (
    segment_factorizations,
    star,
    star_decompose,
    star_refactor_check,
)
from affschub.verify import antidominant_equivalences, check_generator_powers, length_bfs_oracle
from oracles import quotient_poincare


def report(number, label, elapsed, budget, ok):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d} ({label}): {elapsed:.2f}s of {budget}s budget")
    assert ok, f"criterion {number}: {label}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


CHAIN_SWEEP = (
    [f"A{n}" for n in (1, 2, 3, 4)]
    + [f"B{n}" for n in (2, 3, 4)]
    + [f"C{n}" for n in (1, 2, 3, 4)]
    + ["D4", "D5", "E6", "E7", "E8", "F4", "G2"]
)
CHAIN_TRUE_CANONICAL = {"A1", "C2", "C3", "C4", "G2"}


def test_criterion_01_chain_classification():
    start = time.time()
    ok = True
    for label in CHAIN_SWEEP:
        lt = parse_type(label)  # aliases normalize here (B2->C2, C1->A1)
        got = quotient_poincare(lt, levi_nodes(lt)).is_chain()
        want = str(lt) in CHAIN_TRUE_CANONICAL
        ok = ok and got == want
    report(1, "chain classification", time.time() - start, 60, ok)


def test_criterion_02_g2_chevalley():
    start = time.time()
    ok = chain_coeffs(parse_type("G2")) == (1, 3, 2, 3, 1)
    report(2, "G2 Chevalley coefficients", time.time() - start, 1, ok)


def test_criterion_03_thom_pd():
    start = time.time()
    rational = {"A1", "C2", "C3", "C4", "G2"}
    ok = True
    for label in CHAIN_SWEEP:
        lt = parse_type(label)
        status = pd_status(lt, chain_coeffs(lt))
        ok = ok and status != PDStatus.INTEGRAL
        want = (
            PDStatus.RATIONAL_ONLY if str(lt) in rational else PDStatus.NOT_PALINDROMIC
        )
        ok = ok and status == want
    report(3, "Thom Poincare duality", time.time() - start, 60, ok)


def test_criterion_04_canonical_generating_variety():
    start = time.time()
    ok = True
    for label in ["A1", "A2", "C2", "G2"]:
        for step in check_generator_powers(parse_type(label), 3):
            ok = ok and step.nonzero and step.index_is_expected_translation
            ok = ok and step.length == step.expected_length
    report(4, "canonical generating variety", time.time() - start, 120, ok)


def test_criterion_05_length_oracle_equivalence():
    start = time.time()
    ok = True
    for label in ["A1", "A2", "C2", "G2"]:
        for x, d in length_bfs_oracle(parse_type(label), 8).items():
            ok = ok and x.length() == d
    report(5, "length formula vs BFS", time.time() - start, 120, ok)


def test_criterion_06_antidominance_equivalences():
    start = time.time()
    ok = True
    for label in ["A1", "A2", "C2", "G2"]:
        datum = root_datum(parse_type(label))
        for lam in itertools.product(range(-2, 3), repeat=datum.rank):
            ok = ok and antidominant_equivalences(datum, lam).all_agree()
    report(6, "antidominance equivalences", time.time() - start, 120, ok)


def test_criterion_07_length_additivity():
    start = time.time()
    ok = True
    for label in ["A2", "C2", "G2"]:
        datum = root_datum(parse_type(label))
        lams = [
            lam
            for lam in itertools.product(range(-2, 1), repeat=datum.rank)
            if is_antidominant(datum, lam)
        ]
        for sigma in enumerate_minreps(parse_type(label), 6).flat():
            for lam in lams:
                t = translation(datum, lam)
                ok = ok and (sigma * t).length() == sigma.length() + t.length()
    report(7, "length additivity", time.time() - start, 120, ok)


def test_criterion_08_minrep_series():
    start = time.time()

    def series(exps, through):
        out = [1] + [0] * through
        for e in exps:
            for k in range(e, through + 1):
                out[k] += out[k - e]
        return out

    ok = True
    expected_exps = {"A2": (1, 2), "C2": (1, 3), "G2": (1, 5)}
    for label, exps in expected_exps.items():
        lt = parse_type(label)
        ok = ok and root_datum(lt).exponents == exps
        sizes = list(enumerate_minreps(lt, 10).level_sizes())
        ok = ok and sizes == series(exps, 10)
    report(8, "min-rep Poincare series", time.time() - start, 120, ok)


def test_criterion_09_segment_factorization():
    start = time.time()
    ok = True
    for label in ["A2", "C2", "G2"]:
        for w in enumerate_minreps(parse_type(label), 8).flat():
            ok = ok and len(segment_factorizations(w)) == 1
            ok = ok and star_refactor_check(w)
    report(9, "segment factorization", time.time() - start, 300, ok)


def test_criterion_10_star_decomposition():
    start = time.time()
    ok = True
    for label in ["A2", "C2"]:
        datum = root_datum(parse_type(label))
        lam = tuple(-c for c in datum.highest_coroot)
        t = translation(datum, lam)
        for sigma in enumerate_minreps(parse_type(label), 3).flat():
            top = min_rep(sigma * t)
            for omega in enumerate_minreps(parse_type(label), top.length()).flat():
                if not bruhat_leq(omega, top):
                    continue
                tau, nu = star_decompose(omega, sigma, lam)
                got = star(tau, nu)
                ok = ok and got is not None and got.elem == omega
                ok = ok and bruhat_leq(tau.elem, sigma) and bruhat_leq(nu.elem, t)
    report(10, "star decomposition", time.time() - start, 120, ok)


STANDARD_EXPONENTS = {
    **{f"A{n}": list(range(1, n + 1)) for n in range(1, 9)},
    **{f"B{n}": list(range(1, 2 * n, 2)) for n in range(3, 9)},
    **{f"C{n}": list(range(1, 2 * n, 2)) for n in range(2, 9)},
    **{f"D{n}": sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]) for n in range(4, 9)},
    "E6": [1, 4, 5, 7, 8, 11],
    "E7": [1, 5, 7, 9, 11, 13, 17],
    "E8": [1, 7, 11, 13, 17, 19, 23, 29],
    "F4": [1, 5, 7, 11],
    "G2": [1, 5],
}


def test_criterion_11_exponents():
    start = time.time()
    ok = root_datum(parse_type("E8")).exponents[-1] == 29
    ok = ok and root_datum(parse_type("F4")).exponents[-1] == 11
    ok = ok and root_datum(parse_type("G2")).exponents[-1] == 5
    for label, want in STANDARD_EXPONENTS.items():
        ok = ok and list(root_datum(parse_type(label)).exponents) == want
    report(11, "exponents", time.time() - start, 10, ok)


def test_criterion_12_classification():
    start = time.time()
    ok = True
    for lt in all_canonical_types(8):
        label = str(lt)
        smooth = type_report(lt).smooth_schubert_genv
        ok = ok and smooth == (label not in {"E8", "F4", "G2"})
        ok = ok and (len(bott_nodes(lt)) == 0) == (lt.family in "AC")
        ok = ok and (len(minuscule_nodes(lt)) == 0) == (label in {"E8", "F4", "G2"})
    report(12, "classification", time.time() - start, 30, ok)
