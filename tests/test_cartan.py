"""Root datum construction against the classical tables."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import affschub
from affschub.cartan import (
    _symmetrizers,
    LieType,
    coroot_of,
    diagram_automorphisms,
    exponents,
    fundamental_coweight,
    minuscule_nodes,
    pairing,
    parse_type,
    root_datum,
)
from affschub.classify import all_canonical_types, bott_nodes
from affschub.errors import ParseError

# Frozen classical tables: the independent oracle the height-partition
# computation is measured against.
STANDARD_EXPONENTS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(1, 2 * n, 2)),
    "C": lambda n: list(range(1, 2 * n, 2)),
    "D": lambda n: sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]),
    "E6": [1, 4, 5, 7, 8, 11],
    "E7": [1, 5, 7, 9, 11, 13, 17],
    "E8": [1, 7, 11, 13, 17, 19, 23, 29],
    "F4": [1, 5, 7, 11],
    "G2": [1, 5],
}

POS_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E6": 36,
    "E7": 63,
    "E8": 120,
    "F4": 24,
    "G2": 6,
}

ALL_TYPES_RANK8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(3, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def expected_exponents(label):
    if label in STANDARD_EXPONENTS:
        return STANDARD_EXPONENTS[label]
    return STANDARD_EXPONENTS[label[0]](int(label[1:]))


def expected_pos_count(label):
    if label in POS_ROOT_COUNTS:
        return POS_ROOT_COUNTS[label]
    return POS_ROOT_COUNTS[label[0]](int(label[1:]))


def test_parse_canonical():
    assert parse_type("G2") == LieType("G", 2)
    assert parse_type("e7") == LieType("E", 7)


@pytest.mark.parametrize("label,expected", [("C1", "A1"), ("D3", "A3"), ("B2", "C2")])
def test_parse_aliases(label, expected):
    assert str(parse_type(label)) == expected


@pytest.mark.parametrize("label", ["H3", "A0", "E9", "F5", "G3", "D2", "B1", "2A", "A", ""])
def test_parse_rejects(label):
    with pytest.raises(ParseError):
        parse_type(label)


def test_parse_error_names_bound():
    with pytest.raises(ParseError, match="rank 9 out of bounds.*E requires rank"):
        parse_type("E9")


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_positive_root_counts(label):
    datum = root_datum(parse_type(label))
    assert len(datum.pos_roots) == expected_pos_count(label)


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_highest_root_dominates(label):
    datum = root_datum(parse_type(label))
    theta = datum.highest_root
    for alpha in datum.pos_roots:
        assert all(t >= a for t, a in zip(theta, alpha))


def test_small_type_roots():
    a2 = root_datum(parse_type("A2"))
    assert len(a2.pos_roots) == 3
    assert a2.highest_root == (1, 1)
    g2 = root_datum(parse_type("G2"))
    assert g2.highest_root == (3, 2)  # node 1 short
    assert g2.symmetrizers == (1, 3)


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_exponents_match_tables(label):
    assert list(exponents(parse_type(label))) == expected_exponents(label)


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_exponent_sum_and_coxeter_number(label):
    datum = root_datum(parse_type(label))
    assert sum(datum.exponents) == len(datum.pos_roots)
    # Coxeter number = height of the highest root + 1 = top exponent + 1
    assert datum.exponents[-1] + 1 == sum(datum.highest_root) + 1 == max(
        sum(r) for r in datum.pos_roots
    ) + 1


def test_pairing_cartan_entries():
    a2 = root_datum(parse_type("A2"))
    e1, e2 = (1, 0), (0, 1)
    assert pairing(a2, e1, e1) == 2
    assert pairing(a2, e1, e2) == -1
    assert pairing(a2, (0, 0), e2) == 0
    a1 = root_datum(parse_type("A1"))
    assert pairing(a1, (1,), (1,)) == 2


def test_pairing_bilinear():
    c2 = root_datum(parse_type("C2"))
    lam, mu, alpha = (1, -2), (0, 3), (1, 1)
    s = tuple(a + b for a, b in zip(lam, mu))
    assert pairing(c2, s, alpha) == pairing(c2, lam, alpha) + pairing(c2, mu, alpha)


def test_pairing_rank_mismatch():
    a2 = root_datum(parse_type("A2"))
    with pytest.raises(ValueError, match="rank mismatch"):
        pairing(a2, (1,), (1, 0))


def test_coroot_examples():
    a1 = root_datum(parse_type("A1"))
    assert coroot_of(a1, (1,)) == (1,)
    c2 = root_datum(parse_type("C2"))
    assert coroot_of(c2, c2.highest_root) == (1, 1)
    g2 = root_datum(parse_type("G2"))
    theta_cor = coroot_of(g2, g2.highest_root)
    assert pairing(g2, theta_cor, g2.highest_root) == 2


def test_coroot_rejects_non_root():
    a2 = root_datum(parse_type("A2"))
    with pytest.raises(ValueError, match="not a root"):
        coroot_of(a2, (2, 0))


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_coroot_self_pairing(label):
    datum = root_datum(parse_type(label))
    for alpha in datum.pos_roots:
        assert pairing(datum, coroot_of(datum, alpha), alpha) == 2


MINUSCULE_EXPECTED = {
    "A1": {1}, "A2": {1, 2}, "A3": {1, 2, 3}, "A4": {1, 2, 3, 4},
    "B3": {1}, "B4": {1},
    "C2": {2}, "C3": {3}, "C4": {4},
    "D4": {1, 3, 4}, "D5": {1, 4, 5},
    "E6": {1, 6}, "E7": {7},
    "E8": set(), "F4": set(), "G2": set(),
}


@pytest.mark.parametrize("label,expected", sorted(MINUSCULE_EXPECTED.items()))
def test_minuscule_nodes(label, expected):
    assert set(minuscule_nodes(parse_type(label))) == expected


TYPES_RANK10 = [str(t) for t in all_canonical_types(10)]


@pytest.mark.parametrize("label", TYPES_RANK10)
def test_minuscule_nodes_match_automorphism_orbit(label):
    # the theta-coefficient-1 rule against the orbit of node 0, by backtracking
    lt = parse_type(label)
    orbit = {p[0] for p in diagram_automorphisms(lt)}
    assert minuscule_nodes(lt) == orbit - {0}


def _fraction_inverse(a):
    """Gauss-Jordan elimination over Fractions, kept here as the oracle."""
    n = len(a)
    aug = [[Fraction(x) for x in a[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [tuple(row[n:]) for row in aug]


@pytest.mark.parametrize("label", TYPES_RANK10 + ["A12"])
def test_fundamental_coweight_matches_fraction_oracle(label):
    lt = parse_type(label)
    expected = _fraction_inverse(root_datum(lt).cartan)
    for s in range(1, lt.rank + 1):
        cw = fundamental_coweight(lt, s)
        assert cw == expected[s - 1]
        assert all(type(c) is Fraction for c in cw)


def _fraction_symmetrizers(a):
    """Symmetrizers over Fractions, kept here as the oracle.

    Spreads d[j] = d[i]*A[i][j]/A[j][i] breadth first from the last node,
    then clears denominators and divides out the gcd.
    """
    n = len(a)
    d = {n - 1: Fraction(1)}
    queue = [n - 1]
    for i in queue:
        for j in range(n):
            if j not in d and a[i][j]:
                d[j] = d[i] * a[i][j] / a[j][i]
                queue.append(j)
    scale = math.lcm(*(x.denominator for x in d.values()))
    ints = [int(d[i] * scale) for i in range(n)]
    return tuple(x // math.gcd(*ints) for x in ints)


@pytest.mark.parametrize("label", TYPES_RANK10)
def test_symmetrizers_match_fraction_oracle(label):
    a = root_datum(parse_type(label)).cartan
    d = _symmetrizers(a)
    assert d == _fraction_symmetrizers(a)
    n = len(a)
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n))


@pytest.mark.parametrize("label", TYPES_RANK10)
def test_bott_nodes_match_fraction_oracle(label):
    # a long node whose coweight, a row of the Fraction inverse, is integral
    lt = parse_type(label)
    a = root_datum(lt).cartan
    d = _fraction_symmetrizers(a)
    inverse = _fraction_inverse(a)
    expected = {
        s for s in range(1, lt.rank + 1)
        if d[s - 1] == max(d) and all(c.denominator == 1 for c in inverse[s - 1])
    }
    assert bott_nodes(lt) == expected


def test_automorphisms_are_a_group():
    for label in ["A2", "C3", "D4", "E6"]:
        perms = diagram_automorphisms(parse_type(label))
        n = len(perms[0])
        ident = tuple(range(n))
        assert ident in perms
        perm_set = set(perms)
        for p in perms:
            q = tuple(p[x] for x in ident)  # composition with identity
            assert q in perm_set
            inv = tuple(sorted(range(n), key=lambda i: p[i]))
            assert inv in perm_set


def test_automorphism_counts():
    # affine A_n diagram is an (n+1)-cycle: dihedral group
    assert len(diagram_automorphisms(parse_type("A3"))) == 8
    # affine D4 is a 4-star: S4 on the outer nodes
    assert len(diagram_automorphisms(parse_type("D4"))) == 24
    assert len(diagram_automorphisms(parse_type("G2"))) == 1
    assert len(diagram_automorphisms(parse_type("F4"))) == 1
    assert len(diagram_automorphisms(parse_type("E8"))) == 1


def test_fundamental_coweights():
    assert fundamental_coweight(parse_type("A1"), 1) == (Fraction(1, 2),)
    g2 = parse_type("G2")
    datum = root_datum(g2)
    (long_neighbor,) = datum.affine_neighbors()
    assert datum.is_long(long_neighbor)
    cw = fundamental_coweight(g2, long_neighbor)
    assert cw == tuple(Fraction(c) for c in datum.highest_coroot)
    for s in range(1, 9):
        assert all(
            c.denominator == 1 for c in fundamental_coweight(parse_type("E8"), s)
        )


def test_fundamental_coweight_defining_property():
    for label in ["A3", "B3", "G2", "F4"]:
        lt = parse_type(label)
        datum = root_datum(lt)
        for s in range(1, datum.rank + 1):
            cw = fundamental_coweight(lt, s)
            for j in range(1, datum.rank + 1):
                val = sum(
                    cw[i] * datum.cartan[i][j - 1] for i in range(datum.rank)
                )
                assert val == (1 if j == s else 0)


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_affine_node_neighbors_match_pairing(label):
    datum = root_datum(parse_type(label))
    by_pairing = {
        s
        for s in range(1, datum.rank + 1)
        if pairing(datum, datum.highest_coroot, tuple(int(j == s - 1) for j in range(datum.rank))) != 0
    }
    assert datum.affine_neighbors() == by_pairing


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_unique_affine_neighbor_outside_type_a(label):
    datum = root_datum(parse_type(label))
    nbrs = datum.affine_neighbors()
    if label.startswith("A") and datum.rank >= 2:
        assert len(nbrs) == 2
        return
    assert len(nbrs) == 1
    (t,) = nbrs
    if label[0] not in "AC":
        # outside A and C the neighbor is long and its coweight is the highest coroot
        assert datum.is_long(t)
        cw = fundamental_coweight(datum.lie_type, t)
        assert cw == tuple(Fraction(c) for c in datum.highest_coroot)


def test_invariant_checks_survive_optimize_flag():
    # python -O strips assert statements; the invariant checks must still raise
    src = os.path.dirname(os.path.dirname(affschub.__file__))
    code = (
        "import sys\n"
        "from affschub import cartan\n"
        "try:\n"
        "    cartan._symmetrizers(((2, 0), (0, 2)))\n"
        "except ArithmeticError as exc:\n"
        "    print(f'optimize={sys.flags.optimize} raised: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "optimize=1 raised: diagram must be connected"


def test_disconnected_diagram_raises():
    with pytest.raises(ArithmeticError, match="connected"):
        _symmetrizers(((2, 0), (0, 2)))
