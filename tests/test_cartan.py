"""Root datum construction against the classical tables."""

import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import mul

import pytest

import affschub
from affschub import cartan, classify, cli
from affschub.cartan import (
    _positive_roots,
    _sparse_rows,
    _symmetrizers,
    LieType,
    RootDatum,
    check_root_bound,
    minuscule_nodes,
    parse_type,
    root_datum,
)
from affschub.classify import _coweight_vertex, all_canonical_types, bott_nodes
from affschub.errors import BoundExceededError, ParseError
from oracles import diagram_automorphisms, double_loop_pairing, pairing_row

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
    assert list(root_datum(parse_type(label)).exponents) == expected_exponents(label)


@pytest.mark.parametrize("label", ALL_TYPES_RANK8)
def test_exponent_sum_and_coxeter_number(label):
    datum = root_datum(parse_type(label))
    assert sum(datum.exponents) == len(datum.pos_roots)
    # Coxeter number = height of the highest root + 1 = top exponent + 1
    assert datum.exponents[-1] + 1 == sum(datum.highest_root) + 1 == max(
        sum(r) for r in datum.pos_roots
    ) + 1


def test_pairing_cartan_entries():
    # row j of alpha is <alpha_j^v, alpha>
    a2 = root_datum(parse_type("A2"))
    assert pairing_row(a2.cartan, (1, 0)) == (2, -1)
    assert pairing_row(a2.cartan, (0, 1)) == (-1, 2)
    assert pairing_row(a2.cartan, (0, 0)) == (0, 0)
    a1 = root_datum(parse_type("A1"))
    assert pairing_row(a1.cartan, (1,)) == (2,)


def test_pairing_bilinear():
    c2 = root_datum(parse_type("C2")).cartan
    alpha, beta = (1, -2), (0, 3)
    s = tuple(a + b for a, b in zip(alpha, beta))
    assert pairing_row(c2, s) == tuple(a + b for a, b in zip(pairing_row(c2, alpha), pairing_row(c2, beta)))


@pytest.mark.parametrize("lt", all_canonical_types(8), ids=str)
def test_pairing_matches_double_loop_oracle(lt):
    datum = root_datum(lt)
    for alpha, row in zip(datum.pos_roots, datum.pairing_rows):
        assert pairing_row(datum.cartan, alpha) == row
        for cor in datum.pos_coroots:
            assert sum(map(mul, cor, row)) == double_loop_pairing(datum, cor, alpha)


def test_coroot_examples():
    a1 = root_datum(parse_type("A1"))
    assert a1.pos_coroots == ((1,),)
    c2 = root_datum(parse_type("C2"))
    assert c2.pos_coroots[c2.root_index(c2.highest_root)] == (1, 1)
    g2 = root_datum(parse_type("G2"))
    theta_cor = g2.pos_coroots[g2.root_index(g2.highest_root)]
    assert theta_cor == g2.highest_coroot
    assert double_loop_pairing(g2, theta_cor, g2.highest_root) == 2


def test_coroot_rejects_non_root():
    # a coroot is read as pos_coroots[root_index(alpha)], and root_index rejects a non-root
    a2 = root_datum(parse_type("A2"))
    with pytest.raises(ValueError, match="not a positive root"):
        a2.pos_coroots[a2.root_index((2, 0))]


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "F4", "G2", "E6"])
def test_coroot_self_pairing(label):
    datum = root_datum(parse_type(label))
    for alpha, cor in zip(datum.pos_roots, datum.pos_coroots):
        assert double_loop_pairing(datum, cor, alpha) == 2


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


TYPES_RANK14 = [str(t) for t in all_canonical_types(14)]


@pytest.mark.parametrize("label", TYPES_RANK14)
def test_fundamental_coweight_matches_fraction_oracle(label):
    # every node, long and short: the alcove descent of omega_s^v ends at the
    # origin exactly when its row of the Fraction inverse is integral, and
    # otherwise at a minuscule vertex omega_j^v, whose row differs from it by
    # an integral vector (the same coset of the coroot lattice)
    datum = root_datum(parse_type(label))
    inverse = _fraction_inverse(datum.cartan)
    for s in range(1, datum.rank + 1):
        vertex = _coweight_vertex(datum, s)
        integral = all(c.denominator == 1 for c in inverse[s - 1])
        assert (vertex == 0) == integral
        if vertex:
            assert datum.highest_root[vertex - 1] == 1
            assert all((a - b).denominator == 1 for a, b in zip(inverse[s - 1], inverse[vertex - 1]))


@pytest.mark.parametrize("label", TYPES_RANK14)
def test_minuscule_coweight_descends_to_its_own_vertex(label):
    # bott_nodes walks no label with theta_j = 1, as its descent starts and stays at the vertex j
    datum = root_datum(parse_type(label))
    for j in minuscule_nodes(datum.lie_type):
        assert _coweight_vertex(datum, j) == j


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
    datum = root_datum(parse_type(label))
    a = datum.cartan
    d = datum.symmetrizers
    assert d == _fraction_symmetrizers(a)
    n = len(a)
    assert all(d[i] * a[i][j] == d[j] * a[j][i] for i in range(n) for j in range(n))


def _fraction_bott_nodes(lt):
    """The long nodes whose coweight, a row of the Fraction inverse, is integral: the oracle."""
    a = root_datum(lt).cartan
    d = _fraction_symmetrizers(a)
    inverse = _fraction_inverse(a)
    return {
        s for s in range(1, lt.rank + 1)
        if d[s - 1] == max(d) and all(c.denominator == 1 for c in inverse[s - 1])
    }


@pytest.mark.parametrize("label", TYPES_RANK14)
def test_bott_nodes_match_fraction_oracle(label):
    lt = parse_type(label)
    assert bott_nodes(lt) == _fraction_bott_nodes(lt)


@pytest.mark.parametrize("label", ["E8", "F4", "G2"])
def test_bott_nodes_walk_nothing_without_a_minuscule_node(label, monkeypatch):
    # with no theta_j = 1 the coweight lattice is the coroot lattice: every long
    # node with theta_i > 1 is a Bott node, and no coweight is walked
    walks = []
    monkeypatch.setattr(classify, "_descend", lambda *args: walks.append(args))
    lt = parse_type(label)
    assert 1 not in root_datum(lt).highest_root
    assert bott_nodes(lt) == _fraction_bott_nodes(lt) and walks == []


def _short_limit_datum(label):
    """The root datum of a type with its positive roots cut to the simple roots,
    so that each coweight descent gets a step limit of 1."""
    real = root_datum(parse_type(label))
    fields = {f: getattr(real, f) for f in RootDatum._FIELDS}
    return RootDatum(**{**fields, "pos_roots": real.pos_roots[: real.rank]})


def test_coweight_descent_fault_raises():
    # an entry still negative at the step limit: omega_1^v of E8 is (-1, 1, 0, ..., 0)
    # and its one move leaves -1 at node 8, the affine neighbour
    with pytest.raises(ArithmeticError, match=r"node 1 of E8 ended at \[1, 1, 0, 0, 0, 0, 0, 0, -1\], not a vertex"):
        _coweight_vertex(_short_limit_datum("E8"), 1)
    # with the move's sign flipped (the affine Cartan matrix negated), each move at
    # node 0 triples its negative entry
    g2 = root_datum(parse_type("G2"))
    fields = {f: getattr(g2, f) for f in RootDatum._FIELDS}
    negated = tuple(tuple(-e for e in row) for row in g2.affine_cartan)
    with pytest.raises(ArithmeticError, match="node 1 of G2 ended at"):
        _coweight_vertex(RootDatum(**{**fields, "affine_cartan": negated}), 1)


def test_coweight_descent_fault_exits_4(capsys, monkeypatch):
    # E7 has a minuscule node, so its report walks; omega_1^v reaches the origin
    # in its one move, omega_2^v does not
    fake = _short_limit_datum("E7")
    monkeypatch.setattr(classify, "root_datum", lambda lt: fake)
    assert cli.main(["report", "E7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: the alcove descent of the coweight at node 2 of E7 ended at" in captured.err
    assert "Traceback" not in captured.err


def is_long(datum, label):
    """Whether the simple root at a finite node label is long."""
    return datum.symmetrizers[label - 1] == max(datum.symmetrizers)


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
    assert _fraction_inverse(root_datum(parse_type("A1")).cartan) == [(Fraction(1, 2),)]
    g2 = parse_type("G2")
    datum = root_datum(g2)
    (long_neighbor,) = datum.affine_neighbors()
    assert is_long(datum, long_neighbor)
    cw = _fraction_inverse(datum.cartan)[long_neighbor - 1]
    assert cw == tuple(Fraction(c) for c in datum.highest_coroot)
    e8 = root_datum(parse_type("E8"))
    for s, cw in enumerate(_fraction_inverse(e8.cartan), 1):
        assert all(c.denominator == 1 for c in cw)
        assert _coweight_vertex(e8, s) == 0


def test_fundamental_coweight_defining_property():
    for label in ["A3", "B3", "G2", "F4"]:
        lt = parse_type(label)
        datum = root_datum(lt)
        inverse = _fraction_inverse(datum.cartan)
        for s in range(1, datum.rank + 1):
            cw = inverse[s - 1]
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
        if double_loop_pairing(datum, datum.highest_coroot, tuple(int(j == s - 1) for j in range(datum.rank))) != 0
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
        assert is_long(datum, t)
        cw = _fraction_inverse(datum.cartan)[t - 1]
        assert cw == tuple(Fraction(c) for c in datum.highest_coroot)


def test_invariant_checks_survive_optimize_flag():
    # python -O strips assert statements; the invariant checks must still raise
    src = os.path.dirname(os.path.dirname(affschub.__file__))
    code = (
        "import sys\n"
        "from affschub import cartan\n"
        "for args in [(((2, 0), (0, 2)), (0, 1), (0, 1)), (((2, -3), (-1, 2)), (1, 1), (1, 1))]:\n"
        "    try:\n"
        "        cartan._symmetrizers(*args)\n"
        "    except ArithmeticError as exc:\n"
        "        print(f'optimize={sys.flags.optimize} raised: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # a disconnected diagram, then the G2 Cartan matrix with A2's theta and theta^v
    assert proc.stdout.strip().splitlines() == [
        "optimize=1 raised: diagram must be connected",
        "optimize=1 raised: d = (1, 1) read off theta = (1, 1), theta^v = (1, 1)"
        " does not symmetrize ((2, -3), (-1, 2))",
    ]


def test_disconnected_diagram_raises():
    # the closure of A1 x A1 ends at a root that misses a node
    cartan = ((2, 0), (0, 2))
    roots, coroots, _ = _positive_roots(cartan)
    with pytest.raises(ArithmeticError, match="connected"):
        _symmetrizers(cartan, roots[-1], coroots[-1])


# sha256 of repr((pos_roots, pos_coroots, pairing_rows, highest_coroot,
# affine_cartan, exponents, symmetrizers)), frozen from the root-string and
# norm-formula construction that the reflection closure replaced
ROOT_DATA_SHA256 = {
    "A1": "e6d5b836061f7c7388a851223674432996c3a983b1dbabdd0d1af018b82618f9",
    "A2": "3d622aee8918fd091f2fb0d96491e68ca066096eed39638993f1f3d2814895eb",
    "C2": "ffda55680438222fab04b1b04286622df742527a968201c730b46e30267839d0",
    "G2": "611dd286d182ec69d1e198f7d8f0d69856b5f4878e2862e7cce281c16ed40e03",
    "A3": "8c0fafcb2f74c36a90bcef2821e17a0362e0bea38076e21e167c663d884ccd8a",
    "B3": "1463639e91ed707823f88436f96d3fbb25b35475932719873c2908de367f879a",
    "C3": "3b792c5a0c5a34a5b24dee1d3c41e296c80d1eaf33b35add6f0a4cdc8112b5ba",
    "A4": "f970dc50407fffdd0b19643f1eda69c45636f7ec8e14b0cb3b3001be6344e78a",
    "B4": "26d58cc17c71a426817680d5774414fe9009099f1199690d95af23fe6da54211",
    "C4": "99b2d196181b568c31a0a4f763a0b38b373c999311363054c7c56a90fc46c8ed",
    "D4": "fb945056507c1b7dbf8f6d9fc81f369c9893bce78b72ea36941fd27b73f64af9",
    "F4": "d5258de4d05555aeccfcd99f72b00eca510e9d243335075c4474572239caf65a",
    "A5": "8bf63d782aa2b5b1cc12a65d11c1c0e7482ce1f2bd1fb2d2369c3dcfd15b7aa9",
    "B5": "88ff57ca77d132f89801663a4ae7445538d8b8219512d2736a5bd72293a97495",
    "C5": "22e4d1779ee7f83dcf17299cc5fee3f630cfe03f4e6935c85c533bae44902e4c",
    "D5": "7708884cc471246a15eab840e26c798bd8decfe921e4f918b369be7febea0465",
    "A6": "2fe8d1e53b3c2657ac6138b7db56fc8bb299ea7cfffc0126560ae36c61507fb6",
    "B6": "13b4df71fafa5d6b3f5536bcd6bb3259e71368fec934fec94b0f8138eb734143",
    "C6": "ae1a544e922fcf0e011f414138a5e6508c7d45334a7af88079964b1a66fb0962",
    "D6": "8b0740c7259cb7c414786c660a81587b6356ee69f42ba549241064b18004fb97",
    "E6": "46275761131ba0c4bcc10150b59e4cba1134a3eddf4b352e6455e0ce41c8a225",
    "A7": "cb976b3a99c87357a084a6bc3d1591d6ac134eba44ec14e2f0632d24ada29c2a",
    "B7": "dd089beb6cc06304d3e8478eb4f57d16ae5febcfea202da98c1b9bcdb5e1e81c",
    "C7": "65b42229d9d95167dc8e9493eaca7cb70fc69569e3ed5fba553860a032595595",
    "D7": "1f84d93e6e1846eefc87671e4096d8928f3398feb88a7307ca80d69da6d48fd2",
    "E7": "6b0c4cbbe9a829c6b9d862d602ee0cfe263c236b1d65c160935f3a5918a8e25b",
    "A8": "bf085615bc8c3690bf8db13991ce47dfb982d6b61bdc8b2ce51b089af2b6f4d1",
    "B8": "7b968366d771757cad3851c9cf666686243aba731bd8a50d76f28dd16ee16d36",
    "C8": "8957f38bc8fe80f3aa078995dc8211ff42ae6bc2f562fa9d59b2d13431d931b2",
    "D8": "93126f78b42d11fb033afff90af1bebb68f7e074c3f81b2ea98b9524afd060d0",
    "E8": "aded255af358cd1a698a936057a0d8ad2e679926ac752cf796cc768c29e68764",
    "A9": "5e001422122d6e8890058694b28ec0adfee4358f1853273559c0877229bec4fc",
    "B9": "c51debc7caf1fd159f8afae947193d2f33170d853355280ac1ded52780f71763",
    "C9": "7dcb98712ec8aad26d8fdc1551023a04b23c78dbfdb2a0441d4c8556aba9e697",
    "D9": "8b7ee19d1f345bb7ceb3e888695d622e81cbb37ad83a378b3fa41c34783b77a0",
    "A10": "5f631bb5a678dc99778492d0a97598bc4fdc581a1de6ec6891c0415ff4223d10",
    "B10": "d9dc3e9169ba3f8e4609e23a6cca831dd38d9e00635555dcc091ecfe57bf4310",
    "C10": "0cf9ef6cb3cba4d1f5e03bcf890f88f96a960aea102c4a88313a1b357874013f",
    "D10": "4a06070267c13ad0491b19cedc0c86f3f026e36b225705ea9a811f3da1898cfa",
    "A11": "956d56fbc7d0a7c07a06bda103f4359b2240bd4c2a715003e0df2429855ea131",
    "B11": "9947aa05fd985dfb6cd1f38fd6c55856dc737046ef96e4fab35064b3f821da46",
    "C11": "eee1a66e181e539dbd1f7b029fe2532ac3fe02c789063c0348769c1ee7faf7d8",
    "D11": "bb15b0f68d85122801c42acb03d48b3787495a08173a8515fde8515b9e56561f",
    "A12": "3239120223c6196f023b016b0a876c733aa6fb57bd0109bc72fb7e23fea94689",
    "B12": "26222cf077c98337981d2af7757c32c4c5542f29909d60c600b8cd55ee531393",
    "C12": "74cbf4895147a91a2ddaffe7e2018a4088f0aada87288b59d85ad7bcadd2b766",
    "D12": "f491c00c94ec946ac2e18cbebd1f5b235c33d44c01896caf92908bb646819e47",
}
DIGEST_FIELDS = (
    "pos_roots", "pos_coroots", "pairing_rows", "highest_coroot",
    "affine_cartan", "exponents", "symmetrizers",
)


def test_frozen_digests_cover_every_type_through_rank_12():
    assert sorted(ROOT_DATA_SHA256) == sorted(str(t) for t in all_canonical_types(12))


@pytest.mark.parametrize("label", sorted(ROOT_DATA_SHA256))
def test_root_data_match_frozen_digest(label):
    datum = root_datum(parse_type(label))
    text = repr(tuple(getattr(datum, f) for f in DIGEST_FIELDS))
    assert hashlib.sha256(text.encode()).hexdigest() == ROOT_DATA_SHA256[label]


def _norm_formula_coroot(cartan, d, beta):
    """beta^v = sum b_i (d_i / d_beta) alpha_i^v with d_beta = (beta, beta)/2, in Fractions.

    The norm is taken in the units where d_i = (alpha_i, alpha_i)/2.  Kept
    here as the oracle for the reflection closure's coroots.
    """
    n = len(beta)
    d_beta = Fraction(
        sum(beta[i] * beta[j] * d[i] * cartan[i][j] for i in range(n) for j in range(n)), 2
    )
    return tuple(Fraction(b * di) / d_beta for b, di in zip(beta, d))


@pytest.mark.parametrize("label", TYPES_RANK10)
def test_coroots_match_norm_formula_oracle(label):
    datum = root_datum(parse_type(label))
    for beta, cor in zip(datum.pos_roots, datum.pos_coroots):
        assert cor == _norm_formula_coroot(datum.cartan, datum.symmetrizers, beta)


@pytest.mark.parametrize("label", ["A1", "A3", "C3", "G2", "F4"])
def test_root_membership_on_negative_mixed_and_zero_vectors(label):
    datum = root_datum(parse_type(label))
    n = datum.rank
    for k, beta in enumerate(datum.pos_roots):
        neg = tuple(-c for c in beta)
        assert beta in datum.index and neg in datum.index
        assert datum.root_index(beta) == k
        with pytest.raises(ValueError, match="not a positive root"):
            datum.root_index(neg)
    assert (0,) * n not in datum.index
    assert tuple(2 * c for c in datum.highest_root) not in datum.index
    if n >= 2:
        mixed = (1, -1) + (0,) * (n - 2)
        assert mixed not in datum.index
        with pytest.raises(ValueError, match="not a positive root"):
            datum.root_index(mixed)


def test_closure_invariant_raises():
    # a coroot pairing to 3 with its root: the check is a raise, not an assert,
    # so it holds under python -O too (CI runs this test with -O)
    with pytest.raises(ArithmeticError, match="does not pair to 2"):
        _positive_roots(((2, -1), (-1, 3)))


# every canonical type through rank 14, and a few at larger rank
DERIVED_TABLE_TYPES = TYPES_RANK14 + ["A40", "B30", "C30", "D40"]


@pytest.mark.parametrize("label", DERIVED_TABLE_TYPES)
def test_stepped_rows_match_pairing_row_oracle(label):
    # the closure steps each root's row from its parent's; the oracle multiplies out A alpha
    datum = root_datum(parse_type(label))
    assert datum.pairing_rows == tuple(pairing_row(datum.cartan, alpha) for alpha in datum.pos_roots)


@pytest.mark.parametrize("label", DERIVED_TABLE_TYPES)
def test_derived_tables_match_their_definitions(label):
    datum = root_datum(parse_type(label))
    n = datum.rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert datum.simple_index == tuple(datum.index[e] for e in units) == tuple(n - i for i in range(1, n + 1))
    assert datum.cartan_rows == _sparse_rows(datum.cartan)
    assert datum.affine_rows == _sparse_rows(datum.affine_cartan)
    # the affine walks' constants: the signed height of each root by its index, the root of each
    # node label (theta at 0), K = 2 ht(theta) + 1, the identity's alcove vector and the label texts
    assert datum.heights == tuple(sum(root) for root in sorted(datum.index, key=datum.index.get))
    assert datum.affine_index == tuple(datum.index[r] for r in [datum.highest_root] + units)
    height = max(map(sum, datum.pos_roots))
    assert datum.delta_height == 2 * height + 1
    assert datum.identity_alcove == (height + 1,) + (1,) * n
    assert datum.label_names == tuple(str(l) for l in range(n + 1))


def test_simple_index_check_raises():
    # pos_roots out of (height, lex) order puts the simple roots elsewhere: a raise, not an assert
    real = root_datum(parse_type("B3"))
    fields = {f: getattr(real, f) for f in RootDatum._FIELDS}
    with pytest.raises(ArithmeticError, match=r"simple roots of B3 are not pos_roots\[2\], ..., pos_roots\[0\]"):
        RootDatum(**{**fields, "pos_roots": real.pos_roots[::-1]})


@pytest.mark.parametrize("lt", all_canonical_types(14), ids=str)
def test_root_bound_counts_the_root_coordinates(lt, monkeypatch):
    # check_root_bound reads N off the family; at a limit of N * rank the type passes, one below it fails
    coordinates = len(root_datum(lt).pos_roots) * lt.rank
    monkeypatch.setattr(cartan, "ROOT_DATA_BOUND", coordinates)
    check_root_bound(lt)
    monkeypatch.setattr(cartan, "ROOT_DATA_BOUND", coordinates - 1)
    with pytest.raises(BoundExceededError, match=f"{lt} root coordinates .* {coordinates} exceeds .*; the limit is fixed"):
        check_root_bound(lt)


def test_largest_admitted_a_n_builds():
    # A_n has n(n+1)/2 positive roots; the largest n within the bound builds, the next does not
    n = max(n for n in range(1, 1000) if n * n * (n + 1) // 2 <= cartan.ROOT_DATA_BOUND)
    with pytest.raises(BoundExceededError):
        root_datum(parse_type(f"A{n + 1}"))
    # built in a child process, so that the interned datum does not stay in this one
    src = os.path.dirname(os.path.dirname(affschub.__file__))
    code = f"from affschub import cartan; print(len(cartan.root_datum(cartan.parse_type('A{n}')).pos_roots))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == n * (n + 1) // 2
