"""Finite Weyl group algebra and parabolic quotients."""

import random

import pytest

from affschub import affine
from affschub.cartan import parse_type, root_datum
from affschub.classify import all_canonical_types
from affschub.cohomology import levi_nodes
from affschub.weyl import (
    GradedPoly,
    _reflection,
    identity,
    reflection,
    simple_reflection,
    weyl_order,
)
from oracles import (
    apply_root,
    double_loop_pairing,
    has_right_descent,
    min_coset_reps,
    quotient_poincare,
    weyl_inverse,
)

WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "C2": 8, "C3": 48, "B3": 48, "C4": 384, "B4": 384,
    "D4": 192, "G2": 12, "F4": 1152,
    "E6": 51840, "E7": 2903040, "E8": 696729600,
}


def s(label_type, i):
    return simple_reflection(root_datum(parse_type(label_type)), i)


def test_simple_reflection_on_simple_coroot():
    a1 = root_datum(parse_type("A1"))
    s1 = simple_reflection(a1, 1)
    assert s1.apply_coroot((1,)) == (-1,)
    assert apply_root(s1, (1,)) == (-1,)


def test_conjugate_reflection_a2():
    # s1 s2 s1 is the reflection in the non-simple root and sends alpha_1 to -alpha_2
    w = s("A2", 1) * s("A2", 2) * s("A2", 1)
    assert apply_root(w, (1, 0)) == (0, -1)
    assert w == reflection(root_datum(parse_type("A2")), (1, 1))


def test_identity_fixes_everything():
    c2 = root_datum(parse_type("C2"))
    e = identity(c2)
    for v in [(1, 0), (0, 1), (2, -1)]:
        assert e.apply_coroot(v) == v
        assert apply_root(e, v) == v


def test_involution_and_lengths():
    g2 = root_datum(parse_type("G2"))
    s1 = simple_reflection(g2, 1)
    assert s1 * s1 == identity(g2)
    assert s1.length() == 1
    assert identity(g2).length() == 0


@pytest.mark.parametrize("label,expected", sorted(WEYL_ORDERS.items()))
def test_weyl_orders(label, expected):
    lt = parse_type(label)
    assert weyl_order(lt) == expected
    if lt.rank <= 4:  # every type through rank 4, F4 included: the graded walk of W agrees
        assert sum(len(level) for level in min_coset_reps(lt, ())) == expected


def stripped_word(w):
    """Canonical reduced word by the product route: strip the smallest right
    descent with w -> w s_i until the identity is reached."""
    labels = []
    while True:
        label = next((i for i in range(1, w.datum.rank + 1) if has_right_descent(w, i)), None)
        if label is None:
            break
        labels.append(label)
        w = w * simple_reflection(w.datum, label)
    assert w == identity(w.datum)
    return tuple(reversed(labels))


# the whole group of every type through rank 3, and G2
@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(3)])
def test_word_matches_stripping_oracle_whole_group(label):
    for level in min_coset_reps(parse_type(label), ()):
        for w in level:
            assert w.word() == stripped_word(w)


# 200 seeded elements of every type through rank 8, E8 among them
@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(8)])
def test_word_matches_stripping_oracle_sampled(label):
    datum = root_datum(parse_type(label))
    rng = random.Random(label)
    gens = [simple_reflection(datum, i) for i in range(1, datum.rank + 1)]
    for _ in range(200):
        w = identity(datum)
        for _ in range(rng.randrange(2 * len(datum.pos_roots) + 1)):
            w = w * rng.choice(gens)
        assert w.word() == stripped_word(w)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3"])
def test_longest_element_length(label):
    datum = root_datum(parse_type(label))
    levels = min_coset_reps(parse_type(label), ())
    assert len(levels) - 1 == len(datum.pos_roots)
    assert len(levels[-1]) == 1


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_length_is_inversion_count_and_word_length(label):
    datum = root_datum(parse_type(label))
    for level in min_coset_reps(parse_type(label), ()):
        for w in level:
            word = w.word()
            assert len(word) == w.length()
            assert affine.from_word(datum, word).fin == w


def test_group_law_associative_exhaustive_a2():
    elems = [w for level in min_coset_reps(parse_type("A2"), ()) for w in level]
    for u in elems:
        for v in elems:
            for w in elems:
                assert (u * v) * w == u * (v * w)


def test_g2_quotient_matches_cell_list():
    # W/W_{short node}: six cells, one per length, words ending in the long node
    levels = min_coset_reps(parse_type("G2"), {1})
    assert [len(l) for l in levels] == [1] * 6
    words = [level[0].word() for level in levels]
    assert words == [
        (),
        (2,),
        (1, 2),
        (2, 1, 2),
        (1, 2, 1, 2),
        (2, 1, 2, 1, 2),
    ]


def test_e8_mod_e7_has_240_cells():
    levels = min_coset_reps(parse_type("E8"), set(range(1, 8)))
    assert sum(len(l) for l in levels) == 240
    poly = quotient_poincare(parse_type("E8"), set(range(1, 8)))
    assert poly.coeffs[6] == 2
    assert not poly.is_chain()


def test_full_parabolic_gives_identity():
    for label in ["A2", "C3", "G2"]:
        lt = parse_type(label)
        levels = min_coset_reps(lt, set(range(1, lt.rank + 1)))
        assert levels == [[identity(root_datum(lt))]]


@pytest.mark.parametrize(
    "label,nodes",
    [("A3", {1}), ("A3", {2}), ("C3", {1, 2}), ("G2", {2}), ("B3", {1, 3}), ("D4", {2})],
)
def test_coset_count_times_parabolic_order(label, nodes):
    lt = parse_type(label)
    reps = sum(len(l) for l in min_coset_reps(lt, nodes))
    # |W_I| by re-running the enumeration inside the sub-diagram through
    # orbit counting on the full group
    total = weyl_order(lt)
    assert total % reps == 0
    w_i = total // reps
    # the stabilizer order matches the product of the parabolic's own levels
    sub = min_coset_reps(lt, ())
    stab = [w for level in sub for w in level
            if all(lbl in nodes for lbl in w.word())]
    assert len(stab) == w_i


@pytest.mark.parametrize("label,nodes", [
    ("A2", ()), ("A3", {2}), ("C3", {2, 3}), ("G2", {1}), ("B3", {1, 3}),
    ("D4", {1, 3, 4}), ("F4", {2, 3, 4}),
])
def test_quotient_poincare_palindromic(label, nodes):
    assert quotient_poincare(parse_type(label), nodes).is_palindromic()


def test_group_orders_by_orbit_tower():
    # |W| from small orbit sizes alone, never enumerating a big group:
    # |W(X)| = |W(X)/W(Y)| * |W(Y)| where Y is a maximal subdiagram, and the
    # first factor is one coset-orbit BFS.  Frozen orders are the oracle.
    def orbit(label, nodes):
        return sum(len(l) for l in min_coset_reps(parse_type(label), nodes))

    chain = [
        # (type, parabolic node subset, subdiagram type it spans)
        ("E8", set(range(1, 8)), "E7"),
        ("E7", set(range(1, 7)), "E6"),
        ("E6", {2, 3, 4, 5, 6}, "D5"),
        ("D5", {2, 3, 4, 5}, "D4"),
        ("D4", {2, 3, 4}, "A3"),
        ("A3", {1, 2}, "A2"),
        ("A2", {1}, "A1"),
        ("A1", set(), None),
    ]
    orders = {None: 1}
    for label, nodes, sub in reversed(chain):
        orders[label] = orbit(label, nodes) * orders[sub]
    assert orders["A3"] == 24
    assert orders["D5"] == 1920
    assert orders["E6"] == 51840
    assert orders["E7"] == 2903040
    assert orders["E8"] == 696729600


def test_chain_detection():
    assert quotient_poincare(parse_type("G2"), {1}).is_chain()
    assert quotient_poincare(parse_type("C3"), {2, 3}).is_chain()
    assert not quotient_poincare(parse_type("A3"), {2}).is_chain()


def test_graded_poly_helpers():
    p = GradedPoly.from_coeffs([1, 1, 1, 0])
    assert p.coeffs == (1, 1, 1)
    assert p.is_chain() and p.is_palindromic()
    assert str(p) == "1 + q + q^2"
    q = GradedPoly.from_coeffs([1, 2, 1])
    assert not q.is_chain() and q.is_palindromic()
    assert q.coeffs == (1, 2, 1)
    assert str(GradedPoly.from_coeffs([])) == "0"


def test_apply_preserves_pairing():
    c2 = root_datum(parse_type("C2"))
    w = simple_reflection(c2, 1) * simple_reflection(c2, 2)
    lam, alpha = (2, -1), (1, 1)
    assert double_loop_pairing(c2, w.apply_coroot(lam), apply_root(w, alpha)) == double_loop_pairing(c2, lam, alpha)


def test_inverse():
    g2 = root_datum(parse_type("G2"))
    w = affine.from_word(g2, (1, 2, 1, 2)).fin
    assert w * weyl_inverse(w) == identity(g2)
    assert weyl_inverse(w).length() == w.length()


def test_rank_mismatch_raises():
    a2 = root_datum(parse_type("A2"))
    a3 = root_datum(parse_type("A3"))
    with pytest.raises(ValueError, match="type mismatch"):
        identity(a2) * identity(a3)
    with pytest.raises(ValueError, match="rank mismatch"):
        identity(a2).apply_coroot((1, 0, 0))


def _matrix_of_word(cartan, word):
    """Coroot-lattice matrix of a word, from the Cartan matrix alone.

    s_i sends alpha_j^v to alpha_j^v - A[j][i] alpha_i^v, so its matrix is the
    identity with row i replaced by (delta_ij - A[j][i])_j.
    """
    n = len(cartan)
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    for label in word:
        i = label - 1
        # mat <- mat * s_i: column j picks up -A[j][i] times column i
        for row in mat:
            row[:] = [row[j] - cartan[j][i] * row[i] for j in range(n)]
    return tuple(tuple(row) for row in mat)


def _mat_vec(mat, vec):
    return tuple(sum(m * v for m, v in zip(row, vec)) for row in mat)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_root_permutation_matches_matrix_oracle(label):
    lt = parse_type(label)
    datum = root_datum(lt)
    n = datum.rank
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    elems = [w for level in min_coset_reps(lt, ()) for w in level]
    matrices = set()
    for w in elems:
        mat = _matrix_of_word(datum.cartan, w.word())
        matrices.add(mat)
        inversions = sum(
            1 for cor in datum.pos_coroots if any(c < 0 for c in _mat_vec(mat, cor))
        )
        assert w.length() == inversions == len(w.word())
        for i, e in enumerate(basis):
            image = _mat_vec(mat, e)
            assert w.apply_coroot(e) == image
            assert has_right_descent(w, i + 1) == any(c < 0 for c in image)
        assert w * weyl_inverse(w) == weyl_inverse(w) * w == identity(datum)
    # distinct permutations are distinct matrices: the words name |W| elements
    assert len(matrices) == len(elems) == WEYL_ORDERS[label]


@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(8)])
def test_conjugated_reflections_match_direct_formula(label):
    # every reflection against gamma -> gamma - <beta^v, gamma> beta, with the
    # pairing from the Cartan matrix instead of the pairing rows
    datum = root_datum(parse_type(label))
    n = datum.rank
    big = len(datum.pos_roots)
    roots = list(datum.pos_roots) + [tuple(-c for c in r) for r in datum.pos_roots]
    index = {r: j for j, r in enumerate(roots)}
    for beta, cor in zip(datum.pos_roots, datum.pos_coroots):
        expected = []
        for gamma in roots:
            pair = sum(cor[i] * datum.cartan[i][j] * gamma[j] for i in range(n) for j in range(n))
            expected.append(index[tuple(g - pair * b for g, b in zip(gamma, beta))])
        s_beta = reflection(datum, beta)
        assert s_beta.perm == tuple(expected)
        assert s_beta.length() % 2 == 1 and len(s_beta.perm) == 2 * big


def _conjugated_reflections(datum):
    """Every reflection's root permutation by conjugation, kept here as the oracle.

    A simple reflection s_i changes coordinate i of each root by
    <alpha_i^v, gamma>.  Any other beta has a node i with <alpha_i^v, beta> > 0,
    so beta' = s_i beta is lower and s_beta = s_i s_beta' s_i.  The roots come
    by height, so s_beta' is built before s_beta.
    """
    n, big = datum.rank, len(datum.pos_roots)
    perms = []
    for beta, row in zip(datum.pos_roots, datum.pairing_rows):
        if sum(beta) == 1:
            i = beta.index(1)
            perm = []
            for gamma, pairs in zip(datum.pos_roots, datum.pairing_rows):
                perm.append(datum.index[gamma[:i] + (gamma[i] - pairs[i],) + gamma[i + 1:]])
            perm += [(j + big) % (2 * big) for j in perm]
        else:
            i = next(i for i, c in enumerate(row) if c > 0)
            s_i = perms[datum.index[tuple(int(j == i) for j in range(n))]]
            s_lower = perms[datum.index[beta[:i] + (beta[i] - row[i],) + beta[i + 1:]]]
            perm = [s_i[s_lower[s_i[j]]] for j in range(2 * big)]
        perms.append(tuple(perm))
    return perms


@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(8)])
def test_reflections_match_conjugation_oracle(label):
    datum = root_datum(parse_type(label))
    oracle = _conjugated_reflections(datum)
    for k, beta in enumerate(datum.pos_roots):
        assert _reflection(datum, k).perm == oracle[k]
        assert reflection(datum, beta) is _reflection(datum, k)
    for i in range(datum.rank):
        simple = tuple(int(j == i) for j in range(datum.rank))
        assert simple_reflection(datum, i + 1).perm == oracle[datum.index[simple]]


def coset_orbit_oracle(lie_type, nodes):
    """W^I by the orbit BFS that steps both ways and drops revisits through a seen set.

    The route min_coset_reps took before it kept up-steps only.
    """
    datum = root_datum(lie_type)
    a = datum.cartan
    n = datum.rank
    base = tuple(0 if (i + 1) in nodes else 1 for i in range(n))
    seen = {base}
    frontier = [(base, identity(datum))]
    levels = []
    while frontier:
        frontier.sort(key=lambda pw: pw[0])
        levels.append([w for _, w in frontier])
        nxt = {}
        for point, w in frontier:
            for i in range(n):
                if point[i] == 0:
                    continue
                moved = tuple(point[j] - point[i] * a[i][j] for j in range(n))
                if moved not in seen and moved not in nxt:
                    nxt[moved] = simple_reflection(datum, i + 1) * w
        seen.update(nxt)
        frontier = list(nxt.items())
    return levels


def _perm_levels(levels):
    return [[w.perm for w in level] for level in levels]


# every type through rank 4, G2 and F4 among them
@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(4)])
def test_min_coset_reps_up_steps_match_orbit_oracle(label):
    lt = parse_type(label)
    for nodes in [(), tuple(sorted(levi_nodes(lt)))] + [(i,) for i in range(1, lt.rank + 1)]:
        assert _perm_levels(min_coset_reps(lt, nodes)) == _perm_levels(coset_orbit_oracle(lt, nodes))


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_exceptional_levi_quotients_match_orbit_oracle(label):
    lt = parse_type(label)
    nodes = levi_nodes(lt)
    assert _perm_levels(min_coset_reps(lt, nodes)) == _perm_levels(coset_orbit_oracle(lt, nodes))
