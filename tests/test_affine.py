"""Affine Weyl group arithmetic, lengths, min reps, Bruhat order, formats."""

import itertools
import random
from collections import Counter
from operator import mul

import pytest

from affschub import affine, weyl
from affschub.cartan import _sparse_rows, parse_type, root_datum
from affschub.classify import all_canonical_types
from affschub.errors import BoundExceededError, ParseError
from affschub.affine import (
    affine_identity,
    all_generators,
    bruhat_leq,
    embed_finite,
    enumerate_minreps,
    format_element,
    from_word,
    generator,
    is_antidominant,
    is_min_rep,
    min_rep,
    parse_element,
    reduced_word,
    seed_translation,
    translation,
)
from affschub.verify import antidominant_equivalences, coweight_orbit, length_bfs_oracle
from affschub.weyl import WeylElem, identity
from oracles import (
    TYPES_TO_RANK_8,
    double_loop_pairing,
    first_right_descent,
    inverse,
    min_coset_reps,
    rescanning_interval_levels,
    right_descent,
    stripping_min_rep,
    weyl_inverse,
)


def datum(label):
    return root_datum(parse_type(label))


def series_coeffs(exps, through):
    """prod 1/(1-q^e) through q^through; the independent level-size oracle."""
    out = [1] + [0] * through
    for e in exps:
        for k in range(e, through + 1):
            out[k] += out[k - e]
    return out


def poly_mul(p, q, through):
    out = [0] * (through + 1)
    for i, a in enumerate(p[: through + 1]):
        for j, b in enumerate(q[: through + 1]):
            if i + j <= through:
                out[i + j] += a * b
    return out


def affine_growth_series(label, through):
    """W(q) * prod 1/(1-q^e): the full affine group's growth, term by term."""
    d = datum(label)
    w_poly = [1]
    for e in d.exponents:
        w_poly = poly_mul(w_poly, [1] * (e + 1), through)
    return poly_mul(w_poly, series_coeffs(d.exponents, through), through)


# --- group law ---------------------------------------------------------------


def test_s0_squares_to_identity():
    for label in ["A1", "A2", "C2", "G2", "B3"]:
        s0 = generator(datum(label), 0)
        assert s0 * s0 == affine_identity(s0.datum)
        assert s0.length() == 1


def test_translations_commute_and_add():
    d = datum("C2")
    t1 = translation(d, (1, -1))
    t2 = translation(d, (0, 2))
    assert t1 * t2 == t2 * t1 == translation(d, (1, 1))


def test_a1_s1_s0_is_negative_translation():
    d = datum("A1")
    x = generator(d, 1) * generator(d, 0)
    assert x.trans == (-1,) and x.fin == identity(d)
    assert x.length() == 2


def test_inverse():
    d = datum("A2")
    x = from_word(d, [0, 1, 2, 0])
    assert x * inverse(x) == inverse(x) * x == affine_identity(d)
    assert inverse(x).length() == x.length()


def test_semidirect_law():
    d = datum("G2")
    for wl, wr in [((0, 1), (2, 0)), ((1, 2, 0), (0,)), ((), (1, 0, 2))]:
        x, y = from_word(d, wl), from_word(d, wr)
        prod = x * y
        moved = x.fin.apply_coroot(y.trans)
        assert prod.trans == tuple(a + b for a, b in zip(x.trans, moved))
        assert prod.fin == x.fin * y.fin


# --- length ------------------------------------------------------------------


def test_length_examples():
    assert affine_identity(datum("A2")).length() == 0
    assert translation(datum("A1"), (-1,)).length() == 2
    assert seed_translation(datum("G2")).length() == 6


@pytest.mark.parametrize("label,depth", [("A1", 8), ("A2", 6), ("C2", 6), ("G2", 6)])
def test_length_formula_equals_bfs(label, depth):
    dist = length_bfs_oracle(parse_type(label), depth)
    for x, d in dist.items():
        assert x.length() == d


def test_bfs_level_sizes_a1():
    dist = length_bfs_oracle(parse_type("A1"), 3)
    sizes = Counter(dist.values())
    assert [sizes[k] for k in range(4)] == [1, 2, 2, 2]


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_bfs_level_sizes_match_growth_series(label):
    depth = 5
    dist = length_bfs_oracle(parse_type(label), depth)
    sizes = Counter(dist.values())
    expected = affine_growth_series(label, depth)
    assert [sizes[k] for k in range(depth + 1)] == expected


def test_bfs_bound():
    with pytest.raises(BoundExceededError, match="BFS depth 99 exceeds the configured limit 24; the limit is fixed"):
        length_bfs_oracle(parse_type("A1"), 99)


# --- reduced words -----------------------------------------------------------


def test_reduced_word_examples():
    assert reduced_word(affine_identity(datum("A1"))) == []
    assert reduced_word(translation(datum("A1"), (-1,))) == [1, 0]
    word = reduced_word(seed_translation(datum("A2")))
    assert len(word) == 4 and word[-1] == 0


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_reduced_word_roundtrip(label):
    d = datum(label)
    for x in enumerate_minreps(parse_type(label), 6).flat():
        word = reduced_word(x)
        assert len(word) == x.length()
        assert from_word(d, word) == x


def alcove_at(x, level):
    """The alcove vector of x with delta at height level, from the inverse's permutation:
    r[l] = level <lam, alpha_l> + ht(w^-1 alpha_l), r[0] = level (1 - <lam, theta>) - ht(w^-1 theta)."""
    d = x.datum
    big = len(d.pos_roots)
    inv = weyl_inverse(x.fin).perm
    roots = [d.root_index(d.highest_root)] + list(d.simple_index)
    heights = [sum(d.pos_roots[inv[k] % big]) * (-1 if inv[k] >= big else 1) for k in roots]
    r = [level * double_loop_pairing(d, x.trans, d.pos_roots[k]) + h for k, h in zip(roots, heights)]
    r[0] = level - r[0]
    return r


def long_elements(label):
    """t_{-k theta^v} for k up to 200, and seeded t:lam|w:word with coordinates in -40..40."""
    d = datum(label)
    for k in (1, 2, 3, 31, 32, 33, 200):
        yield translation(d, tuple(-k * c for c in d.highest_coroot))
    rng = random.Random(f"long-{label}")
    for _ in range(4):
        lam = ",".join(str(rng.randint(-40, 40)) for _ in range(d.rank))
        word = ",".join(str(rng.randint(1, d.rank)) for _ in range(rng.randint(0, 11)))
        yield parse_element(d, f"t:{lam}|w:{word}")


@pytest.mark.parametrize("lie_type", all_canonical_types(8), ids=str)
def test_block_jumps_match_the_plain_walk(lie_type):
    # reduced_word jumps translation blocks on a level-K vector past _long_word letters;
    # the plain walk at delta height M = ht(theta) + 1 makes every move one by one
    d = root_datum(lie_type)
    rows = _sparse_rows(d.affine_cartan)
    level = sum(d.highest_root) + 1
    jumped = 0
    for x in long_elements(str(lie_type)):
        n = x.length()
        r = alcove_at(x, level)
        plain = weyl._descend(r, rows, n)
        assert len(plain) == n and r == [1] * (d.rank + 1)
        assert reduced_word(x) == plain
        jumped += n > affine._long_word(d)
    assert jumped >= 2  # t_{-200 theta^v} and t_{-33 theta^v} at least take the jumping walk


def test_long_word_is_the_closed_form():
    # _long_word reads l(t_theta^v) as 2 ht(theta^v); here it is the translation's length
    for lie_type in all_canonical_types(14):
        d = root_datum(lie_type)
        assert affine._long_word(d) == affine.LONG_WORD_TRANSLATIONS * translation(d, d.highest_coroot).length()


def takes_block(v, block, rows):
    """Whether the walk from v makes the moves of block, each at its first negative entry."""
    v = list(v)
    for l in block:
        if next((m for m, c in enumerate(v) if c < 0), None) != l:
            return False
        c = v[l]
        for m, e in rows[l]:
            v[m] -= c * e
    return True


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3"])
def test_repeats_counts_repeats_one_by_one(label):
    # _repeats(a, b, block) against taking the block from a + j b for j = 0, 1, ... one
    # repeat at a time; block is the walk from a - b, so it is taken at j = -1, as in the walk
    rows = _sparse_rows(datum(label).affine_cartan)
    rng = random.Random(f"repeats-{label}")
    for _ in range(300):
        start = [rng.randint(-30, 30) for _ in rows]
        b = [rng.randint(-8, 8) for _ in rows]
        block = weyl._descend(list(start), rows, rng.randint(1, 12))
        if not block:
            continue
        a = [u + v for u, v in zip(start, b)]
        count = 0
        while count < 20 and takes_block([u + count * v for u, v in zip(a, b)], block, rows):
            count += 1
        assert weyl._repeats(a, b, block, rows, 20) == count


def test_reduced_word_bound():
    x = translation(datum("A1"), (-30,))
    assert len(reduced_word(x, bound=60)) == 60
    with pytest.raises(BoundExceededError, match="bound=60"):
        reduced_word(x, bound=59)
    with pytest.raises(BoundExceededError, match="reduced word length"):
        format_element(translation(datum("A1"), (-10**7,)))


# --- closed-form descents against product and length -------------------------

DESCENT_BALLS = [
    ("A1", 10), ("A2", 7), ("C2", 7), ("G2", 7),
    ("A3", 5), ("B3", 5), ("C3", 5), ("D4", 4), ("F4", 4),
]


def greedy_word_oracle(x):
    """Smallest-label left-descent stripping by products and lengths."""
    gens = all_generators(x.datum)
    word = []
    while x.length() > 0:
        label = next(l for l, g in enumerate(gens) if (g * x).length() < x.length())
        word.append(label)
        x = gens[label] * x
    return word


@pytest.mark.parametrize("label,depth", DESCENT_BALLS)
def test_closed_form_descents_match_products(label, depth):
    d = datum(label)
    gens = all_generators(d)
    # delta has height K = 2 ht(theta) + 1, so alpha_0 = delta - theta has height ht(theta) + 1
    origin = [sum(d.highest_root) + 1] + [1] * d.rank
    assert affine._alcove(affine_identity(d)) == list(d.identity_alcove) == origin
    assert affine._right_alcove(affine_identity(d)) == origin
    rows = _sparse_rows(d.affine_cartan)
    for x in length_bfs_oracle(parse_type(label), depth):
        n = x.length()
        r = affine._alcove(x)
        q = affine._right_alcove(x)
        for l, g in enumerate(gens):
            assert (r[l] < 0) == ((g * x).length() < n)
            stepped = list(r)
            for m, e in rows[l]:
                stepped[m] -= r[l] * e
            assert stepped == affine._alcove(g * x)
            # the right step x s_l moves q along affine row l, the segment search's rule
            assert (q[l] < 0) == ((x * g).length() < n)
            stepped = list(q)
            for m, e in rows[l]:
                stepped[m] -= q[l] * e
            assert stepped == affine._right_alcove(x * g)
        assert is_min_rep(x) == all((x * g).length() > n for g in gens[1:])


# every type through rank 4, plus G2 and E6
SWEEP_TYPES = ["A1", "A2", "C2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4", "E6"]


def random_elements(label, count):
    """Seeded t:lam|w:word elements: coordinates in -4..4, finite words of up to 8 letters."""
    d = datum(label)
    rng = random.Random(label)
    for _ in range(count):
        lam = ",".join(str(rng.randint(-4, 4)) for _ in range(d.rank))
        word = ",".join(str(rng.randint(1, d.rank)) for _ in range(rng.randint(0, 8)))
        yield parse_element(d, f"t:{lam}|w:{word}")


@pytest.mark.parametrize("label", SWEEP_TYPES)
def test_reduced_word_closed_form_matches_greedy_products(label):
    depth = dict(DESCENT_BALLS).get(label)
    ball = length_bfs_oracle(parse_type(label), depth) if depth else {}
    for x in itertools.chain(ball, random_elements(label, 25)):
        word = reduced_word(x)
        assert word == greedy_word_oracle(x)
        assert from_word(x.datum, word) == x


def product_fold(d, word):
    """The left fold of generator products: the oracle for from_word."""
    gens = all_generators(d)
    x = affine_identity(d)
    for label in word:
        x = x * gens[label]
    return x


def seeded_words(label):
    """Words of up to 40 letters, with label 0 at every position 0..39 in turn."""
    rank = datum(label).rank
    rng = random.Random(f"words-{label}")
    for i in range(40):
        word = [rng.randint(0, rank) for _ in range(rng.randint(i + 1, 40))]
        word[i] = 0
        yield word


@pytest.mark.parametrize("label", SWEEP_TYPES + ["E8"])
def test_from_word_matches_product_fold(label):
    d = datum(label)
    depth = dict(DESCENT_BALLS).get(label)
    ball = [reduced_word(x) for x in length_bfs_oracle(parse_type(label), depth)] if depth else []
    for word in itertools.chain(ball, seeded_words(label)):
        assert from_word(d, word) == product_fold(d, word)
    for bad in (-1, d.rank + 1):
        with pytest.raises(ValueError):
            from_word(d, [0, bad])


def test_reduced_word_closed_form_rebuilds_long_translation():
    d = datum("A2")
    x = parse_element(d, "t:-1000,-1000")
    assert from_word(d, reduced_word(x)) == x


# --- min reps ----------------------------------------------------------------


def test_finite_elements_project_to_identity():
    d = datum("C2")
    for level in min_coset_reps(parse_type("C2"), ()):
        for w in level:
            assert min_rep(embed_finite(w)) == affine_identity(d)


def assert_min_rep_matches_stripping(x):
    """is_min_rep, min_rep and the signs of the right alcove vector against the per-label oracle."""
    q = affine._right_alcove(x)
    assert [a < 0 for a in q[1:]] == [right_descent(x, l) for l in range(1, x.datum.rank + 1)]
    assert is_min_rep(x) == (not first_right_descent(x))
    m = min_rep(x)
    assert m == stripping_min_rep(x)
    assert is_min_rep(m)


@pytest.mark.parametrize("label", SWEEP_TYPES)
def test_min_rep_matches_stripping_oracle(label):
    for x in random_elements(label, 200):
        assert_min_rep_matches_stripping(x)


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_min_rep_matches_stripping_oracle_on_translation_orbits(lie_type):
    """t_mu for mu in W theta^v and W 2 theta^v: the cosets min_rep meets in the segment and orbit checks."""
    d = root_datum(lie_type)
    for m in (1, 2):
        for mu in coweight_orbit(d, tuple(m * c for c in d.highest_coroot)):
            assert_min_rep_matches_stripping(translation(d, mu))


def test_antidominant_translations_are_min_reps():
    d = datum("A2")
    for lam in itertools.product(range(-2, 1), repeat=2):
        if is_antidominant(d, lam):
            assert is_min_rep(translation(d, lam))


def test_positive_translation_strips_to_s0():
    d = datum("A1")
    t = translation(d, (1,))
    assert not is_min_rep(t)
    m = min_rep(t)
    assert m == generator(d, 0)
    assert m.length() == t.length() - 1


def test_min_rep_raises_when_the_walk_leaves_a_descent(monkeypatch):
    monkeypatch.setattr(affine, "_descend", lambda r, rows, limit: [])
    with pytest.raises(ArithmeticError, match="coset minimum ended at the right alcove vector"):
        min_rep(translation(datum("A1"), (1,)))


def test_is_antidominant():
    d = datum("G2")
    assert is_antidominant(d, (0, 0))
    assert is_antidominant(d, tuple(-c for c in d.highest_coroot))
    assert not is_antidominant(datum("A1"), (1,))


@pytest.mark.parametrize("label,sizes", [
    ("A1", [1, 1, 1, 1, 1, 1, 1]),
    ("A2", [1, 1, 2, 2]),
    ("G2", [1, 1, 1, 1, 1, 2]),
])
def test_minrep_level_sizes_examples(label, sizes):
    levels = enumerate_minreps(parse_type(label), len(sizes) - 1)
    assert list(levels.level_sizes()) == sizes


def test_minrep_negative_length_rejected():
    with pytest.raises(ValueError, match="max_len"):
        enumerate_minreps(parse_type("A2"), -1)


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_minrep_level_sizes_match_series(label):
    through = 10
    levels = enumerate_minreps(parse_type(label), through)
    assert list(levels.level_sizes()) == series_coeffs(datum(label).exponents, through)


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2"])
def test_minrep_words_end_in_affine_node(label):
    e = affine_identity(datum(label))
    for x in enumerate_minreps(parse_type(label), 6).flat():
        if x != e:
            assert reduced_word(x)[-1] == 0


def test_minreps_are_min_reps():
    for x in enumerate_minreps(parse_type("C2"), 8).flat():
        assert is_min_rep(x)


def test_enumeration_bound():
    with pytest.raises(BoundExceededError, match="bound"):
        enumerate_minreps(parse_type("A2"), 40)


def coset_bfs_oracle(d, max_len):
    """Minimal representatives by coset BFS: g * x, then min_rep, then length.

    Sorted by (translation, finite word), the canonical order of the levels.
    """
    gens = all_generators(d)
    seen = {affine_identity(d)}
    levels = [(affine_identity(d),)]
    for target in range(1, max_len + 1):
        found = set()
        for x in levels[-1]:
            for g in gens:
                y = min_rep(g * x)
                if y.length() == target and y not in seen:
                    found.add(y)
        seen.update(found)
        levels.append(tuple(sorted(found, key=lambda e: (e.trans, e.fin.word()))))
    return levels


def closed_minrep_length(d, lam):
    """sum |<lam, gamma>| - #{gamma > 0 : <lam, gamma> > 0} over the positive roots."""
    pairs = [double_loop_pairing(d, lam, gamma) for gamma in d.pos_roots]
    return sum(abs(p) for p in pairs) - sum(1 for p in pairs if p > 0)


@pytest.mark.parametrize("label,max_len", [
    ("A1", 12), ("A2", 12), ("C2", 12), ("G2", 12),
    ("A3", 8), ("B3", 8), ("C3", 8), ("D4", 8), ("F4", 8), ("E6", 5),
])
def test_lattice_bfs_matches_coset_oracle(label, max_len):
    d = datum(label)
    levels = enumerate_minreps(parse_type(label), max_len).by_length
    oracle = coset_bfs_oracle(d, max_len)
    assert len(levels) == len(oracle)
    for k, (level, expected) in enumerate(zip(levels, oracle)):
        assert [x.trans for x in level] == [y.trans for y in expected]
        assert [x.fin.perm for x in level] == [y.fin.perm for y in expected]
        for x in level:
            fresh = affine.AffineElem(d, x.trans, x.fin)
            assert is_min_rep(fresh)
            assert fresh.length() == k == closed_minrep_length(d, x.trans)
            inv = weyl_inverse(x.fin)
            assert weyl_inverse(inv) == x.fin and inv * x.fin == identity(d)
            assert all(inv.perm[j] == i for i, j in enumerate(x.fin.perm))


# --- the eager walks, kept as oracles of the lattice walk -------------------


def eager_minreps(d, level, k):
    """The representatives t_lam w of length k, for level lam -> w^-1's permutation, sorted by lam."""
    out = []
    for lam in sorted(level):
        x = affine.AffineElem(d, lam, weyl_inverse(WeylElem(d, level[lam])))
        x._len = k
        out.append(x)
    return tuple(out)


def lam_up_step(d, label, lam):
    """lam of s x, for minimal x = t_lam w and s at label, if s x is minimal and one longer; else None.

    The up-step rule on lam itself, by the pairing a = <lam, alpha_l> (<lam, theta>
    for l = 0): a > 0 lowers lam[l-1] by a, and a <= 0 at 0 adds (1 - a) theta^v.
    """
    a = sum(map(mul, lam, d.pairing_rows[d.affine_index[label]]))
    if label:
        return lam[: label - 1] + (lam[label - 1] - a,) + lam[label:] if a > 0 else None
    return tuple(c + (1 - a) * h for c, h in zip(lam, d.highest_coroot)) if a <= 0 else None


def eager_enumerate_oracle(label, max_len):
    """enumerate_minreps' levels by the walk that carries w^-1 along the first path to each lam."""
    d = datum(label)
    shift = affine._shift(d)
    labels = range(d.rank + 1)
    level = {(0,) * d.rank: identity(d).perm}
    levels = [eager_minreps(d, level, 0)]
    for k in range(1, max_len + 1):
        nxt = {}
        for lam, winv in level.items():
            for l in labels:
                new = lam_up_step(d, l, lam)
                if new is not None and new not in nxt:
                    nxt[new] = shift[l](winv)
        level = nxt
        levels.append(eager_minreps(d, level, k))
    return tuple(levels)


def eager_interval_oracle(x):
    """lower_interval(x) by the walk that carries each point's w^-1."""
    d = x.datum
    shift = affine._shift(d)
    levels = [{(0,) * d.rank: identity(d).perm}]
    for l in reversed(reduced_word(x)):
        levels.append({})
        for level, up in zip(levels, levels[1:]):
            for lam, winv in level.items():
                new = lam_up_step(d, l, lam)
                if new is not None and new not in up:
                    up[new] = shift[l](winv)
    return [v for k, level in enumerate(levels) for v in eager_minreps(d, level, k)]


def elem_keys(elems):
    return [(x.trans, x.fin.perm, x._len) for x in elems]


# every canonical type through rank 4, with G2, F4 and E6
EAGER_ORACLE_BALLS = [
    ("A1", 12), ("A2", 12), ("C2", 12), ("G2", 12),
    ("A3", 10), ("B3", 10), ("C3", 10), ("A4", 10), ("B4", 10), ("C4", 10), ("D4", 10),
    ("F4", 8), ("E6", 8),
]


@pytest.mark.parametrize("label,max_len", EAGER_ORACLE_BALLS)
def test_lattice_walk_matches_eager_oracle(label, max_len):
    levels = enumerate_minreps(parse_type(label), max_len)
    expected = eager_enumerate_oracle(label, max_len)
    assert levels.level_sizes() == tuple(map(len, expected))
    assert [elem_keys(level) for level in levels.by_length] == [elem_keys(level) for level in expected]
    assert elem_keys(levels.flat()) == elem_keys(x for level in expected for x in level)
    for x in levels.by_length[-1]:
        assert elem_keys(affine.lower_interval(x).flat()) == elem_keys(eager_interval_oracle(x))


@pytest.mark.parametrize("label,max_len", EAGER_ORACLE_BALLS)
def test_enumeration_points_are_the_elements_pairings(label, max_len):
    # the elements are products along the links and read no point, so the points
    # are checked apart: p = (1 - <lam, theta>, <lam, alpha_1>, ..., <lam, alpha_rank>)
    d = datum(label)
    levels = enumerate_minreps(d.lie_type, max_len)
    for points, elems in zip(levels._levels, levels.by_length):
        pairs = [[sum(map(mul, x.trans, d.pairing_rows[k])) for k in d.affine_index] for x in elems]
        assert set(points) == {(1 - p[0],) + tuple(p[1:]) for p in pairs}


# the enum benchmark's pairs: 296 representatives in all
ENUM_PAIRS = [("A2", 12), ("C2", 12), ("G2", 12), ("A3", 10), ("B3", 10), ("D4", 10), ("F4", 10)]


def test_level_sizes_build_no_finite_part(monkeypatch):
    from affschub.schubert import SchubertClass, schubert_poincare

    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weyl, "_reflection", counting("reflection", weyl._reflection))
    affine._shift.cache_clear()
    runs = [enumerate_minreps(parse_type(label), n) for label, n in ENUM_PAIRS]
    assert sum(sum(levels.level_sizes()) for levels in runs) == 296
    assert calls == Counter()
    cls = SchubertClass(parse_element(datum("A2"), "word:0,2,0,1,2,0,1,2,0,1,2,0"))
    calls.clear()
    assert sum(schubert_poincare(cls).coeffs) > 0
    assert calls == Counter()
    assert sum(len(level) for levels in runs for level in levels.by_length) == 296


# --- antidominance equivalences ----------------------------------------------


def test_antidominant_equivalences_examples():
    rep = antidominant_equivalences(datum("A2"), (-1, -1))
    assert (rep.min_rep_of_coset, rep.orbit_maximal, rep.chamber) == (True, True, True)
    rep = antidominant_equivalences(datum("A1"), (1,))
    assert (rep.min_rep_of_coset, rep.orbit_maximal, rep.chamber) == (False, False, False)
    rep = antidominant_equivalences(datum("C2"), (0, 0))
    assert rep.all_agree() and rep.chamber


def test_antidominant_equivalences_coord_bound():
    with pytest.raises(BoundExceededError, match="translation coordinate 9 exceeds the configured limit 2; the limit is fixed"):
        antidominant_equivalences(datum("A1"), (9,))


@pytest.mark.parametrize(
    "label,sample",
    [("A2", None), ("C2", None), ("G2", None), ("A3", None), ("B3", None), ("C3", None), ("D4", 40), ("F4", 40)],
)
def test_coweight_orbit_matches_group_action(label, sample):
    """The orbit walk against the images of lam under every element of W, for lam in [-2,2]^rank."""
    d = datum(label)
    group = [w for level in min_coset_reps(d.lie_type, ()) for w in level]
    box = list(itertools.product(range(-2, 3), repeat=d.rank))
    if sample is not None:
        box = random.Random(8103266).sample(box, sample)
    for lam in box:
        orbit = list(coweight_orbit(d, lam))
        assert orbit[0] == lam and len(orbit) == len(set(orbit))
        assert set(orbit) == {w.apply_coroot(lam) for w in group}


# --- Bruhat order ------------------------------------------------------------


def subword_oracle(v, w):
    """v <= w iff some subword of a fixed reduced word of w multiplies to v."""
    word = reduced_word(w)
    d = w.datum
    for mask in range(1 << len(word)):
        picked = [word[i] for i in range(len(word)) if mask >> i & 1]
        if len(picked) != v.length():
            continue
        if from_word(d, picked) == v:
            return True
    return v.length() == 0


def test_bruhat_examples():
    d = datum("G2")
    assert bruhat_leq(affine_identity(d), seed_translation(d))
    assert bruhat_leq(generator(d, 0), seed_translation(d))
    d1 = datum("A1")
    assert not bruhat_leq(generator(d1, 0), embed_finite(min_coset_reps(parse_type("A1"), ())[1][0]))


@pytest.mark.parametrize("label,max_len", [("A2", 5), ("C2", 5), ("A1", 6)])
def test_bruhat_matches_subword_oracle(label, max_len):
    elems = list(enumerate_minreps(parse_type(label), max_len).flat())
    # include some non-minimal elements for coverage of the general order
    d = datum(label)
    extra = [from_word(d, [0, 1]), from_word(d, [1, 0, 1])]
    pool = elems + extra
    for v in pool:
        for w in pool:
            if v.length() > w.length():
                continue
            assert bruhat_leq(v, w) == subword_oracle(v, w), (
                format_element(v),
                format_element(w),
            )


def test_bruhat_finite_subgroup_ranks_up_to_3():
    # the finite Bruhat oracle of the weyl module's invariant list
    for label in ["A3", "C3", "B3"]:
        d = datum(label)
        elems = [
            embed_finite(w)
            for level in min_coset_reps(parse_type(label), ())
            for w in level
            if w.length() <= 4
        ]
        for v in elems:
            for w in elems:
                if v.length() > w.length() or w.length() > 4:
                    continue
                assert bruhat_leq(v, w) == subword_oracle(v, w)


def test_bruhat_default_bound_is_the_word_bound():
    # the test walks one reduced word of w, so it is bounded as a word is
    d = datum("A1")
    big = translation(d, (-40,))
    assert big.length() == 80
    assert bruhat_leq(affine_identity(d), big)
    assert not bruhat_leq(big, affine_identity(d))
    with pytest.raises(BoundExceededError, match=f"limit {affine.WORD_BOUND}"):
        bruhat_leq(affine_identity(d), translation(d, (-10**7,)))


# --- length additivity -------------------------------------------------------


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_length_additivity(label):
    d = datum(label)
    lams = [
        lam
        for lam in itertools.product(range(-2, 1), repeat=2)
        if is_antidominant(d, lam)
    ]
    for sigma in enumerate_minreps(parse_type(label), 6).flat():
        for lam in lams:
            t = translation(d, lam)
            assert (sigma * t).length() == sigma.length() + t.length()


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_antidominant_translation_additivity(label):
    d = datum(label)
    lams = [
        lam
        for lam in itertools.product(range(-2, 1), repeat=2)
        if is_antidominant(d, lam)
    ]
    for lam, mu in itertools.product(lams, repeat=2):
        s = tuple(a + b for a, b in zip(lam, mu))
        assert (
            translation(d, s).length()
            == translation(d, lam).length() + translation(d, mu).length()
        )


# --- element text format -----------------------------------------------------


def test_format_parse_roundtrip():
    d = datum("C2")
    for x in enumerate_minreps(parse_type("C2"), 6).flat():
        assert parse_element(d, format_element(x)) == x


def test_parse_translation_forms():
    d = datum("A2")
    assert parse_element(d, "t:-1,0") == translation(d, (-1, 0))
    x = parse_element(d, "t:-1,0|w:1,2")
    assert x.trans == (-1, 0) and x.fin.word() == (1, 2)
    assert parse_element(d, "word:") == affine_identity(d)


def test_parse_errors_name_token():
    d = datum("A2")
    with pytest.raises(ParseError, match="'5'"):
        parse_element(d, "word:0,5")
    with pytest.raises(ParseError, match="'x'"):
        parse_element(d, "t:x,0")
    with pytest.raises(ParseError, match="expected 2 coordinates"):
        parse_element(d, "t:1")
    with pytest.raises(ParseError, match="w:"):
        parse_element(d, "t:1,0|v:1")
    with pytest.raises(ParseError, match="'0'"):
        parse_element(d, "t:1,0|w:0")
    with pytest.raises(ParseError):
        parse_element(d, "foo")


def test_type_mismatch():
    with pytest.raises(ValueError, match="type mismatch"):
        affine_identity(datum("A1")) * affine_identity(datum("A2"))


# --- lower intervals ---------------------------------------------------------


def interval_oracle(ball, x):
    """The minimal representatives below x: the ball filtered by bruhat_leq."""
    return [v for v in ball if bruhat_leq(v, x)]


# the balls of test_lattice_bfs_matches_coset_oracle
LOWER_INTERVAL_BALLS = [
    ("A1", 12), ("A2", 12), ("C2", 12), ("G2", 12),
    ("A3", 8), ("B3", 8), ("C3", 8), ("D4", 8), ("F4", 8), ("E6", 5),
]


@pytest.mark.parametrize("label,max_len", LOWER_INTERVAL_BALLS)
def test_lower_interval_matches_enumerate_oracle(label, max_len):
    d = datum(label)
    ball = list(enumerate_minreps(parse_type(label), max_len).flat())
    for x in ball:
        got = affine.lower_interval(x)
        elems = list(got.flat())
        expected = interval_oracle(ball, x)
        assert elems == expected
        assert [v.length() for v in elems] == [v.length() for v in expected]
        assert elems[-1] == x
        # the level sizes count the elements by length, read afresh and not stamped
        fresh = Counter(affine.AffineElem(d, v.trans, v.fin).length() for v in elems)
        assert got.level_sizes() == tuple(fresh[k] for k in range(x.length() + 1))
        # the levels read from the top are the elements longest first
        top_down = [v for level in reversed(got.by_length) for v in level]
        assert top_down == sorted(elems, key=lambda v: -v.length())
        # x s_i is not minimal; its coset minimum x is the top of its interval
        for i in range(1, d.rank + 1):
            y = x * generator(d, i)
            assert list(affine.lower_interval(y).flat()) == interval_oracle(ball, y) == elems


# the canonical words of by_length[-1] for each ball of LOWER_INTERVAL_BALLS,
# written out so that collecting this module runs no walk (a fault in the walk
# then fails tests, instead of stopping the whole module at collection);
# test_lower_interval_tops_match_walk checks them against the walk
LOWER_INTERVAL_TOPS = {
    "A1": ["1,0,1,0,1,0,1,0,1,0,1,0"],
    "A2": [
        "1,2,0,1,2,0,1,2,0,1,2,0", "1,2,0,1,0,2,0,1,0,2,1,0", "2,1,0,2,1,0,2,1,0,2,1,0",
        "0,1,0,2,1,0,2,1,0,2,1,0", "0,1,0,2,0,1,0,2,0,1,2,0", "0,2,0,1,2,0,1,2,0,1,2,0",
        "0,2,0,1,0,2,0,1,0,2,1,0",
    ],
    "C2": [
        "1,2,1,0,1,2,1,0,1,2,1,0", "2,1,0,2,1,0,2,1,0,2,1,0", "1,0,1,2,1,0,2,1,0,2,1,0",
        "0,2,1,0,1,2,1,0,1,2,1,0", "0,1,0,2,1,0,2,1,0,2,1,0",
    ],
    "G2": ["2,1,2,0,1,2,0,1,2,1,2,0", "0,1,2,0,1,2,0,1,2,1,2,0", "2,0,1,2,1,2,0,1,2,1,2,0"],
    "A3": [
        "1,2,3,0,1,2,3,0", "2,1,3,0,2,1,3,0", "1,2,1,0,3,2,1,0", "1,0,3,0,2,1,3,0", "3,2,1,0,3,2,1,0",
        "1,3,0,1,2,1,3,0", "0,1,0,2,3,2,1,0", "2,3,0,1,2,1,3,0", "0,3,0,1,2,1,3,0", "0,1,3,0,2,1,3,0",
    ],
    "B3": ["2,1,3,2,1,3,2,0", "3,2,0,1,2,3,2,0", "0,2,0,1,2,3,2,0", "0,1,3,2,1,3,2,0", "2,0,3,2,1,3,2,0"],
    "C3": ["1,2,1,0,3,2,1,0", "3,2,1,0,3,2,1,0", "1,0,1,2,3,2,1,0", "0,2,1,0,3,2,1,0", "0,1,0,2,3,2,1,0"],
    "D4": [
        "1,2,3,2,1,4,2,0", "1,2,4,2,1,3,2,0", "3,2,4,2,1,3,2,0", "2,0,1,2,3,4,2,0", "2,0,3,2,1,4,2,0",
        "2,0,4,2,1,3,2,0", "0,1,2,1,3,4,2,0", "0,2,3,2,1,4,2,0", "0,2,4,2,1,3,2,0",
    ],
    "F4": ["1,3,2,4,3,2,1,0", "2,3,2,4,3,2,1,0", "0,1,2,4,3,2,1,0"],
    "E6": ["1,3,4,2,0", "3,5,4,2,0", "6,5,4,2,0"],
}


@pytest.mark.parametrize("label,max_len", LOWER_INTERVAL_BALLS)
def test_lower_interval_tops_match_walk(label, max_len):
    tops = enumerate_minreps(parse_type(label), max_len).by_length[-1]
    assert [format_element(x) for x in tops] == ["word:" + w for w in LOWER_INTERVAL_TOPS[label]]


@pytest.mark.parametrize(
    "label,top",
    [(label, "word:" + w) for label, words in LOWER_INTERVAL_TOPS.items() for w in words]
    + [("A2", "t:-30,-30"), ("C3", "t:-4,-6,-4")],
)
def test_lower_interval_carries_coset_minima(label, top):
    # each point's w is replayed from the point it first stepped from, by the
    # left step s w, and its length is its level; both must be those of the
    # coset minimum built from scratch
    d = datum(label)
    x = parse_element(d, top)
    for v in affine.lower_interval(x).flat():
        assert v.fin.perm == min_rep(translation(d, v.trans)).fin.perm
        assert v.length() == affine.AffineElem(d, v.trans, v.fin).length()


def level_points(levels):
    """The points of each nonempty level of an interval walk."""
    return [set(level) for level in levels if level]


def numbers_game_step(rows, point, label):
    """The point moved at label: p[m] -= p[label] * A[label][m] over row label."""
    step = list(point)
    for m, e in rows[label]:
        step[m] -= point[label] * e
    return tuple(step)


def random_minrep_word(d, n, rng):
    """A reduced word of a random minimal representative of length n: n up-steps
    (p[l] > 0) from the origin, each at a label drawn among those that go up."""
    rows = _sparse_rows(d.affine_cartan)
    p = (1,) + (0,) * d.rank
    word = []
    for _ in range(n):
        l = rng.choice([l for l, c in enumerate(p) if c > 0])
        p = numbers_game_step(rows, p, l)
        word.append(l)
    return word[::-1]


# seeded minimal representatives per type, each walked as is and times a finite word
INTERVAL_SAMPLES = 6


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_interval_walk_matches_rescanning_oracle(lie_type):
    # stepping each point once per label reaches the points, at the lengths,
    # that stepping every point at every letter reaches; each link is an up-step
    # from a point one level down
    d = root_datum(lie_type)
    rows = _sparse_rows(d.affine_cartan)
    rng = random.Random(str(lie_type))
    elems = [translation(d, tuple(-m * c for c in d.highest_coroot)) for m in (1, 2)]
    for _ in range(INTERVAL_SAMPLES):
        word = random_minrep_word(d, rng.randrange(6, 30), rng)
        elems.append(from_word(d, word))
        elems.append(from_word(d, word + [rng.randrange(1, d.rank + 1) for _ in range(5)]))
    for x in elems:
        levels = affine.lower_interval(x)._levels
        assert level_points(levels) == level_points(rescanning_interval_levels(x))
        for below, level in zip(levels, levels[1:]):
            for point, (parent, label) in level.items():
                assert parent in below and parent[label] > 0
                assert numbers_game_step(rows, parent, label) == point


@pytest.mark.parametrize("label,text", [("A2", "t:-10,-10"), ("A4", "t:-4,-4,-4,-4")])
def test_schubert_poincare_matches_enumerate_oracle(label, text):
    from affschub.schubert import SchubertClass, schubert_poincare

    x = parse_element(datum(label), text)
    n = x.length()
    assert n == {"A2": 40, "A4": 32}[label]
    ball = enumerate_minreps(parse_type(label), n, bound=n).flat()
    counts = Counter(v.length() for v in interval_oracle(ball, x))
    poly = schubert_poincare(SchubertClass(x), bound=n)
    assert list(poly.coeffs) == [counts[k] for k in range(n + 1)]
