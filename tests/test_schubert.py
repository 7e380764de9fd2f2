"""Star product, segments, factorization, and the generating-variety checks."""

import itertools

import pytest

from affschub import schubert

from affschub.cartan import parse_type, root_datum
from affschub import affine
from affschub.classify import all_canonical_types
from affschub.affine import (
    bruhat_leq,
    embed_finite,
    enumerate_minreps,
    format_element,
    from_word,
    generator,
    is_antidominant,
    is_min_rep,
    min_rep,
    seed_translation,
    translation,
)
from affschub.cohomology import levi_nodes
from affschub.schubert import (
    SchubertClass,
    generator_class,
    identity_class,
    schubert_poincare,
    segment_factorizations,
    segment_factorize,
    segments,
    star,
    star_decompose,
    star_refactor_check,
    star_refolds,
)
from affschub.verify import check_generator_powers, star_reading_discrepancies, suite_decompose
from oracles import (
    inverse,
    min_coset_reps,
    product_segment_factorizations,
    product_star_decompose,
    quotient_poincare,
)


def datum(label):
    return root_datum(parse_type(label))


def cls(label, word):
    return SchubertClass(from_word(datum(label), word))


# --- star --------------------------------------------------------------------


def test_identity_is_neutral():
    one = identity_class(parse_type("C2"))
    nu = cls("C2", [1, 0])
    assert star(one, nu) == nu
    assert star(nu, one) == nu


def test_s0_squared_is_zero():
    for label in ["A1", "A2", "G2"]:
        c = cls(label, [0])
        assert star(c, c) is None


def test_a1_star_example():
    got = star(cls("A1", [0]), cls("A1", [1, 0]))
    assert got is not None
    assert got.elem == from_word(datum("A1"), [0, 1, 0])


def test_nonzero_star_builds_one_right_alcove_vector(monkeypatch):
    # is_min_rep(p) reads the product's right alcove vector once; the class is
    # then built without reading it again
    g = generator_class(parse_type("A2"))
    builds = []
    real = affine._right_alcove
    monkeypatch.setattr(affine, "_right_alcove", lambda x: builds.append(x) or real(x))
    got = star(g, g)
    assert got is not None and len(builds) == 1 and builds[0] == got.elem


def test_star_dimension_law():
    for label in ["A2", "C2"]:
        elems = [SchubertClass(x) for x in enumerate_minreps(parse_type(label), 5).flat()]
        for a, b in itertools.product(elems, repeat=2):
            r = star(a, b)
            if r is not None:
                assert r.dim() == a.dim() + b.dim()
                assert is_min_rep(r.elem)


def test_schubert_class_requires_min_rep():
    with pytest.raises(ValueError, match="minimal coset"):
        SchubertClass(from_word(datum("A1"), [1]))


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_star_associative_when_intermediates_survive(label):
    elems = [SchubertClass(x) for x in enumerate_minreps(parse_type(label), 8).flat()]
    for a, b, c in itertools.product(elems, repeat=3):
        if a.dim() + b.dim() + c.dim() > 8:
            continue
        ab, bc = star(a, b), star(b, c)
        if ab is None or bc is None:
            continue
        assert star(ab, c) == star(a, bc)


def test_star_zero_absorption_counterexample_exists():
    # The unrestricted associativity statement fails: one association order is
    # killed by the dimension-forced zero while the other survives.  This is
    # the a = s0, b = s1s0, c = s2s1s0 phenomenon in affine A2.
    a, b, c = cls("A2", [0]), cls("A2", [1, 0]), cls("A2", [2, 1, 0])
    assert star(a, b) is None  # length-additive product leaves the min reps
    bc = star(b, c)
    assert bc is not None
    assert star(a, bc) is not None


def test_star_noncommutative_witness():
    found = False
    elems = [SchubertClass(x) for x in enumerate_minreps(parse_type("A2"), 5).flat()]
    for a, b in itertools.product(elems, repeat=2):
        if (star(a, b) is None) != (star(b, a) is None):
            found = True
            break
    assert found


@pytest.mark.parametrize("lt", all_canonical_types(8), ids=str)
def test_star_witness_found_by_depth_14(lt):
    from affschub.verify import STAR_MAX_LEN, star_witness

    elems = [SchubertClass(x) for x in enumerate_minreps(lt, STAR_MAX_LEN, bound=STAR_MAX_LEN).flat()]
    (a, b), depth = star_witness(lt, elems)
    assert (star(a, b) is None) != (star(b, a) is None)
    if str(lt) == "E8":
        # nothing through total length STAR_MAX_LEN (10): the deeper scan names its depth
        assert depth == a.dim() + b.dim() == 14
        assert (format_element(a.elem), format_element(b.elem)) == (
            "word:0", "word:8,7,6,5,4,2,3,4,5,6,7,8,0"
        )
    else:
        assert depth is None and a.dim() + b.dim() <= STAR_MAX_LEN


def test_star_fold_empty_is_identity():
    assert star_refolds(identity_class(parse_type("G2")).elem, [])


def test_star_refolds_rejects_a_zero_or_another_class():
    s0 = cls("A1", [0])
    assert not star_refolds(s0.elem, [s0, s0])  # s0 * s0 is the zero class
    assert not star_refolds(s0.elem, [])  # the empty fold is [X_e]
    assert star_refolds(cls("A1", [1, 0]).elem, [cls("A1", [1, 0])])


# --- segments ----------------------------------------------------------------


def test_a1_segments():
    segs = segments(parse_type("A1"))
    assert [format_element(s.elem) for s in segs] == ["word:0", "word:1,0"]


def test_g2_segments_lengths():
    segs = segments(parse_type("G2"))
    assert [s.dim() for s in segs] == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "C2", "C3", "G2", "B3"])
def test_segment_count_is_levi_cell_count(label):
    lt = parse_type(label)
    assert len(segments(lt)) == sum(quotient_poincare(lt, levi_nodes(lt)).coeffs)


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2", "A3", "B3"])
def test_segment_characterizations_agree(label):
    lt = parse_type(label)
    d = datum(label)
    constructed = {s.elem for s in segments(lt)}
    seed = seed_translation(d)
    interval = {
        x
        for x in enumerate_minreps(lt, seed.length()).flat()
        if x.length() > 0 and bruhat_leq(x, seed)
    }
    orbit = {
        min_rep(embed_finite(w) * generator(d, 0))
        for level in min_coset_reps(lt, ())
        for w in level
    }
    orbit.discard(affine.affine_identity(d))
    # {v * s_0 : v in W^J}, J the finite nodes off the affine node's neighbors
    s0 = generator(d, 0)
    coset = {embed_finite(v) * s0 for level in min_coset_reps(lt, levi_nodes(lt)) for v in level}
    assert constructed == interval == orbit == coset


# every type through rank 5, and E6 (the W of E8 is too large to walk)
LEVI_ORBIT_TYPES = all_canonical_types(5) + [parse_type("E6")]


@pytest.mark.parametrize("lt", LEVI_ORBIT_TYPES, ids=str)
def test_levi_quotient_orbit_matches_w_orbit(lt):
    # min_rep(v s_0) depends only on the coset v W_J, J the Levi nodes
    d = root_datum(lt)
    s0 = generator(d, 0)

    def orbit(nodes):
        return {min_rep(embed_finite(v) * s0) for level in min_coset_reps(lt, nodes) for v in level}

    assert orbit(levi_nodes(lt)) == orbit(())


def test_top_segment_is_seed_translation():
    for label in ["A1", "A2", "C2", "G2"]:
        segs = segments(parse_type(label))
        assert segs[-1].elem == seed_translation(datum(label))


# --- factorization -----------------------------------------------------------


def test_single_segment_factors_as_itself():
    for seg in segments(parse_type("C2")):
        assert segment_factorize(seg.elem) == [seg]


def test_a1_example_factorization():
    x = from_word(datum("A1"), [0, 1, 0])
    factors = segment_factorize(x)
    assert [format_element(s.elem) for s in factors] == ["word:0", "word:1,0"]


def test_identity_factors_empty():
    assert segment_factorize(affine.affine_identity(datum("A2"))) == []


def test_factorization_order_matches_recursive_oracle(monkeypatch):
    # with every segment listed twice (as distinct objects) an element of k
    # factors has 2^k factorizations, so the order of the results shows
    lt = parse_type("A2")
    segs = schubert._segments(lt)
    doubled = tuple((SchubertClass(s.elem), letters) for s, letters in segs) + segs
    tag = {id(s): k for k, (s, _) in enumerate(doubled)}

    ident = affine.affine_identity(datum("A2"))

    def oracle(x):  # the recursive search the explicit stack replaced
        if x == ident:
            return [[]]
        out = []
        for seg, _ in doubled:
            y = x * inverse(seg.elem)
            if seg.dim() <= x.length() and y.length() == x.length() - seg.dim() and is_min_rep(y):
                out += [prefix + [seg] for prefix in oracle(y)]
        return out

    monkeypatch.setattr(schubert, "_segments", lambda _: doubled)
    for x in enumerate_minreps(lt, 8).flat():
        found = segment_factorizations(x)
        expected = oracle(x)
        assert len(found) == 2 ** len(expected[0])
        assert [[tag[id(s)] for s in f] for f in found] == [[tag[id(s)] for s in f] for f in expected]


@pytest.mark.parametrize(
    "label,depth",
    [("A1", 10), ("A2", 10), ("C2", 10), ("G2", 10), ("A3", 7), ("B3", 7), ("C3", 7), ("D4", 6), ("F4", 6)],
)
def test_factorizations_match_the_product_search(label, depth):
    # the search on right alcove vectors against the same search on group elements
    for x in enumerate_minreps(parse_type(label), depth).flat():
        assert segment_factorizations(x) == product_segment_factorizations(x)


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_factorization_unique_and_star_refactors(label):
    lt = parse_type(label)
    for x in enumerate_minreps(lt, 8).flat():
        found = segment_factorizations(x)
        assert len(found) == 1, format_element(x)
        factors = found[0]
        assert sum(f.dim() for f in factors) == x.length()
        prod = affine.affine_identity(datum(label))
        for f in factors:
            prod = prod * f.elem
            assert is_min_rep(prod)  # every left partial product stays minimal
        assert prod == x
        assert star_refactor_check(x)


def test_factorize_rejects_non_min_rep():
    with pytest.raises(ValueError, match="minimal coset"):
        segment_factorize(from_word(datum("A1"), [1]))


# --- star decomposition ------------------------------------------------------


def test_star_decompose_trivial_cases():
    d = datum("A2")
    lam = tuple(-c for c in d.highest_coroot)
    sigma = from_word(d, [1, 0])
    top = min_rep(sigma * translation(d, lam))
    tau, nu = star_decompose(top, sigma, lam)
    assert star(tau, nu).elem == top
    ident = affine.affine_identity(d)
    tau, nu = star_decompose(ident, sigma, lam)
    assert tau.elem == nu.elem == ident


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_star_decompose_sweep(label):
    d = datum(label)
    lam = tuple(-c for c in d.highest_coroot)
    t = translation(d, lam)
    for sigma in enumerate_minreps(parse_type(label), 3).flat():
        top = min_rep(sigma * t)
        for omega in enumerate_minreps(parse_type(label), top.length()).flat():
            if not bruhat_leq(omega, top):
                continue
            tau, nu = star_decompose(omega, sigma, lam)
            assert bruhat_leq(tau.elem, sigma)
            assert bruhat_leq(nu.elem, t)
            got = star(tau, nu)
            assert got is not None and got.elem == omega


# the split by strips against the split by products and inverses, class by
# class under sigma * t_{-theta^v} for every sigma of length <= 3
@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "C4", "D4", "F4", "G2"])
def test_star_decompose_matches_the_element_oracle(label):
    d = datum(label)
    lam = tuple(-c for c in d.highest_coroot)
    t = translation(d, lam)
    for sigma in enumerate_minreps(parse_type(label), 3).flat():
        for omega in affine.lower_interval(min_rep(sigma * t)).flat():
            assert star_decompose(omega, sigma, lam) == product_star_decompose(omega, sigma, lam)


# the same off the seed translation: every antidominant lam other than 0 and
# -theta^v in the box [-m, 0]^rank, and every sigma through the length given,
# whose top min_rep(sigma * t_lam) is at most 14 long: (type, m, l(sigma), splits)
OFF_SEED = [
    ("A1", 3, 3, 60), ("A2", 2, 3, 363), ("C2", 2, 3, 170), ("G2", 4, 3, 146),
    ("A3", 2, 2, 776), ("B3", 2, 2, 81), ("C3", 2, 2, 192), ("D4", 2, 1, 255),
]


@pytest.mark.parametrize("label,m,sigma_len,count", OFF_SEED, ids=[c[0] for c in OFF_SEED])
def test_star_decompose_off_the_seed_matches_the_element_oracle(label, m, sigma_len, count):
    d = datum(label)
    seed = tuple(-c for c in d.highest_coroot)
    splits = 0
    for lam in itertools.product(range(-m, 1), repeat=d.rank):
        if not any(lam) or lam == seed or not is_antidominant(d, lam):
            continue
        t = translation(d, lam)
        for sigma in enumerate_minreps(parse_type(label), sigma_len).flat():
            top = min_rep(sigma * t)
            if top.length() > 14:
                continue
            for omega in affine.lower_interval(top).flat():
                assert star_decompose(omega, sigma, lam) == product_star_decompose(omega, sigma, lam)
                splits += 1
    assert splits == count


def test_decompose_suite_splits_as_star_decompose(monkeypatch):
    # the suite hands its splits the classes under t_{-theta^v} in star_decompose's order
    d = datum("B3")
    lam = tuple(-c for c in d.highest_coroot)
    seen = []
    real = schubert._star_decompose

    def recording(omega, sigma, below):
        seen.append((omega, sigma, real(omega, sigma, below)))
        return seen[-1][2]

    monkeypatch.setattr(schubert, "_star_decompose", recording)
    assert all(r.passed for r in suite_decompose(parse_type("B3"), bound=11))
    monkeypatch.undo()
    assert len(seen) == 116
    for omega, sigma, split in seen:
        assert split == star_decompose(omega, sigma, lam)


def test_star_decompose_maximizes_nu():
    d = datum("A2")
    lam = tuple(-c for c in d.highest_coroot)
    sigma = from_word(d, [0])
    top = min_rep(sigma * translation(d, lam))
    tau, nu = star_decompose(top, sigma, lam)
    # the top class itself splits with nu the whole translation
    assert nu.elem == translation(d, lam)


def test_star_decompose_rejects_bad_omega():
    d = datum("A2")
    lam = tuple(-c for c in d.highest_coroot)
    far = translation(d, tuple(3 * c for c in lam))
    with pytest.raises(ValueError, match="not below"):
        star_decompose(far, from_word(d, [0]), lam)


# --- Poincare polynomials ----------------------------------------------------


def test_seed_poincare_a1():
    poly = schubert_poincare(generator_class(parse_type("A1")))
    assert list(poly.coeffs) == [1, 1, 1]
    assert poly.is_palindromic()


def test_seed_poincare_a3_not_palindromic():
    poly = schubert_poincare(generator_class(parse_type("A3")))
    assert not poly.is_palindromic()


def test_s0_poincare():
    for label in ["A1", "C2", "G2"]:
        poly = schubert_poincare(SchubertClass(generator(datum(label), 0)))
        assert list(poly.coeffs) == [1, 1]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "C2", "C3", "G2", "B3"])
def test_seed_poincare_is_shifted_levi_quotient(label):
    # Thom-space cell structure: basepoint plus base cells shifted one up
    lt = parse_type(label)
    poly = schubert_poincare(generator_class(lt))
    base = quotient_poincare(lt, levi_nodes(lt))
    assert list(poly.coeffs) == [1] + list(base.coeffs)


# --- generating variety powers -----------------------------------------------


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2"])
def test_generator_powers(label):
    d = datum(label)
    base_len = seed_translation(d).length()
    for step in check_generator_powers(parse_type(label), 3):
        assert step.nonzero
        assert step.index_is_expected_translation
        assert step.length == step.expected_length == step.n * base_len


def test_power_indices_are_pure_translations():
    lt = parse_type("C2")
    d = datum("C2")
    acc = identity_class(lt)
    for n in range(1, 4):
        acc = star(acc, generator_class(lt))
        assert acc.elem == translation(d, tuple(-n * c for c in d.highest_coroot))


# --- reading discrepancies ---------------------------------------------------


def test_reading_discrepancies_exist_and_are_genuine():
    pairs = star_reading_discrepancies(parse_type("A2"), 6)
    assert pairs
    for tau, nu in pairs:
        p = tau * nu
        assert p.length() == tau.length() + nu.length()
        assert not is_min_rep(p)
        assert star(SchubertClass(tau), SchubertClass(nu)) is None
