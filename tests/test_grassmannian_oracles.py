"""Closed-form oracles from the geometry of the affine Grassmannian.

For antidominant lam the Schubert variety of t_lam is the closure of the
G(O)-orbit of lam, the union of the orbits of the dominant nu <= -lam
(Lusztig 1983; Mirkovic-Vilonen, Ann. Math. 166, 2007).  The orbit of nu
holds the cells t_mu W for mu in the W-orbit of nu, so:

* Poincare polynomial: that of t_{-mu}, mu dominant, is the sum over the
  dominant nu <= mu of q^(<2 rho, nu> - N + N_nu) P_W(q) / P_{W_nu}(q), N and
  N_nu the numbers of positive roots of W and of the stabiliser W_nu of nu,
  and P_W Macdonald's height product (Math. Ann. 199, 1972);
* cell count: at q = 1 that sums to the sum of |W nu| over the dominant nu <= mu;
* closure order: for antidominant lam and mu, t_mu W <= t_lam W exactly
  when mu - lam has no negative coroot coordinate;
* orbits: for antidominant lam and lam', and mu in W lam', t_mu W <= t_lam W
  exactly when lam' - lam has no negative coordinate.

The dominant nu <= mu are reached from mu by subtracting positive coroots
while staying dominant (Stembridge, Adv. Math. 136, 1998).  Every side of
each check is read from coordinates, orbits and the engine's walks, never
from a table.
"""

import itertools
import random
from operator import mul, sub

import pytest

from affschub.affine import bruhat_leq, is_antidominant, min_rep, translation
from affschub.cartan import parse_type, root_datum
from affschub.schubert import SchubertClass, schubert_poincare
from affschub.verify import coweight_orbit
from oracles import TYPES_TO_RANK_8


def negate(vec):
    return tuple(-c for c in vec)


def dominant_below(d, mu):
    """The dominant nu <= mu, walked down from mu one positive coroot at a time, sorted."""
    seen = {mu}
    queue = [mu]
    for nu in queue:  # the loop reaches the points appended below, in order
        for coroot in d.pos_coroots:
            down = tuple(map(sub, nu, coroot))
            if down not in seen and is_antidominant(d, negate(down)):
                seen.add(down)
                queue.append(down)
    return sorted(seen)


def antidominant_below_two_theta(d):
    """The negatives of the dominant nu <= 2 theta^v."""
    return [negate(nu) for nu in dominant_below(d, tuple(2 * c for c in d.highest_coroot))]


def no_negative_coordinate(mu, lam):
    return min(map(sub, mu, lam)) >= 0


def test_dominant_below_examples():
    a2 = root_datum(parse_type("A2"))
    # below 2 theta^v = (2, 2): 3 omega_1^v = (2, 1), 3 omega_2^v = (1, 2), theta^v and 0
    assert dominant_below(a2, (2, 2)) == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert dominant_below(a2, (1, 1)) == [(0, 0), (1, 1)]
    assert dominant_below(a2, (0, 0)) == [(0, 0)]


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_cell_count_is_a_sum_of_orbit_sizes(lie_type):
    d = root_datum(lie_type)
    for m in (1, 2):
        mu = tuple(m * c for c in d.highest_coroot)
        t = translation(d, negate(mu))
        cells = sum(schubert_poincare(SchubertClass(t), bound=t.length()).coeffs)
        assert cells == sum(len(list(coweight_orbit(d, nu))) for nu in dominant_below(d, mu))


def height_product(heights):
    """prod_h (1 - q^(h + 1)) / (1 - q^h) over the heights of a system's positive
    roots: its Weyl group's Poincare polynomial, divided out exactly."""
    poly = [1]
    for h in heights:
        poly = [a - b for a, b in zip(poly + [0] * (h + 1), [0] * (h + 1) + poly)]
    for h in heights:  # g (1 - q^h) = f, coefficient by coefficient
        for k in range(h, len(poly)):
            poly[k] += poly[k - h]
    assert not any(poly[len(heights) + 1:])
    return poly[: len(heights) + 1]


def exact_quotient(num, den):
    """num / den for integer polynomials with den[0] = 1, checked to leave no remainder."""
    out = []
    rest = list(num)
    for k in range(len(num) - len(den) + 1):
        out.append(rest[k])
        for j, c in enumerate(den):
            rest[k + j] -= out[k] * c
    assert not any(rest)
    return out


def cartan_decomposition_poincare(d, mu):
    """The Poincare polynomial of t_{-mu}, mu dominant, as a sum over the G(O)-orbits below it."""
    p_w = height_product([sum(beta) for beta in d.pos_roots])
    out = []
    for nu in dominant_below(d, mu):
        pairs = [sum(map(mul, nu, row)) for row in d.pairing_rows]
        fixed = [sum(beta) for beta, c in zip(d.pos_roots, pairs) if c == 0]
        quotient = exact_quotient(p_w, height_product(fixed))
        shift = sum(pairs) - len(d.pos_roots) + len(fixed)
        out += [0] * (shift + len(quotient) - len(out))
        for k, c in enumerate(quotient, shift):
            out[k] += c
    return out


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_poincare_polynomial_is_the_orbit_sum(lie_type):
    d = root_datum(lie_type)
    for m in (1, 2, 3):
        mu = tuple(m * c for c in d.highest_coroot)
        expected = cartan_decomposition_poincare(d, mu)
        t = translation(d, negate(mu))
        assert list(schubert_poincare(SchubertClass(t), bound=t.length()).coeffs) == expected


# antidominant lam with coordinates in -box..0
BOX_TYPES = [("A2", 4), ("C2", 4), ("G2", 4), ("A3", 2), ("B3", 2), ("C3", 2), ("D4", 2), ("F4", 2)]


def box_points(d, box):
    return [lam for lam in itertools.product(range(-box, 1), repeat=d.rank) if is_antidominant(d, lam)]


def test_pair_counts():
    assert len(TYPES_TO_RANK_8) == 31
    assert sum(len(box_points(root_datum(parse_type(label)), box)) ** 2 for label, box in BOX_TYPES) == 353
    assert sum(len(antidominant_below_two_theta(root_datum(t))) ** 2 for t in TYPES_TO_RANK_8) == 876


def assert_closure_order(d, points):
    for lam, mu in itertools.product(points, repeat=2):
        assert bruhat_leq(translation(d, mu), translation(d, lam)) == no_negative_coordinate(mu, lam)


@pytest.mark.parametrize("label,box", BOX_TYPES)
def test_closure_order_on_boxes(label, box):
    d = root_datum(parse_type(label))
    assert_closure_order(d, box_points(d, box))


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_closure_order_below_two_theta(lie_type):
    d = root_datum(lie_type)
    assert_closure_order(d, antidominant_below_two_theta(d))


# orbit points per (lam, lam') pair above rank 4
ORBIT_SAMPLE = 8


@pytest.mark.parametrize("lie_type", TYPES_TO_RANK_8, ids=str)
def test_orbit_cells_below_antidominant_translations(lie_type):
    """Every orbit point through rank 4, a seeded sample of each orbit above it."""
    d = root_datum(lie_type)
    rng = random.Random(str(lie_type))
    points = antidominant_below_two_theta(d)
    for top, low in itertools.product(points, repeat=2):
        orbit = list(coweight_orbit(d, low))
        if d.rank > 4:
            orbit = rng.sample(orbit, min(ORBIT_SAMPLE, len(orbit)))
        expected = no_negative_coordinate(low, top)
        for mu in orbit:
            assert bruhat_leq(min_rep(translation(d, mu)), translation(d, top)) == expected
