"""Independent routes the tests check the engine's closed forms against.

None of these is on a path the ``affschub`` commands run.
"""

from operator import mul

from affschub.affine import (
    AffineElem,
    _shift,
    affine_identity,
    bruhat_leq,
    is_min_rep,
    lower_interval,
    min_rep,
    reduced_word,
    translation,
)
from affschub.cartan import LieType, Matrix, Vec, _sparse_rows, root_datum
from affschub.classify import all_canonical_types
from affschub.schubert import SchubertClass, segments
from affschub.weyl import GradedPoly, WeylElem, _climb, _reflection, identity

# every canonical type through rank 8
TYPES_TO_RANK_8 = all_canonical_types(8)


def weyl_inverse(w: WeylElem) -> WeylElem:
    """w^-1, the inverse permutation of w's."""
    inv = [0] * len(w.perm)
    for k, j in enumerate(w.perm):
        inv[j] = k
    return WeylElem(w.datum, tuple(inv))


def inverse(x: AffineElem) -> AffineElem:
    """(t_lam w)^-1 = t_{-w^-1(lam)} w^-1."""
    u = weyl_inverse(x.fin)
    return AffineElem(x.datum, tuple(-c for c in u.apply_coroot(x.trans)), u)


def apply_root(w: WeylElem, vec: tuple) -> tuple:
    """w acting on a vector in root coordinates: w(alpha_i) = +-pos_roots[j] for the image j of alpha_i."""
    datum = w.datum
    big = len(datum.pos_roots)
    out = [0] * datum.rank
    for c, k in zip(vec, datum.simple_index):
        j = w.perm[k]
        sign = 1 if j < big else -1
        for i, b in enumerate(datum.pos_roots[j % big]):
            out[i] += sign * c * b
    return tuple(out)


def has_right_descent(w: WeylElem, label: int) -> bool:
    """True iff l(w s) < l(w), i.e. w sends the simple root at label negative."""
    return w.perm[w.datum.simple_index[label - 1]] >= len(w.datum.pos_roots)


def right_descent(x: AffineElem, label: int) -> bool:
    """l(x s) < l(x) for the finite node label, per label in closed form.

    x(alpha) = w(alpha) - <lam, w alpha> delta for x = t_lam w; with
    w(alpha) = +-gamma, gamma > 0, that is negative iff <lam, gamma> > 0 when
    +, and <lam, gamma> <= 0 when -.
    """
    datum = x.datum
    big = len(datum.pos_roots)
    j = x.fin.perm[datum.simple_index[label - 1]]
    if j < big:
        return sum(map(mul, x.trans, datum.pairing_rows[j])) > 0
    return sum(map(mul, x.trans, datum.pairing_rows[j - big])) <= 0


def first_right_descent(x: AffineElem) -> int:
    """The smallest finite label with a right descent (``right_descent``), or 0 if there is none."""
    return next((l for l in range(1, x.datum.rank + 1) if right_descent(x, l)), 0)


def stripping_min_rep(x: AffineElem) -> AffineElem:
    """The coset minimum of x W, rescanning for the smallest finite right descent after every strip."""
    shift = _shift(x.datum)
    while label := first_right_descent(x):
        x = AffineElem(x.datum, x.trans, WeylElem(x.datum, shift[label](x.fin.perm)))
    return x


def pairing_row(cartan: Matrix, alpha: Vec) -> Vec:
    """The pairing row A alpha of alpha in root coordinates, <lam, alpha> = sum_i lam[i] * row[i],
    straight off the Cartan matrix: the oracle of the rows the root closure steps."""
    return tuple(sum(map(mul, r, alpha)) for r in cartan)


def double_loop_pairing(datum, lam, alpha):
    """<lam, alpha> = sum_ij lam[i] A[i][j] alpha[j], straight off the Cartan matrix."""
    n, a = datum.rank, datum.cartan
    return sum(lam[i] * a[i][j] * alpha[j] for i in range(n) for j in range(n))


def diagram_automorphisms(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """All permutations of the affine diagram preserving the labeled edges.

    A permutation p of the node labels 0..rank is an automorphism iff the
    affine Cartan matrix satisfies A~[p(i)][p(j)] = A~[i][j] for all i, j;
    found by exhaustive backtracking.
    """
    aff = root_datum(lie_type).affine_cartan
    m = len(aff)
    found: list[tuple[int, ...]] = []
    image: list[int] = []
    used = [False] * m

    def extend(k: int) -> None:
        if k == m:
            found.append(tuple(image))
            return
        for cand in range(m):
            if used[cand]:
                continue
            if all(
                aff[cand][image[j]] == aff[k][j] and aff[image[j]][cand] == aff[j][k]
                for j in range(k)
            ):
                used[cand] = True
                image.append(cand)
                extend(k + 1)
                image.pop()
                used[cand] = False

    extend(0)
    return tuple(sorted(found))


def min_coset_reps(lie_type: LieType, nodes) -> list[list[WeylElem]]:
    """Minimal-length representatives of W/W_I, graded by length.

    I is a set of finite node labels.  Enumeration runs a level-synchronous
    BFS (``_climb``) on the orbit of a coweight whose stabilizer is exactly
    W_I (tracked by its integer tuple of pairings against the simple roots),
    so the group is never listed.  Only up-steps are taken, so no level
    reaches an earlier one.  Level k holds exactly the representatives of
    length k, each with no right descent in I, built as s_l times the
    parent link's element and sorted by their orbit point.
    """
    datum = root_datum(lie_type)
    nodeset = frozenset(nodes)
    bad = nodeset - set(range(1, datum.rank + 1))
    if bad:
        raise ValueError(f"not finite node labels: {sorted(bad)}")
    simple = tuple(_reflection(datum, k) for k in datum.simple_index)
    labels = range(datum.rank)
    base = tuple(0 if (i + 1) in nodeset else 1 for i in labels)
    frontier = {base: identity(datum)}
    levels: list[list[WeylElem]] = []
    while frontier:
        levels.append([frontier[point] for point in sorted(frontier)])
        up: dict[Vec, tuple] = {}
        _climb(_sparse_rows(datum.cartan), frontier, labels, up)
        frontier = {point: simple[label] * frontier[parent] for point, (parent, label) in up.items()}
    return levels


def product_segment_factorizations(w) -> list[list]:
    """Every segment factorization of w, found with group products and lengths.

    The engine's search, in its order, on elements: depth first, strip a
    segment seg from the right of x as x * seg^-1 when the length drops by
    dim seg and the result is still a minimal representative.
    """
    segs = [(seg, inverse(seg.elem)) for seg in segments(w.datum.lie_type)]
    ident = affine_identity(w.datum)
    out = []
    stack = [(w, [])]
    while stack:
        x, factors = stack.pop()
        if x == ident:
            out.append(factors)
            continue
        for seg, inv in reversed(segs):
            y = x * inv
            if y.length() == x.length() - seg.dim() and is_min_rep(y):
                stack.append((y, [seg] + factors))
    return out


def product_star_decompose(omega: AffineElem, sigma: AffineElem, lam: Vec) -> tuple:
    """star_decompose on group elements, in the engine's order.

    Tries the representatives nu under t_lam longest first, by lam within a
    length, and returns the first (tau, nu) with tau = omega * nu^-1 one
    l(nu) shorter than omega, a minimal representative, and below sigma.
    """
    t = translation(omega.datum, lam)
    if not bruhat_leq(omega, min_rep(sigma * t)):
        raise ValueError("omega is not below the product class")
    n = omega.length()
    for level in reversed(lower_interval(t).by_length[:n + 1]):
        for nu in level:
            tau = omega * inverse(nu)
            if tau.length() == n - nu.length() and is_min_rep(tau) and bruhat_leq(tau, sigma):
                return SchubertClass(tau), SchubertClass(nu)
    raise ArithmeticError(f"no star decomposition found for {omega!r}")


def rescanning_interval_levels(x: AffineElem) -> list[dict]:
    """The points of lower_interval(x) by length, as point -> (parent point, label).

    Reads a reduced word of x right to left from the origin, and steps every
    point held, level by level, at every letter: l(x) |interval| steps.
    """
    rows = _sparse_rows(x.datum.affine_cartan)
    levels = [{(1,) + (0,) * x.datum.rank: None}]
    for label in reversed(reduced_word(x)):
        levels.append({})
        # a point this letter adds steps back down under it, so it adds nothing more
        for level, up in zip(levels, levels[1:]):
            _climb(rows, level, (label,), up)
    return levels


def quotient_poincare(lie_type: LieType, nodes) -> GradedPoly:
    """Poincare polynomial of W^I: coefficient of q^k counts length-k reps."""
    return GradedPoly.from_coeffs(len(level) for level in min_coset_reps(lie_type, nodes))


def long_root_levels(datum) -> list[list[Vec]]:
    """The long roots gamma as (<alpha_i^v, gamma>)_i, level k holding y(theta), y in W^J of length k.

    Collects every long root's pairing row, beta > 0 at level H - ht(beta^v)
    and -beta at H + ht(beta^v) - 1 with H = ht(theta^v), testing each root
    for length as max(d) * ht(beta^v) = sum_i beta_i d_i, d the symmetrizers.
    Levels that do not run over 0..2H-1 without a gap raise ArithmeticError.
    """
    d = datum.symmetrizers
    top, height = max(d), sum(datum.highest_coroot)
    levels: dict[int, list[Vec]] = {}
    for beta, h, row in zip(datum.pos_roots, map(sum, datum.pos_coroots), datum.pairing_rows):
        if top * h == sum(map(mul, beta, d)):
            levels.setdefault(height - h, []).append(row)
            levels.setdefault(height + h - 1, []).append(tuple(-c for c in row))
    if sorted(levels) != list(range(2 * height)):
        raise ArithmeticError(f"the long-root levels of {datum.lie_type} are {sorted(levels)}, not 0..{2 * height - 1}")
    return [levels[k] for k in range(2 * height)]
