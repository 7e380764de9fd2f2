"""Schubert-basis cohomology of the Levi orbit quotient: its cells and its cup ladder.

The first Chern class of the normal bundle of the Levi orbit at the bottom
translation has weight +theta (the highest root); the sign is pinned by the
anchor computations in the tests (the G2 chain coefficients and the C family
"twice a generator"), so a convention flip fails loudly instead of being
renormalized away.

The Levi quotient's cell counts and chain ladder are computed together,
once per type (``_levi_ladder``, interned like ``root_datum``), so a
classification row, ``chain_coeffs`` and ``levi_poincare`` share one count
of the long roots by coroot height: no walk, no group element, and no
point of the quotient unless it is a chain.  Only on a chain (A1, C_n, G2)
are the rungs' pairing rows read, and each is checked against the sparse
columns of the Cartan matrix as the ladder is collected.
"""

from __future__ import annotations

import enum
import functools
from operator import mul, neg

from .cartan import LieType, RootDatum, _sparse_rows, root_datum
from .weyl import GradedPoly


class PDStatus(enum.Enum):
    """How close the Thom-space compactification comes to Poincare duality."""

    NOT_PALINDROMIC = "not-palindromic"
    RATIONAL_ONLY = "rational-only"
    INTEGRAL = "integral"


def levi_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes not adjacent to node 0 in the affine diagram.

    Equivalently the finite nodes pairing to zero with the highest coroot;
    they cut out the Levi orbit under the bottom translation.
    """
    datum = root_datum(lie_type)
    return frozenset(range(1, datum.rank + 1)) - datum.affine_neighbors()


def _long_coroot_heights(datum: RootDatum):
    """(k, ht(beta^v)) for each long beta = pos_roots[k]: max(d) * ht(beta^v) = sum_i beta_i d_i,
    d the symmetrizers, which holds for every root when every d_i is equal."""
    d = datum.symmetrizers
    heights = enumerate(map(sum, datum.pos_coroots))
    if (top := max(d)) == min(d):
        return heights
    return ((k, h) for (k, h), beta in zip(heights, datum.pos_roots) if top * h == sum(map(mul, beta, d)))


@functools.cache
def _levi_ladder(lie_type: LieType) -> tuple[GradedPoly, tuple[int, ...] | None]:
    """The Levi quotient's Poincare polynomial and its chain ladder, per type,
    counted off the long roots by coroot height and interned like :func:`root_datum`.

    Level k holds the long roots y(theta), y in W^J of length k.  An up-step
    (<alpha_i^v, gamma> > 0) lowers ht(gamma^v) of a long root gamma != +-alpha_i
    by 1, as |<alpha_i, gamma^v>| <= 1, and alpha_i -> -alpha_i takes it from 1 to -1.
    So with H = ht(theta^v), a long beta > 0 of coroot height h lies at level
    H - h and -beta at H + h - 1: the polynomial is up + up reversed, with
    up = (c_H, ..., c_1) and c_h the number of such beta.  On a chain (each
    c_h = 1), c1 * y_{k-1} = a_k y_k with y_k = s_i y_{k-1}, and the one Chevalley
    term beta = y_{k-1}^-1(alpha_i) gives a_k = <alpha_i^v, y_{k-1}(theta)>, the
    one positive entry of rung k-1's point p = (<alpha_i^v, gamma>)_i (a row of
    ``pairing_rows`` or its negative).  The levels must run over 0..2H-1, level 0
    must be theta alone, and each rung the last moved by its up-step
    (p[j] -= p[i] * A[j][i], over column i of A), else ArithmeticError.
    """
    datum = root_datum(lie_type)
    height, n = sum(datum.highest_coroot), len(datum.pos_roots)
    counts, last = [0] * (n + 1), [0] * (n + 1)  # no coroot height exceeds n
    for k, h in _long_coroot_heights(datum):
        counts[h] += 1
        last[h] = k  # on a chain, the one long root of coroot height h
    up = counts[height:0:-1]
    if 0 in up or any(counts[height + 1:]):
        levels = sorted({lv for h, c in enumerate(counts) if c for lv in (height - h, height + h - 1)})
        raise ArithmeticError(f"the long-root levels of {lie_type} are {levels}, not 0..{2 * height - 1}")
    if up[0] != 1 or last[height] != n - 1:  # theta is the last positive root
        raise ArithmeticError(f"level 0 of the long roots of {lie_type} is not theta alone")
    poly = GradedPoly.from_coeffs(up + up[::-1])
    if max(up) > 1:
        return poly, None
    rungs = [datum.pairing_rows[k] for k in last[height:0:-1]]
    rungs += [tuple(map(neg, p)) for p in reversed(rungs)]
    columns = _sparse_rows(tuple(zip(*datum.cartan)))
    for k, (p, q) in enumerate(zip(rungs, rungs[1:]), 1):
        a = max(p)
        step = list(p)
        for j, e in columns[p.index(a)]:
            step[j] -= a * e
        if sum(c > 0 for c in p) != 1 or q != tuple(step):
            raise ArithmeticError(f"rung {k} of the {lie_type} chain is not an up-step")
    return poly, tuple(map(max, rungs[:-1]))


def chain_coeffs(lie_type: LieType) -> tuple[int, ...] | None:
    """Cup coefficients a_k with c1 * y_{k-1} = a_k * y_k on a chain quotient.

    Returns None when the quotient of the Levi nodes is not a chain; then the
    per-degree basis is not unique and the ladder is meaningless.
    """
    return _levi_ladder(lie_type)[1]


def pd_status(lie_type: LieType, coeffs: tuple[int, ...] | None) -> PDStatus:
    """The duality status for the ladder ``coeffs = chain_coeffs(lie_type)``.

    Not palindromic unless the base quotient is a chain (``coeffs`` is not
    None); on a chain, duality holds integrally iff every cup coefficient is
    a unit, and rationally iff none vanishes.
    """
    if coeffs is None:
        return PDStatus.NOT_PALINDROMIC
    if all(abs(a) == 1 for a in coeffs):
        return PDStatus.INTEGRAL
    if all(a != 0 for a in coeffs):
        return PDStatus.RATIONAL_ONLY
    raise ArithmeticError(f"chain quotient of {lie_type} has a vanishing cup coefficient: {coeffs}")


def levi_poincare(lie_type: LieType) -> GradedPoly:
    """Cell counts of the Levi orbit quotient (the chain test's subject)."""
    return _levi_ladder(lie_type)[0]
