"""Schubert-basis cohomology of the Levi orbit quotient: its cells and its cup ladder.

The first Chern class of the normal bundle of the Levi orbit at the bottom
translation has weight +theta (the highest root); the sign is pinned by the
anchor computations in the tests (the G2 chain coefficients and the C family
"twice a generator"), so a convention flip fails loudly instead of being
renormalized away.

The Levi quotient's cell counts and chain ladder are computed together,
once per type (``_levi_ladder``, interned like ``root_datum``), so a
classification row, ``chain_coeffs`` and ``levi_poincare`` share one read
of the long roots by coroot height: no walk, no group element.  On a chain
the ladder is collected in the same pass that checks each rung against
a column of the Cartan matrix, transposed once.
"""

from __future__ import annotations

import enum
import functools
from operator import mul, neg

from .cartan import LieType, RootDatum, Vec, root_datum
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


def _long_root_levels(datum: RootDatum) -> list[list[Vec]]:
    """The long roots gamma as (<alpha_i^v, gamma>)_i, level k holding y(theta), y in W^J of length k.

    For a long root gamma other than +-alpha_i, |<alpha_i, gamma^v>| <= 1, so an
    up-step (<alpha_i^v, gamma> > 0) lowers ht(gamma^v) by exactly 1, and
    alpha_i -> -alpha_i takes it from 1 to -1.  So with H = ht(theta^v), a long
    root beta > 0 lies at level H - ht(beta^v) and -beta at H + ht(beta^v) - 1.
    beta is long when max(d) * ht(beta^v) = sum_i beta_i d_i, d the symmetrizers.
    Levels that do not run over 0..2H-1 without a gap raise ArithmeticError.
    """
    d = datum.symmetrizers
    top, height = max(d), sum(datum.highest_coroot)
    levels: dict[int, list[Vec]] = {}
    for beta, h, row in zip(datum.pos_roots, map(sum, datum.pos_coroots), datum.pairing_rows):
        if top * h == sum(map(mul, beta, d)):
            levels.setdefault(height - h, []).append(row)
            levels.setdefault(height + h - 1, []).append(tuple(map(neg, row)))
    if sorted(levels) != list(range(2 * height)):
        raise ArithmeticError(f"the long-root levels of {datum.lie_type} are {sorted(levels)}, not 0..{2 * height - 1}")
    return [levels[k] for k in range(2 * height)]


@functools.cache
def _levi_ladder(lie_type: LieType) -> tuple[GradedPoly, tuple[int, ...] | None]:
    """The Levi quotient's Poincare polynomial and its chain ladder, per type,
    read off :func:`_long_root_levels` and interned like :func:`root_datum`.

    On a chain, c1 * y_{k-1} is a_k y_k with a_k = <alpha_i^v, y_{k-1}(theta)>,
    where y_k = s_i y_{k-1}: the one Chevalley term, beta = y_{k-1}^-1(alpha_i).
    As s_i is the one up-step from rung k-1, a_k is the one positive entry of
    that rung's point.  Level 0 must be theta alone, the last level -theta alone,
    and each rung the last moved by its up-step (p[j] -= p[i] * A[j][i], over
    column i of A), else ArithmeticError.
    """
    datum = root_datum(lie_type)
    levels = _long_root_levels(datum)
    theta = datum.pairing_rows[-1]
    if levels[0] != [theta] or levels[-1] != [tuple(map(neg, theta))]:
        raise ArithmeticError(f"the long-root levels of {lie_type} do not run from theta to -theta")
    poly = GradedPoly.from_coeffs(map(len, levels))
    if any(len(level) != 1 for level in levels):
        return poly, None
    columns = tuple(zip(*datum.cartan))
    ladder = []
    for k, ((p,), (q,)) in enumerate(zip(levels, levels[1:]), 1):
        a = max(p)
        if sum(c > 0 for c in p) != 1 or q != tuple(x - a * e for x, e in zip(p, columns[p.index(a)])):
            raise ArithmeticError(f"rung {k} of the {lie_type} chain is not an up-step")
        ladder.append(a)
    return poly, tuple(ladder)


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
    raise ArithmeticError(
        f"chain quotient of {lie_type} has a vanishing cup coefficient: {coeffs}"
    )


def levi_poincare(lie_type: LieType) -> GradedPoly:
    """Cell counts of the Levi orbit quotient (the chain test's subject)."""
    return _levi_ladder(lie_type)[0]
