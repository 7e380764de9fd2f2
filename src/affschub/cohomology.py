"""Schubert-basis cohomology of parabolic quotients via divisor multiplication.

Everything here lives on quotients of the finite group: classes are integer
combinations of minimal-representative basis elements, graded by length.
Only multiplication by a divisor class is implemented; that is all the chain
and Thom-space computations need.

The first Chern class of the normal bundle of the Levi orbit at the bottom
translation has weight +theta (the highest root); the sign is pinned by the
anchor computations in the tests (the G2 chain coefficients and the C family
"twice a generator"), so a convention flip fails loudly instead of being
renormalized away.

The Levi quotient's cell counts and chain ladder are computed together,
once per type (``_levi_ladder``, interned like ``root_datum``), so a
classification row, ``chain_coeffs`` and ``levi_poincare`` share one read
of the long roots by coroot height: no walk, no group element.  The
Chevalley-product half (``chevalley_divisor_mult``, ``c1_class``,
``CohomClass``) has no production caller: public API and the ladder's oracle.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
from operator import mul

from .cartan import LieType, RootDatum, Vec, pairing_row, root_datum
from .weyl import GradedPoly, WeylElem, identity, reflection


class PDStatus(enum.Enum):
    """How close the Thom-space compactification comes to Poincare duality."""

    NOT_PALINDROMIC = "not-palindromic"
    RATIONAL_ONLY = "rational-only"
    INTEGRAL = "integral"


class CohomClass(namedtuple("CohomClass", "lie_type nodes coeffs")):
    """Integer vector over the Schubert basis of one parabolic quotient:
    ``nodes`` is the parabolic subset I, ``coeffs`` sorted zero-free pairs."""

    __slots__ = ()

    @staticmethod
    def from_dict(lie_type: LieType, nodes, data: dict[WeylElem, int]) -> "CohomClass":
        items = tuple(
            sorted(
                ((w, c) for w, c in data.items() if c != 0),
                key=lambda wc: (wc[0].length(), wc[0].word()),
            )
        )
        return CohomClass(lie_type, frozenset(nodes), items)

    def is_zero(self) -> bool:
        return not self.coeffs

    def support_lengths(self) -> set[int]:
        return {w.length() for w, _ in self.coeffs}


def _in_quotient(w: WeylElem, nodes: frozenset[int]) -> bool:
    return not any(w.has_right_descent(label) for label in nodes)


def chevalley_divisor_mult(
    lie_type: LieType, nodes, mu: Vec, w: WeylElem
) -> CohomClass:
    """Product of the weight-mu divisor class with the basis class at w.

    For each positive root beta with w*s_beta still a minimal representative
    one step longer, the summand is <beta^v, mu> times that basis class.
    A root that w sends negative is skipped before any product is formed:
    then l(w s_beta) < l(w).
    """
    datum = root_datum(lie_type)
    nodeset = frozenset(nodes)
    if not _in_quotient(w, nodeset):
        raise ValueError("w is not a minimal representative of the chosen quotient")
    if len(mu) != datum.rank:
        raise ValueError("rank mismatch")
    big, row = len(datum.pos_roots), pairing_row(datum.cartan, mu)
    target = w.length() + 1
    out: dict[WeylElem, int] = {}
    for k, beta in enumerate(datum.pos_roots):
        if w.perm[k] >= big:
            continue
        ws = w * reflection(datum, beta)
        if ws.length() != target or not _in_quotient(ws, nodeset):
            continue
        coeff = sum(map(mul, datum.pos_coroots[k], row))
        if coeff:
            out[ws] = out.get(ws, 0) + coeff
    return CohomClass.from_dict(lie_type, nodeset, out)


def levi_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes not adjacent to node 0 in the affine diagram.

    Equivalently the finite nodes pairing to zero with the highest coroot;
    they cut out the Levi orbit under the bottom translation.
    """
    datum = root_datum(lie_type)
    return frozenset(range(1, datum.rank + 1)) - datum.affine_neighbors()


def c1_class(lie_type: LieType) -> CohomClass:
    """First Chern class of the orbit's normal line bundle: degree 1, weight +theta."""
    datum = root_datum(lie_type)
    nodes = levi_nodes(lie_type)
    return chevalley_divisor_mult(lie_type, nodes, datum.highest_root, identity(datum))


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
    for beta, coroot, row in zip(datum.pos_roots, datum.pos_coroots, datum.pairing_rows):
        h = sum(coroot)
        if top * h == sum(map(mul, beta, d)):
            levels.setdefault(height - h, []).append(row)
            levels.setdefault(height + h - 1, []).append(tuple(-c for c in row))
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
    and each rung the last moved by its up-step (p[j] -= p[i] * A[j][i]), else
    ArithmeticError.
    """
    datum = root_datum(lie_type)
    levels = _long_root_levels(datum)
    theta = datum.pairing_rows[-1]
    if levels[0] != [theta] or levels[-1] != [tuple(-c for c in theta)]:
        raise ArithmeticError(f"the long-root levels of {lie_type} do not run from theta to -theta")
    poly = GradedPoly.from_coeffs(map(len, levels))
    if any(len(level) != 1 for level in levels):
        return poly, None
    for k, ((p,), (q,)) in enumerate(zip(levels, levels[1:]), 1):
        i = p.index(max(p))
        if sum(c > 0 for c in p) != 1 or q != tuple(x - p[i] * row[i] for x, row in zip(p, datum.cartan)):
            raise ArithmeticError(f"rung {k} of the {lie_type} chain is not an up-step")
    return poly, tuple(max(p) for (p,) in levels[:-1])


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


def thom_pd_status(lie_type: LieType) -> PDStatus:
    """Classify the compactified orbit closure by its duality behavior."""
    return pd_status(lie_type, chain_coeffs(lie_type))


def levi_poincare(lie_type: LieType) -> GradedPoly:
    """Cell counts of the Levi orbit quotient (the chain test's subject)."""
    return _levi_ladder(lie_type)[0]
