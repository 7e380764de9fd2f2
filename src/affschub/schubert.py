"""The star product on affine Schubert classes, segments, and factorization.

A Schubert class is indexed by a minimal coset representative; its complex
dimension is the length of the index.  The star product of two basis classes
is again a basis class when the product of indices is length-additive and
stays a minimal representative, and zero otherwise: if the length-additive
product leaves the representative set, the pushforward target has strictly
smaller dimension, which kills the class.  The two conditions are not
equivalent; see verify.star_reading_discrepancies.

The segment search reads no product.  It walks the right alcove vector q of
x = t_lam w, q[l] = the height of x(alpha_l) with delta at height K, read in
closed form and still the alcove vector of x^-1 (affine module docstring),
on which the right step x s_l moves q[m] -= q[l] * A[l][m], the left walk's
rule, as (x s_l)(alpha_m) = x(alpha_m - <alpha_l^v, alpha_m> alpha_l).  So
x seg^-1 is length-additive iff every letter of seg's reduced word, read
right to left, finds q[letter] < 0 when its move is made (``weyl._along``
with every letter required to move); the result is a minimal
representative iff q[1..rank] > 0 (no finite right descent), and it is the
identity iff it has length 0, where q must be the identity's vector
(``_strip``).  The star split strips each candidate nu from q of omega by the
same rule, and tests tau = omega nu^-1 <= sigma as tau^-1 <= sigma^-1: Bruhat
order's walk (affine) on the stripped q, along sigma's word reversed.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .cartan import LieType, Vec, root_datum
from .weyl import GradedPoly, _along
from .affine import (
    AffineElem,
    _check_identity,
    _right_alcove,
    affine_identity,
    bruhat_leq,
    check_enum_bound,
    from_word,
    is_min_rep,
    lower_interval,
    min_rep,
    reduced_word,
    seed_translation,
    translation,
)


class SchubertClass(namedtuple("SchubertClass", "elem")):
    """[X_w] for w a minimal coset representative; dimension = length of w."""

    __slots__ = ()

    def __new__(cls, elem: AffineElem) -> "SchubertClass":
        if not is_min_rep(elem):
            raise ValueError("Schubert classes are indexed by minimal coset representatives")
        return super().__new__(cls, elem)

    def dim(self) -> int:
        return self.elem.length()


def identity_class(lie_type: LieType) -> SchubertClass:
    return SchubertClass(affine_identity(root_datum(lie_type)))


def generator_class(lie_type: LieType) -> SchubertClass:
    """The class of the generating variety: indexed by t_{-theta^v}."""
    return SchubertClass(seed_translation(root_datum(lie_type)))


def star(tau: SchubertClass, nu: SchubertClass) -> SchubertClass | None:
    """Basis-level product; None encodes the zero class."""
    p = tau.elem * nu.elem
    if p.length() == tau.dim() + nu.dim() and is_min_rep(p):
        return SchubertClass._make((p,))  # is_min_rep(p) held: skip the class's own check
    return None


def segments(lie_type: LieType) -> list[SchubertClass]:
    """The nonidentity classes below the generating translation, by length.

    This is the lower interval of t_{-theta^v}; the tests check it against the
    W-orbit of s_0 and against {v * s_0 : v in W^J}, J the Levi nodes.
    """
    return [seg for seg, _ in _segments(lie_type)]


@functools.cache
def _segments(lie_type: LieType) -> tuple[tuple[SchubertClass, tuple[int, ...]], ...]:
    """The segments of one type, sorted by (length, lam), each with its reduced word reversed."""
    below = lower_interval(seed_translation(root_datum(lie_type))).by_length[1:]  # all but the identity
    return tuple((SchubertClass(x), tuple(reversed(reduced_word(x)))) for level in below for x in level)


def segment_factorizations(
    w: AffineElem, *, bound: int | None = None
) -> list[list[SchubertClass]]:
    """Every factorization of w into segments with representative prefixes.

    Exhaustive right-stripping search: a factorization is a tuple of segments
    whose product is w, with lengths adding up and every left partial product
    still a minimal representative.  Each partial product x is held as its
    right alcove vector q and its length n (module docstring).
    """
    datum = w.datum
    check_enum_bound(datum, "factorization length", w.length(), bound)
    q = _right_alcove(w)
    if min(q[1:]) <= 0:
        raise ValueError("only minimal coset representatives factor into segments")
    segs = _segments(datum.lie_type)
    rows = datum.affine_rows
    out = []
    # depth first on an explicit stack of (q, n, chain), where chain links the
    # segments stripped so far, leftmost at its head; segments are pushed in
    # reverse, so the factorizations come out ordered by their last factor,
    # then by the one before it, and so on
    stack = [(q, w.length(), None)]
    while stack:
        q, n, chain = stack.pop()
        if not n:
            _check_identity(datum, q)
            factors = []
            while chain is not None:
                seg, chain = chain
                factors.append(seg)
            out.append(factors)
            continue
        for seg, letters in reversed(segs):
            if len(letters) <= n and (y := _strip(q, rows, letters)) is not None:
                stack.append((y, n - len(letters), (seg, chain)))
    return out


def _strip(q: list[int], rows, letters) -> list[int] | None:
    """The right alcove vector of x seg^-1, given q of x and seg's reduced word reversed, or None
    unless x seg^-1 is length-additive and a minimal representative (module docstring)."""
    y = q.copy()
    if _along(y, rows, letters, True) is not None and min(y[1:]) > 0:
        return y
    return None


def segment_factorize(w: AffineElem, *, bound: int | None = None) -> list[SchubertClass]:
    """The unique segment factorization of w; ArithmeticError if uniqueness fails."""
    found = segment_factorizations(w, bound=bound)
    if len(found) != 1:
        raise ArithmeticError(f"expected exactly one segment factorization of {w!r}, found {len(found)}")
    return found[0]


def star_refactor_check(w: AffineElem) -> bool:
    """True iff folding star over the segment factorization recovers [X_w]."""
    return star_refolds(w, segment_factorize(w))


def star_refolds(w: AffineElem, factors: list[SchubertClass]) -> bool:
    """True iff folding star over ``factors``, left to right, gives [X_w].

    The fold starts from the identity class, so no factors give [X_e]; it
    stops at the first zero product.
    """
    acc = identity_class(w.datum.lie_type)
    for c in factors:
        acc = star(acc, c)
        if acc is None:
            return False
    return acc.elem == w


def star_decompose(omega: AffineElem, sigma: AffineElem, lam: Vec) -> tuple[SchubertClass, SchubertClass]:
    """Split [X_omega] as [X_tau] * [X_nu] with tau below sigma, nu below t_lam.

    Requires omega below the coset minimum of sigma * t_lam.
    """
    t = translation(omega.datum, lam)
    if not bruhat_leq(omega, min_rep(sigma * t)):
        raise ValueError("omega is not below the product class")
    levels = lower_interval(t).by_length[:omega.length() + 1]
    below = ((nu, reduced_word(nu)[::-1]) for level in reversed(levels) for nu in level)
    return _star_decompose(omega, sigma, below)


def _star_decompose(omega: AffineElem, sigma: AffineElem, below) -> tuple[SchubertClass, SchubertClass]:
    """star_decompose, given the classes nu under t_lam as (nu, nu's reduced word reversed).

    ``below`` runs longest first, by lam within a length; the first nu that
    strips from q of omega (``_strip``) and leaves tau = omega nu^-1 with
    tau^-1 <= sigma^-1 (module docstring) is the answer, and those longer
    than omega are skipped.  This is the one place that tries the candidates.
    """
    datum, n = omega.datum, omega.length()
    rows, q, word = datum.affine_rows, _right_alcove(omega), reduced_word(sigma)[::-1]
    for nu, letters in below:
        if len(letters) > n or (y := _strip(q, rows, letters)) is None:
            continue
        if _along(y, rows, word, False) == n - len(letters):
            _check_identity(datum, y)
            # both are minimal representatives: tau by the strip, nu as a class under t_lam
            return SchubertClass._make((omega * from_word(datum, letters),)), SchubertClass._make((nu,))
    raise ArithmeticError(f"no star decomposition found for {omega!r}")  # pragma: no cover


def schubert_poincare(cls: SchubertClass, *, bound: int | None = None) -> GradedPoly:
    """Cell counts of X_w: coefficient of q^k counts representatives of length k below w.

    The counts are the level sizes of lower_interval(w), so no element is built.
    """
    w = cls.elem
    check_enum_bound(w.datum, "Poincare polynomial length", w.length(), bound)
    return GradedPoly.from_coeffs(lower_interval(w).level_sizes())
