"""Finite Weyl group elements, the numbers-game walks, and graded cell counts.

An element is stored as the permutation it induces on the root system, one
uniform representation across every type.  Root index ``k < N`` stands for
``pos_roots[k]`` and ``k + N`` for its negative, where N is the number of
positive roots (the numbering of ``RootDatum.index``).  A product is a
composition of permutations, the length is the number of positive indices
sent to negative ones, and a right descent at node i is one lookup: whether
the image of alpha_i, root index ``RootDatum.simple_index[i - 1]``, is
negative.  No inverse is formed: where one is read, as w^-1(alpha) in an
alcove vector, it is looked up through ``perm.index`` (affine).  The action
on coroot (or root) coordinates is read off the images of the simple roots.

A reflection's permutation is built from the formula, once per root and
datum on first use: ``s_beta(gamma) = gamma - <beta^v, gamma> beta``, where
``<beta^v, gamma>`` is beta's coroot paired with gamma's pairing row, the
image is looked up in ``RootDatum.index``, and a negative root follows its
positive one by +-N (Humphreys, GTM 9, 9.1).

The engine has three numbers-game walks on a Cartan matrix (Bjorner-Brenti,
GTM 231, 4.3), down, up and along a word, all here; a vector p holds a
point's pairings with the simple roots, and the move at label l is
p[j] -= p[l] * A[l][j], over the nonzero entries of row l, which the datum
holds once as ``cartan_rows`` and ``affine_rows``.

* ``_descend`` walks down: each move is at the smallest l with p[l] < 0,
  for at most a given number of moves.  A reduced word is read this way on
  the heights h[i] = ht(w alpha_i), stripping the right descent at the
  smallest node label each time, so the word is canonical and no product is
  formed.  On the affine Cartan matrix the same walk gives the affine
  reduced words (affine) and carries a coweight into the closed alcove
  (classify).  Given the height K of delta, it also jumps repeated
  translation blocks of a long affine word at once (``_repeats``; the
  affine module docstring says why this is exact).
* ``_along`` walks a given word, moving at each letter whose entry is
  negative: Bruhat order walks the alcove vector of v along a reduced word
  of w (affine, and the star split on inverses), and the strip rule of the
  segment search and the star split asks that every letter move
  (schubert).
* ``_climb`` walks up, level by level, on the orbit of a point x whose
  stabiliser is exactly W_I: this is the quotient W^I.  For w minimal in
  w W_I, p_i(w x) > 0 exactly when s_i w is minimal and one longer; it is 0
  when s_i w stays in w W_I, and < 0 when s_i w < w.  The engine runs it on
  the affine Cartan matrix with I = {1..rank}, where it is W_aff/W (affine);
  the tests run it on the finite one as their oracle for W^I.

The grading variable q counts complex cell dimension: q^k stands for
topological degree 2k.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import repeat
from operator import itemgetter, mul, sub

from .cartan import LieType, RootDatum, Vec, root_datum

Word = tuple[int, ...]
Perm = tuple[int, ...]


class WeylElem:
    """A finite Weyl group element over a fixed root datum.

    Equality and hashing use the root permutation alone.  Multiplication
    composes actions: (u*w)(v) = u(w(v)).
    """

    __slots__ = ("datum", "perm")

    def __init__(self, datum: RootDatum, perm: Perm):
        self.datum = datum
        self.perm = perm

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.datum is not other.datum:
            raise ValueError("type mismatch: elements of different Weyl groups")
        return WeylElem(self.datum, itemgetter(*other.perm)(self.perm))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElem) and self.perm == other.perm and self.datum is other.datum

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        word = ",".join(str(i) for i in self.word()) or "e"
        return f"WeylElem({self.datum.lie_type}, {word})"

    def apply_coroot(self, vec: tuple) -> tuple:
        """Act on a vector in coroot coordinates: sum_i vec[i] * w(alpha_i^v).

        w(alpha_i^v) = +-pos_coroots[j] for the image j of alpha_i.
        """
        n = self.datum.rank
        if len(vec) != n:
            raise ValueError("rank mismatch")
        basis = self.datum.pos_coroots
        big = len(basis)
        out = [0] * n
        for c, k in zip(vec, self.datum.simple_index):
            if not c:
                continue
            j = self.perm[k]
            if j >= big:
                j -= big
                c = -c
            for i, b in enumerate(basis[j]):
                out[i] += c * b
        return tuple(out)

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        big = len(self.datum.pos_roots)
        return sum(1 for j in self.perm[:big] if j >= big)

    def word(self) -> Word:
        """Canonical reduced word (node labels), by smallest-descent stripping.

        As (w s_i)(alpha_m) = w(alpha_m) - A[i][m] w(alpha_i), stripping i moves
        h[m] -= A[i][m] * h[i] (``_descend``, l(w) moves); the walk must end at
        the identity's (1, ..., 1).
        """
        datum = self.datum
        h = [datum.heights[self.perm[k]] for k in datum.simple_index]
        labels = _descend(h, datum.cartan_rows, self.length())
        if any(x != 1 for x in h):
            raise ArithmeticError(f"descent stripping of {self.perm} ended at heights {h}, not the identity")
        return tuple(i + 1 for i in reversed(labels))


@functools.cache
def _reflection(datum: RootDatum, k: int) -> WeylElem:
    """s_beta for beta = pos_roots[k]: gamma -> gamma - <beta^v, gamma> beta, with
    <beta^v, gamma> = sum_i beta^v_i * pairing_rows[gamma][i]; s_beta fixes a gamma
    that pairs to 0."""
    beta, cor = datum.pos_roots[k], datum.pos_coroots[k]
    big = len(datum.pos_roots)
    perm = list(range(big))
    for j, (gamma, row) in enumerate(zip(datum.pos_roots, datum.pairing_rows)):
        if c := sum(map(mul, cor, row)):
            perm[j] = datum.index[tuple(map(sub, gamma, map(mul, beta, repeat(c))))]
    perm += [(j + big) % (2 * big) for j in perm]
    return WeylElem(datum, tuple(perm))


@functools.cache
def identity(datum: RootDatum) -> WeylElem:
    return WeylElem(datum, tuple(range(len(datum.index))))


def simple_reflection(datum: RootDatum, label: int) -> WeylElem:
    """The simple reflection at a finite node label (1-based)."""
    if not 1 <= label <= datum.rank:
        raise ValueError(f"node label {label} is not a finite node")
    return _reflection(datum, datum.simple_index[label - 1])


def reflection(datum: RootDatum, alpha: Vec) -> WeylElem:
    """The reflection in an arbitrary positive root alpha."""
    return _reflection(datum, datum.root_index(alpha))


def _descend(r: list[int], rows, limit: int, level: int = 0) -> list[int]:
    """Make at most limit moves on r, each at the smallest l with r[l] < 0, and return the labels l.

    The move at l is r[m] -= r[l] * A[l][m] over the pairs (m, A[l][m]) of
    rows[l] (``RootDatum.cartan_rows`` or ``affine_rows``).  It stops early when no entry is negative; r is
    changed in place, and the caller checks where it ended.  A level K > 0 reads r as an alcove vector
    with delta at height K (affine module docstring): after each move at label 0 the residues r mod K
    are looked up among the earlier ones, and on a match the letters since then are a translation
    block, taken again ``_repeats`` times, at most as often as the letters left allow.
    """
    labels = []
    seen = {}  # residues -> (letters so far, r) after a move at label 0
    indices = range(len(r))
    left = limit
    while left > 0:
        for l in indices:
            if r[l] < 0:
                break
        else:
            break
        labels.append(l)
        left -= 1
        a = r[l]
        for m, e in rows[l]:
            r[m] -= a * e
        if not level or l:
            continue
        key = tuple([c % level for c in r])
        if key in seen:
            start, before = seen[key]
            block = labels[start:]
            step = list(map(sub, r, before))
            jumps = _repeats(r, step, block, rows, left // len(block))
            if jumps:
                labels += block * jumps
                left -= jumps * len(block)
                r[:] = [c + jumps * s for c, s in zip(r, step)]
                seen.clear()  # a block through the jump would span every repeat
        seen[key] = len(labels), r.copy()
    return labels


def _repeats(a: list[int], b: list[int], block: list[int], rows, cap: int) -> int:
    """How many times, at most cap, the walk from a takes block again, each time moving by b.

    Before the block's i-th move the j-th repeat is at a_i + j b_i (affine
    module docstring): its letter's entry stays negative for j <= (-a - 1) // b
    when b > 0, and an earlier entry stays >= 0 for j <= a // -b when b < 0.
    """
    a, b = a.copy(), b.copy()
    most = cap - 1  # the largest j allowed so far
    for l in block:
        for m in range(l):
            if b[m] < 0 and a[m] // -b[m] < most:
                most = a[m] // -b[m]
        u, v = a[l], b[l]
        if v > 0 and (-u - 1) // v < most:
            most = (-u - 1) // v
        if most < 0:
            return 0
        for m, e in rows[l]:
            a[m] -= u * e
            b[m] -= v * e
    return most + 1


def _along(r: list[int], rows, word, every: bool) -> int | None:
    """Walk r along word, moving at each letter l whose entry r[l] is negative, and return the moves made.

    The move is ``_descend``'s; r is changed in place.  With every set, a letter whose entry is not
    negative ends the walk, and the answer is None.
    """
    moves = 0
    for l in word:
        a = r[l]
        if a < 0:
            for m, e in rows[l]:
                r[m] -= a * e
            moves += 1
        elif every:
            return None
    return moves


def _climb(rows, level, labels, up: dict) -> None:
    """Add to up each up-step of the points p of level by labels, linked to its first (p, label):
    label l is an up-step when p[l] > 0, and moves p[m] -= p[l] * A[l][m] over the pairs
    (m, A[l][m]) of rows[l] (``RootDatum.cartan_rows`` or ``affine_rows``)."""
    for point in level:
        for label in labels:
            if (c := point[label]) > 0:
                new = list(point)
                for m, e in rows[label]:
                    new[m] -= c * e
                new = tuple(new)
                if new not in up:
                    up[new] = (point, label)


class GradedPoly(namedtuple("GradedPoly", "coeffs")):
    """Integer polynomial in q, where q^k records complex cell dimension k."""

    __slots__ = ()

    @staticmethod
    def from_coeffs(values) -> "GradedPoly":
        coeffs = list(values)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return GradedPoly(tuple(coeffs))

    def is_chain(self) -> bool:
        """One cell in every complex dimension up to the top."""
        return bool(self.coeffs) and all(c == 1 for c in self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            q = "1" if k == 0 else ("q" if k == 1 else f"q^{k}")
            parts.append(q if c == 1 and k > 0 else (str(c) if k == 0 else f"{c}*{q}"))
        return " + ".join(parts)


def weyl_order(lie_type: LieType) -> int:
    """|W| = prod(e_i + 1) over the exponents e_i, whose e_i + 1 are the degrees of W."""
    return math.prod(e + 1 for e in root_datum(lie_type).exponents)
