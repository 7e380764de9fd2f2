"""Finite Weyl group elements, parabolic quotients W^I, and their cell counts.

An element is stored as its integer matrix acting on the coroot lattice (in
the simple-coroot basis), one uniform representation across every type.
Length is the number of positive roots sent negative; reduced words are
recovered on demand by stripping descents, always choosing the smallest node
label, so the cached word is canonical.

The grading variable q counts complex cell dimension: q^k stands for
topological degree 2k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cartan import LieType, Matrix, RootDatum, Vec, root_datum

Word = tuple[int, ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def _mat_vec(a: Matrix, v: tuple) -> tuple:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def _identity_mat(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _invert_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with det +-1."""
    n = len(a)
    aug = [
        [Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = 1 / aug[col][col]
        aug[col] = [x * scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        ints = row[len(a):]
        assert all(x.denominator == 1 for x in ints)
        out.append(tuple(int(x) for x in ints))
    return tuple(out)


class WeylElem:
    """A finite Weyl group element over a fixed root datum.

    Equality and hashing use the matrix alone; the reduced word, inverse and
    length are lazy caches.  Multiplication composes actions: (u*w)(v) =
    u(w(v)).
    """

    __slots__ = ("datum", "mat", "_word", "_inv", "_len")

    def __init__(self, datum: RootDatum, mat: Matrix):
        self.datum = datum
        self.mat = mat
        self._word: Word | None = None
        self._inv: WeylElem | None = None
        self._len: int | None = None

    def __mul__(self, other: "WeylElem") -> "WeylElem":
        if self.datum is not other.datum:
            raise ValueError("type mismatch: elements of different Weyl groups")
        return WeylElem(self.datum, _mat_mul(self.mat, other.mat))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElem) and self.mat == other.mat and self.datum is other.datum

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        word = ",".join(str(i) for i in self.word()) or "e"
        return f"WeylElem({self.datum.lie_type}, {word})"

    def is_identity(self) -> bool:
        return self.mat == _identity_mat(self.datum.rank)

    def apply_coroot(self, vec: tuple) -> tuple:
        """Act on a vector in coroot coordinates (ints or Fractions)."""
        if len(vec) != self.datum.rank:
            raise ValueError("rank mismatch")
        return _mat_vec(self.mat, vec)

    def apply_root(self, vec: tuple) -> tuple:
        """Act on a vector in root coordinates, one reflection at a time."""
        if len(vec) != self.datum.rank:
            raise ValueError("rank mismatch")
        a = self.datum.cartan
        out = list(vec)
        for label in reversed(self.word()):
            i = label - 1
            c = sum(a[i][j] * out[j] for j in range(len(out)))
            out[i] -= c
        return tuple(out)

    def inverse(self) -> "WeylElem":
        if self._inv is None:
            inv = WeylElem(self.datum, _invert_unimodular(self.mat))
            inv._inv = self
            self._inv = inv
        return self._inv

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        if self._len is None:
            self._len = sum(
                1 for cor in self.datum.pos_coroots
                if any(c < 0 for c in _mat_vec(self.mat, cor))
            )
        return self._len

    def has_right_descent(self, label: int) -> bool:
        """True iff l(w s) < l(w), i.e. w sends the simple root at label negative."""
        i = label - 1
        return any(row[i] < 0 for row in self.mat)

    def word(self) -> Word:
        """Canonical reduced word (node labels), by smallest-descent stripping."""
        if self._word is None:
            labels: list[int] = []
            cur = self
            while True:
                for label in range(1, self.datum.rank + 1):
                    if cur.has_right_descent(label):
                        labels.append(label)
                        cur = cur * simple_reflection(self.datum, label)
                        break
                else:
                    break
            assert cur.is_identity()
            self._word = tuple(reversed(labels))
        return self._word


def identity(datum: RootDatum) -> WeylElem:
    return WeylElem(datum, _identity_mat(datum.rank))


def simple_reflection(datum: RootDatum, label: int) -> WeylElem:
    """The simple reflection at a finite node label (1-based)."""
    if not 1 <= label <= datum.rank:
        raise ValueError(f"node label {label} is not a finite node")
    n = datum.rank
    i = label - 1
    a = datum.cartan
    rows = []
    for k in range(n):
        if k == i:
            rows.append(tuple(int(i == j) - a[j][i] for j in range(n)))
        else:
            rows.append(tuple(int(k == j) for j in range(n)))
    return WeylElem(datum, tuple(rows))


def reflection(datum: RootDatum, alpha: Vec) -> WeylElem:
    """The reflection in an arbitrary positive root alpha."""
    k = datum.root_index(alpha)
    cor = datum.pos_coroots[k]
    row = datum.pairing_rows[k]  # <mu, alpha> = mu . row
    n = datum.rank
    mat = tuple(
        tuple(int(i == j) - cor[i] * row[j] for j in range(n)) for i in range(n)
    )
    return WeylElem(datum, mat)


def from_word(datum: RootDatum, labels: tuple[int, ...]) -> WeylElem:
    w = identity(datum)
    for label in labels:
        w = w * simple_reflection(datum, label)
    return w


def min_coset_reps(lie_type: LieType, nodes) -> list[list[WeylElem]]:
    """Minimal-length representatives of W/W_I, graded by length.

    I is a set of finite node labels.  Enumeration runs a level-synchronous
    BFS on the orbit of a vector whose stabilizer is exactly W_I (tracked by
    its integer tuple of pairings against the simple roots), so the group is
    never listed.  Level k holds exactly the representatives of length k,
    each with no right descent in I, sorted by their orbit point.
    """
    datum = root_datum(lie_type)
    nodeset = frozenset(nodes)
    bad = nodeset - set(range(1, datum.rank + 1))
    if bad:
        raise ValueError(f"not finite node labels: {sorted(bad)}")
    a = datum.cartan
    n = datum.rank
    base = tuple(0 if (i + 1) in nodeset else 1 for i in range(n))
    seen = {base}
    frontier: list[tuple[Vec, WeylElem]] = [(base, identity(datum))]
    levels: list[list[WeylElem]] = []
    while frontier:
        frontier.sort(key=lambda pw: pw[0])
        levels.append([w for _, w in frontier])
        nxt: dict[Vec, WeylElem] = {}
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


@dataclass(frozen=True)
class GradedPoly:
    """Integer polynomial in q, where q^k records complex cell dimension k."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(values) -> "GradedPoly":
        coeffs = list(values)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return GradedPoly(tuple(coeffs))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_chain(self) -> bool:
        """One cell in every complex dimension up to the top."""
        return bool(self.coeffs) and all(c == 1 for c in self.coeffs)

    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def total(self) -> int:
        return sum(self.coeffs)

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


def quotient_poincare(lie_type: LieType, nodes) -> GradedPoly:
    """Poincare polynomial of W^I: coefficient of q^k counts length-k reps."""
    return GradedPoly.from_coeffs(len(level) for level in min_coset_reps(lie_type, nodes))


def weyl_order(lie_type: LieType) -> int:
    """|W|, via the full graded enumeration (desk-scale ranks only)."""
    return sum(len(level) for level in min_coset_reps(lie_type, ()))
