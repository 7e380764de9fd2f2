"""Root data for the simple Lie types, in exact integer arithmetic.

Conventions, fixed here once and relied on by every other module:

* Finite Dynkin nodes carry the Bourbaki labels ``1..rank``; label ``0`` is the
  extra node of the untwisted affine diagram.  Coordinate vectors are 0-based
  tuples, so ``coords[i]`` is the coefficient of the simple (co)root at node
  ``i + 1``.
* The Cartan matrix is ``A[i][j] = <coroot of node i+1, root of node j+1>``,
  so ``A[i][:]`` pairs the coroot ``alpha_{i+1}^v`` against each simple root.
* ``symmetrizers`` are the minimal positive integers ``d`` with
  ``d[i]*A[i][j]`` symmetric; a node is long iff ``d[i] == max(d)``.  They
  are read off the highest root and its coroot: ``d[j] = r*theta^v[j]/theta[j]``
  with ``r = max(d)`` the long-to-short ratio of squared lengths.
* The positive roots, their coroots and their pairing rows come from one
  closure under the simple reflections, starting at the simple roots (whose
  coroots are the unit vectors and rows the columns of A): the reflection
  that raises a root steps its coroot and its row too, in O(rank).  Sorted
  by (height, lex), the highest root is last and alpha_i is
  ``pos_roots[rank - i]``.  Tables derived once per datum: ``index`` numbers
  every root, ``k`` for ``pos_roots[k]`` and ``k + N`` for its negative, and
  ``heights`` holds their signed heights; ``simple_index`` is the index of
  each alpha_i, ``affine_index`` that of theta and then of each alpha_i;
  ``cartan_rows`` and ``affine_rows`` hold the nonzero entries of the two
  Cartan matrices by row.  For the affine walks: ``delta_height`` K =
  2 ht(theta) + 1, the identity's alcove vector ``identity_alcove`` and
  the text of each node label, ``label_names`` (``affine``).
  ``root_datum`` builds at most ``ROOT_DATA_BOUND`` root coordinates.
* No floats and no rationals anywhere, and no matrix is inverted: whether
  a coweight is a coroot is read off the alcove descent of the numbers game
  (``classify.bott_nodes``).
* A finite node is minuscule (special) iff its coefficient in the highest
  root is 1.

>>> parse_type("C1")
LieType(family='A', rank=1)
>>> len(root_datum(parse_type("G2")).pos_roots)
6
"""

from __future__ import annotations

import functools
import re
from collections import Counter, namedtuple
from operator import mul, neg

from .errors import BoundExceededError, ParseError

Vec = tuple[int, ...]
Matrix = tuple[Vec, ...]

FAMILIES = "ABCDEFG"

# (family, rank) pairs that are re-labelings of another diagram
_ALIASES = {("C", 1): ("A", 1), ("B", 2): ("C", 2), ("D", 3): ("A", 3)}


class LieType(namedtuple("LieType", "family rank")):
    """A validated simple-type label, e.g. G2 or D5."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


_LABEL_RE = re.compile(r"^([A-Ga-g])([0-9]+)$")


def parse_type(label: str) -> LieType:
    """Parse a type label such as ``"E7"`` into a canonical LieType.

    Aliases C1, B2, D3 normalize to A1, C2, A3.  Raises ParseError on a
    malformed label or a rank outside the family's bounds.
    """
    m = _LABEL_RE.match(label.strip())
    if not m:
        raise ParseError(
            f"malformed type label {label!r}: expected <letter><digits> with letter in A..G"
        )
    family, rank = m.group(1).upper(), int(m.group(2))
    if rule := _rank_bound(family, rank):
        raise ParseError(f"rank {rank} out of bounds: {rule}")
    family, rank = _ALIASES.get((family, rank), (family, rank))
    return LieType(family, rank)


def _rank_bound(family: str, rank: int) -> str | None:
    """The family's rank rule if rank breaks it, else None."""
    ok, rule = {
        "A": (rank >= 1, "A requires rank >= 1"),
        "B": (rank >= 2, "B requires rank >= 2"),
        "C": (rank >= 1, "C requires rank >= 1"),
        "D": (rank >= 3, "D requires rank >= 4 (D3 is accepted as an alias of A3)"),
        "E": (rank in (6, 7, 8), "E requires rank in {6, 7, 8}"),
        "F": (rank == 4, "F requires rank = 4"),
        "G": (rank == 2, "G requires rank = 2"),
    }[family]
    return None if ok else rule


def _cartan_matrix(family: str, n: int) -> Matrix:
    """Cartan matrix in Bourbaki numbering (0-based indices)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif family == "B":  # alpha_n short
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif family == "C":  # alpha_n long
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif family == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif family == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for u, v in zip(chain, chain[1:]):
            bond(u - 1, v - 1)
        bond(2 - 1, 4 - 1)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_1, alpha_2 long
        bond(2, 3)
    elif family == "G":
        bond(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def _symmetrizers(cartan: Matrix, theta: Vec, theta_cor: Vec) -> Vec:
    """Minimal positive integers d with d[i]*A[i][j] symmetric, read off theta and theta^v.

    A coroot has beta^v_j = beta_j d_j / d_beta, and theta is long, so
    d_j = r theta^v_j / theta_j with r = max(d) = max_j theta_j // theta^v_j.
    A disconnected diagram (theta misses a node) or a d that is not a positive
    symmetrizer raises ArithmeticError.
    """
    if not all(theta):
        raise ArithmeticError("diagram must be connected")
    r = max(t // c for t, c in zip(theta, theta_cor))
    d = tuple(r * c // t for t, c in zip(theta, theta_cor))
    n = len(cartan)
    if not all(d) or any(d[i] * cartan[i][j] != d[j] * cartan[j][i] for i in range(n) for j in range(i)):
        raise ArithmeticError(f"d = {d} read off theta = {theta}, theta^v = {theta_cor} does not symmetrize {cartan}")
    return d


def _positive_roots(cartan: Matrix) -> tuple[tuple[Vec, ...], tuple[Vec, ...], Matrix]:
    """Positive roots with their coroots and pairing rows, by one reflection closure.

    Every positive root is reached from a simple root by simple reflections
    that raise it (Humphreys, GTM 9, 10.2): s_i alpha = alpha - a_i alpha_i
    with a_i = <alpha_i^v, alpha> < 0.  Its coroot is s_i(alpha^v), i.e.
    coordinate i of alpha^v minus <alpha^v, alpha_i>, and its row (a_1, ..., a_n)
    is alpha's minus a_i times column i of A; the three are returned sorted by
    (height, lex).  A coroot that does not pair to 2 with its root raises ArithmeticError.
    """
    n = len(cartan)
    columns = tuple(zip(*cartan))
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    coroot = dict(zip(simple, simple))
    rows = dict(zip(simple, columns))
    todo = list(simple)
    for alpha in todo:  # grows as roots are found
        cor, row = coroot[alpha], rows[alpha]
        if sum(map(mul, cor, row)) != 2:
            raise ArithmeticError(f"coroot {cor} of {alpha} does not pair to 2 with it")
        for i, a in enumerate(row):
            if a < 0:
                beta = alpha[:i] + (alpha[i] - a,) + alpha[i + 1:]
                if beta not in coroot:
                    c = sum(map(mul, cor, columns[i]))
                    coroot[beta] = cor[:i] + (cor[i] - c,) + cor[i + 1:]
                    rows[beta] = tuple([r - a * e for r, e in zip(row, columns[i])])
                    todo.append(beta)
    roots = tuple(sorted(todo, key=lambda v: (sum(v), v)))
    return roots, tuple(coroot[r] for r in roots), tuple(rows[r] for r in roots)


class RootDatum:
    """Everything the rest of the engine needs to know about one simple type.

    Instances are interned by :func:`root_datum`, so identity is the
    equality and the hash.  Every field is read-only after construction.
    """

    _FIELDS = (
        "lie_type",  # LieType
        "cartan",  # Matrix
        "symmetrizers",  # Vec
        "pos_roots",  # root-basis coords, sorted by (height, lex)
        "pos_coroots",  # coroot coords of pos_roots[k]^v
        "pairing_rows",  # row r with <mu, pos_roots[k]> = sum(mu[i]*r[i])
        "highest_root",  # Vec
        "highest_coroot",  # coroot coords of highest_root^v
        "exponents",  # Vec
        "affine_cartan",  # (rank+1)^2, index 0 = affine node, i>=1 = label i
    )
    # the tables derived from the fields, outside the repr: the root numbering and the
    # constants the walks of weyl and affine start from (module docstring)
    __slots__ = _FIELDS + ("index", "heights", "simple_index", "affine_index", "cartan_rows", "affine_rows",
                           "delta_height", "identity_alcove", "label_names")

    def __init__(self, **fields):
        if set(fields) != set(self._FIELDS):
            raise TypeError(f"RootDatum takes exactly the fields {self._FIELDS}")
        pos, lie_type = fields["pos_roots"], fields["lie_type"]
        index = {r: k for k, r in enumerate(pos + tuple(tuple(map(neg, r)) for r in pos))}
        n = lie_type.rank
        simple = tuple(range(n - 1, -1, -1))  # the roots of height 1, alpha_rank first in lex order
        if simple != tuple(index.get(tuple(int(i == j) for j in range(n))) for i in range(n)):
            raise ArithmeticError(f"the simple roots of {lie_type} are not pos_roots[{n - 1}], ..., pos_roots[0]")
        rows = {"cartan_rows": _sparse_rows(fields["cartan"]), "affine_rows": _sparse_rows(fields["affine_cartan"])}
        up, height = tuple(map(sum, pos)), sum(fields["highest_root"])
        level = 2 * height + 1  # K, the height given to delta
        fields.update(
            rows, index=index, heights=up + tuple(map(neg, up)), simple_index=simple,
            affine_index=(index.get(fields["highest_root"]),) + simple, delta_height=level,
            identity_alcove=(level - height,) + (1,) * n, label_names=tuple(map(str, range(n + 1))),
        )
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to RootDatum.{name}: its fields are read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"RootDatum({', '.join(f'{k}={getattr(self, k)!r}' for k in self._FIELDS)})"

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def root_index(self, alpha: Vec) -> int:
        """Index of a positive root in pos_roots, or raise ValueError."""
        k = self.index.get(alpha)
        if k is None or k >= len(self.pos_roots):
            raise ValueError(f"{alpha} is not a positive root of {self.lie_type}")
        return k

    def affine_neighbors(self) -> frozenset[int]:
        """Finite node labels adjacent to node 0 in the affine diagram."""
        return frozenset(
            j for j in range(1, self.rank + 1) if self.affine_cartan[0][j] != 0
        )


def _sparse_rows(matrix: Matrix) -> tuple:
    """Row l of a matrix as the pairs (m, matrix[l][m]) with a nonzero entry."""
    return tuple(tuple((m, e) for m, e in enumerate(row) if e) for row in matrix)


def _exponents(pos_roots: tuple[Vec, ...], rank: int) -> Vec:
    """Exponents as the conjugate of the height partition of the positive roots:
    the k-th counts the heights held by at least k roots."""
    counts = Counter(map(sum, pos_roots)).values()
    return tuple(sorted(sum(m >= k for m in counts) for k in range(1, rank + 1)))


# the most root coordinates, positive roots times rank, that root_datum builds
ROOT_DATA_BOUND = 2_000_000


def check_root_bound(lie_type: LieType) -> None:
    """Raise BoundExceededError if the root data of a canonical LieType would hold more than
    ROOT_DATA_BOUND coordinates: N * rank, with N positive roots read off the family."""
    family, n = lie_type
    roots = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1), "F": 24, "G": 6}.get(family)
    count = n * (roots or {6: 36, 7: 63, 8: 120}[n])  # E has no formula in n
    if count > ROOT_DATA_BOUND:
        raise BoundExceededError(f"{lie_type} root coordinates (positive roots x rank)", count, ROOT_DATA_BOUND)


@functools.lru_cache(maxsize=None)
def root_datum(lie_type: LieType) -> RootDatum:
    """Build (and intern) the root datum for a canonical LieType, within ``check_root_bound``."""
    check_root_bound(lie_type)
    n = lie_type.rank
    cartan = _cartan_matrix(lie_type.family, n)
    pos, pos_coroots, pairing_rows = _positive_roots(cartan)
    theta, theta_cor = pos[-1], pos_coroots[-1]

    # node 0 pairs as -theta: row 0 is -<theta^v, alpha_j> (column j of A), column 0 is -<alpha_j^v, theta>
    aff = [(2,) + tuple(-sum(map(mul, theta_cor, col)) for col in zip(*cartan))]
    aff += [(-p,) + row for p, row in zip(pairing_rows[-1], cartan)]

    return RootDatum(
        lie_type=lie_type,
        cartan=cartan,
        symmetrizers=_symmetrizers(cartan, theta, theta_cor),
        pos_roots=pos,
        pos_coroots=pos_coroots,
        pairing_rows=pairing_rows,
        highest_root=theta,
        highest_coroot=theta_cor,
        exponents=_exponents(pos, n),
        affine_cartan=tuple(aff),
    )


def minuscule_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes whose coefficient in the highest root theta is 1.

    These are the special nodes: the finite nodes in the orbit of node 0
    under the automorphisms of the affine diagram (Bourbaki, ch. VI,
    planches).  The tests check this rule against that orbit, found by
    backtracking over the affine Cartan matrix.
    """
    theta = root_datum(lie_type).highest_root
    return frozenset(j + 1 for j, c in enumerate(theta) if c == 1)


def convention_hash(lie_type: LieType) -> str:
    """Fingerprint of the conventions behind serialized data for one type."""
    import hashlib
    datum = root_datum(lie_type)
    text = f"affschub:1;{lie_type};cartan={datum.cartan};theta={datum.highest_root}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]
