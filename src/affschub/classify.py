"""Per-type synthesis: one report combining the diagram, chain, duality and
smoothness facts for a simple type."""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .cartan import _ALIASES, FAMILIES, LieType, RootDatum, _rank_bound, check_root_bound, minuscule_nodes
from .cartan import parse_type, root_datum
from .cohomology import chain_coeffs, levi_nodes, pd_status
from .weyl import _descend

# Largest dimension of a smooth Schubert variety in the three exceptional
# types with no minuscule node; cited constants, not recomputed here.
MAX_SMOOTH_SCHUBERT_DIM = {"E8": 14, "F4": 7, "G2": 2}


def bott_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes with a long simple root whose dual coweight is a coroot.

    Each such node provides a smooth Levi-orbit generating variety via the
    classical commutator construction.  The closed alcove is a fundamental
    domain of the affine Weyl group, the coroot lattice times W, and its
    coweight points are 0 and the minuscule omega_j^v, theta_j = 1
    (Bourbaki, Lie Groups, ch. VI, sec. 2).  So with no theta_j = 1 (E8, F4, G2)
    every coweight is a coroot and nothing is walked; otherwise omega_i^v with
    theta_i > 1 is a coroot exactly when the alcove descent (``_coweight_vertex``)
    carries it to the origin, and a minuscule one starts at the vertex i != 0.
    """
    datum = root_datum(lie_type)
    d, theta = datum.symmetrizers, datum.highest_root
    top, walk = max(d), 1 in theta
    return frozenset(
        label
        for label in range(1, datum.rank + 1)
        if d[label - 1] == top and theta[label - 1] > 1 and (not walk or _coweight_vertex(datum, label) == 0)
    )


def _coweight_vertex(datum: RootDatum, label: int) -> int:
    """The vertex of the closed alcove that omega_label^v descends to: 0 for the origin, j for omega_j^v.

    The walk starts at the coweight's pairings with the affine simple roots at
    level 1, r = (1 - theta_label, e_label).  Each move of ``weyl._descend`` on the
    affine Cartan rows reflects the point in an alcove wall it lies strictly beyond,
    crossing one of the hyperplanes <x, beta> = k, 0 < k < beta_label, that part it
    from the alcove: fewer than sum_{beta > 0} beta_label = <omega_label^v, 2 rho>.
    The walk must end at (1, 0, ..., 0) or at (0, e_j) with theta_j = 1; any
    other end raises ArithmeticError, also under ``python -O``.
    """
    theta = datum.highest_root
    r = [0] * (datum.rank + 1)
    r[0], r[label] = 1 - theta[label - 1], 1
    _descend(r, datum.affine_rows, sum(map(itemgetter(label - 1), datum.pos_roots)))
    if r.count(0) == datum.rank and 1 in r:
        vertex = r.index(1)
        if vertex == 0 or theta[vertex - 1] == 1:
            return vertex
    raise ArithmeticError(
        f"the alcove descent of the coweight at node {label} of {datum.lie_type} ended at {r}, not a vertex"
    )


class TypeReport(
    namedtuple(
        "TypeReport",
        "lie_type levi_nodes levi_descriptor chain pd_status bott_nodes"
        " minuscule_nodes smooth_schubert_genv e_top max_smooth_schubert_dim",
    )
):
    """One classification row.  Node fields are sorted tuples of labels;
    ``pd_status`` is a PDStatus and ``max_smooth_schubert_dim`` is None
    outside E8, F4 and G2."""

    __slots__ = ()


def _levi_descriptor(lie_type: LieType) -> str:
    fam, n = lie_type.family, lie_type.rank
    if fam == "A" and n == 1:
        return "P^1"
    if fam == "A":
        return f"flags of a line inside a hyperplane in C^{n + 1}"
    if fam == "C":
        return f"P^{2 * n - 1}"
    omitted = sorted(set(range(1, n + 1)) - levi_nodes(lie_type))
    return f"{lie_type}/Q omitting node(s) {omitted}"


def type_report(lie_type: LieType) -> TypeReport:
    datum = root_datum(lie_type)
    mins = minuscule_nodes(lie_type)
    coeffs = chain_coeffs(lie_type)  # None exactly when the Levi quotient is not a chain
    return TypeReport(
        lie_type=lie_type,
        levi_nodes=tuple(sorted(levi_nodes(lie_type))),
        levi_descriptor=_levi_descriptor(lie_type),
        chain=coeffs is not None,
        pd_status=pd_status(lie_type, coeffs),
        bott_nodes=tuple(sorted(bott_nodes(lie_type))),
        minuscule_nodes=tuple(sorted(mins)),
        smooth_schubert_genv=bool(mins),
        e_top=datum.exponents[-1],
        max_smooth_schubert_dim=MAX_SMOOTH_SCHUBERT_DIM.get(str(lie_type)),
    )


def all_canonical_types(max_rank: int) -> list[LieType]:
    """Every canonical simple type of rank <= max_rank, by rank and then in the order of
    ``FAMILIES``: the (family, rank) pairs that ``parse_type`` accepts, less its aliases."""
    pairs = ((family, n) for n in range(1, max_rank + 1) for family in FAMILIES)
    return [LieType(*p) for p in pairs if _rank_bound(*p) is None and p not in _ALIASES]


def classify_all(max_rank: int = 8) -> list[TypeReport]:
    """The report of each type of ``all_canonical_types(max_rank)``, then E8's below rank 8: every table has E8.
    Every type passes ``check_root_bound`` before the first row is built."""
    types = all_canonical_types(max_rank)
    if max_rank < 8:
        types.append(parse_type("E8"))
    for t in types:
        check_root_bound(t)
    return [type_report(t) for t in types]
