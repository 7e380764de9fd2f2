"""Per-type synthesis: one report combining the diagram, chain, duality and
smoothness facts for a simple type."""

from __future__ import annotations

from collections import namedtuple

from .cartan import (
    LieType,
    _cartan_inverse,
    minuscule_nodes,
    parse_type,
    root_datum,
)
from .cohomology import chain_coeffs, levi_nodes, pd_status

# Largest dimension of a smooth Schubert variety in the three exceptional
# types with no minuscule node; cited constants, not recomputed here.
MAX_SMOOTH_SCHUBERT_DIM = {"E8": 14, "F4": 7, "G2": 2}


def bott_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes with a long simple root whose dual coweight is a coroot.

    Each such node provides a smooth Levi-orbit generating variety via the
    classical commutator construction.  The coweight is row ``label`` of the
    inverse Cartan matrix, so it is a coroot iff that row of the integer
    adjugate is divisible by the determinant.
    """
    datum = root_datum(lie_type)
    adj, det = _cartan_inverse(lie_type)
    return frozenset(
        label
        for label in range(1, datum.rank + 1)
        if datum.is_long(label) and all(c % det == 0 for c in adj[label - 1])
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
    """Every canonical simple type of rank <= max_rank, plus E8 always.

    E8 rides along as a fixed type regardless of the rank cap so the
    exceptional trio is always visible in classification tables.
    """
    out = []
    for n in range(1, max_rank + 1):
        out.append(LieType("A", n))
        if n >= 3:
            out.append(LieType("B", n))
        if n >= 2:
            out.append(LieType("C", n))
        if n >= 4:
            out.append(LieType("D", n))
        if n in (6, 7, 8):
            out.append(LieType("E", n))
        if n == 4:
            out.append(LieType("F", 4))
        if n == 2:
            out.append(LieType("G", 2))
    e8 = parse_type("E8")
    if e8 not in out:
        out.append(e8)
    return out


def classify_all(max_rank: int = 8) -> list[TypeReport]:
    return [type_report(t) for t in all_canonical_types(max_rank)]
