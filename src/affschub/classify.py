"""Per-type synthesis: one report combining the diagram, chain, duality and
smoothness facts for a simple type."""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import (
    LieType,
    fundamental_coweight,
    minuscule_nodes,
    parse_type,
    root_datum,
)
from .cohomology import PDStatus, chain_coeffs, levi_nodes, pd_status

# Largest dimension of a smooth Schubert variety in the three exceptional
# types with no minuscule node; cited constants, not recomputed here.
MAX_SMOOTH_SCHUBERT_DIM = {"E8": 14, "F4": 7, "G2": 2}


def bott_nodes(lie_type: LieType) -> frozenset[int]:
    """Finite nodes with a long simple root whose dual coweight is a coroot.

    Each such node provides a smooth Levi-orbit generating variety via the
    classical commutator construction.
    """
    datum = root_datum(lie_type)
    out = set()
    for label in range(1, datum.rank + 1):
        if not datum.is_long(label):
            continue
        if all(c.denominator == 1 for c in fundamental_coweight(lie_type, label)):
            out.add(label)
    return frozenset(out)


@dataclass(frozen=True)
class TypeReport:
    lie_type: LieType
    levi_nodes: tuple[int, ...]
    levi_descriptor: str
    chain: bool
    pd_status: PDStatus
    bott_nodes: tuple[int, ...]
    minuscule_nodes: tuple[int, ...]
    smooth_schubert_genv: bool
    e_top: int
    max_smooth_schubert_dim: int | None


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
