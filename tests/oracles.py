"""Independent routes the tests check the engine's closed forms against.

None of these is on a path the ``affschub`` commands run.
"""

from affschub.cartan import LieType, root_datum
from affschub.weyl import GradedPoly, min_coset_reps


def double_loop_pairing(datum, lam, alpha):
    """<lam, alpha> = sum_ij lam[i] A[i][j] alpha[j], straight off the Cartan matrix."""
    n, a = datum.rank, datum.cartan
    return sum(lam[i] * a[i][j] * alpha[j] for i in range(n) for j in range(n))


def diagram_automorphisms(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """All permutations of the affine diagram preserving the labeled edges.

    A permutation p of the node labels 0..rank is an automorphism iff the
    affine Cartan matrix satisfies A~[p(i)][p(j)] = A~[i][j] for all i, j;
    found by exhaustive backtracking.
    """
    aff = root_datum(lie_type).affine_cartan
    m = len(aff)
    found: list[tuple[int, ...]] = []
    image: list[int] = []
    used = [False] * m

    def extend(k: int) -> None:
        if k == m:
            found.append(tuple(image))
            return
        for cand in range(m):
            if used[cand]:
                continue
            if all(
                aff[cand][image[j]] == aff[k][j] and aff[image[j]][cand] == aff[j][k]
                for j in range(k)
            ):
                used[cand] = True
                image.append(cand)
                extend(k + 1)
                image.pop()
                used[cand] = False

    extend(0)
    return tuple(sorted(found))


def quotient_poincare(lie_type: LieType, nodes) -> GradedPoly:
    """Poincare polynomial of W^I: coefficient of q^k counts length-k reps."""
    return GradedPoly.from_coeffs(len(level) for level in min_coset_reps(lie_type, nodes))
