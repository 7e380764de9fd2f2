"""The cited largest smooth Schubert dimensions against palindromic Poincare polynomials.

A smooth Schubert variety is rationally smooth, and a Schubert variety of a
Kac-Moody flag variety, the affine Grassmannian among them, is rationally
smooth iff its Poincare polynomial is palindromic (Carrell-Peterson; Kumar,
Kac-Moody Groups, their Flag Varieties and Representation Theory, 2002,
ch. 12).  So the longest palindromic class bounds the largest smooth one
from above.  Each search lists every minimal representative through a
stated length L and keeps those whose ``schubert_poincare`` (the level
sizes of ``lower_interval(x)``) is palindromic; nothing is claimed past L.
"""

import pytest

from affschub.affine import enumerate_minreps, min_rep, parse_element
from affschub.cartan import minuscule_nodes, parse_type, root_datum
from affschub.classify import MAX_SMOOTH_SCHUBERT_DIM
from affschub.schubert import SchubertClass, schubert_poincare


def palindromic(label, length):
    """The minimal representatives through ``length`` whose Poincare polynomial is palindromic."""
    found = enumerate_minreps(parse_type(label), length, bound=length).flat()
    return [x for x in found if schubert_poincare(SchubertClass(x), bound=length).is_palindromic()]


# (type, L, the lengths of the palindromic classes through L, the longest one
# as the coset minimum of a translation)
EXCEPTIONAL = [
    ("E8", 16, (0, 1, 2, 3, 4, 5, 6, 7, 7, 8, 14), "t:4,5,7,10,8,6,4,2"),
    ("F4", 12, (0, 1, 2, 3, 4, 5, 5, 6, 7), "t:2,4,3,2"),
    ("G2", 12, (0, 1, 2, 3, 4, 5, 5, 6), "t:-1,-2"),
]


@pytest.mark.parametrize("label,length,lengths,longest", EXCEPTIONAL, ids=[c[0] for c in EXCEPTIONAL])
def test_cited_dimension_is_at_most_the_longest_palindromic_class(label, length, lengths, longest):
    found = palindromic(label, length)
    assert sorted(x.length() for x in found) == list(lengths)
    top = lengths[-1]
    datum = root_datum(parse_type(label))
    assert [x for x in found if x.length() == top] == [min_rep(parse_element(datum, longest))]
    # E8 and F4 attain the cited dimension (14 and 7); G2's check is one-sided,
    # since its cited 2 is below the longest palindromic length, 6
    assert MAX_SMOOTH_SCHUBERT_DIM[label] <= top


# (type, L): the dimension N - N_J of each minuscule flag variety G/P_J, J the
# other nodes, is a palindromic length through L (E6 16, E7 27, D5 8 and 10,
# C4 10, B4 7)
MINUSCULE = [("E6", 17), ("E7", 28), ("D5", 12), ("C4", 12), ("B4", 8)]


@pytest.mark.parametrize("label,length", MINUSCULE, ids=[c[0] for c in MINUSCULE])
def test_minuscule_flag_varieties_are_palindromic(label, length):
    roots = root_datum(parse_type(label)).pos_roots
    lengths = {x.length() for x in palindromic(label, length)}
    for node in minuscule_nodes(parse_type(label)):
        dim = sum(1 for root in roots if root[node - 1])  # N - N_J: the roots with alpha_node in them
        assert dim in lengths, (node, dim)
