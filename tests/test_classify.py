"""The per-type synthesis reports."""

import pytest

from affschub.cartan import minuscule_nodes, parse_type, root_datum
from affschub.classify import all_canonical_types, bott_nodes, classify_all, type_report
from affschub.cohomology import PDStatus, levi_nodes


def test_levi_nodes_by_family():
    # complements: in type A both ends, elsewhere the unique affine neighbor
    assert levi_nodes(parse_type("A5")) == {2, 3, 4}
    assert levi_nodes(parse_type("B4")) == {1, 3, 4}
    assert levi_nodes(parse_type("C4")) == {2, 3, 4}
    assert levi_nodes(parse_type("D5")) == {1, 3, 4, 5}
    assert levi_nodes(parse_type("E7")) == {2, 3, 4, 5, 6, 7}
    assert levi_nodes(parse_type("F4")) == {2, 3, 4}


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 9)])
def test_levi_nodes_type_a(label):
    n = int(label[1:])
    expected = set(range(2, n)) if n >= 2 else set()
    assert levi_nodes(parse_type(label)) == expected


def test_levi_nodes_equal_non_neighbors_of_affine_node():
    for lt in all_canonical_types(8):
        datum = root_datum(lt)
        non_neighbors = set(range(1, datum.rank + 1)) - datum.affine_neighbors()
        assert levi_nodes(lt) == non_neighbors


BOTT_EMPTY = [f"A{n}" for n in range(1, 9)] + [f"C{n}" for n in range(2, 9)]
BOTT_NONEMPTY = (
    [f"B{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("label", BOTT_EMPTY)
def test_bott_nodes_empty_for_a_and_c(label):
    assert bott_nodes(parse_type(label)) == frozenset()


@pytest.mark.parametrize("label", BOTT_NONEMPTY)
def test_bott_nodes_nonempty_and_contain_affine_neighbor(label):
    lt = parse_type(label)
    nodes = bott_nodes(lt)
    assert nodes
    (t,) = root_datum(lt).affine_neighbors()
    assert t in nodes


EXCEPTIONAL = {"E8": (29, 14), "F4": (11, 7), "G2": (5, 2)}


@pytest.mark.parametrize("label,expected", sorted(EXCEPTIONAL.items()))
def test_exceptional_reports(label, expected):
    e_top, max_dim = expected
    rep = type_report(parse_type(label))
    assert not rep.smooth_schubert_genv
    assert rep.e_top == e_top
    assert rep.max_smooth_schubert_dim == max_dim
    assert rep.e_top > rep.max_smooth_schubert_dim
    assert rep.minuscule_nodes == ()


def test_smooth_iff_minuscule_nonempty():
    for lt in all_canonical_types(8):
        rep = type_report(lt)
        assert rep.smooth_schubert_genv == bool(rep.minuscule_nodes)
        assert rep.smooth_schubert_genv == bool(minuscule_nodes(lt))
        # the independent hard-coded list
        assert rep.smooth_schubert_genv == (str(lt) not in EXCEPTIONAL)


def test_non_exceptional_have_no_max_dim():
    for lt in all_canonical_types(8):
        rep = type_report(lt)
        if str(lt) not in EXCEPTIONAL:
            assert rep.max_smooth_schubert_dim is None


def test_chain_column():
    chain_true = {str(t) for t in all_canonical_types(8) if type_report(t).chain}
    assert chain_true == {"A1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "G2"}


def test_pd_column_matches_chain():
    for rep in classify_all(5):
        if rep.chain:
            assert rep.pd_status == PDStatus.RATIONAL_ONLY
        else:
            assert rep.pd_status == PDStatus.NOT_PALINDROMIC


def test_classify_all_includes_e8_regardless_of_rank():
    labels = {str(r.lie_type) for r in classify_all(3)}
    assert "E8" in labels
    assert "E7" not in labels
    assert labels >= {"A1", "A2", "A3", "B3", "C2", "C3", "G2"}


def test_canonical_types_exclude_aliases():
    labels = {str(t) for t in all_canonical_types(8)}
    assert "B2" not in labels and "C1" not in labels and "D3" not in labels
    assert "C2" in labels and "A1" in labels and "A3" in labels


def test_levi_descriptors():
    assert type_report(parse_type("A1")).levi_descriptor == "P^1"
    assert type_report(parse_type("C3")).levi_descriptor == "P^5"
    assert "flags" in type_report(parse_type("A3")).levi_descriptor
    assert "omitting" in type_report(parse_type("G2")).levi_descriptor


@pytest.mark.parametrize("label", ["A3", "C3", "G2", "F4"])
def test_type_report_builds_levi_quotient_once(label):
    import affschub.cohomology as cohomology

    lt = parse_type(label)
    expected = (type_report(lt), cohomology.chain_coeffs(lt), cohomology.levi_poincare(lt))
    cohomology._levi_ladder.cache_clear()

    def table_row():
        return type_report(lt), cohomology.chain_coeffs(lt), cohomology.levi_poincare(lt)

    # one computation of the memo for the report, its ladder and its Poincare polynomial
    assert table_row() == expected
    assert cohomology._levi_ladder.cache_info().misses == 1
    # the per-type memo answers a repeat without computing again
    assert table_row() == expected
    assert cohomology._levi_ladder.cache_info().misses == 1
