"""The Levi quotient's cup ladder against the Chevalley rule, and the Thom duality classification."""

import types

import pytest

from affschub import affine, cli, cohomology, weyl
from affschub.cartan import RootDatum, parse_type, root_datum
from affschub.classify import all_canonical_types, type_report
from affschub.cohomology import PDStatus, chain_coeffs, levi_nodes, levi_poincare, pd_status
from affschub.weyl import identity, reflection, simple_reflection
from oracles import apply_root, has_right_descent, long_root_levels, min_coset_reps


def datum(label):
    return root_datum(parse_type(label))


def _unfiltered_chevalley(lt, nodes, mu, w):
    """Every positive root tried, pairing through the Cartan matrix: the oracle."""
    d = root_datum(lt)
    n = d.rank
    out = {}
    for beta, cor in zip(d.pos_roots, d.pos_coroots):
        ws = w * reflection(d, beta)
        if ws.length() != w.length() + 1 or any(has_right_descent(ws, lbl) for lbl in nodes):
            continue
        coeff = sum(cor[i] * d.cartan[i][j] * mu[j] for i in range(n) for j in range(n))
        if coeff:
            out[ws] = out.get(ws, 0) + coeff
    return out


def _c1_terms(label):
    """c1 as the weight-theta divisor class times the identity's class, by the oracle."""
    lt, d = parse_type(label), datum(label)
    return _unfiltered_chevalley(lt, levi_nodes(lt), d.highest_root, identity(d))


def test_g2_chain_coeffs():
    assert chain_coeffs(parse_type("G2")) == (1, 3, 2, 3, 1)


def test_c2_twice_a_generator():
    lt = parse_type("C2")
    ((w, coeff),) = _c1_terms("C2").items()
    assert w == simple_reflection(datum("C2"), 1)
    assert coeff == 2
    assert chain_coeffs(lt) == (2, 2, 2)


def test_a1_chain_coeffs():
    assert chain_coeffs(parse_type("A1")) == (2,)


def test_cn_chain_coeffs_all_two():
    for n in (3, 4):
        coeffs = chain_coeffs(parse_type(f"C{n}"))
        assert coeffs == (2,) * (2 * n - 1)


def test_a2_c1_distributes_over_both_divisors():
    # the Levi quotient is the full flag variety; the highest root is the sum
    # of the simple roots, so c1 pairs (1, 1) against the two divisor classes
    coeffs = {w.word(): c for w, c in _c1_terms("A2").items()}
    assert coeffs == {(1,): 1, (2,): 1}


def test_a3_not_a_chain():
    assert chain_coeffs(parse_type("A3")) is None


def test_g2_c1_is_first_chain_class():
    ((w, coeff),) = _c1_terms("G2").items()
    assert coeff == 1 and w == simple_reflection(datum("G2"), 2)


def test_e8_c1_is_the_last_node():
    ((w, coeff),) = _c1_terms("E8").items()
    assert coeff == 1 and w == simple_reflection(datum("E8"), 8)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "B3"])
def test_chevalley_raises_grading_by_one(label):
    # the terms s_i y of c1 * y are the up-steps of the point of y(theta) (p[i] > 0), the
    # ones the ladder reads: each lands one level up, and they reach every point there
    d = datum(label)
    levels = long_root_levels(d)
    for below, above in zip(levels, levels[1:]):
        ups = {tuple(x - c * row[i] for x, row in zip(p, d.cartan)) for p in below for i, c in enumerate(p) if c > 0}
        assert ups == set(above)


# every canonical type through rank 10, E8 among them
@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(10)])
def test_ladder_matches_chevalley_oracle(label):
    # the ladder and the cell counts against the Chevalley products along the quotient
    lt = parse_type(label)
    nodes = levi_nodes(lt)
    theta = datum(label).highest_root
    levels = min_coset_reps(lt, nodes)
    assert levi_poincare(lt).coeffs == tuple(len(level) for level in levels)
    for below, above in zip(levels, levels[1:]):
        for w in below:
            assert set(_unfiltered_chevalley(lt, nodes, theta, w)) <= set(above)
    if any(len(level) != 1 for level in levels):
        assert chain_coeffs(lt) is None
        return
    ladder = []
    for (y,), (y_next,) in zip(levels, levels[1:]):
        ((w, coeff),) = _unfiltered_chevalley(lt, nodes, theta, y).items()
        assert w == y_next
        ladder.append(coeff)
    assert chain_coeffs(lt) == tuple(ladder)


def _long_roots(lt):
    """Number of long roots, 2 * (long positive roots), from the tables of the simple types."""
    n = lt.rank
    return {"A": n * (n + 1), "B": 2 * n * (n - 1), "C": 2 * n, "D": 2 * n * (n - 1),
            "E": {6: 72, 7: 126, 8: 240}.get(n), "F": 24, "G": 6}[lt.family]


def _theta_walk(lt):
    """The orbit of theta walked by up-steps from theta's pairing row: the oracle.

    A point is its pairings p = (<alpha_i^v, gamma>)_i; an up-step at p[i] > 0
    moves p[j] -= p[i] * A[j][i], along column i of the Cartan matrix.
    """
    d = root_datum(lt)
    columns = tuple(zip(*d.cartan))
    levels = [(d.pairing_rows[-1],)]
    while True:
        nxt = tuple(dict.fromkeys(
            tuple(x - c * a for x, a in zip(p, columns[i]))
            for p in levels[-1] for i, c in enumerate(p) if c > 0
        ))
        if not nxt:
            return levels
        levels.append(nxt)


@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(14)])
def test_long_root_levels_match_walk_oracle(label):
    # the oracle's coroot-height levels against the up-step walk of theta's orbit,
    # and the counted polynomial and ladder against the oracle's levels
    lt = parse_type(label)
    levels = long_root_levels(datum(label))
    walk = _theta_walk(lt)
    assert len(levels) == len(walk)
    for points, walked in zip(levels, walk):
        assert len(points) == len(walked) and set(points) == set(walked)
    assert levi_poincare(lt).coeffs == tuple(map(len, levels))
    chain = all(len(points) == 1 for points in levels)
    assert chain_coeffs(lt) == (tuple(max(p) for (p,) in levels[:-1]) if chain else None)


@pytest.mark.parametrize("label", [str(t) for t in all_canonical_types(10)])
def test_theta_orbit_matches_coset_oracle(label):
    # the long-root levels against y(theta) for y in min_coset_reps, level by level
    lt = parse_type(label)
    d = datum(label)
    theta = d.highest_root
    levels = min_coset_reps(lt, levi_nodes(lt))
    orbit = long_root_levels(d)
    assert levi_poincare(lt).coeffs == tuple(len(level) for level in levels)
    for points, level in zip(orbit, levels, strict=True):
        images = [apply_root(y, theta) for y in level]
        pairings = {tuple(sum(a * c for a, c in zip(row, g)) for row in d.cartan) for g in images}
        assert set(points) == pairings and len(points) == len(level)
    assert sum(map(len, orbit)) == _long_roots(lt)
    assert orbit[-1] == [tuple(-c for c in d.pairing_rows[-1])]
    assert apply_root(levels[-1][0], theta) == tuple(-c for c in theta)


def _stand_in(label, **fields):
    """The root datum of a type as a plain namespace, with some fields replaced."""
    real = datum(label)
    return types.SimpleNamespace(**{**{f: getattr(real, f) for f in RootDatum._FIELDS}, **fields})


def _ladder_of(stand_in, monkeypatch):
    monkeypatch.setattr(cohomology, "root_datum", lambda lt: stand_in)
    # past the memo, so the stand-in is read
    return cohomology._levi_ladder.__wrapped__(stand_in.lie_type)


def _swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


# each stand-in breaks one of the ladder's three checks: contiguous levels, level 0, a chain rung
@pytest.mark.parametrize("label, fields, match", [
    # the symmetrizers swapped: alpha_1, of coroot height 1, is G2's one long root
    ("G2", lambda d: {"symmetrizers": (3, 1)}, r"long-root levels of G2 are \[2, 3\], not 0..5"),
    # a second long root at theta^v's height: two points at level 0
    ("A3", lambda d: {"pos_coroots": d.pos_coroots[:-2] + d.pos_coroots[-1:] * 2}, "level 0 of the long roots of A3"),
    # the pairing rows of the long roots at levels 1 and 2 swapped
    ("C3", lambda d: {"pairing_rows": _swap(d.pairing_rows, 0, 5)}, "rung 1 of the C3 chain"),
], ids=["gap", "level_0", "chain_rung"])
def test_ladder_check_rejects_corrupted_level(label, fields, match, monkeypatch):
    with pytest.raises(ArithmeticError, match=match):
        _ladder_of(_stand_in(label, **fields(datum(label))), monkeypatch)


# every symmetrizer equal counts short roots beyond theta^v's height; a highest
# coroot of height 1 leaves the long roots above it
@pytest.mark.parametrize("label", ["C2", "G2", "B3", "C3", "F4"])
@pytest.mark.parametrize("kind", ["equal_symmetrizers", "low_highest_coroot"])
def test_long_root_levels_reject_stand_in_datum(label, kind, monkeypatch):
    d = datum(label)
    fields = {"symmetrizers": (1,) * d.rank} if kind == "equal_symmetrizers" else {"highest_coroot": d.pos_coroots[0]}
    with pytest.raises(ArithmeticError, match=f"long-root levels of {label} are"):
        _ladder_of(_stand_in(label, **fields), monkeypatch)
    with pytest.raises(ArithmeticError, match=f"long-root levels of {label} are"):
        long_root_levels(_stand_in(label, **fields))


def test_long_root_level_fault_exits_4(capsys, monkeypatch):
    fake = _stand_in("G2", symmetrizers=(3, 1))
    cohomology._levi_ladder.cache_clear()
    monkeypatch.setattr(cohomology, "root_datum", lambda lt: fake)
    assert cli.main(["chevalley", "G2", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "long-root levels of G2 are [2, 3], not 0..5" in captured.err
    assert "Traceback" not in captured.err


def test_type_report_forms_no_chevalley_product(monkeypatch):
    # the classification path reads the long roots off the root datum: no group element, no walk
    calls = {"mul": 0, "word": 0, "elem": 0, "reflection": 0, "climb": 0}

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    cohomology._levi_ladder.cache_clear()
    monkeypatch.setattr(weyl.WeylElem, "__mul__", count("mul", weyl.WeylElem.__mul__))
    monkeypatch.setattr(weyl.WeylElem, "word", count("word", weyl.WeylElem.word))
    monkeypatch.setattr(weyl.WeylElem, "__init__", count("elem", weyl.WeylElem.__init__))
    monkeypatch.setattr(weyl, "_reflection", count("reflection", weyl._reflection))
    monkeypatch.setattr(weyl, "_climb", count("climb", weyl._climb))
    monkeypatch.setattr(affine, "_climb", count("climb", weyl._climb))
    types = all_canonical_types(10)
    for lt in types:
        type_report(lt)
    assert cli.main(["classify-all", "--max-rank", "10", "--json"]) == 0
    for lt in types:
        assert cli.main(["chevalley", str(lt), "--json"]) == 0
        assert cli.main(["report", str(lt)]) == 0
    assert calls == {"mul": 0, "word": 0, "elem": 0, "reflection": 0, "climb": 0}


CHAIN_TYPES = ["A1", "C2", "C3", "C4", "G2"]
NON_CHAIN = ["A2", "A3", "A4", "B3", "B4", "D4", "D5", "E6", "E7", "E8", "F4"]


@pytest.mark.parametrize("label", CHAIN_TYPES)
def test_rational_only(label):
    lt = parse_type(label)
    assert pd_status(lt, chain_coeffs(lt)) == PDStatus.RATIONAL_ONLY


@pytest.mark.parametrize("label", NON_CHAIN)
def test_not_palindromic(label):
    lt = parse_type(label)
    assert pd_status(lt, chain_coeffs(lt)) == PDStatus.NOT_PALINDROMIC


@pytest.mark.parametrize("label", CHAIN_TYPES + NON_CHAIN)
def test_never_integral(label):
    lt = parse_type(label)
    assert pd_status(lt, chain_coeffs(lt)) != PDStatus.INTEGRAL


@pytest.mark.parametrize("label", CHAIN_TYPES)
def test_chain_partial_products_nonzero_some_nonunit(label):
    coeffs = chain_coeffs(parse_type(label))
    prod = 1
    for a in coeffs:
        prod *= a
        assert prod != 0
    assert any(abs(a) != 1 for a in coeffs)


def test_levi_nodes_examples():
    assert levi_nodes(parse_type("A1")) == frozenset()
    assert levi_nodes(parse_type("A4")) == {2, 3}
    assert levi_nodes(parse_type("G2")) == {1}
    assert levi_nodes(parse_type("C3")) == {2, 3}
    assert levi_nodes(parse_type("E8")) == frozenset(range(1, 8))


def test_levi_poincare_is_chain_iff_status_palindromic():
    for label in CHAIN_TYPES + NON_CHAIN:
        lt = parse_type(label)
        assert levi_poincare(lt).is_chain() == (
            pd_status(lt, chain_coeffs(lt)) != PDStatus.NOT_PALINDROMIC
        )
