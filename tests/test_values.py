"""The engine's value types: equality, hashing, repr and read-only fields.

Every record type but RootDatum and MinRepLevels is an immutable named
tuple: two instances built alike are equal and hash alike (the tuple hash of
their fields), and the repr names each field.  MinRepLevels builds its
elements on first read and keeps the same contract by hand.  RootDatum is
interned per type, so it compares and hashes by identity.
"""

import os
import subprocess
import sys

import pytest

import affschub
from affschub.affine import AffineElem, enumerate_minreps, translation
from affschub.cartan import LieType, RootDatum, parse_type, root_datum
from affschub.classify import type_report
from affschub.schubert import SchubertClass, generator_class
from affschub.verify import CheckResult, antidominant_equivalences, check_generator_powers
from affschub.weyl import GradedPoly

A1 = parse_type("A1")
ROOT_DATUM_FIELDS = (
    "lie_type cartan symmetrizers pos_roots pos_coroots pairing_rows highest_root"
    " highest_coroot exponents affine_cartan"
).split()

# name -> (build one instance, its fields in order, its repr in A1)
VALUES = {
    "LieType": (lambda: parse_type("A1"), "family rank", "LieType(family='A', rank=1)"),
    "MinRepLevels": (
        lambda: enumerate_minreps(A1, 1),
        "lie_type by_length max_length",
        "MinRepLevels(lie_type=LieType(family='A', rank=1), by_length="
        "((AffineElem(A1, 't:0|w:'),), (AffineElem(A1, 't:1|w:1'),)), max_length=1)",
    ),
    "AntidominanceReport": (
        lambda: antidominant_equivalences(root_datum(A1), (1,)),
        "min_rep_of_coset orbit_maximal chamber",
        "AntidominanceReport(min_rep_of_coset=False, orbit_maximal=False, chamber=False)",
    ),
    "SchubertClass": (
        lambda: generator_class(A1),
        "elem",
        "SchubertClass(elem=AffineElem(A1, 't:-1|w:'))",
    ),
    "PowerStep": (
        lambda: check_generator_powers(A1, 1)[0],
        "n nonzero index_is_expected_translation length expected_length",
        "PowerStep(n=1, nonzero=True, index_is_expected_translation=True, "
        "length=2, expected_length=2)",
    ),
    "GradedPoly": (lambda: GradedPoly.from_coeffs([1, 1, 0]), "coeffs", "GradedPoly(coeffs=(1, 1))"),
    "TypeReport": (
        lambda: type_report(A1),
        "lie_type levi_nodes levi_descriptor chain pd_status bott_nodes minuscule_nodes"
        " smooth_schubert_genv e_top max_smooth_schubert_dim",
        "TypeReport(lie_type=LieType(family='A', rank=1), levi_nodes=(), "
        "levi_descriptor='P^1', chain=True, "
        "pd_status=<PDStatus.RATIONAL_ONLY: 'rational-only'>, bott_nodes=(), "
        "minuscule_nodes=(1,), smooth_schubert_genv=True, e_top=1, "
        "max_smooth_schubert_dim=None)",
    ),
    "CheckResult": (
        lambda: CheckResult("x", True, "detail"),
        "name passed detail",
        "CheckResult(name='x', passed=True, detail='detail')",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_equality_hash_and_repr(name):
    build, fields, text = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields.split()))
    assert repr(a) == text


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_fields_are_read_only(name):
    build, fields, _ = VALUES[name]
    value = build()
    for field in fields.split():
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = None


def test_value_type_root_datum_identity():
    datum = root_datum(A1)
    assert root_datum(parse_type("C1")) is datum
    twin = RootDatum(**{k: getattr(datum, k) for k in ROOT_DATUM_FIELDS})
    assert twin != datum and datum == datum
    assert hash(datum) == object.__hash__(datum)
    assert len({datum, twin}) == 2
    assert repr(twin) == repr(datum) == (
        "RootDatum(lie_type=LieType(family='A', rank=1), cartan=((2,),), symmetrizers=(1,), "
        "pos_roots=((1,),), pos_coroots=((1,),), pairing_rows=((2,),), highest_root=(1,), "
        "highest_coroot=(1,), exponents=(1,), affine_cartan=((2, -2), (-2, 2)))"
    )
    for field in ("lie_type", "cartan", "rank", "extra"):
        with pytest.raises(AttributeError):
            setattr(datum, field, None)
    with pytest.raises(AttributeError):
        del datum.cartan
    assert datum.lie_type == LieType("A", 1)
    with pytest.raises(TypeError):
        RootDatum(lie_type=A1)


def test_value_type_schubert_class_rejects_non_minimal():
    datum = root_datum(parse_type("A2"))
    t = translation(datum, (1, 0))  # dominant, so not the shortest of its coset
    with pytest.raises(ValueError, match="minimal coset representatives"):
        SchubertClass(t)
    with pytest.raises(ValueError, match="minimal coset representatives"):
        SchubertClass(elem=t)
    # antidominant, so the shortest of its coset
    assert isinstance(SchubertClass(translation(datum, (-1, -1))).elem, AffineElem)


def test_import_leaves_out_dataclasses_and_fractions():
    # start-up cost: neither module is on any import path of the package, and the
    # CLI imports affschub.verify only when the verify command runs
    # (-S keeps site hooks of the environment from importing them first)
    src = os.path.dirname(os.path.dirname(affschub.__file__))
    code = (
        "import sys, affschub.cli\n"
        "print(sorted({'dataclasses', 'fractions', 'affschub.verify'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
