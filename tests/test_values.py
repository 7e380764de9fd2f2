"""The engine's value types: equality, hashing, repr and read-only fields.

Every record type but RootDatum is an immutable named tuple: two instances
built alike are equal and hash alike (the tuple hash of their fields), and
the repr names each field.  RootDatum is interned per type, so it compares
and hashes by identity.  The last tests pin the bytes of the classification
table and of every Chevalley ladder.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import affschub
from affschub import cli
from affschub.affine import AffineElem, translation
from affschub.cartan import LieType, RootDatum, parse_type, root_datum
from affschub.classify import all_canonical_types, classify_all, type_report
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


ENGINE_MODULES = ("cartan", "weyl", "affine", "schubert", "cohomology", "classify", "errors")


def test_import_loads_the_engine_modules_and_binds_only_them():
    # the modules are the API: `import affschub` compiles every engine module
    # (in-process callers then time no compile on their first request), leaves
    # out cli and verify, and binds no name but the modules and __version__
    src = os.path.dirname(os.path.dirname(affschub.__file__))
    code = (
        "import sys, affschub\n"
        "print(sorted(m for m in sys.modules if m.startswith('affschub.')))\n"
        "print(sorted(n for n in vars(affschub) if not n.startswith('_')))\n"
        "print('__version__' in vars(affschub))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    modules, names, version = proc.stdout.splitlines()
    assert modules == repr(sorted(f"affschub.{m}" for m in ENGINE_MODULES))
    assert names == repr(sorted(ENGINE_MODULES))
    assert version == "True"


# sha256 of the stdout of `affschub classify-all --max-rank 14 --json` and of
# `affschub chevalley T --json` for every canonical type T through rank 14,
# frozen before the Levi quotient was counted by coroot height and the Bott
# walk skipped where every coweight is a coroot
CLASSIFY_ALL_14_SHA256 = "9f3d7bfdacce6ee4059c662da08ed477b4a6b6cbfd90eb66a05ba41d434f5e3d"
CHEVALLEY_SHA256 = {
    "A1": "bd6ec48edcc1b4a9ce479ba5971f13c4be42eb4849240502e80af779cdb5e282",
    "A2": "2a905953aa0a6ccea838fded375f003f34a3564c0349fb90e972b49aa03c30f8",
    "C2": "d875281ab6edb0e70c3ee2bb331650dea65f3962c5d9f1512cbd42276874c2cb",
    "G2": "804d19416945e93d76bd3aeb848b32bec3832be50a06e102f06fc2d3cf1d62b7",
    "A3": "0b7ac90a7e1c28f1e0b15d0d1b2a95472b93f2ff5ed2585cec266098760dce0a",
    "B3": "032eaf51b907dafebbb82cea4f1a78b327d65fd4bf6be51a03fe00791a7a7be7",
    "C3": "d103c97a0c1b58a69f2aa78ebc132bad515f333c6b39f272fd655def317d195c",
    "A4": "cf5d9578914c77b7fffd5e35cc2d8dbf830648c9932b3e9aedac6fabdecd8962",
    "B4": "c69a2120b2b390503864c3302d85964b36f5461e10f4e386af82617ad26f3b72",
    "C4": "7ca3f49340facdccc7b0e24e8cedb6e1197f96da96778f675de3d846a9a22c5f",
    "D4": "9d7c249357d40f0b645be12c66f51d5ec1916b15e331b84e41deab0e47956968",
    "F4": "548a88ace86480bcce7bd40ffe31b2d3d5667350548f1cbdddc166b93a65350d",
    "A5": "67eb3d54d03c7be108ff1dcf1cff070516a4034a5223953670e0ff44c4b09c72",
    "B5": "78273012f35cb31425dd8ddad1da5070acda7c930456dac4b3fa9b5b55965ee1",
    "C5": "ca318156c26ce6422ff5ece97b2c715a43ed7e33af8f76404ee5bdedbcf5cfcf",
    "D5": "5d454a023c2981b92b855244dbd6badf995c24b5b8e58ea7a0a07783ae1c8b5b",
    "A6": "e723c3cfa84d42ede7a4a045094f04f60bafa5eef8eba0c7e47ca38b276ed22c",
    "B6": "df6f7efb29bf42108aab289b48a6ded89457cd89fa683d5c326ccb7e6d56b4f8",
    "C6": "c7581f26c3e64c9b60235d7b0350bfeac57bd90e724bb961afcba19979fdb2f4",
    "D6": "023c12ac3398dbacc2efbab824dadc7b0adc2ea767687136a951c2ab9ef9dc58",
    "E6": "e3099f90fa06d704201d2a0bb7b52dbea0a6717e447929b088a73cf23ffa2be9",
    "A7": "2364e92c4357bca67ab209068e45e27090e697850278e8c93ae1e498bcfabec8",
    "B7": "fa9875cf443f76a06eaa2318440e1f3491fafd2f61e7649f6f47a277cf462817",
    "C7": "15a8abb4d30de57f9d4658ff6eb7488d83ddbe0bbba9a9ac6e983d89f39241e5",
    "D7": "299b760c09f97500804c91dba3a6d7dd9956ece20a471379e6098296c0c524c0",
    "E7": "b82910fcec90e6b89f8401959db559039d7730250fb72c1eac5569915290eda7",
    "A8": "a7f700493d3ac42cd8bd2c900938f153b15ca6c7b5a5353973ad8706a904e503",
    "B8": "43e458475b34e6b2b2e6eee76fca4b6d00fa46fb77cae06662da98cf40813414",
    "C8": "9833ceff51e3b70ae39798a7397c0974e41371fd33ae260b18ef04966c93dd04",
    "D8": "581fd6864637341a23628b4d5c686b968fe542a1609714c7950ab20ce5dbfad8",
    "E8": "66d917b826673205966f3f422181825e5dd920ced85eff8bc0ab7943179f5406",
    "A9": "c50096770fc5ed8170cf3f2d673db415d9d051902dd864b896d2d5c1b4daa219",
    "B9": "1449b4ce697b48036e6007a46cb985f0194891933e5538e4de2b6f10454135cc",
    "C9": "b510a1bf2607cdaa36cd266f4c8e20bb5dfd688f7e8746977f6de43c862df76b",
    "D9": "0c5487d22ebc0160ba1a98f67b6fea98e34c188cd31a88e3a7dead8093b20b87",
    "A10": "c48985707acb3643b899cebf06b478980b4aeaeb503eebbdc335910463374f38",
    "B10": "ed40431f8e30c7823a84c1bbb1fd1785270995b69017f3826b618b86c5855b3d",
    "C10": "26420213e847f445c50e2b365bec22bf92b0062f42c4144fcd22358cdc4a91d8",
    "D10": "e3047c9f7ac576e7260f95b7e3929947b5f319a276a78ef7a392fbaa5d2da425",
    "A11": "9133476937acfbda38e643c864267b8c34f932e36a42d288ef7bad46ce784080",
    "B11": "e422b2c8eb8f2279d2dcb3191b51ca17dd96eb5ec03ad347502ab264d3617442",
    "C11": "b058c91297c1879f62f63eeeef1676b4394accc7f04d1264aff772e5684775de",
    "D11": "408f70e452b9cbe4b40feae51a0487f715c09b551aac081d4c55b92caefa59d9",
    "A12": "dfa5f6b23a9db5bbadb35a3694e63f237069cd4abcac7643aa319b06e58b8ea9",
    "B12": "cd8e024c8efa95b1477d13fcd4f766d0685d4db7f65d639066f1ba5f96514944",
    "C12": "1fa8cec2c484c2c5ad3899f81a05ced29a41ad092a80b636400fb6131854cab2",
    "D12": "d10840342bc8f4ec789e767e6fe1cb71aacf59359b188c47c6fb27d7a440a4da",
    "A13": "27bc8e85758eabe63e8ce1228eb27e4466fdbc1d8848658aece47ac09deb546c",
    "B13": "0589a95ac0b6576cb645db7fc3f2be8b1f4f81ce8deebf613bd788a81e667895",
    "C13": "a9af0fbe29cacba4c1c7b355a9e63eab5b2de1c6d63fd5d6dd32fca0699128fb",
    "D13": "cb25e592ff706f27b6a3a82170197f59c95a9f89991c7053dfa2b9b0b1872a37",
    "A14": "b13dc697527a6bf7a381b1581e418c29576f647c4c971ea26c1e4178709d9307",
    "B14": "38ab7895960d14536cbb4a2111d4a5a15b4be1a1c4cabe2a84e1b55e4e48ef6f",
    "C14": "fa8ea3ed02ae607bd13a37c5b36481f57a78fab304c08a24df7cf656c0cd9fd2",
    "D14": "7bd05b0bd1700dc5558c06f54f906c6597e217ae1262735153bdc3e8e343db5f",
}


def _stdout_sha256(capsys, argv):
    assert cli.main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_classify_all_output_matches_frozen_digest(capsys):
    assert _stdout_sha256(capsys, ["classify-all", "--max-rank", "14", "--json"]) == CLASSIFY_ALL_14_SHA256


def test_chevalley_digests_cover_every_type_through_rank_14():
    assert list(CHEVALLEY_SHA256) == [str(t) for t in all_canonical_types(14)]


@pytest.mark.parametrize("label", sorted(CHEVALLEY_SHA256))
def test_chevalley_output_matches_frozen_digest(label, capsys):
    assert _stdout_sha256(capsys, ["chevalley", label, "--json"]) == CHEVALLEY_SHA256[label]


# all_canonical_types(k) is the types of ranks 1..k, row by row: by rank, then
# in the order of cartan.FAMILIES, with the aliases C1, B2 and D3 left out
CANONICAL_TYPES_BY_RANK = [
    "A1",
    "A2 C2 G2",
    "A3 B3 C3",
    "A4 B4 C4 D4 F4",
    "A5 B5 C5 D5",
    "A6 B6 C6 D6 E6",
    "A7 B7 C7 D7 E7",
    "A8 B8 C8 D8 E8",
] + [f"A{n} B{n} C{n} D{n}" for n in range(9, 15)]

# the rows of classify_all(k): E8 exactly once, and last when k < 8
CLASSIFY_ALL_LABELS = {
    0: "E8",
    1: "A1 E8",
    3: "A1 A2 C2 G2 A3 B3 C3 E8",
    7: "A1 A2 C2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A5 B5 C5 D5 A6 B6 C6 D6 E6 A7 B7 C7 D7 E7 E8",
    8: "A1 A2 C2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A5 B5 C5 D5 A6 B6 C6 D6 E6 A7 B7 C7 D7 E7 A8 B8 C8 D8 E8",
    9: "A1 A2 C2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A5 B5 C5 D5 A6 B6 C6 D6 E6 A7 B7 C7 D7 E7 A8 B8 C8 D8 E8"
    " A9 B9 C9 D9",
}

# sha256 of the stdout of `affschub classify-all --max-rank k --json`, k < 14,
# frozen before the type list was read off parse_type's rank rule
CLASSIFY_ALL_SHA256 = {
    0: "36fb5a9e737f2aee82295eb3967d795989b10c3b0fe7cb69fbd766f91a8ac064",
    1: "016877872ca7db660c3083e520c9230ab2cf2912a189e83e1b2d0fc29d7485e1",
    2: "3d52b28756809fe58a5295f393ae791cc00e80a06ec5fd59ba414c6713e62147",
    3: "6d6d1d6981b03f7f953def0c70ee8de56000213425506045ae1358cf31ec35bb",
    4: "c65b70c4500b428fdb90fab137072bc3a2def1817c51c1ef425d657920e69d0c",
    5: "8a1a978995d1f1f6417bf0d1d237e5e298c0c24fa72944218a9ec2abcd9ecbd1",
    6: "75b9d49d35a81a8a1055d1edeceefbaa2abeb7ab60e249712241ab6e427abe77",
    7: "67626d5c9c370c0ccbf08f673ac1219568a58fe3eacf2f330b4fdf88659243b7",
    8: "4baf77701399b88f686b510b4355c7467f5dab9eab37b6a343aed8ca3c7aabe6",
    9: "346b0034eb33ca8ab8d69134f8630095fa5b1a6e882ffe65e3b73705786c4579",
    10: "4e50f2de782d80f02fc7be2beef94666372806f4a5ff07683953707562058462",
    11: "f8dc58c026d359054e6f72623185d36067352382f4cd2b20afcaf1bbdc5c1497",
    12: "c90dc068d7b9a6ba25655ef8ca3fbfd512829d7853b284a7c968d04646156068",
    13: "1b89ab97bbebde489fad414bae2b0e1486d50cb4129d2ef98d7d12afad533108",
}


@pytest.mark.parametrize("max_rank", range(15))
def test_canonical_types_are_the_ranks_rows(max_rank):
    labels = " ".join(CANONICAL_TYPES_BY_RANK[:max_rank]).split()
    assert [str(t) for t in all_canonical_types(max_rank)] == labels


@pytest.mark.parametrize("max_rank", sorted(CLASSIFY_ALL_LABELS))
def test_classify_all_rows_add_e8_once(max_rank):
    assert [str(r.lie_type) for r in classify_all(max_rank)] == CLASSIFY_ALL_LABELS[max_rank].split()


@pytest.mark.parametrize("max_rank", sorted(CLASSIFY_ALL_SHA256))
def test_classify_all_output_below_rank_14_matches_frozen_digest(max_rank, capsys):
    argv = ["classify-all", "--max-rank", str(max_rank), "--json"]
    assert _stdout_sha256(capsys, argv) == CLASSIFY_ALL_SHA256[max_rank]
