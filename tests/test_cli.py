"""The command-line surface: outputs, exit codes, determinism."""

import hashlib
import json
import time

import pytest

from affschub.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_command(capsys):
    code, out, _ = run(capsys, "star", "A1", "word:0", "word:1,0")
    assert code == 0
    assert out.strip() == "class word:0,1,0"


def test_star_zero(capsys):
    code, out, _ = run(capsys, "star", "A1", "word:0", "word:0")
    assert code == 0
    assert out.strip() == "0"


def test_chevalley_g2_json(capsys):
    code, out, _ = run(capsys, "chevalley", "G2", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["a"] == [1, 3, 2, 3, 1]
    assert payload["pd_status"] == "rational-only"


def test_chevalley_non_chain(capsys):
    code, out, _ = run(capsys, "chevalley", "A3", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["a"] is None and payload["chain"] is False


def test_report(capsys):
    code, out, _ = run(capsys, "report", "E8", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["smooth_schubert_genv"] is False
    assert payload["e_top"] == 29
    assert payload["max_smooth_schubert_dim"] == 14


def test_classify_all_table(capsys):
    code, out, _ = run(capsys, "classify-all", "--max-rank", "4")
    assert code == 0
    lines = out.splitlines()
    false_rows = [l.split()[0] for l in lines[1:] if " False " in f" {l.split()[3]} "]
    assert set(false_rows) == {"G2", "F4", "E8"}


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--max-len", "4", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["level_sizes"] == [1, 1, 2, 2, 3]
    assert payload["levels"][1] == ["word:0"]


def test_no_cache_flag_is_a_no_op(capsys):
    _, plain, _ = run(capsys, "enumerate", "G2", "--max-len", "6", "--json")
    _, flagged, _ = run(capsys, "enumerate", "G2", "--max-len", "6", "--json", "--no-cache")
    assert plain == flagged
    assert json.loads(plain)["payload"]["level_sizes"] == [1, 1, 1, 1, 1, 2, 2]


def test_byte_identical_output(capsys):
    _, a, _ = run(capsys, "report", "F4", "--json")
    _, b, _ = run(capsys, "report", "F4", "--json")
    assert a == b


def test_json_roundtrip(capsys):
    _, out, _ = run(capsys, "segments", "C2", "--json")
    envelope = json.loads(out)
    assert json.loads(json.dumps(envelope)) == envelope
    assert envelope["schema_version"] == 1
    assert envelope["type_label"] == "C2"
    assert envelope["convention_hash"]


def test_poincare(capsys):
    code, out, _ = run(capsys, "poincare", "A1", "--element", "t:-1", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["coefficients"] == [1, 1, 1]
    assert payload["palindromic"] is True


def test_factorize(capsys):
    code, out, _ = run(capsys, "factorize", "A1", "--element", "word:0,1,0")
    assert code == 0
    assert out.strip() == "word:0 * word:1,0"


def test_segments_text(capsys):
    code, out, _ = run(capsys, "segments", "A1")
    assert code == 0
    assert "2 segments" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "star", "A1", "word:7", "word:0")
    assert code == 2
    assert "'7'" in err
    code, _, err = run(capsys, "report", "Z9")
    assert code == 2
    assert "Z9" in err


# word:0,1 has a right descent at label 1 in G2, so it indexes no Schubert class
@pytest.mark.parametrize("argv", [
    ["star", "G2", "word:0,1", "word:0"],
    ["star", "G2", "word:0", "word:0,1"],
    ["factorize", "G2", "--element", "word:0,1"],
])
def test_non_minimal_representative_error_names_the_element(capsys, argv):
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: element 'word:0,1': ") and "minimal coset representatives" in err


# str.isdigit accepts these, int() does not
@pytest.mark.parametrize("word,token", [("word:²", "²"), ("word:1,①", "①")])
def test_non_decimal_digit_is_a_parse_error(capsys, word, token):
    code, out, err = run(capsys, "star", "A3", word, "word:0")
    assert code == 2 and out == ""
    assert f"parse error: bad node index {token!r} in word" in err


def test_bound_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "A2", "--max-len", "30")
    assert code == 3
    assert "bound" in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("poincare", "A3", "--element", "t:-3,0,0"), "pass --max-len 16 "),
        (("star", "A1", "t:-10000000", "t:-1"), "pass --max-word-len 20000002 "),
        (("star", "A1", "t:-2000", "t:-1", "--max-word-len", "4001"), "pass --max-word-len 4002 "),
        (("enumerate", "A2", "--max-len", "30"), "pass --max-enum-len 30 "),
        # the word bound is hit, which --max-len does not raise
        (
            ("poincare", "A1", "--element", "t:-60000", "--max-len", "200000"),
            "reduced word length 120000 exceeds the configured limit 100000; "
            "no flag of 'poincare' raises it",
        ),
        (("factorize", "A1", "--element", "t:-20"), "pass --max-len 40 "),
        (("verify", "F4", "--suite", "decompose"), "pass --max-len 19 "),
    ],
)
def test_bound_exceeded_names_flag(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert expected in err and "bound=" not in err


@pytest.mark.parametrize(
    "argv,expected",
    [
        (
            ("report", "A10000", "--json"),
            "A10000 root coordinates (positive roots x rank) 500050000000 exceeds the configured limit 2000000; "
            "no flag of 'report' raises it",
        ),
        # every type of the table is checked before the first row: B126 is the first past the limit
        (
            ("classify-all", "--max-rank", "10000", "--json"),
            "B126 root coordinates (positive roots x rank) 2000376 exceeds the configured limit 2000000; "
            "no flag of 'classify-all' raises it",
        ),
    ],
    ids=["report", "classify-all"],
)
def test_root_data_bound_exits_3_at_once(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"bound exceeded: {expected}\n")


def test_factorize_many_factors_without_recursion(capsys):
    code, out, _ = run(capsys, "factorize", "A1", "--element", "t:-1000", "--max-len", "2000", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["factors"] == ["word:1,0"] * 1000
    assert payload["star_refactors"] is True


def test_max_enum_len_raises_the_bound(capsys):
    code, out, _ = run(capsys, "enumerate", "A2", "--max-len", "13", "--max-enum-len", "13", "--json")
    assert code == 0
    assert json.loads(out)["payload"]["level_sizes"][-1] == 7


def test_star_word_within_bound(capsys):
    code, out, _ = run(capsys, "star", "A1", "t:-2000", "t:-1", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["result"].split(",")) == 4002


def test_internal_failure_exit_4(capsys, monkeypatch):
    import affschub.affine as affine
    import affschub.schubert as schubert

    monkeypatch.setattr(schubert, "segment_factorizations", lambda w, bound=None: [[], []])
    code, out, err = run(capsys, "factorize", "A1", "--element", "word:0,1,0")
    assert code == 4 and out == ""
    assert "internal error" in err and "found 2" in err
    monkeypatch.undo()
    true_length = affine.AffineElem.length
    monkeypatch.setattr(affine.AffineElem, "length", lambda self: true_length(self) + 1)
    code, out, err = run(capsys, "star", "A1", "word:0", "word:1,0")
    assert code == 4 and out == ""
    assert "no left descent" in err


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "A1", "--suite", "canonical")
    assert code == 0
    assert out.startswith("PASS")
    code, _, err = run(capsys, "verify", "A1", "--suite", "nope")
    assert code == 2


def test_failing_suite_exits_1(capsys, monkeypatch):
    import affschub.verify as verify

    failing = [verify.CheckResult("forced", False, "made to fail")]
    monkeypatch.setitem(verify.SUITES, "canonical", lambda lie_type, **kwargs: failing)
    assert run(capsys, "verify", "A1", "--suite", "canonical") == (1, "FAIL forced: made to fail\n", "")
    code, out, err = run(capsys, "verify", "A1", "--suite", "canonical", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out)["payload"]["passed"] is False


# sha256 of f"{exit code}\n{stdout}\0{stderr}" for one text and one --json run of
# each subcommand, and for the error paths that main maps to exits 2 and 3
CLI_SHA256 = [
    ("report G2", 0, "af9efa354869dde3a2e6b04c011af4766781f3bd93511757541261e48330b416"),
    ("report A3 --json", 0, "58240d61f903c3dc7cce56794dc92a9caeadc6de46cb103d1f5b095b0487a85f"),
    ("enumerate A2 --max-len 5", 0, "e68e30754e7716ead6cd75169280e06beb473f7ca612f959ee7208915b323cfe"),
    ("enumerate G2 --max-len 6 --json", 0, "7a6418de69d76c104fddb231ae2ee7296d14974ba3b88f279c53ed92721a4440"),
    ("poincare A1 --element t:-1", 0, "40411c632231f0ecc7b76b7bd5d1c49aad3f828e0577556a904e6aca64d69580"),
    ("poincare C2 --element t:-2,0 --json", 0, "8dfa5fbb7f33f5815607c3242ed0c547b389348530b536bbdf1c7ae0bd2403a9"),
    ("star A1 word:0 word:1,0", 0, "afcf92a07093fb457128bd76cf299de08eb3bd5c66dfda52b974137a0fea193b"),
    ("star A2 word:1,2,0 word:0,2,1,0 --json", 0, "84e0cd6b587fe8ca5adcad33ac6702228ff0da41de4839411db94f0bc65e3ca3"),
    ("segments G2", 0, "853e6eda3831c373908345c58738157490694f4048d26f8e11037d03aa1da9ee"),
    ("segments C2 --json", 0, "8987dbc8eab8399976313d452b871103961011c6de50140dc82683804e9bb65d"),
    ("factorize A1 --element word:0,1,0", 0, "8439e2c7254b93db3c071837a03b90ecea34121e8a363173b9e8e1fa4b13306f"),
    ("factorize G2 --element word:0,1,2,1,2,0 --json", 0, "101e1696dccff22ca8a14abb862d1cefa53c9c96d8d0af481866b8344561ea9d"),
    ("chevalley A3", 0, "045f14e5d041c5dcd8987e7e4894fa401b5120165b6b2721ee039bb1acc013ed"),
    ("chevalley G2 --json", 0, "1dff3c1ffed6fd118b62d93cd9d51113b79b2e190232238a6c4c903742093d64"),
    ("classify-all --max-rank 4", 0, "c8192ab8ca84cc759f675b00516383070d39de8d1992118618ae487399bd6dc2"),
    ("classify-all --max-rank 2 --json", 0, "3b0b4448902dcc835dbde64ee2584c51fcbdc21dd65aae3ba633ddb124f693a4"),
    ("verify A2 --suite segments", 0, "5a39dbcd4f874018e60f2a6f5f45a1eb98b33d284663348bdcfbe4cf35513906"),
    ("verify A1 --suite series --json", 0, "c0dbac8a32537b5b77506ed57a8c1d306a28bd4249fb02d03d3d674b87336843"),
    ("star A1 word:7 word:0", 2, "fdd374dea08745c942f21a1738919b309729ee7c7c20b5b9a90611d5c2e0970e"),
    ("report Z9 --json", 2, "4ff4f4033375cf38530ed15d59f298cd9aa9239ca57fa1d9a4639c2f86b6fc8a"),
    ("verify A1 --suite nope", 2, "42c2e7560182fdc9862068ba57ff04906fc77f6d29148a21930e55b32b50d2f2"),
    ("star G2 word:0,1 word:0 --json", 2, "9f2ee18184df5914bbc57fd2f9b5990429b1788eb836f9662a9a611dd1e81069"),
    ("enumerate A2 --max-len 30", 3, "3091a4deeab48981228bb4b3b589ee69223c27e48deaf8055b0d0c60adc60f6b"),
    ("star A1 t:-2000 t:-1 --max-word-len 4001 --json", 3, "eddc64e66cd63f4fe417cadad5108dea64255c31846782bdcd9882b269e84ed3"),
    ("poincare A1 --element t:-60000 --max-len 200000", 3, "ec65241512296126e4e1f04fce0d91d70d7c7fc62005579e3d1739193821c9c6"),
]


@pytest.mark.parametrize("argv,code,digest", CLI_SHA256, ids=[c[0] for c in CLI_SHA256])
def test_cli_output_pinned(capsys, argv, code, digest):
    got, out, err = run(capsys, *argv.split())
    assert (got, hashlib.sha256(f"{got}\n{out}\0{err}".encode()).hexdigest()) == (code, digest)


# the types through rank 10 whose third generator power is longer than 64
@pytest.mark.parametrize("label", ["E6", "E7", "E8", "B7", "B8", "B9", "B10", "D7", "D8", "D9", "D10"])
def test_verify_canonical_passes_past_element_bound(capsys, label):
    code, out, err = run(capsys, "verify", label, "--suite", "canonical", "--json")
    assert code == 0, err
    assert json.loads(out)["payload"]["passed"] is True


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "A1", "--suite", "series", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["passed"] is True
    assert all(r["passed"] for r in payload["results"])


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("enumerate", "A2", "--max-len", "-1", "--no-cache"), "--max-len"),
        (("poincare", "A1", "--element", "t:-1", "--max-len", "-1"), "--max-len"),
        (("factorize", "A2", "--element", "word:0", "--max-len", "-2"), "--max-len"),
        (("verify", "A1", "--suite", "canonical", "--max-len", "-1"), "--max-len"),
        (("classify-all", "--max-rank", "-1"), "--max-rank"),
        (("enumerate", "A2", "--max-enum-len", "-1"), "--max-enum-len"),
        (("star", "A1", "t:-1", "t:-1", "--max-word-len", "-1"), "--max-word-len"),
    ],
)
def test_negative_size_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and ">= 0" in err


def test_chevalley_builds_each_result_once(capsys):
    import affschub.cohomology as cohomology

    cohomology._levi_ladder.cache_clear()
    code, out, _ = run(capsys, "chevalley", "G2")
    assert code == 0
    assert out.strip() == "G2: a = [1, 3, 2, 3, 1] (rational-only)"
    # the ladder and the Poincare polynomial come from one computation of the memo
    assert cohomology._levi_ladder.cache_info().misses == 1
    assert run(capsys, "chevalley", "G2")[1] == out
    assert cohomology._levi_ladder.cache_info().misses == 1


FACTORIZE_A2_JSON = """{
  "command": "factorize",
  "convention_hash": "0157cd568b25",
  "payload": {
    "element": "word:2,0,1,2,0",
    "factors": [
      "word:2,0",
      "word:1,2,0"
    ],
    "star_refactors": true
  },
  "schema_version": 1,
  "type_label": "A2"
}
"""


def test_factorize_builds_factorization_once(capsys, monkeypatch):
    import affschub.schubert as schubert

    calls = []
    real = schubert.segment_factorize

    def counting(w, **kwargs):
        calls.append(w)
        return real(w, **kwargs)

    monkeypatch.setattr(schubert, "segment_factorize", counting)
    code, out, _ = run(capsys, "factorize", "A2", "--element", "word:2,0,1,2,0")
    assert (code, out) == (0, "word:2,0 * word:1,2,0\n")
    assert len(calls) == 1
    code, out, _ = run(capsys, "factorize", "A2", "--element", "word:2,0,1,2,0", "--json")
    assert (code, out) == (0, FACTORIZE_A2_JSON)
    assert len(calls) == 2


def test_verify_segments_factorizes_each_element_once(monkeypatch):
    import affschub.schubert as schubert
    import affschub.verify as verify
    from affschub.cartan import parse_type

    calls = []
    real = schubert.segment_factorizations

    def counting(w, **kwargs):
        calls.append(w)
        return real(w, **kwargs)

    monkeypatch.setattr(schubert, "segment_factorizations", counting)
    monkeypatch.setattr(verify, "segment_factorizations", counting)
    results = verify.suite_segments(parse_type("A2"))
    assert all(r.passed for r in results)
    # one factorization per representative, reused by the star refold check
    assert len(calls) == len(set(calls)) > 1


def test_factorize_word_bound_stops_before_the_search(capsys, monkeypatch):
    import affschub.schubert as schubert

    calls = []
    monkeypatch.setattr(schubert, "segment_factorizations", lambda w, **kw: calls.append(w))
    code, out, err = run(capsys, "factorize", "A1", "--element", "t:-60000", "--max-len", "200000")
    assert (code, out, calls) == (3, "", [])
    assert err == (
        "bound exceeded: reduced word length 120000 exceeds the configured limit 100000; "
        "no flag of 'factorize' raises it\n"
    )


def test_verify_segments_walks_the_seed_interval_once(monkeypatch):
    import affschub.affine as affine
    import affschub.schubert as schubert
    import affschub.verify as verify
    from affschub.cartan import parse_type

    calls = []
    real = affine.lower_interval

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(affine, "lower_interval", counting)
    monkeypatch.setattr(schubert, "lower_interval", counting)
    schubert._segments.cache_clear()
    results = verify.suite_segments(parse_type("A2"))
    assert all(r.passed for r in results)
    # the segments are the seed interval; the suite does not walk it again
    assert len(calls) == 1


def test_verify_decompose_walks_each_interval_once(monkeypatch):
    import affschub.affine as affine
    import affschub.schubert as schubert
    import affschub.verify as verify
    from affschub.cartan import parse_type, root_datum

    calls = []
    real = affine.lower_interval

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(affine, "lower_interval", counting)
    monkeypatch.setattr(schubert, "lower_interval", counting)
    schubert._segments.cache_clear()  # so that the seed walk is counted
    results = verify.suite_decompose(parse_type("B3"), bound=11)
    assert all(r.passed for r in results)
    # the classes under t_lam once, as the segments, then the classes under
    # each product other than t_lam itself (the identity sigma's) once
    sigmas = list(affine.enumerate_minreps(parse_type("B3"), 3).flat())
    t = affine.seed_translation(root_datum(parse_type("B3")))
    assert calls[0] == t
    assert calls[1:] == [affine.min_rep(sigma * t) for sigma in sigmas[1:]]
    assert len(calls) == len(sigmas) == 5


# Each command formats every element once: its text lines reuse the words
# of the payload.  (argv, distinct elements formatted, words in the text)
FORMAT_ONCE = [
    # D4 has 63 minimal representatives through length 10
    (("enumerate", "D4", "--max-len", "10"), 63, 63),
    (("poincare", "A2", "--element", "t:-30,-30", "--max-len", "120"), 1, 1),
    # the element and its two factors; the text line shows the factors only
    (("factorize", "A2", "--element", "word:2,0,1,2,0"), 3, 2),
    (("segments", "F4"), 24, 24),
]


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("argv,formatted,words", FORMAT_ONCE, ids=[c[0][0] for c in FORMAT_ONCE])
def test_enumerate_formats_each_element_once(capsys, monkeypatch, extra, argv, formatted, words):
    import affschub.cli as cli

    calls = []
    real = cli.format_element

    def counting(x, **kwargs):
        calls.append(x)
        return real(x, **kwargs)

    monkeypatch.setattr(cli, "format_element", counting)
    code, out, _ = run(capsys, *argv, *extra)
    assert code == 0
    assert len(calls) == len(set(calls)) == formatted
    assert out.count("word:") == (formatted if extra else words)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_verify_antidominant_work_bound_stops_before_the_walk(capsys, label):
    code, out, err = run(capsys, "verify", label, "--suite", "antidominant", "--json")
    assert code == 3 and out == ""
    assert "antidominant suite work" in err and "no flag of 'verify' raises it" in err
