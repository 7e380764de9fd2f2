"""Randomized algebraic laws, kept deterministic via derandomized hypothesis."""

from hypothesis import given, settings, strategies as st

from affschub.cartan import parse_type, root_datum
from affschub.affine import (
    affine_identity,
    format_element,
    from_word,
    parse_element,
    reduced_word,
)
from oracles import inverse

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

types = st.sampled_from(["A1", "A2", "C2", "G2"])


def words(max_len=8):
    def for_type(label):
        rank = parse_type(label).rank
        return st.lists(
            st.integers(min_value=0, max_value=rank), min_size=0, max_size=max_len
        ).map(lambda w: (label, tuple(w)))

    return types.flatmap(for_type)


@given(words())
@SETTINGS
def test_word_product_length_bounded(tw):
    label, word = tw
    x = from_word(root_datum(parse_type(label)), word)
    assert 0 <= x.length() <= len(word)
    assert (x.length() - len(word)) % 2 == 0  # parity of the Coxeter sign


@given(words())
@SETTINGS
def test_inverse_laws(tw):
    label, word = tw
    d = root_datum(parse_type(label))
    x = from_word(d, word)
    assert x * inverse(x) == affine_identity(d)
    assert inverse(x).length() == x.length()
    assert inverse(inverse(x)) == x


@given(words(max_len=5), words(max_len=5))
@SETTINGS
def test_length_subadditive(tw1, tw2):
    label = tw1[0]
    d = root_datum(parse_type(label))
    x = from_word(d, tw1[1])
    y = from_word(d, tw2[1] if tw2[0] == label else tw1[1])
    assert (x * y).length() <= x.length() + y.length()
    assert (x * y).length() >= abs(x.length() - y.length())


@given(words(max_len=4), words(max_len=4), words(max_len=4))
@SETTINGS
def test_group_associativity(tw1, tw2, tw3):
    label = tw1[0]
    d = root_datum(parse_type(label))
    x = from_word(d, tw1[1])
    y = from_word(d, tw2[1] if tw2[0] == label else ())
    z = from_word(d, tw3[1] if tw3[0] == label else ())
    assert (x * y) * z == x * (y * z)


@given(words())
@SETTINGS
def test_reduced_word_is_reduced_and_reassembles(tw):
    label, word = tw
    d = root_datum(parse_type(label))
    x = from_word(d, word)
    rw = reduced_word(x)
    assert len(rw) == x.length()
    assert from_word(d, rw) == x


@given(words())
@SETTINGS
def test_format_parse_roundtrip(tw):
    label, word = tw
    d = root_datum(parse_type(label))
    x = from_word(d, word)
    assert parse_element(d, format_element(x)) == x


@given(
    types,
    st.lists(st.integers(min_value=-2, max_value=2), min_size=1, max_size=2),
)
@SETTINGS
def test_translation_parse_roundtrip(label, coords):
    from affschub.affine import translation

    d = root_datum(parse_type(label))
    lam = tuple((coords * d.rank)[: d.rank])
    t = translation(d, lam)
    text = "t:" + ",".join(str(c) for c in lam)
    assert parse_element(d, text) == t
    assert parse_element(d, format_element(t)) == t
