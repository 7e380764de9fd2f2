"""The affine groups of types A and C against their window notation, which shares no code with the engine.

Bjorner-Brenti, GTM 231, ch. 8: C~_n is the bijections u of Z with
u(-i) = -u(i) and u(i + N) = u(i) + N, N = 2n + 1, and u is its window
(u(1), ..., u(n)).  The book's s_0 negates u(1), s_i swaps u(i) and u(i+1),
and s_n sends u(n) to u(n+1) = N - u(n), all on the right; s_i is a right
descent iff u(i) > u(i+1), with u(0) = 0.  Engine label l is the book's
s_(n-l), and label 0 is s_n; the length is the number of descents stripped.

A~_(N-1) (8.3) is the bijections u of Z with u(i + N) = u(i) + N and
u(1) + ... + u(N) = N(N + 1)/2, with window (u(1), ..., u(N)).  s_i swaps
u(i) and u(i+1) for 1 <= i < N, and s_0 sends (u(1), u(N)) to
(u(N) - N, u(1) + N), on the right; s_i is a right descent iff
u(i) > u(i+1).  Engine label l of A_(N-1) is the book's s_l, and the length
is the inversion count sum over i < j of |floor((u(j) - u(i)) / N)|.
"""

import random

import pytest

from affschub.affine import _long_word, enumerate_minreps, from_word, is_min_rep, min_rep, reduced_word, translation
from affschub.cartan import parse_type, root_datum


def value(u, j):
    """u(j) for any integer j, from the window u."""
    n, big = len(u), 2 * len(u) + 1
    k, i = divmod(j, big)
    if not i:
        return k * big
    return k * big + (u[i - 1] if i <= n else big - u[big - i - 1])


def step(u, b):
    """The window of u s_b (book index b)."""
    u, n = list(u), len(u)
    if b == 0:
        u[0] = -u[0]
    elif b == n:
        u[-1] = 2 * n + 1 - u[-1]
    else:
        u[b - 1], u[b] = u[b], u[b - 1]
    return tuple(u)


def window(word, n):
    u = tuple(range(1, n + 1))
    for l in word:
        u = step(u, n - l if l else n)
    return u


def strip_length(u):
    """The number of right descents stripped until none is left, which is the length."""
    n, count = len(u), 0
    while (b := next((b for b in range(n + 1) if value(u, b) > value(u, b + 1)), None)) is not None:
        u, count = step(u, b), count + 1
    return count


@pytest.mark.parametrize("n", range(2, 7))
def test_window_oracle_on_seeded_words(n):
    d = root_datum(parse_type(f"C{n}"))
    rng = random.Random(f"window-C{n}")
    for _ in range(300):
        word = [rng.randint(0, n) for _ in range(rng.randint(0, 6 * n * n))]
        x, u = from_word(d, word), window(word, n)
        assert x.length() == strip_length(u)
        assert is_min_rep(x) == (0 < u[0] and all(a < b for a, b in zip(u, u[1:])))
        assert window(reduced_word(x), n) == u
        assert window(reduced_word(min_rep(x)), n) == tuple(sorted(map(abs, u)))


@pytest.mark.parametrize("n", [3, 6, 10])
def test_window_oracle_on_long_translation_words(n):
    # t_{-m theta^v} is the m-th power of t_{-theta^v}; from m = 50 its word jumps translation blocks
    d = root_datum(parse_type(f"C{n}"))
    seed = window(reduced_word(translation(d, tuple(-c for c in d.highest_coroot))), n)
    for m in (1, 50, 400):
        word = reduced_word(translation(d, tuple(-m * c for c in d.highest_coroot)))
        power = tuple(range(1, n + 1))
        for _ in range(m):
            power = tuple(value(power, s) for s in seed)
        assert window(word, n) == power
        assert len(word) == strip_length(power)
        assert (len(word) > _long_word(d)) == (m > 1)


# --- type A ---------------------------------------------------------------


def a_value(u, j):
    """u(j) for any integer j, from the window u of an affine permutation."""
    k, i = divmod(j - 1, len(u))
    return u[i] + k * len(u)


def a_step(u, b):
    """The window of u s_b."""
    u, big = list(u), len(u)
    if b:
        u[b - 1], u[b] = u[b], u[b - 1]
    else:
        u[0], u[-1] = u[-1] - big, u[0] + big
    return tuple(u)


def a_window(word, big):
    u = tuple(range(1, big + 1))
    for l in word:
        u = a_step(u, l)
    return u


def inversions(u):
    big = len(u)
    return sum(abs((b - a) // big) for i, a in enumerate(u) for b in u[i + 1:])


def a_strip_length(u):
    count = 0
    while (b := next((b for b in range(len(u)) if a_value(u, b) > a_value(u, b + 1)), None)) is not None:
        u, count = a_step(u, b), count + 1
    return count


@pytest.mark.parametrize("n", range(1, 8))
def test_type_a_window_oracle_on_seeded_words(n):
    d = root_datum(parse_type(f"A{n}"))
    rng = random.Random(f"window-A{n}")
    for _ in range(300):
        word = [rng.randint(0, n) for _ in range(rng.randint(0, 6 * n * n))]
        x, u = from_word(d, word), a_window(word, n + 1)
        assert x.length() == inversions(u) == a_strip_length(u)
        assert is_min_rep(x) == all(a < b for a, b in zip(u, u[1:]))
        assert a_window(reduced_word(x), n + 1) == u
        assert a_window(reduced_word(min_rep(x)), n + 1) == tuple(sorted(u))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_type_a_window_oracle_on_long_translation_words(n):
    # t_{-m theta^v} is the m-th power of t_{-theta^v}; from m = 50 its word jumps translation blocks
    d = root_datum(parse_type(f"A{n}"))
    seed = a_window(reduced_word(translation(d, tuple(-c for c in d.highest_coroot))), n + 1)
    for m in (1, 50, 400):
        word = reduced_word(translation(d, tuple(-m * c for c in d.highest_coroot)))
        power = tuple(range(1, n + 2))
        for _ in range(m):
            power = tuple(a_value(power, s) for s in seed)
        assert a_window(word, n + 1) == power
        assert len(word) == inversions(power)
        assert (len(word) > _long_word(d)) == (m > 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_type_a_window_oracle_on_enumeration_levels(n):
    # the representatives of length k are the increasing windows with k inversions
    levels = enumerate_minreps(parse_type(f"A{n}"), 8).by_length
    for k, level in enumerate(levels):
        windows = [a_window(reduced_word(x), n + 1) for x in level]
        assert len(set(windows)) == len(windows)
        assert all(inversions(u) == k and list(u) == sorted(u) for u in windows)
