"""The affine group of type C against its window notation, which shares no code with the engine.

Bjorner-Brenti, GTM 231, ch. 8: C~_n is the bijections u of Z with
u(-i) = -u(i) and u(i + N) = u(i) + N, N = 2n + 1, and u is its window
(u(1), ..., u(n)).  The book's s_0 negates u(1), s_i swaps u(i) and u(i+1),
and s_n sends u(n) to u(n+1) = N - u(n), all on the right; s_i is a right
descent iff u(i) > u(i+1), with u(0) = 0.  Engine label l is the book's
s_(n-l), and label 0 is s_n; the length is the number of descents stripped.
"""

import random

import pytest

from affschub.affine import _long_word, from_word, is_min_rep, min_rep, reduced_word, translation
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
