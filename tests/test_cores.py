"""Affine type A against (n+1)-cores: an oracle that shares no code with the engine.

In affine A_n the minimal representatives correspond to (n+1)-cores (Lascoux,
"Ordering the affine symmetric group", 2001; Lam, Lapointe, Morse &
Shimozono, k-Schur Functions and Affine Schubert Calculus, ch. 1-2).  A
length-raising s_i adds every addable box of residue i (column minus row, mod
n+1), the length is the number of boxes with hook length below n+1, and
Bruhat order on the quotient is containment of cores.  A core is a tuple of
row lengths.
"""

import random
from collections import Counter

import pytest

from affschub.affine import bruhat_leq, enumerate_minreps, from_word, is_min_rep, lower_interval, reduced_word
from affschub.cartan import parse_type, root_datum
from affschub.schubert import SchubertClass, schubert_poincare


def addable_rows(core, i, n):
    """The rows whose addable box has residue i."""
    rows = list(core) + [0]
    return [
        r for r, c in enumerate(rows)
        if (r == 0 or rows[r - 1] > c) and (c - r) % (n + 1) == i
    ]


def grow(core, i, n):
    """s_i on a core with addable boxes of residue i: add all of them."""
    rows = list(core) + [0]
    for r in addable_rows(core, i, n):
        rows[r] += 1
    return tuple(c for c in rows if c)


def core_length(core, n):
    """The number of boxes with hook length below n+1."""
    cols = [sum(1 for c in core if c > j) for j in range(core[0] if core else 0)]
    return sum(
        1 for r, c in enumerate(core) for j in range(c) if (c - j) + (cols[j] - r) - 1 <= n
    )


def cores_below(top, n):
    """Every core contained in ``top``, grown level by level from the empty core."""
    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for core in frontier:
            for i in range(n + 1):
                if not addable_rows(core, i, n):
                    continue
                up = grow(core, i, n)
                inside = len(up) <= len(top) and all(a <= b for a, b in zip(up, top))
                if inside and up not in seen:
                    seen.add(up)
                    nxt.append(up)
        frontier = nxt
    return seen


def core_of(x, n):
    """The core of a minimal representative: its reduced word applied right to left."""
    core = ()
    for i in reversed(reduced_word(x)):
        assert addable_rows(core, i, n), "a letter that does not raise the length"
        core = grow(core, i, n)
    return core


def cores_by_length(n, max_len):
    """All (n+1)-cores of length 0..max_len, each level grown from the one below."""
    levels = [{()}]
    for _ in range(max_len):
        levels.append({grow(c, i, n) for c in levels[-1] for i in range(n + 1) if addable_rows(c, i, n)})
    return levels


def contains(big, small):
    return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))


ENUM_DEPTHS = [("A1", 40), ("A2", 60), ("A3", 30), ("A4", 20)]


@pytest.mark.parametrize("label,length", ENUM_DEPTHS)
def test_enumerate_minreps_levels_match_cores(label, length):
    lt = parse_type(label)
    n = lt.rank
    levels = enumerate_minreps(lt, length, bound=length)
    want = cores_by_length(n, length)
    assert list(levels.level_sizes()) == [len(level) for level in want]
    for k, level in enumerate(levels.by_length):
        cores = {core_of(x, n) for x in level}
        assert cores == want[k]
        assert all(core_length(c, n) == k for c in cores)


@pytest.mark.parametrize("label,length", ENUM_DEPTHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_bruhat_leq_matches_core_containment(label, length, seed):
    lt = parse_type(label)
    n = lt.rank
    elems = list(enumerate_minreps(lt, length, bound=length).flat())
    core = {x: core_of(x, n) for x in elems}
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(300):
        u, v = sorted(rng.sample(elems, 2), key=lambda x: x.length())
        below = contains(core[v], core[u])
        assert bruhat_leq(u, v) == below
        assert not bruhat_leq(v, u)  # v differs from u and is no shorter
        seen[below] += 1
    # a sample with only one answer would check little; the representatives
    # of A1 form a chain, so there every pair is comparable
    assert seen[True] and (seen[False] or label == "A1")


@pytest.mark.parametrize("label,length", [("A1", 40), ("A2", 60), ("A3", 30), ("A4", 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_schubert_poincare_matches_core_containment(label, length, seed):
    n = parse_type(label).rank
    rng = random.Random(seed)
    core, applied = (), []
    while len(applied) < length:
        i = rng.choice([i for i in range(n + 1) if addable_rows(core, i, n)])
        core = grow(core, i, n)
        applied.append(i)
    assert core_length(core, n) == length
    # the core is s_{i_k} ... s_{i_1} applied to the empty core
    x = from_word(root_datum(parse_type(label)), reversed(applied))
    assert x.length() == length and is_min_rep(x)
    below = cores_below(core, n)
    counts = Counter(core_length(c, n) for c in below)
    poly = schubert_poincare(SchubertClass(x), bound=length)
    assert list(poly.coeffs) == [counts[k] for k in range(length + 1)]
    # the interval's elements, not only their counts: the cores of each level
    # are the cores of that length contained in x's
    got = [{core_of(v, n) for v in level} for level in lower_interval(x).by_length]
    assert got == [{c for c in below if core_length(c, n) == k} for k in range(length + 1)]
