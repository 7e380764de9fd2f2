"""The affine Weyl group: semidirect product of the coroot lattice and W.

Elements are written x = t_lam * w with the translation on the left, so the
group law reads (t_lam u)(t_mu v) = t_{lam + u(mu)} (uv).  Generators are the
finite simple reflections (labels 1..rank) together with s_0 = t_{theta^v} *
s_theta, the reflection across the affine wall of the highest root theta
(label 0).

Length is computed by a closed Iwahori-Matsumoto-style count over the
positive roots, in the variant matching this t_lam*w convention:

    l(t_lam w) = sum over beta > 0 of  |<lam, w beta>|      if w(beta) > 0
                                       |<lam, w beta> + 1|  if w(beta) < 0

which is the count with mu = w^{-1}(lam) paired against beta, rewritten by
<w^{-1} lam, beta> = <lam, w beta> so that no inverse is formed: lam is
paired once with every positive root, and each w(beta) = +-gamma is read off
the root permutation of w.  Its correctness is pinned empirically against
the independent Cayley-graph BFS oracle (verify.length_bfs_oracle), not by
citation.

Descents are tested in closed form, in O(rank), from the signs of affine
roots.  The translation acts by t_lam(beta + k delta) = beta + (k - <lam,
beta>) delta, and l(s x) < l(x) iff x^-1 sends the simple affine root of s
negative, l(x s) < l(x) iff x sends it negative.  For x = t_lam w:

* left descent at i >= 1: x^-1(alpha_i) = w^-1(alpha_i) + <lam, alpha_i> delta,
  so <lam, alpha_i> < 0, or = 0 and w^-1(alpha_i) < 0;
* left descent at 0: x^-1(delta - theta) = -w^-1(theta) + (1 - <lam, theta>)
  delta, so <lam, theta> > 1, or = 1 and w^-1(theta) > 0;
* right descent at i >= 1: x(alpha_i) = gamma - <lam, gamma> delta, with
  gamma = w(alpha_i) = +-pos_roots[perm[root of alpha_i]].

Reduced words, Bruhat comparisons and right descents walk integer vectors
with no root permutation.  Give delta the height K = 2 ht(theta) + 1, so
that alpha_0 = delta - theta has height K - ht(theta) = ht(theta) + 1; the
alcove vector r[l] is the height of x^-1(alpha_l), and the right alcove
vector q[l] that of x(alpha_l), which is r of x^-1 (``_right_alcove``):

    r[l] = K <lam, alpha_l> + ht(w^-1 alpha_l),    q[l] = ht(gamma) - K <lam, gamma>,
    r[0] = K (1 - <lam, theta>) - ht(w^-1 theta),  q[0] = K - (that entry for theta),

with r the pairings of the scaled point K lam + w(rho^v) = K x(rho^v / K),
an interior point of the alcove x(A_0), with the affine simple roots
(Humphreys, Reflection Groups and Coxeter Groups, 4.3-4.5).  r reads its
heights through perm.index and q off perm, so no inverse is built.  As
|ht(w^-1 alpha)| <= ht(theta) < K, the sign of r[l] is that of the
delta-coefficient unless it is 0, and then that of the height: the tests
above, tie-break included, so l(s_l x) < l(x) iff r[l] < 0, and likewise
l(x s_l) < l(x) iff q[l] < 0.  Both read (K - ht(theta), 1, ..., 1) at the
identity, and every walk to it is checked to end there.  As (s_l x)^-1
alpha_m = x^-1(alpha_m - <alpha_l^v, alpha_m> alpha_l), the letter l is the
numbers-game move r[m] -= r[l] * A[l][m] over the nonzero entries of row l
of the affine Cartan matrix A: the diagonal and the neighbours of l in the
affine diagram, at most 5 updates in any type (Bjorner-Brenti, GTM 231,
4.3); reduced_word is the walk down of weyl._descend, and min_rep that
walk on q[1..rank] (x s_l moves q alike; schubert).  bruhat_leq walks r of v
along the reduced word of w (weyl._along), moving where the entry is
negative: by the lifting recursion v <= w iff that makes l(v) moves, which
end at the identity.  A letter costs a scan of at most rank + 1 signs for
the smallest negative entry and those updates; the start costs rank + 1
pairings, and for r as many perm.index scans, once per walk.  K, the signed heights, the root of each label and
the identity's vector are the datum's ``delta_height``, ``heights``,
``affine_index`` and ``identity_alcove``.  The tests and the moves agree
with product-and-length on BFS balls of A1 through F4 (tests/test_affine.py).

Why K, where ht(theta) + 1 would do for the signs: ht(w^-1 alpha_l) = <w
rho^v, alpha_l> lies in [-ht(theta), ht(theta)], so r mod K gives it, and
with it w.  Two states with equal residues are x and t_nu x, and the block
of letters between them moves r to r + D, D = K (<nu, alpha_l>)_l (with
<nu, alpha_0> = -<nu, theta>), and D to itself.  So from r + D the walk
repeats the block for j = 0, 1, ... while, before each move i, a_i + j b_i
has its first negative entry at the block's letter, a_i and b_i being r + D
and D pushed through the first i moves.  The entries are linear in j and
hold at j = -1, so the count J of repeats is 1 plus a minimum of floor
divisions (``weyl._repeats``).  For words longer than
LONG_WORD_TRANSLATIONS * l(t_theta^v) letters, reduced_word gives
weyl._descend the height K: it keys the residues after each move at label
0, which every block holds, and takes J blocks at once, capped by the
letters left.

from_word builds t_lam w by right steps: x s_l = t_lam (w s_l) for l >= 1
is a shift of w's permutation, and x s_0 = t_{lam + w(theta^v)} (w s_theta),
with w(theta^v) = +-pos_coroots[j] for w(theta) = +-pos_roots[j].  The
shifts (``_shift``) build group elements, so each datum's are built on first use.

Minimal representatives of the affine group mod W are enumerated by the
walk of W/W_I (weyl._climb), run on the affine Cartan matrix with
I = {1..rank}: the affine group is the Coxeter group on the labels 0..rank,
and W is its parabolic subgroup on 1..rank (Bjorner-Brenti, GTM 231, 4.3).
The coset t_lam W is fixed by lam, and the walk's point is

    p = (1 - <lam, theta>, <lam, alpha_1>, ..., <lam, alpha_rank>),

the pairings of lam at level 1 with the affine simple roots.  The origin
(1, 0, ..., 0) is lam = 0, whose stabiliser is W.  By Deodhar's lemma, for a
minimal representative x and a generator s_l, either s_l x < x, or s_l x is
a minimal representative one longer, or s_l x lies in the coset x W.  With
the left descent tests above, s_l x is minimal and one longer exactly when
p[l] > 0 (<lam, alpha_l> > 0 for l >= 1, <lam, theta> <= 0 for l = 0), and
stays in x W when p[l] = 0; neither test reads w.  The step sends lam to
lam - p[l] alpha_l^v, where alpha_0^v = -theta^v, which moves p along row l
of the affine Cartan matrix, the finite walk's rule.  Every minimal
representative y != 1 has a left descent s, and s y is again minimal, so the
level BFS reaches them all, and the level number is the length.  The walk
keeps no lam and no group element: each level maps a point to the (parent
point, label) of the first up-step that reached it, and MinRepLevels holds
the levels.  level_sizes() reads the walk alone.  The elements are built on
each read of by_length: each link is the product of the generator and
the parent, s_l x (every path ends at the same element), so no inverse is
formed; each level is sorted by lam.

Lower intervals: if l(s y) > l(y), then [e, s y] = [e, y] u s[e, y] (the
subword property; Bjorner-Brenti, GTM 231, Thm 2.2.2).  The coset minimum u
of v has u <= v (a reduced word of u is a prefix of one of v), so projecting
to the affine group mod W keeps v <= x as u <= x: the representatives below
x are the coset minima of [e, x].  A coset is its point, so lower_interval
reads a reduced word of x right to left from the origin.  By Deodhar's
lemma a letter s sends a representative v down (s v < v is already below),
into v's own coset, or up, so only up-steps add points: the same walk, one
label at a time.  A point that letter l has stepped keeps its s_l image, so
each later l steps only the points added since it was last read: every
point is stepped at most once per label, and the walk costs
O(l(x) + |interval| (rank + 1)), against O(l(x) |interval|) for rescanning
every point at every letter.  Its points are kept by length with their
parent links, and lower_interval returns them as a MinRepLevels, the
enumeration's result: the elements are built from the links in the same
way, and schubert_poincare reads level_sizes() and builds none.

Enumeration-style operations carry configurable length limits, checked by
check_enum_bound, which also holds their default ceiling (exceeding one
raises BoundExceededError rather than truncating); closed-formula
operations get a much larger default, WORD_BOUND letters for a reduced word.
"""

from __future__ import annotations

import functools
from operator import add, attrgetter, itemgetter, mul, sub

from .cartan import LieType, RootDatum, Vec, root_datum
from .errors import BoundExceededError, ParseError
from .weyl import WeylElem, _along, _climb, _descend, identity
from .weyl import reflection, simple_reflection

def check_enum_bound(datum: RootDatum, what: str, n: int, bound: int | None) -> None:
    """Raise BoundExceededError if n exceeds bound; None is the default enumeration ceiling."""
    limit = bound if bound is not None else (12 if datum.rank <= 2 else 10)
    if n > limit:
        raise BoundExceededError(what, n, limit, "bound")


# default ceiling, in letters, for emitting a canonical reduced word
WORD_BOUND = 100_000
# reduced_word jumps translation blocks in words longer than this many l(t_theta^v)
LONG_WORD_TRANSLATIONS = 32


class AffineElem:
    """x = t_trans * fin, with trans in coroot coordinates."""

    __slots__ = ("datum", "trans", "fin", "_len")

    def __init__(self, datum: RootDatum, trans: Vec, fin: WeylElem):
        self.datum = datum
        self.trans = trans
        self.fin = fin
        self._len: int | None = None

    def __mul__(self, other: "AffineElem") -> "AffineElem":
        if self.datum is not other.datum:
            raise ValueError("type mismatch: elements of different affine Weyl groups")
        moved = self.fin.apply_coroot(other.trans)
        trans = tuple(a + b for a, b in zip(self.trans, moved))
        return AffineElem(self.datum, trans, self.fin * other.fin)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineElem)
            and self.trans == other.trans
            and self.fin == other.fin
        )

    def __hash__(self) -> int:
        return hash((self.trans, self.fin.perm))

    def __repr__(self) -> str:
        # parse_element's t:lam|w:word spelling: its size is bounded by the type, not by l(x)
        text = f"t:{','.join(map(str, self.trans))}|w:{','.join(map(str, self.fin.word()))}"
        return f"AffineElem({self.datum.lie_type}, {text!r})"

    def length(self) -> int:
        if self._len is None:
            rows = self.datum.pairing_rows
            big = len(rows)
            # pairs[j] = <lam, pos_roots[j]>
            pairs = [sum(map(mul, self.trans, row)) for row in rows]
            total = 0
            for j in self.fin.perm[:big]:
                if j < big:  # w(beta) = pos_roots[j]
                    total += abs(pairs[j])
                else:  # w(beta) = -pos_roots[j - big]
                    total += abs(pairs[j - big] - 1)
            self._len = total
        return self._len


def affine_identity(datum: RootDatum) -> AffineElem:
    return AffineElem(datum, (0,) * datum.rank, identity(datum))


def translation(datum: RootDatum, lam: Vec) -> AffineElem:
    if len(lam) != datum.rank:
        raise ValueError("rank mismatch")
    return AffineElem(datum, tuple(lam), identity(datum))


def embed_finite(w: WeylElem) -> AffineElem:
    return AffineElem(w.datum, (0,) * w.datum.rank, w)


def generator(datum: RootDatum, label: int) -> AffineElem:
    """The Coxeter generator at a node label; label 0 is the affine one."""
    if label == 0:
        return AffineElem(datum, datum.highest_coroot, reflection(datum, datum.highest_root))
    return embed_finite(simple_reflection(datum, label))


def all_generators(datum: RootDatum) -> list[AffineElem]:
    """The Coxeter generators, indexed by node label."""
    return [generator(datum, label) for label in range(datum.rank + 1)]


def seed_translation(datum: RootDatum) -> AffineElem:
    """t_{-theta^v}: translation by the negative of the highest coroot.

    This is the bottom nonzero antidominant translation; it indexes the
    generating Schubert variety whose star powers sweep out all of them.
    """
    return translation(datum, tuple(-c for c in datum.highest_coroot))


def is_antidominant(datum: RootDatum, lam: Vec) -> bool:
    """lam pairs <= 0 against every simple root (closure of the negative chamber)."""
    if len(lam) != datum.rank:
        raise ValueError("rank mismatch")
    rows = datum.pairing_rows
    return all(sum(map(mul, lam, rows[k])) <= 0 for k in datum.simple_index)


@functools.cache
def _shift(datum: RootDatum) -> tuple:
    """shift[l] maps a root permutation q to that of q * s, s the finite part of the generator
    at label l (s_theta when l = 0); the walks of enumeration and intervals never build it."""
    return tuple(itemgetter(*g.fin.perm) for g in all_generators(datum))


def _long_word(datum: RootDatum) -> int:
    """Words longer than this many letters jump translation blocks (module docstring):
    LONG_WORD_TRANSLATIONS * l(t_theta^v), with l(t_theta^v) = <theta^v, 2 rho> = 2 ht(theta^v)."""
    return LONG_WORD_TRANSLATIONS * 2 * sum(datum.highest_coroot)


def _alcove(x: AffineElem) -> list[int]:
    """The alcove vector r of x = t_lam w (module docstring); w^-1 is read through perm.index."""
    datum, perm = x.datum, x.fin.perm
    rows, heights, level = datum.pairing_rows, datum.heights, datum.delta_height
    r = [level * sum(map(mul, x.trans, rows[k])) + heights[perm.index(k)] for k in datum.affine_index]
    r[0] = level - r[0]  # the entry built for theta is K <lam, theta> + ht(w^-1 theta)
    return r


def _right_alcove(x: AffineElem) -> list[int]:
    """The right alcove vector q of x = t_lam w (module docstring), the alcove vector of x^-1."""
    datum, lam = x.datum, x.trans
    rows, big, heights, level = datum.pairing_rows, len(datum.pos_roots), datum.heights, datum.delta_height
    q = []
    for j in map(x.fin.perm.__getitem__, datum.affine_index):  # w(alpha_l) = +-pos_roots[j % big]
        pair = sum(map(mul, lam, rows[j % big]))
        q.append(heights[j] - level * pair if j < big else heights[j] + level * pair)
    q[0] = level - q[0]
    return q


def reduced_word(x: AffineElem, *, bound: int = WORD_BOUND) -> list[int]:
    """Greedy left-descent stripping; the word multiplies left-to-right to x.

    Each letter is the smallest label with a left descent, read off the
    alcove vector (module docstring) by the descent ``weyl._descend``, l(x)
    moves; a word longer than ``_long_word`` letters takes whole translation
    blocks at once (``_descend`` given the height K of delta).  Words longer
    than ``bound`` letters raise BoundExceededError before any work.
    """
    n = x.length()
    if n > bound:
        raise BoundExceededError("reduced word length", n, bound, "bound")
    datum = x.datum
    r = _alcove(x)
    word = _descend(r, datum.affine_rows, n, datum.delta_height if n > _long_word(datum) else 0)
    if len(word) < n:
        raise ArithmeticError(f"no left descent found for the alcove vector {r}")
    _check_identity(datum, r)
    return word


def _check_identity(datum: RootDatum, r: list[int]) -> None:
    """Raise ArithmeticError unless r is the identity's alcove vector ``datum.identity_alcove``."""
    if tuple(r) != datum.identity_alcove:
        raise ArithmeticError(f"a walk to the identity ended at the alcove vector {r}")


def from_word(datum: RootDatum, labels) -> AffineElem:
    """The product of the generators at labels, left to right, by right steps.

    x s_l = t_lam (w s_l) for l >= 1, and x s_0 = t_{lam + w(theta^v)} (w s_theta),
    where w(theta^v) = +-pos_coroots[j] for w(theta) = +-pos_roots[j].
    """
    big, theta, coroots, shift = len(datum.pos_roots), datum.affine_index[0], datum.pos_coroots, _shift(datum)
    lam = (0,) * datum.rank
    perm = identity(datum).perm
    for label in labels:
        if not 0 <= label < len(shift):
            raise ValueError(f"node label {label} is not a node of {datum.lie_type}")
        if not label:
            j = perm[theta]
            lam = tuple(map(add, lam, coroots[j])) if j < big else tuple(map(sub, lam, coroots[j - big]))
        perm = shift[label](perm)
    return AffineElem(datum, lam, WeylElem(datum, perm))


def is_min_rep(x: AffineElem) -> bool:
    """True iff x is the shortest element of its coset x*W (no finite right descent)."""
    return min(_right_alcove(x)[1:]) > 0


def min_rep(x: AffineElem) -> AffineElem:
    """Strip the smallest finite right descent until none remain; stays in the coset x*W.

    Right multiplication by W leaves the translation fixed, so only the
    finite part moves, by ``shift`` for each label of the walk on q[1..rank].
    """
    q = _right_alcove(x)[1:]
    labels = _descend(q, x.datum.cartan_rows, len(x.datum.pos_roots))
    if min(q) <= 0:
        raise ArithmeticError(f"a walk to the coset minimum ended at the right alcove vector {q}")
    perm, shift = x.fin.perm, _shift(x.datum)
    for label in labels:
        perm = shift[label + 1](perm)
    return AffineElem(x.datum, x.trans, WeylElem(x.datum, perm)) if labels else x


class MinRepLevels:
    """Shortest coset representatives of the affine group mod W, by length.

    Holds a walk's levels, point -> (parent point, label): those of
    enumerate_minreps or of lower_interval.  ``by_length`` builds the
    elements on each read, and no caller reads it twice: a link (parent, l)
    is the product of the generator at l and the parent's element, s_l x,
    each element is stamped with its level as its length, and each level is
    sorted by lam.
    """

    __slots__ = ("lie_type", "_levels")

    def __init__(self, lie_type: LieType, levels: list[dict]):
        self.lie_type = lie_type
        self._levels = levels

    @property
    def by_length(self) -> tuple[tuple[AffineElem, ...], ...]:
        datum = root_datum(self.lie_type)
        gens = all_generators(datum)
        elems = {point: affine_identity(datum) for point in self._levels[0]}
        out = []
        for k, level in enumerate(self._levels):
            if k:
                elems = {point: gens[label] * elems[parent] for point, (parent, label) in level.items()}
            reps = sorted(elems.values(), key=attrgetter("trans"))
            for x in reps:
                x._len = k
            out.append(tuple(reps))
        return tuple(out)

    def flat(self):
        for level in self.by_length:
            yield from level

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self._levels))


def enumerate_minreps(lie_type: LieType, max_len: int, *, bound: int | None = None) -> MinRepLevels:
    """All minimal coset representatives of length <= max_len, graded.

    The walk of W/W_I on the affine Cartan matrix (module docstring): an
    up-step s_l x is tested and taken from its point's p[l] alone.  Within a
    level the translations are distinct, and the level is sorted by them, so
    runs are reproducible bit for bit.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    datum = root_datum(lie_type)
    check_enum_bound(datum, "min-rep enumeration length", max_len, bound)
    labels = range(datum.rank + 1)
    rows = datum.affine_rows
    levels = [{(1,) + (0,) * datum.rank: None}]
    for _ in range(max_len):
        levels.append({})
        _climb(rows, levels[-2], labels, levels[-1])
    return MinRepLevels(lie_type, levels)


def bruhat_leq(v: AffineElem, w: AffineElem) -> bool:
    """Bruhat order test via the subword property along a reduced word of w.

    Walks the canonical reduced word of w one letter at a time (the standard
    lifting recursion): with s the first letter, v <= w iff (sv <= sw when s
    descends v) or (v <= sw otherwise).  On the alcove vector of v
    (``weyl._along``) s descends v iff its entry is negative, and v <= w iff
    the walk makes l(v) moves, which end at the identity.
    """
    if v.datum is not w.datum:
        raise ValueError("type mismatch")
    if w.length() > WORD_BOUND:
        raise BoundExceededError("Bruhat comparison length", w.length(), WORD_BOUND)
    if v.length() > w.length():
        return False
    r = _alcove(v)
    if _along(r, w.datum.affine_rows, reduced_word(w), False) != v.length():
        return False
    _check_identity(w.datum, r)
    return True


def lower_interval(x: AffineElem) -> MinRepLevels:
    """The minimal representatives below x in Bruhat order, by length, as MinRepLevels.

    Once letter l is read, every point then held has its s_l image, or s_l
    takes it down or keeps it in its coset, and a point l adds has p[l] < 0;
    so a later l steps only the points added since (read[l] into points).
    """
    rows = x.datum.affine_rows
    origin = (1,) + (0,) * x.datum.rank
    points, depth, read = [origin], {origin: 0}, [0] * (x.datum.rank + 1)
    levels = [{origin: None}]
    for label in reversed(reduced_word(x)):
        up = {}
        _climb(rows, points[read[label]:], (label,), up)
        for point, link in up.items():
            if point not in depth:
                k = depth[point] = depth[link[0]] + 1
                if k == len(levels):
                    levels.append({})
                levels[k][point] = link
                points.append(point)
        read[label] = len(points)
    return MinRepLevels(x.datum.lie_type, levels)


# ---------------------------------------------------------------------------
# Element text format: "word:0,1,2" | "t:-1,0" | "t:-1,0|w:1,2".
# Emission always uses the canonical reduced word; the identity is "word:".


def format_element(x: AffineElem, *, bound: int = WORD_BOUND) -> str:
    names = x.datum.label_names
    return "word:" + ",".join([names[l] for l in reduced_word(x, bound=bound)])


def parse_element(datum: RootDatum, text: str) -> AffineElem:
    """Parse any of the accepted element spellings; errors name the bad token."""
    text = text.strip()
    if text.startswith("word:"):
        return from_word(datum, _parse_labels(datum, text[len("word:"):], affine_ok=True))
    if text.startswith("t:"):
        body = text[len("t:"):]
        word_part: str | None = None
        if "|" in body:
            body, tail = body.split("|", 1)
            if not tail.startswith("w:"):
                raise ParseError(f"bad element token {tail!r}: expected w:<word> after '|'")
            word_part = tail[len("w:"):]
        coords = _parse_coords(datum, body)
        labels = [] if word_part is None else _parse_labels(datum, word_part, affine_ok=False)
        return translation(datum, coords) * from_word(datum, labels)
    raise ParseError(f"bad element {text!r}: expected 'word:...' or 't:...' form")


def _parse_labels(datum: RootDatum, body: str, *, affine_ok: bool) -> list[int]:
    body = body.strip()
    if not body:
        return []
    labels = []
    for tok in body.split(","):
        tok = tok.strip()
        if not tok.isdecimal():
            raise ParseError(f"bad node index {tok!r} in word")
        label = int(tok)
        low = 0 if affine_ok else 1
        if not low <= label <= datum.rank:
            raise ParseError(
                f"bad node index {tok!r}: {datum.lie_type} has nodes {low}..{datum.rank}"
            )
        labels.append(label)
    return labels


def _parse_coords(datum: RootDatum, body: str) -> Vec:
    toks = [t.strip() for t in body.split(",")]
    coords = []
    for tok in toks:
        try:
            coords.append(int(tok))
        except ValueError:
            raise ParseError(f"bad translation coordinate {tok!r}") from None
    if len(coords) != datum.rank:
        raise ParseError(
            f"bad translation {body!r}: expected {datum.rank} coordinates"
        )
    return tuple(coords)
