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
the independent Cayley-graph BFS oracle, not by citation.

Enumeration-style operations carry configurable length limits (exceeding one
raises BoundExceededError rather than truncating); closed-formula operations
get a much larger default since they are linear-time per element.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from operator import mul

from .cartan import LieType, RootDatum, Vec, convention_hash, root_datum
from .errors import BoundExceededError, ParseError
from .weyl import WeylElem, identity, simple_reflection, reflection

def default_enum_bound(datum: RootDatum) -> int:
    """Default length ceiling for enumerations (min-rep levels, intervals)."""
    return 12 if datum.rank <= 2 else 10


# default ceiling for closed-formula recursions (Bruhat tests, star powers)
ELEMENT_BOUND = 64

CACHE_SCHEMA_VERSION = 1


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
        return f"AffineElem({self.datum.lie_type}, {format_element(self)!r})"

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.trans) and self.fin.is_identity()

    def is_translation(self) -> bool:
        return self.fin.is_identity()

    def inverse(self) -> "AffineElem":
        u = self.fin.inverse()
        back = u.apply_coroot(self.trans)
        return AffineElem(self.datum, tuple(-c for c in back), u)

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

    def sort_key(self) -> tuple:
        return (self.length(), self.trans, self.fin.word())


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
    a = datum.cartan
    n = datum.rank
    return all(sum(lam[i] * a[i][j] for i in range(n)) <= 0 for j in range(n))


def reduced_word(x: AffineElem) -> list[int]:
    """Greedy left-descent stripping; the word multiplies left-to-right to x."""
    word: list[int] = []
    cur = x
    n = cur.length()
    while n > 0:
        for label in range(cur.datum.rank + 1):
            y = generator(cur.datum, label) * cur
            if y.length() < n:
                word.append(label)
                cur, n = y, y.length()
                break
        else:  # pragma: no cover - a nonidentity element always has a descent
            raise AssertionError("no descent found")
    return word


def from_word(datum: RootDatum, labels) -> AffineElem:
    x = affine_identity(datum)
    for label in labels:
        x = x * generator(datum, label)
    return x


def is_min_rep(x: AffineElem) -> bool:
    """True iff x is the shortest element of its coset x*W (no finite right descent)."""
    n = x.length()
    return all(
        (x * embed_finite(simple_reflection(x.datum, label))).length() > n
        for label in range(1, x.datum.rank + 1)
    )


def min_rep(x: AffineElem) -> AffineElem:
    """Strip finite right descents until none remain; stays in the coset x*W."""
    cur = x
    n = cur.length()
    while True:
        for label in range(1, cur.datum.rank + 1):
            y = cur * embed_finite(simple_reflection(cur.datum, label))
            if y.length() < n:
                cur, n = y, y.length()
                break
        else:
            return cur


def length_bfs_oracle(lie_type: LieType, up_to: int = 10, *, hard_cap: int = 24) -> dict[AffineElem, int]:
    """Cayley-graph distance from the identity, by exhaustive level BFS.

    Independent of the closed length formula on purpose: this is the oracle
    the formula is checked against.
    """
    if up_to > hard_cap:
        raise BoundExceededError("BFS depth", up_to, hard_cap, "hard_cap")
    datum = root_datum(lie_type)
    gens = all_generators(datum)
    dist: dict[AffineElem, int] = {affine_identity(datum): 0}
    frontier = [affine_identity(datum)]
    for level in range(1, up_to + 1):
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in dist:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class MinRepLevels:
    """Shortest coset representatives of the affine group mod W, by length."""

    lie_type: LieType
    by_length: tuple[tuple[AffineElem, ...], ...]
    max_length: int

    def flat(self):
        for level in self.by_length:
            yield from level

    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_length)


def enumerate_minreps(
    lie_type: LieType,
    max_len: int,
    *,
    bound: int | None = None,
    cache_dir: str | None = None,
) -> MinRepLevels:
    """All minimal coset representatives of length <= max_len, graded.

    BFS over cosets: apply each generator on the left of a level-k
    representative, project to the coset minimum, and keep length k+1.
    Output order is canonical: (translation coords lex, finite word lex)
    within each level, so runs are reproducible bit for bit.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    datum = root_datum(lie_type)
    limit = bound if bound is not None else default_enum_bound(datum)
    if max_len > limit:
        raise BoundExceededError("min-rep enumeration length", max_len, limit, "bound")
    if cache_dir is not None:
        cached = _cache_load(lie_type, max_len, cache_dir)
        if cached is not None:
            return cached
    levels = _compute_minreps(datum, max_len)
    result = MinRepLevels(lie_type, levels, max_len)
    if cache_dir is not None:
        _cache_store(result, cache_dir)
    return result


def _compute_minreps(datum: RootDatum, max_len: int) -> tuple[tuple[AffineElem, ...], ...]:
    gens = all_generators(datum)
    seen = {affine_identity(datum)}
    levels: list[tuple[AffineElem, ...]] = [(affine_identity(datum),)]
    for target in range(1, max_len + 1):
        found: set[AffineElem] = set()
        for x in levels[-1]:
            for g in gens:
                y = min_rep(g * x)
                if y.length() == target and y not in seen:
                    found.add(y)
        seen.update(found)
        levels.append(tuple(sorted(found, key=lambda e: (e.trans, e.fin.word()))))
    return tuple(levels)


def bruhat_leq(v: AffineElem, w: AffineElem, *, bound: int = ELEMENT_BOUND) -> bool:
    """Bruhat order test via the subword property along a reduced word of w.

    Walks a fixed reduced word of w one letter at a time (the standard
    lifting recursion): with s the first letter, v <= w iff (sv <= sw when s
    descends v) or (v <= sw otherwise).
    """
    if v.datum is not w.datum:
        raise ValueError("type mismatch")
    if w.length() > bound:
        raise BoundExceededError("Bruhat comparison length", w.length(), bound, "bound")
    lv, lw = v.length(), w.length()
    while lw > 0:
        if lv > lw:
            return False
        if lv == 0:
            return True
        if v == w:
            return True
        for label in range(w.datum.rank + 1):
            s = generator(w.datum, label)
            sw = s * w
            if sw.length() < lw:
                w, lw = sw, lw - 1
                sv = s * v
                if sv.length() < lv:
                    v, lv = sv, lv - 1
                break
        else:  # pragma: no cover
            raise AssertionError("no descent found")
    return lv == 0


@dataclass(frozen=True)
class AntidominanceReport:
    """The three equivalent characterizations of antidominance, evaluated."""

    min_rep_of_coset: bool  # t_lam is the shortest element of its coset
    orbit_maximal: bool  # its coset Bruhat-dominates the whole W-orbit
    chamber: bool  # lam pairs <= 0 with every simple root

    def all_agree(self) -> bool:
        return self.min_rep_of_coset == self.orbit_maximal == self.chamber


def antidominant_equivalences(
    datum: RootDatum, lam: Vec, *, coord_bound: int = 4
) -> AntidominanceReport:
    """Evaluate all three antidominance conditions independently (desk scale)."""
    if any(abs(c) > coord_bound for c in lam):
        raise BoundExceededError(
            "translation coordinate", max(abs(c) for c in lam), coord_bound, "coord_bound"
        )
    t = translation(datum, lam)
    a = is_min_rep(t)
    top = min_rep(t)
    needed = max(top.length(), 1)
    b = True
    for v in _finite_elements(datum):
        other = min_rep(embed_finite(v) * t)
        if not bruhat_leq(other, top, bound=max(needed, ELEMENT_BOUND)):
            b = False
            break
    c = is_antidominant(datum, lam)
    return AntidominanceReport(a, b, c)


def _finite_elements(datum: RootDatum):
    from .weyl import min_coset_reps

    for level in min_coset_reps(datum.lie_type, ()):
        yield from level


# ---------------------------------------------------------------------------
# Element text format: "word:0,1,2" | "t:-1,0" | "t:-1,0|w:1,2".
# Emission always uses the canonical reduced word; the identity is "word:".


def format_element(x: AffineElem) -> str:
    return "word:" + ",".join(str(i) for i in reduced_word(x))


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
        x = translation(datum, coords)
        if word_part is not None:
            for label in _parse_labels(datum, word_part, affine_ok=False):
                x = x * generator(datum, label)
        return x
    raise ParseError(f"bad element {text!r}: expected 'word:...' or 't:...' form")


def _parse_labels(datum: RootDatum, body: str, *, affine_ok: bool) -> list[int]:
    body = body.strip()
    if not body:
        return []
    labels = []
    for tok in body.split(","):
        tok = tok.strip()
        if not tok.isdigit():
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


# ---------------------------------------------------------------------------
# On-disk cache for enumerated min-rep levels.


def _cache_path(lie_type: LieType, cache_dir: str) -> str:
    return os.path.join(
        cache_dir, f"minreps_{lie_type}_{convention_hash(lie_type)}.json"
    )


def _cache_store(levels: MinRepLevels, cache_dir: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    payload = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "type": str(levels.lie_type),
        "convention_hash": convention_hash(levels.lie_type),
        "max_length": levels.max_length,
        "levels": [[format_element(x) for x in level] for level in levels.by_length],
    }
    path = _cache_path(levels.lie_type, cache_dir)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def _cache_load(lie_type: LieType, max_len: int, cache_dir: str) -> MinRepLevels | None:
    path = _cache_path(lie_type, cache_dir)
    if not os.path.exists(path):
        return None
    datum = root_datum(lie_type)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if (
            payload["schema_version"] != CACHE_SCHEMA_VERSION
            or payload["convention_hash"] != convention_hash(lie_type)
            or payload["max_length"] < max_len
        ):
            return None
        levels = tuple(
            tuple(parse_element(datum, text) for text in level)
            for level in payload["levels"][: max_len + 1]
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"ignoring corrupt min-rep cache {path}: {exc}")
        return None
    for k, level in enumerate(levels):
        if any(x.length() != k or not is_min_rep(x) for x in level):
            warnings.warn(f"ignoring inconsistent min-rep cache {path}")
            return None
    return MinRepLevels(lie_type, levels, max_len)
