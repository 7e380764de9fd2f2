"""Named property suites behind the CLI's ``verify`` command.

Each suite re-checks a family of invariants at desk scale and returns one
CheckResult per property.  Where an independent oracle exists (Cayley-graph
BFS for lengths, power-series expansion for level sizes, exhaustive subword
search for Bruhat order) the suite runs both routes and compares.  The
oracles and checks that only these suites run are kept here, out of the
engine's modules.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from operator import mul

from .cartan import LieType, RootDatum, Vec, root_datum
from .errors import BoundExceededError
from .weyl import weyl_order
from . import affine
from .affine import (
    AffineElem,
    affine_identity,
    all_generators,
    bruhat_leq,
    enumerate_minreps,
    format_element,
    is_antidominant,
    is_min_rep,
    min_rep,
    reduced_word,
    translation,
)
from . import schubert
from .schubert import (
    SchubertClass,
    generator_class,
    identity_class,
    segment_factorizations,
    star,
    star_refolds,
)


# the sizes each suite checks at
LENGTHS_MAX_LEN = 8
ANTIDOMINANT_COORD_BOUND = 2
ADDITIVITY_SIGMA_LEN = 6
ADDITIVITY_COORD_LOW = -2
SERIES_THROUGH = 10
SEGMENTS_MAX_LEN = 8
STAR_MAX_LEN = 10
STAR_READING_MAX_LEN = 6
STAR_TRIPLE_CAP = 4000
CANONICAL_N_MAX = 3
DECOMPOSE_SIGMA_LEN = 3

# the deepest Cayley-graph BFS that length_bfs_oracle runs
BFS_HARD_CAP = 24

# the most |W| * (box points) that suite_antidominant takes on; E6 is 8.1e8, A7 3.15e9
ANTIDOMINANT_WORK_BOUND = 10**9


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    """One checked property: its name, whether it held, and a one-line detail."""

    __slots__ = ()


def _series_coeffs(exps, through: int) -> list[int]:
    """Coefficients of prod 1/(1 - q^e) through q^through, by direct expansion."""
    coeffs = [1] + [0] * through
    for e in exps:
        for k in range(e, through + 1):
            coeffs[k] += coeffs[k - e]
    return coeffs


def length_bfs_oracle(lie_type: LieType, up_to: int) -> dict[AffineElem, int]:
    """Cayley-graph distance from the identity, by exhaustive level BFS.

    Independent of the closed length formula on purpose: this is the oracle
    the formula is checked against.  A depth past BFS_HARD_CAP raises
    BoundExceededError.
    """
    if up_to > BFS_HARD_CAP:
        raise BoundExceededError("BFS depth", up_to, BFS_HARD_CAP)
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


class AntidominanceReport(
    namedtuple("AntidominanceReport", "min_rep_of_coset orbit_maximal chamber")
):
    """The three equivalent characterizations of antidominance, evaluated:
    t_lam is the shortest element of its coset, its coset Bruhat-dominates
    the whole W-orbit, and lam pairs <= 0 with every simple root."""

    __slots__ = ()

    def all_agree(self) -> bool:
        return self.min_rep_of_coset == self.orbit_maximal == self.chamber


def coweight_orbit(datum: RootDatum, lam: Vec):
    """The W-orbit of lam, in coroot coordinates, breadth first from lam, each point once.

    The step s_i mu = mu - <mu, alpha_i> alpha_i^v changes coordinate i alone;
    <mu, alpha_i> is read off alpha_i's pairing row, as in ``is_antidominant``.
    """
    rows = [datum.pairing_rows[k] for k in datum.simple_index]
    queue = [lam]
    seen = set(queue)
    for mu in queue:  # the loop reaches the points appended below, in order
        yield mu
        for i, row in enumerate(rows):
            if c := sum(map(mul, mu, row)):
                nu = mu[:i] + (mu[i] - c,) + mu[i + 1:]
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)


def antidominant_equivalences(datum: RootDatum, lam: Vec) -> AntidominanceReport:
    """Evaluate all three antidominance conditions independently.

    The orbit condition walks W/W_lam: as v t_lam = t_{v lam} v, it reads the
    cosets t_mu W for mu in the orbit W lam.  A coordinate past
    ANTIDOMINANT_COORD_BOUND raises BoundExceededError.
    """
    if any(abs(c) > ANTIDOMINANT_COORD_BOUND for c in lam):
        biggest = max(abs(c) for c in lam)
        raise BoundExceededError("translation coordinate", biggest, ANTIDOMINANT_COORD_BOUND)
    t = translation(datum, lam)
    top = min_rep(t)
    orbit_maximal = all(
        bruhat_leq(min_rep(translation(datum, mu)), top) for mu in coweight_orbit(datum, lam)
    )
    return AntidominanceReport(is_min_rep(t), orbit_maximal, is_antidominant(datum, lam))


class PowerStep(
    namedtuple(
        "PowerStep", "n nonzero index_is_expected_translation length expected_length"
    )
):
    """One step of the generating-variety power check; ``length`` is None
    when the n-th power is zero."""

    __slots__ = ()


def check_generator_powers(lie_type: LieType, n_max: int) -> list[PowerStep]:
    """Star powers of the generating class against translations by -n*theta^v.

    The n-th power must be the class at t_{-n theta^v} with length n times
    the base length (dimension additivity of the generating variety).
    """
    datum = root_datum(lie_type)
    base = generator_class(lie_type)
    steps = []
    acc: SchubertClass | None = identity_class(lie_type)
    for n in range(1, n_max + 1):
        acc = star(acc, base) if acc is not None else None
        expected = translation(datum, tuple(-n * c for c in datum.highest_coroot))
        steps.append(
            PowerStep(
                n=n,
                nonzero=acc is not None,
                index_is_expected_translation=acc is not None and acc.elem == expected,
                length=acc.dim() if acc is not None else None,
                expected_length=n * base.dim(),
            )
        )
    return steps


def star_reading_discrepancies(lie_type: LieType, max_len: int) -> list[tuple[AffineElem, AffineElem]]:
    """Pairs where the two readings of 'reduced product' disagree.

    Returns (tau, nu) with both indices representatives, the product
    length-additive, but the product not a representative: under the
    length-only reading the star product would be a class, under the
    implemented reading it is zero.  Kept visible so the choice of reading is
    auditable rather than silent.
    """
    elems = list(enumerate_minreps(lie_type, max_len).flat())
    out = []
    for tau in elems:
        for nu in elems:
            if tau.length() + nu.length() > max_len:
                continue
            p = tau * nu
            if p.length() == tau.length() + nu.length() and not is_min_rep(p):
                out.append((tau, nu))
    return out


def suite_lengths(lie_type: LieType, *, seed: int = 0) -> list[CheckResult]:
    """Closed length formula against the BFS oracle, plus word recovery."""
    dist = length_bfs_oracle(lie_type, LENGTHS_MAX_LEN)
    mismatch = [x for x, d in dist.items() if x.length() != d]
    results = [
        CheckResult(
            "length-formula-vs-bfs",
            not mismatch,
            f"{len(dist)} elements through length {LENGTHS_MAX_LEN}; {len(mismatch)} mismatches",
        )
    ]
    datum = root_datum(lie_type)
    rng = random.Random(seed)
    sample = rng.sample(sorted(dist, key=lambda x: (x.length(), x.trans, x.fin.word())), min(64, len(dist)))
    bad_words = [
        x for x in sample
        if affine.from_word(datum, reduced_word(x)) != x or len(reduced_word(x)) != x.length()
    ]
    results.append(
        CheckResult(
            "reduced-word-roundtrip",
            not bad_words,
            f"{len(sample)} sampled elements re-assemble from their reduced words",
        )
    )
    return results


def suite_antidominant(lie_type: LieType) -> list[CheckResult]:
    """The three antidominance characterizations agree on a coordinate box.

    A type whose |W| times the box size passes ANTIDOMINANT_WORK_BOUND raises
    BoundExceededError before any point is checked.
    """
    datum = root_datum(lie_type)
    coord_bound = ANTIDOMINANT_COORD_BOUND
    work = weyl_order(lie_type) * (2 * coord_bound + 1) ** datum.rank
    if work > ANTIDOMINANT_WORK_BOUND:
        raise BoundExceededError("antidominant suite work", work, ANTIDOMINANT_WORK_BOUND)
    boxes = itertools.product(range(-coord_bound, coord_bound + 1), repeat=datum.rank)
    disagreements = []
    total = 0
    for lam in boxes:
        total += 1
        report = antidominant_equivalences(datum, lam)
        if not report.all_agree():
            disagreements.append(lam)
    return [
        CheckResult(
            "antidominance-equivalences",
            not disagreements,
            f"{total} lattice points in [-{coord_bound},{coord_bound}]^{datum.rank}; "
            f"{len(disagreements)} disagreements",
        )
    ]


def suite_additivity(lie_type: LieType) -> list[CheckResult]:
    """Length additivity of representative times antidominant translation."""
    datum = root_datum(lie_type)
    levels = enumerate_minreps(lie_type, ADDITIVITY_SIGMA_LEN)
    lams = [
        lam
        for lam in itertools.product(range(ADDITIVITY_COORD_LOW, 1), repeat=datum.rank)
        if is_antidominant(datum, lam)
    ]
    bad = []
    checked = 0
    for sigma in levels.flat():
        for lam in lams:
            t = translation(datum, lam)
            checked += 1
            if (sigma * t).length() != sigma.length() + t.length():
                bad.append((sigma, lam))
    results = [
        CheckResult(
            "length-additivity",
            not bad,
            f"{checked} products sigma * t_lam checked; {len(bad)} failures",
        )
    ]
    pair_bad = 0
    for lam, mu in itertools.product(lams, repeat=2):
        s = tuple(a + b for a, b in zip(lam, mu))
        if translation(datum, s).length() != translation(datum, lam).length() + translation(datum, mu).length():
            pair_bad += 1
    results.append(
        CheckResult(
            "antidominant-translation-additivity",
            pair_bad == 0,
            f"{len(lams) ** 2} antidominant pairs; {pair_bad} failures",
        )
    )
    return results


def suite_series(lie_type: LieType) -> list[CheckResult]:
    """Min-rep level sizes against the exponent generating series."""
    datum = root_datum(lie_type)
    levels = enumerate_minreps(lie_type, SERIES_THROUGH)
    got = list(levels.level_sizes())
    want = _series_coeffs(datum.exponents, SERIES_THROUGH)
    ok = got == want
    results = [
        CheckResult(
            "minrep-level-sizes-vs-series",
            ok,
            f"levels {got} vs series {want}",
        )
    ]
    tail_bad = [
        x for x in levels.flat() if x.length() > 0 and reduced_word(x)[-1] != 0
    ]
    results.append(
        CheckResult(
            "minrep-words-end-affine",
            not tail_bad,
            "every nonidentity representative's reduced word ends in node 0",
        )
    )
    return results


def suite_segments(lie_type: LieType) -> list[CheckResult]:
    """Uniqueness of segment factorization and the star refactorization."""
    datum = root_datum(lie_type)
    # the segments are the classes under seed_t, its lower interval less the identity
    segs = schubert.segments(lie_type)
    # v s_0 = t_{v theta^v} v s_theta, so min_rep(v s_0) is that of t_mu for mu = v theta^v
    # in the orbit of theta^v; as mu != 0, none is the identity.  Right multiplication by W
    # keeps the translation, and a coset t_mu W has one minimal representative, so the
    # segments are these iff each is minimal and their translations are the orbit
    orbit = set(coweight_orbit(datum, datum.highest_coroot))
    same = all(is_min_rep(s.elem) for s in segs) and {s.elem.trans for s in segs} == orbit
    results = [
        CheckResult(
            "segment-characterizations-agree",
            same,
            f"{len(segs)} segments; interval and orbit descriptions "
            + ("match" if same else "differ"),
        )
    ]
    levels = enumerate_minreps(lie_type, SEGMENTS_MAX_LEN)
    non_unique = []
    refactor_bad = []
    count = 0
    for x in levels.flat():
        count += 1
        found = segment_factorizations(x, bound=SEGMENTS_MAX_LEN)
        if len(found) != 1:
            non_unique.append(x)
            continue
        if not star_refolds(x, found[0]):
            refactor_bad.append(x)
    results.append(
        CheckResult(
            "segment-factorization-unique",
            not non_unique,
            f"{count} representatives through length {SEGMENTS_MAX_LEN}; "
            f"{len(non_unique)} without a unique factorization",
        )
    )
    results.append(
        CheckResult(
            "star-refactorization",
            not refactor_bad,
            f"star fold over the factorization recovers the class "
            f"({len(refactor_bad)} failures)",
        )
    )
    return results


# total length up to which star_witness searches after the pairs through STAR_MAX_LEN
WITNESS_DEPTH = 16


def _noncommuting_pair(elems, low: int, high: int):
    """The first pair (a, b), in product order, with low <= dim a + dim b <= high and
    exactly one of a * b, b * a zero; or None."""
    for a, b in itertools.product(elems, repeat=2):
        if low <= a.dim() + b.dim() <= high and (star(a, b) is None) != (star(b, a) is None):
            return a, b
    return None


def star_witness(lie_type: LieType, elems):
    """A pair of classes whose star product is zero in one order only, and its depth.

    ``elems`` are the classes through STAR_MAX_LEN; their pairs of total length
    <= STAR_MAX_LEN are scanned first, in product order, and the depth is None
    for a pair found there.  Only when none is, pairs of each total length up
    to WITNESS_DEPTH are scanned in turn, and the depth is that total length.
    """
    pair = _noncommuting_pair(elems, 0, STAR_MAX_LEN)
    if pair is not None:
        return pair, None
    deeper = [SchubertClass(x) for x in enumerate_minreps(lie_type, WITNESS_DEPTH, bound=WITNESS_DEPTH).flat()]
    for depth in range(STAR_MAX_LEN + 1, WITNESS_DEPTH + 1):
        pair = _noncommuting_pair(deeper, depth, depth)
        if pair is not None:
            return pair, depth
    return None, None


def suite_star(lie_type: LieType, *, seed: int = 0) -> list[CheckResult]:
    """Associativity, a non-commutative witness, and the reading discrepancies."""
    levels = enumerate_minreps(lie_type, STAR_MAX_LEN)
    elems = [SchubertClass(x) for x in levels.flat()]
    triples = [
        (a, b, c)
        for a, b, c in itertools.product(elems, repeat=3)
        if a.dim() + b.dim() + c.dim() <= STAR_MAX_LEN
    ]
    rng = random.Random(seed)
    if len(triples) > STAR_TRIPLE_CAP:
        triples = rng.sample(triples, STAR_TRIPLE_CAP)
    assoc_bad = 0
    absorbed = 0
    checked = 0
    for a, b, c in triples:
        ab = star(a, b)
        bc = star(b, c)
        if ab is None or bc is None:
            # One association order dies by the zero clause; when the other
            # survives, the basis-level calculus cannot associate.  Counted
            # and reported, never hidden.
            left = star(ab, c) if ab is not None else None
            right = star(a, bc) if bc is not None else None
            if left != right:
                absorbed += 1
            continue
        checked += 1
        if star(ab, c) != star(a, bc):
            assoc_bad += 1
    results = [
        CheckResult(
            "star-associativity",
            assoc_bad == 0,
            f"{checked} triples with both intermediate products nonzero "
            f"(of {len(triples)} with total length <= {STAR_MAX_LEN}); {assoc_bad} failures",
        ),
        CheckResult(
            "star-zero-absorption",
            True,
            f"{absorbed} triples where one association order is killed by the "
            "dimension-forced zero while the other survives; the unrestricted "
            "associativity statement fails exactly there",
        ),
    ]
    witness, depth = star_witness(lie_type, elems)
    if witness is None:
        detail = f"no pair with one order zero and the other not up to total length {WITNESS_DEPTH}"
    else:
        where = "" if depth is None else f" at total length {depth}, none up to {STAR_MAX_LEN}"
        detail = (
            f"found a pair with one order zero and the other not{where}: "
            f"{format_element(witness[0].elem)}, {format_element(witness[1].elem)}"
        )
    results.append(CheckResult("star-noncommutative-witness", witness is not None, detail))
    disc = star_reading_discrepancies(lie_type, STAR_READING_MAX_LEN)
    sample = ", ".join(
        f"({format_element(t)})*({format_element(n)})" for t, n in disc[:2]
    )
    results.append(
        CheckResult(
            "star-reading-discrepancies",
            True,
            f"{len(disc)} length-additive products leave the representative set"
            + (f", e.g. {sample}" if sample else "")
            + "; the implemented product is zero there",
        )
    )
    return results


def suite_canonical(lie_type: LieType) -> list[CheckResult]:
    """Star powers of the generating class hit the expected translations."""
    steps = check_generator_powers(lie_type, CANONICAL_N_MAX)
    ok = all(
        s.nonzero and s.index_is_expected_translation and s.length == s.expected_length
        for s in steps
    )
    return [
        CheckResult(
            "generator-powers",
            ok,
            "; ".join(
                f"n={s.n}: length {s.length} (expected {s.expected_length})" for s in steps
            ),
        )
    ]


def suite_decompose(lie_type: LieType, *, bound: int | None = None) -> list[CheckResult]:
    """Every class under a product splits as a star of classes under the factors."""
    datum = root_datum(lie_type)
    t = affine.seed_translation(datum)
    sigmas = list(enumerate_minreps(lie_type, DECOMPOSE_SIGMA_LEN, bound=bound).flat())
    tops = [min_rep(sigma * t) for sigma in sigmas]
    # every top is checked at once, so exit 3 names a length that clears them all
    affine.check_enum_bound(datum, "min-rep enumeration length", max(top.length() for top in tops), bound)
    # the classes under t: the identity and the segments, with the words a split strips
    under_t = [(affine_identity(datum), ())]
    under_t += [(seg.elem, letters) for seg, letters in schubert._segments(lie_type)]
    below = sorted(under_t, key=lambda c: -len(c[1]))  # longest first, by lam within a length
    failures = 0
    total = 0
    for sigma, top in zip(sigmas, tops):
        # the identity sigma gives top == t, whose interval is under_t
        for omega in [nu for nu, _ in under_t] if top == t else affine.lower_interval(top).flat():
            total += 1
            try:
                tau, nu = schubert._star_decompose(omega, sigma, below)
            except ArithmeticError:
                failures += 1
                continue
            prod = star(tau, nu)
            if prod is None or prod.elem != omega:
                failures += 1
    return [
        CheckResult(
            "star-decomposition",
            failures == 0,
            f"{total} classes under products; {failures} without a valid split",
        )
    ]


SUITES = {
    "lengths": suite_lengths,
    "antidominant": suite_antidominant,
    "additivity": suite_additivity,
    "series": suite_series,
    "segments": suite_segments,
    "star": suite_star,
    "canonical": suite_canonical,
    "decompose": suite_decompose,
}


def run_suite(
    lie_type: LieType, name: str, *, seed: int = 0, bound: int | None = None
) -> list[CheckResult]:
    """Run one named suite, or all of them.

    ``seed`` reaches the lengths and star suites, which sample, and ``bound``
    raises the enumeration limit of the decompose suite alone.
    """
    names = list(SUITES) if name == "all" else [name]
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    out = []
    for key in names:
        fn = SUITES[key]
        kwargs = {"seed": seed} if key in ("lengths", "star") else {}
        if key == "decompose":
            kwargs["bound"] = bound
        out.extend(fn(lie_type, **kwargs))
    return out
