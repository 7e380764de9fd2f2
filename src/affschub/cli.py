"""Command-line surface: every computation, with deterministic text or JSON.

Each ``cmd_*`` is a function of the parsed type (``None`` for
``classify-all``) and the arguments, and returns its payload and its text
lines. ``main`` alone parses the type, prints the JSON envelope or the text,
and maps the result to an exit code.

``BOUND_FLAGS`` is the one place that declares a bound flag: each
command's row gives the flag, the quantity it bounds and its default, and
both ``build_parser`` (which adds it as ``args.bound``) and the exit-3
message read that row.

Exit codes: 0 success, 1 property-suite failure, 2 parse error (the message
names the offending token), 3 configured bound exceeded (the message names
the limit and the flag that raises it), 4 internal failure (a broken
invariant of the engine, never a property of the input).

Nothing is cached on disk: ``enumerate`` recomputes its levels on every run,
and its ``--no-cache`` flag is accepted for older scripts and does nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cartan import LieType, convention_hash, parse_type, root_datum
from .errors import BoundExceededError, ParseError
from . import affine
from .affine import enumerate_minreps, format_element, parse_element
from . import schubert
from .classify import classify_all, type_report
from .cohomology import chain_coeffs, levi_nodes, levi_poincare, pd_status

SCHEMA_VERSION = 1

# the one declaration of each command's bound flag: the flag, the quantity it
# bounds (the ``what`` of BoundExceededError) and its default; build_parser
# adds the flag as ``args.bound``, and _bound_message names it on exit 3
BOUND_FLAGS = {
    "enumerate": ("--max-enum-len", "min-rep enumeration length", None),
    "poincare": ("--max-len", "Poincare polynomial length", None),
    "factorize": ("--max-len", "factorization length", None),
    "verify": ("--max-len", "min-rep enumeration length", None),
    "star": ("--max-word-len", "reduced word length", affine.WORD_BOUND),
}


def _size(text: str) -> int:
    """argparse type for sizes: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _report_payload(rep) -> dict:
    return {
        "type": str(rep.lie_type),
        "levi_nodes": list(rep.levi_nodes),
        "levi_descriptor": rep.levi_descriptor,
        "chain": rep.chain,
        "pd_status": rep.pd_status.value,
        "bott_nodes": list(rep.bott_nodes),
        "minuscule_nodes": list(rep.minuscule_nodes),
        "smooth_schubert_genv": rep.smooth_schubert_genv,
        "e_top": rep.e_top,
        "max_smooth_schubert_dim": rep.max_smooth_schubert_dim,
    }


def cmd_report(lt: LieType, args) -> tuple[dict, list[str]]:
    payload = _report_payload(type_report(lt))
    return payload, [f"{k}: {v}" for k, v in payload.items()]


def cmd_enumerate(lt: LieType, args) -> tuple[dict, list[str]]:
    levels = enumerate_minreps(lt, args.max_len, bound=args.bound)
    payload = {
        "max_length": args.max_len,
        "level_sizes": list(levels.level_sizes()),
        "levels": [[format_element(x) for x in level] for level in levels.by_length],
    }
    lines = [f"minimal representatives of {lt} through length {args.max_len}"]
    for k, words in enumerate(payload["levels"]):
        lines.append(f"  length {k:2d} ({len(words):3d}): " + " ".join(words))
    return payload, lines


def cmd_poincare(lt: LieType, args) -> tuple[dict, list[str]]:
    datum = root_datum(lt)
    elem = affine.min_rep(parse_element(datum, args.element))
    cls = schubert.SchubertClass(elem)
    poly = schubert.schubert_poincare(cls, bound=args.bound)
    payload = {
        "element": format_element(elem),
        "coefficients": list(poly.coeffs),
        "palindromic": poly.is_palindromic(),
        "chain": poly.is_chain(),
    }
    return payload, [f"X[{payload['element']}]: {poly}",
                     f"palindromic: {payload['palindromic']}  chain: {payload['chain']}"]


def _naming(text: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), whose ValueError (an element that is no minimal representative) names text."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"element {text!r}: {exc}") from None


def cmd_star(lt: LieType, args) -> tuple[dict, list[str]]:
    datum = root_datum(lt)
    tau = _naming(args.elem1, schubert.SchubertClass, parse_element(datum, args.elem1))
    nu = _naming(args.elem2, schubert.SchubertClass, parse_element(datum, args.elem2))
    result = schubert.star(tau, nu)
    result_text = format_element(result.elem, bound=args.bound) if result else None
    payload = {
        "left": format_element(tau.elem, bound=args.bound),
        "right": format_element(nu.elem, bound=args.bound),
        "result": result_text,
        "zero": result is None,
    }
    return payload, ["0" if result is None else f"class {result_text}"]


def cmd_segments(lt: LieType, args) -> tuple[dict, list[str]]:
    segs = schubert.segments(lt)
    payload = {
        "count": len(segs),
        "segments": [
            {"length": s.dim(), "element": format_element(s.elem)} for s in segs
        ],
    }
    lines = [f"{len(segs)} segments"] + [
        f"  length {s['length']:2d}: {s['element']}" for s in payload["segments"]
    ]
    return payload, lines


def cmd_factorize(lt: LieType, args) -> tuple[dict, list[str]]:
    datum = root_datum(lt)
    elem = parse_element(datum, args.element)
    word = format_element(elem)  # the word bound stops a long element before the search
    factors = _naming(args.element, schubert.segment_factorize, elem, bound=args.bound)
    payload = {
        "element": word,
        "factors": [format_element(s.elem) for s in factors],
        "star_refactors": schubert.star_refolds(elem, factors),
    }
    return payload, [" * ".join(payload["factors"]) or "(empty product)"]


def cmd_chevalley(lt: LieType, args) -> tuple[dict, list[str]]:
    coeffs = chain_coeffs(lt)
    status = pd_status(lt, coeffs).value
    poly = levi_poincare(lt)
    payload = {
        "levi_nodes": sorted(levi_nodes(lt)),
        "chain": coeffs is not None,
        "a": list(coeffs) if coeffs is not None else None,
        "pd_status": status,
        "levi_poincare": list(poly.coeffs),
    }
    if coeffs is None:
        lines = [f"{lt}: Levi quotient is not a chain ({poly})"]
    else:
        lines = [f"{lt}: a = {list(coeffs)} ({status})"]
    return payload, lines


def cmd_classify_all(lt: None, args) -> tuple[dict, list[str]]:
    reports = classify_all(args.max_rank)
    payload = {"reports": [_report_payload(r) for r in reports]}
    header = f"{'type':>5} {'chain':>5} {'pd':>16} {'smooth-genv':>11} {'e_top':>5} {'minuscule':>12} {'bott':>14}"
    lines = [header]
    for r in reports:
        lines.append(
            f"{str(r.lie_type):>5} {str(r.chain):>5} {r.pd_status.value:>16} "
            f"{str(r.smooth_schubert_genv):>11} {r.e_top:>5} "
            f"{','.join(map(str, r.minuscule_nodes)) or '-':>12} "
            f"{','.join(map(str, r.bott_nodes)) or '-':>14}"
        )
    return payload, lines


def cmd_verify(lt: LieType, args) -> tuple[dict, list[str]]:
    from .verify import run_suite
    results = run_suite(lt, args.suite, seed=args.seed, bound=args.bound)
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    return payload, [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affschub",
        description="Exact affine Weyl group and affine Schubert calculus engine",
    )
    parser.add_argument("--version", action="version", version=f"affschub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        if name != "classify-all":
            p.add_argument("type")
        if name in BOUND_FLAGS:
            flag, what, default = BOUND_FLAGS[name]
            p.add_argument(flag, dest="bound", type=_size, default=default, help=f"raise the limit on {what}")
        return p

    add("report", cmd_report, help="classification report for one type")

    p = add("enumerate", cmd_enumerate, help="minimal coset representatives by length")
    p.add_argument("--max-len", type=_size, default=8)
    p.add_argument("--no-cache", action="store_true", help="does nothing: there is no enumeration cache")

    p = add("poincare", cmd_poincare, help="cell counts of one Schubert variety")
    p.add_argument("--element", required=True, help="element text, e.g. word:1,0 or t:-1,0")

    p = add("star", cmd_star, help="star product of two Schubert classes")
    p.add_argument("elem1")
    p.add_argument("elem2")

    add("segments", cmd_segments, help="the segments (classes below the generator)")

    p = add("factorize", cmd_factorize, help="unique segment factorization of an element")
    p.add_argument("--element", required=True)

    add("chevalley", cmd_chevalley, help="cup-coefficient ladder on the Levi quotient")

    p = add("classify-all", cmd_classify_all, help="classification table over all types")
    p.add_argument("--max-rank", type=_size, default=8, help="the largest rank in the table; E8 is always included")

    p = add("verify", cmd_verify, help="run a named property suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=2024, help="seed for sampled sweeps")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lie_type = parse_type(args.type) if "type" in args else None
        payload, lines = args.fn(lie_type, args)
        if args.json:
            envelope = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "type_label": str(lie_type) if lie_type else None,
                "convention_hash": convention_hash(lie_type) if lie_type else None,
                "payload": payload,
            }
            print(json.dumps(envelope, sort_keys=True, indent=2))
        else:
            for line in lines:
                print(line)
        return 1 if payload.get("passed") is False else 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BoundExceededError as exc:
        print(f"bound exceeded: {_bound_message(args.command, exc)}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def _bound_message(command: str, exc: BoundExceededError) -> str:
    """The library's message, with its keyword replaced by the command's flag.

    A flag is named only when it raises the limit that was hit.
    """
    head = f"{exc.what} {exc.value} exceeds the configured limit {exc.limit}"
    flag, what, _ = BOUND_FLAGS.get(command, (None, None, None))
    if exc.what != what:
        return f"{head}; no flag of '{command}' raises it"
    return f"{head}; pass {flag} {exc.value} (or larger) to raise it"


if __name__ == "__main__":
    sys.exit(main())
