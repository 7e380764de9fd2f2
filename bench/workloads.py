"""The four workloads: their inputs, one request each, and its output check.

A pass is the fixed sequence of requests that one fresh interpreter answers.
Inputs come from ``pool.json``: every query and command the workloads send,
each with the digest of its canonical output pinned at the commit that added
the benchmark.  The seed orders the pass.  It does not choose among inputs of
different cost: a seed is drawn afresh for every run, and inputs drawn by
seed made the runs of one commit differ by more than the bounds allow.

The engine is reached through module attributes looked up at call time
(``affine.parse_element``), never through names copied into this module, so
that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# A frozen copy of the engine as it was when the benchmark was written; see
# "Bounds and noise" in README.md.  It is never edited.
REFERENCE = os.path.join(HERE, "reference")
POOL_PATH = os.path.join(HERE, "pool.json")

# Canonical simple types up to rank 7, plus E8.  Rank 8 is left out: C8
# alone took 1.5 s of a 3.3 s table, and the fewer passes a run held, the
# more its median row time spread from run to run.
TABLE_TYPES = (
    "A1 A2 C2 G2 A3 B3 C3 A4 B4 C4 D4 F4 A5 B5 C5 D5 A6 B6 C6 D6 E6 "
    "A7 B7 C7 D7 E7 E8"
).split()
TABLE_TINY = ("A1", "A2", "C2", "G2")

ENUM_PAIRS = (("A2", 12), ("C2", 12), ("G2", 12), ("A3", 10), ("B3", 10), ("D4", 10), ("F4", 10))
ENUM_TINY = (("A2", 4), ("C2", 4))

# Classical exponent tables (Bourbaki, planches), kept here rather than taken
# from the engine so the level-size check is independent of it.
EXPONENTS = {
    "A2": (1, 2), "C2": (1, 3), "G2": (1, 5), "A3": (1, 2, 3),
    "B3": (1, 3, 5), "D4": (1, 3, 3, 5), "F4": (1, 5, 7, 11),
}

QUERY_TYPES = ("A2", "C2", "G2", "A3", "B3")
CLI_PREFIX = "import sys; from affschub.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Request:
    kind: str
    type: str  # type label, or "" for CLI commands
    args: tuple
    pin: str | None  # expected digest; None when the check is computed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def build_pass(workload: str, seed: int, tiny: bool, pool: dict) -> list[Request]:
    """The requests of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        types = list(TABLE_TINY if tiny else TABLE_TYPES)
        rng.shuffle(types)
        return [Request("table", t, (), pool["table"][t]) for t in types]
    if workload == "enum":
        pairs = list(ENUM_TINY if tiny else ENUM_PAIRS)
        rng.shuffle(pairs)
        return [Request("enum", t, (n,), None) for t, n in pairs]
    items = [i for i in pool[workload] if i["tiny"] or not tiny]
    rng.shuffle(items)
    out = []
    for item in items:
        # a repeated command runs back to back: a cache miss, then a hit
        out += [Request(item["kind"], item["type"], tuple(item["args"]), item["pin"])] * item["repeat"]
    return out


def types_of(requests: list[Request]) -> list[str]:
    return sorted({r.type for r in requests if r.type})


# ---------------------------------------------------------------------------
# Executing one request.  Each returns (canonical output text, work units).


def run_table(req: Request) -> tuple[str, int]:
    from affschub import cartan, classify, cohomology

    lt = cartan.parse_type(req.type)
    rep = classify.type_report(lt)
    ladder = cohomology.chain_coeffs(lt)
    poly = cohomology.levi_poincare(lt)
    payload = {
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
        "a": list(ladder) if ladder is not None else None,
        "levi_poincare": list(poly.coeffs),
    }
    return json.dumps(payload, sort_keys=True), 1


def series(exps, through: int) -> list[int]:
    """Coefficients of prod 1/(1 - q^e) through q^through."""
    coeffs = [1] + [0] * through
    for e in exps:
        for k in range(e, through + 1):
            coeffs[k] += coeffs[k - e]
    return coeffs


def run_enum(req: Request) -> tuple[str, int]:
    from affschub import affine, cartan

    levels = affine.enumerate_minreps(cartan.parse_type(req.type), req.args[0])
    sizes = list(levels.level_sizes())
    return json.dumps(sizes), sum(sizes)


def check_enum(req: Request, text: str) -> bool:
    return json.loads(text) == series(EXPONENTS[req.type], req.args[0])


def run_query(req: Request) -> tuple[str, int]:
    """Answer one Schubert-calculus query, formatted as the CLI formats it."""
    from affschub import affine, cartan, schubert

    datum = cartan.root_datum(cartan.parse_type(req.type))
    fmt = affine.format_element

    def elem(text):
        return affine.parse_element(datum, text)

    kind, args = req.kind, req.args
    if kind == "star":
        tau = schubert.SchubertClass(elem(args[0]))
        nu = schubert.SchubertClass(elem(args[1]))
        result = schubert.star(tau, nu)
        payload = {
            "left": fmt(tau.elem),
            "right": fmt(nu.elem),
            "result": fmt(result.elem) if result else None,
            "zero": result is None,
        }
    elif kind == "factorize":
        w = elem(args[0])
        payload = {
            "element": fmt(w),
            "factors": [fmt(s.elem) for s in schubert.segment_factorize(w)],
            "star_refactors": schubert.star_refactor_check(w),
        }
    elif kind == "poincare":
        w = affine.min_rep(elem(args[0]))
        poly = schubert.schubert_poincare(schubert.SchubertClass(w))
        payload = {
            "element": fmt(w),
            "coefficients": list(poly.coeffs),
            "palindromic": poly.is_palindromic(),
            "chain": poly.is_chain(),
        }
    elif kind == "bruhat":
        payload = {"leq": affine.bruhat_leq(elem(args[0]), elem(args[1]))}
    elif kind == "decompose":
        lam = tuple(int(c) for c in args[2].split(","))
        tau, nu = schubert.star_decompose(elem(args[0]), elem(args[1]), lam)
        payload = {"tau": fmt(tau.elem), "nu": fmt(nu.elem)}
    elif kind == "word":
        payload = {"element": fmt(elem(args[0]))}
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return json.dumps(payload, sort_keys=True), 1


def cli_text(code: int, stdout: str) -> str:
    return json.dumps({"exit": code, "stdout": stdout}, sort_keys=True)


def run_cli_process(argv, cache_dir: str, engine: str = SRC) -> str:
    """One ``affschub`` process, started the way its console script starts it."""
    env = dict(os.environ, PYTHONPATH=engine, AFFSCHUB_CACHE_DIR=cache_dir)
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PREFIX, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    return cli_text(proc.returncode, proc.stdout.decode())


def run_cli_inprocess(argv) -> tuple[str, int]:
    """The same command through ``affschub.cli.main`` in this interpreter."""
    import contextlib
    import io

    from affschub import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: --version and usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception exits 1 in a process
            code = 1
    return cli_text(code, out.getvalue()), len(out.getvalue().encode())
