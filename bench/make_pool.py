"""Write ``pool.json``: the benchmark's inputs and the pinned digest of each output.

Usage: python3 bench/make_pool.py

Run once, at the commit whose outputs become the reference.  Elements are
drawn at fixed lengths with a fixed generator seed and printed in canonical
form.  Each CLI command is run both as a process and through
``affschub.cli.main``, and the two outputs must agree.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile

import workloads as wl

sys.path.insert(0, wl.SRC)

from affschub import affine, cartan  # noqa: E402

STAR_LENGTHS = {2: [(2, 3), (3, 4), (4, 6), (5, 6)], 3: [(2, 3), (3, 4), (4, 5), (5, 5)]}
BRUHAT_LENGTHS = {2: [(3, 10), (5, 12)], 3: [(3, 8), (5, 10)]}
FACTORIZE_LENGTHS = {2: [6, 12], 3: [5, 8]}
POINCARE_LENGTHS = {2: [6, 10], 3: [5, 8]}
WORD_LENGTHS = {"A2": (100, 4000), "C2": (100, 2000), "G2": (100, 1000), "A3": (100, 500), "B3": (100, 300)}


def _item(kind, label, args, tiny=False, repeat=1):
    return {"kind": kind, "type": label, "args": args, "tiny": tiny, "repeat": repeat}


def _query_items(rng: random.Random) -> list[dict]:
    fmt = affine.format_element
    items = []
    for label in wl.QUERY_TYPES:
        lt = cartan.parse_type(label)
        datum = cartan.root_datum(lt)
        r = datum.rank
        levels = affine.enumerate_minreps(lt, 12 if r == 2 else 10).by_length

        def pick(k):
            return fmt(rng.choice(levels[k]))

        first = label == "A2"
        for n, (a, b) in enumerate(STAR_LENGTHS[r]):
            items.append(_item("star", label, [pick(a), pick(b)], first and n == 0))
        for n, (a, b) in enumerate(BRUHAT_LENGTHS[r]):
            items.append(_item("bruhat", label, [pick(a), pick(b)], first and n == 0))
        for n, k in enumerate(FACTORIZE_LENGTHS[r]):
            items.append(_item("factorize", label, [pick(k)], first and n == 0))
        for n, k in enumerate(POINCARE_LENGTHS[r]):
            items.append(_item("poincare", label, [pick(k)], first and n == 0))

        # star_decompose of a class one below sigma * t_{-theta^v}, sigma of length 2
        lam = tuple(-c for c in datum.highest_coroot)
        t = affine.translation(datum, lam)
        sigma = rng.choice(levels[2])
        top = affine.min_rep(sigma * t)
        below = [
            x for x in affine.enumerate_minreps(lt, top.length(), bound=max(top.length(), 10)).by_length[-2]
            if affine.bruhat_leq(x, top)
        ]
        items.append(_item("decompose", label, [fmt(rng.choice(below)), fmt(sigma), ",".join(map(str, lam))], first))

        # canonical words of long translations: multiples of -theta^v
        base = t.length()
        for n, target in enumerate(WORD_LENGTHS[label]):
            point = tuple(c * max(1, round(target / base)) for c in lam)
            items.append(_item("word", label, ["t:" + ",".join(map(str, point))], first and n == 0))
    return items


def _cli_items(query_items: list[dict]) -> list[dict]:
    def from_queries(kind, label, n):
        return [i for i in query_items if i["kind"] == kind and i["type"] == label][n]["args"]

    def cmd(kind, argv, **extra):
        return _item(kind, "", argv + ["--json"] if argv[0] != "--version" else argv, **extra)

    return [
        cmd("version", ["--version"], tiny=True),
        cmd("report", ["report", "G2"], tiny=True),
        cmd("report", ["report", "E8"]),
        cmd("chevalley", ["chevalley", "E8"]),
        cmd("chevalley", ["chevalley", "F4"]),
        cmd("enumerate", ["enumerate", "A3", "--max-len", "10"], repeat=2),
        cmd("enumerate", ["enumerate", "C2", "--max-len", "12", "--no-cache"]),
        cmd("star", ["star", "A1", "t:-2000", "t:-1"]),
        cmd("star", ["star", "A2", *from_queries("star", "A2", 1)]),
        cmd("poincare", ["poincare", "A2", "--element", *from_queries("poincare", "A2", 0)]),
        cmd("factorize", ["factorize", "G2", "--element", *from_queries("factorize", "G2", 0)]),
        cmd("segments", ["segments", "F4"]),
        cmd("verify", ["verify", "A2", "--suite", "canonical"]),
        cmd("verify", ["verify", "A1", "--suite", "star"]),
        cmd("verify", ["verify", "G2", "--suite", "series"]),
        cmd("classify-all", ["classify-all", "--max-rank", "3"]),
        cmd("exit2", ["star", "A2", "word:9", "word:1"], tiny=True),
        cmd("exit2", ["report", "X9"]),
        cmd("exit3", ["enumerate", "A2", "--max-len", "13"]),
        cmd("exit3", ["poincare", "A3", "--element", "t:-3,0,0"]),
    ]


def _pin_cli(item: dict, scratch: str) -> None:
    cache = tempfile.mkdtemp(dir=scratch)
    texts = [wl.run_cli_process(item["args"], cache) for _ in range(item["repeat"])]
    shutil.rmtree(cache)
    os.environ["AFFSCHUB_CACHE_DIR"] = cache = tempfile.mkdtemp(dir=scratch)
    texts += [wl.run_cli_inprocess(item["args"])[0] for _ in range(item["repeat"])]
    shutil.rmtree(cache)
    if len(set(texts)) != 1:
        raise SystemExit(f"CLI outputs disagree for {item['args']}")
    item["pin"] = wl.digest(texts[0])


def main() -> int:
    rng = random.Random("affschub-pool")
    table = {t: wl.digest(wl.run_table(wl.Request("table", t, (), None))[0]) for t in wl.TABLE_TYPES}
    queries = _query_items(rng)
    for item in queries:
        req = wl.Request(item["kind"], item["type"], tuple(item["args"]), None)
        item["pin"] = wl.digest(wl.run_query(req)[0])
    cli = _cli_items(queries)
    scratch = tempfile.mkdtemp(prefix=".pool-", dir=wl.ROOT)
    try:
        for item in cli:
            _pin_cli(item, scratch)
    finally:
        shutil.rmtree(scratch)
    with open(wl.POOL_PATH, "w") as fh:
        json.dump({"table": table, "queries": queries, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
