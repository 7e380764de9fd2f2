"""Benchmark of the affschub engine: one command, four workloads, two kinds of run.

Usage:
    python3 bench/run.py --workload {table,enum,queries,cli} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a source tree.  The engine is imported from ``src/``;
nothing is installed.  A run repeats whole passes (see ``workloads.py``),
each in a fresh interpreter, until ``--seconds`` have gone by, with one
client and no threads.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, plus the tracing overhead as traced over untraced busy
time.  Counts must repeat exactly from one traced pass to the next.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it, each
starting with ``#``, give the workload-specific names of the end-to-end
metrics (``table_s``, ``enum_reps_per_s``, ``query_p50_ms`` ...), the tail
percentile and sample count, and the environment.  The full record is also
written to ``.bench_out/``.  ``--smoke`` runs every workload at a tiny size in
both modes and checks that every metric is present with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads as wl

WORKLOADS = ("table", "enum", "queries", "cli")
BENCHMARK_JSON = os.path.join(wl.ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(wl.ROOT, ".bench_out")
TMP_DIR = os.path.join(wl.ROOT, ".bench_tmp")
WORKER = os.path.join(wl.HERE, "worker.py")
# The tail percentile of each workload leaves at least ten samples beyond it
# in a 20-second run on the machine where the bounds were set.  It is fixed
# rather than chosen from each run's sample count, because passes are made
# of a few distinct requests repeated, and a percentile that moved with the
# count jumped from one request's latency to another's between runs.
TAIL_PERCENTILE = {"table": 75, "enum": 75, "queries": 90, "cli": 75}
# Work per second of the frozen reference engine (bench/reference) on this
# benchmark's 2-core machine in a quiet stretch.  A timed run alternates
# passes of src/ and of the reference, and scales the times of src/ by the
# reference's speed in that run over this figure: the machine's speed drifts
# by up to 2x within minutes, and both engines drift together.
REFERENCE_WORK_PER_S = {"table": 15.0, "enum": 240.0, "queries": 22.0, "cli": 3.8}
RUN_LIMIT_S = 170  # every process of a run ends within this
STARTUP_PROBES = 5

# workload-specific names of the end-to-end metrics, printed before the result
ALIASES = {
    "table": {"table_s": "pass_s"},
    "enum": {"enum_reps_per_s": "work_per_s"},
    "queries": {"query_p50_ms": "p50_ms", "query_tail_ms": "tail_ms", "queries_per_s": "work_per_s"},
    "cli": {"cli_p50_ms": "p50_ms", "cli_tail_ms": "tail_ms"},
}


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = p / 100 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn(engine, workload, seed, tiny, trace, inprocess, cache_dir, spans_path, deadline):
    """Run one pass in a fresh interpreter; None if it did not finish."""
    spec = {
        "engine": engine, "workload": workload, "seed": seed, "tiny": tiny, "trace": trace,
        "inprocess": inprocess, "cache_dir": cache_dir, "spans_path": spans_path,
    }
    timeout = max(1.0, deadline - time.monotonic())
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec["t_spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=wl.ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"# pass of {workload} timed out", flush=True)
        return None
    if proc.returncode != 0:
        print(f"# pass of {workload} exited {proc.returncode}: {proc.stderr.decode()[-500:]}", flush=True)
        return None
    return json.loads(proc.stdout.decode().splitlines()[-1])


class Run:
    """The passes of one run and the tallies of their requests."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.pass_len = len(wl.build_pass(workload, seed, tiny, wl.load_pool()))
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def one(self, engine: str, trace: bool, index: int, inprocess: bool) -> dict | None:
        cache_dir = os.path.join(TMP_DIR, f"{self.workload}-{self.seed}-{index}-{int(trace)}")
        spans = os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl") if trace else None
        if self.workload == "cli":
            os.makedirs(cache_dir)
        try:
            res = spawn(engine, self.workload, self.seed, self.tiny, trace, inprocess, cache_dir, spans,
                        self.deadline)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += self.pass_len
        if res is None:
            self.failed += self.pass_len
            self.errors.append("a pass did not finish")
            return None
        self.failed += res["ok"].count(False)
        self.errors += res["errors"]
        return res

    def repeat(self, seconds: float, kinds: tuple[tuple[str, bool], ...]) -> list[list[dict]]:
        """Whole rounds of passes, one per (engine, trace) kind, until the time is up.

        In a traced run the untraced passes answer CLI commands in process
        too, so that the two sides of the overhead ratio do the same work.
        """
        start = time.monotonic()
        inprocess = any(trace for _, trace in kinds)
        rounds = []
        while True:
            rounds.append([self.one(engine, trace, len(rounds), inprocess) for engine, trace in kinds])
            if time.monotonic() - start >= seconds or time.monotonic() > self.deadline - 60:
                return [[r[k] for r in rounds if r[k] is not None] for k in range(len(kinds))]


def measure(workload: str, passes: list[dict]) -> dict:
    """Unscaled end-to-end values of some passes of one engine."""
    lat = [t for p in passes for t, ok in zip(p["lat_s"], p["ok"]) if ok]
    work = sum(w for p in passes for w, ok in zip(p["work"], p["ok"]) if ok)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "p50_ms": percentile(lat, 50) * 1e3,
        "tail_ms": percentile(lat, TAIL_PERCENTILE[workload]) * 1e3,
        "work_per_s": work / sum(lat),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "pass_s": statistics.median(sum(p["lat_s"]) for p in passes),
        "samples": len(lat),
    }


def end_to_end(run: Run, passes: list[dict], reference: list[dict]) -> tuple[dict, dict]:
    """Values of the engine in src/, scaled by the reference engine's speed in the same run."""
    if not any(any(p["ok"]) for p in passes) or not any(any(p["ok"]) for p in reference):
        return {}, {}
    raw, ref = measure(run.workload, passes), measure(run.workload, reference)
    speed = ref["work_per_s"] / REFERENCE_WORK_PER_S[run.workload]
    values = {k: raw[k] * speed for k in ("setup_s", "p50_ms", "tail_ms", "pass_s")}
    values["work_per_s"] = raw["work_per_s"] / speed
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    info = {
        "tail_percentile": TAIL_PERCENTILE[run.workload], "samples": raw["samples"],
        "passes": len(passes), "speed": speed, "unscaled": raw, "reference": ref,
    }
    return values, info


def startup_ms() -> float:
    """Median wall time of an ``affschub --version`` process."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = time.perf_counter()
        wl.run_cli_process(["--version"], TMP_DIR)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def per_layer(run: Run, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    if not plain or not traced:
        return {}, {}
    counts = traced[0]["counts"]
    for p in traced[1:]:
        if p["counts"] != counts:
            run.failed += 1
            run.attempted += 1
            run.errors.append("counts differ between traced passes")
    names = {k for p in traced for k in p["self_s"]}
    self_s = {k: statistics.median(p["self_s"].get(k, 0.0) for p in traced) for k in names}

    def c(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{k}.self_s": v for k, v in self_s.items()}
    values.update({k: v for k, v in counts.items()})
    values.update({
        "affine.enumerate_minreps.yield": ratio(c("affine.enumerate_minreps.kept"), c("affine.enumerate_minreps.tried")),
        "affine.enumerate_minreps.per_request": ratio(c("affine.enumerate_minreps.calls"), run.pass_len),
        "schubert.star.nonzero_ratio": ratio(c("schubert.star.nonzero"), c("schubert.star.calls")),
        "cohomology.chevalley_divisor_mult.hit_ratio": ratio(
            c("cohomology.chevalley_divisor_mult.terms"), c("cohomology.chevalley_divisor_mult.roots")),
        "cli.startup_ms": startup_ms(),
        "trace.overhead": statistics.median(sum(p["lat_s"]) for p in traced)
        / statistics.median(sum(p["lat_s"]) for p in plain),
    })
    info = {"traced_passes": len(traced), "untraced_passes": len(plain), "spans": traced[0]["spans"]}
    return values, info


def environment() -> dict:
    """What the result depends on besides the code: interpreter, cores, commit, size."""
    lines = 0
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(wl.SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                h.update(data)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
        "src_sha256": h.hexdigest()[:16],
    }


def _commit() -> str | None:
    """HEAD of the source tree, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(wl.ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(wl.ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, spec: dict) -> dict:
    """One run; returns its record, whose "result" is the object printed last."""
    run = Run(workload, seed, tiny)
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        if trace:
            plain, traced = run.repeat(seconds, ((wl.SRC, False), (wl.SRC, True)))
            values, info = per_layer(run, plain, traced)
            wanted = spec["per_layer"]
        else:
            passes, reference = run.repeat(seconds, ((wl.SRC, False), (wl.REFERENCE, False)))
            values, info = end_to_end(run, passes, reference)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif trace and values:
            # a layer this workload never enters: no call, no time
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    complete = len(metrics) == len(wanted)
    result = {
        "correct": run.failed == 0 and complete,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if complete else max(run.failed, 1),
        "metrics": metrics,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    aliases = {}
    if not trace and values:
        aliases = {a: {"value": values[k], "unit": units.get(k, "s")} for a, k in ALIASES[workload].items()}
        for k in ("setup_s", "peak_rss_mb"):
            aliases[k] = {"value": values[k], "unit": units[k]}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "environment": environment(), "info": info, "errors": run.errors[:20],
        "failed_frac": result["failed"] / result["attempted"], "named": aliases, "result": result,
    }
    return record


def report(record: dict) -> None:
    for name, m in record["named"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# failed_frac = {record['failed_frac']:.6g} (failed / attempted)")
    print(f"# info {json.dumps(record['info'], sort_keys=True)}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for err in record["errors"]:
        print(f"# error: {err}")
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record["result"]), flush=True)


def smoke(spec: dict) -> int:
    """Every workload, tiny, in both modes: every metric present, with its unit."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_workload(workload, 1, 0, trace, True, spec)
            res = record["result"]
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted
                       if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            ok = res["correct"] and not missing
            key = f"{workload}/{int(trace)}"
            runs[key] = {"ok": ok, "failed_frac": record["failed_frac"], "missing": missing}
            print(f"# smoke {key}: attempted {res['attempted']} failed {res['failed']} "
                  f"missing {len(missing)} {'ok' if ok else 'FAIL'}")
            for err in record["errors"]:
                print(f"#   error: {err}")
    passed = all(r["ok"] for r in runs.values())
    print(json.dumps({"smoke": passed, "runs": runs}))
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload and mode")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "affschub", "__init__.py")):
        print(f"error: no engine source at {wl.SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
