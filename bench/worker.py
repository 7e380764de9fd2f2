"""Answer one pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py '<spec json>'

The spec names the engine (``src/`` or the frozen reference copy), the
workload, seed, size, whether to trace, whether CLI
commands run in this interpreter (as in a traced run) rather than as
processes, the monotonic
time at which the parent started this process, and (for ``cli``) the fresh
cache directory of the pass.  The worker sets up (import, root data, input
generation), stamps the end of set-up, answers every request in order with
one client and no threads, and prints one JSON object with the per-request
latencies, work units and check outcomes.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from time import perf_counter

import workloads as wl


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["engine"])
    workload, trace = spec["workload"], spec["trace"]

    import affschub  # (import cost is part of set-up)

    if not os.path.abspath(affschub.__file__).startswith(os.path.abspath(spec["engine"]) + os.sep):
        raise SystemExit(f"imported {affschub.__file__}, not the engine under {spec['engine']}")
    from affschub import cartan
    from affschub.errors import ParseError

    tracer = None
    if trace:
        import affschub.cli  # noqa: F401  (so their copies of traced names get rebound)
        import affschub.verify  # noqa: F401
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    requests = wl.build_pass(workload, spec["seed"], spec["tiny"], wl.load_pool())
    for label in wl.types_of(requests):
        try:
            cartan.root_datum(cartan.parse_type(label))
        except ParseError:
            pass  # commands that must exit 2 name malformed types on purpose
    if workload == "cli":
        os.environ["AFFSCHUB_CACHE_DIR"] = spec["cache_dir"]
    ready = time.monotonic()

    lat, work, ok, errors = [], [], [], []
    stdout_bytes = 0
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        start = perf_counter()
        try:
            if workload == "table":
                text, units = wl.run_table(req)
            elif workload == "enum":
                text, units = wl.run_enum(req)
            elif workload == "queries":
                text, units = wl.run_query(req)
            elif spec["inprocess"]:
                text, nbytes = wl.run_cli_inprocess(req.args)
                units, stdout_bytes = 1, stdout_bytes + nbytes
            else:
                text, units = wl.run_cli_process(req.args, spec["cache_dir"], spec["engine"]), 1
        except Exception as exc:  # a failed request is counted, not fatal
            lat.append(perf_counter() - start)
            work.append(0)
            ok.append(False)
            errors.append(f"{req.kind} {req.type} {list(req.args)}: {exc!r}")
            continue
        lat.append(perf_counter() - start)
        good = wl.check_enum(req, text) if req.pin is None else wl.digest(text) == req.pin
        work.append(units)
        ok.append(good)
        if not good:
            errors.append(f"{req.kind} {req.type} {list(req.args)}: output differs from its pin")

    who = resource.RUSAGE_CHILDREN if workload == "cli" and not spec["inprocess"] else resource.RUSAGE_SELF
    out = {
        "setup_s": ready - spec["t_spawn"],
        "lat_s": lat,
        "work": work,
        "ok": ok,
        "errors": errors[:5],
        "rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += stdout_bytes
        out["counts"] = dict(tracer.counts)
        out["self_s"] = dict(tracer.self_s)
        out["spans"] = len(tracer.spans)
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
