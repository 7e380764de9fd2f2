"""Spans around calls into affschub's public functions and element methods.

The tracer lives entirely in the benchmark: it replaces each traced function
or method with a wrapper, and rebinds every ``from .x import y`` copy of a
traced function inside the ``affschub`` package, so that a call made from any
module lands in the wrapper and spans nest across modules.

Each span records its name, start, end, parent span and request id.  Spans
stay in memory until :meth:`Tracer.write` is called at the end of a pass.
Self time is a span's duration minus the time covered by its child spans.
A target missing from the package (renamed or deleted by a later change) is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` or ``module.cls.attr``."""

    span: str  # span name, e.g. "weyl.length"
    module: str  # e.g. "affschub.weyl"
    attr: str
    cls: str | None = None


TARGETS = (
    Target("cartan.root_datum", "affschub.cartan", "root_datum"),
    Target("cartan.fundamental_coweight", "affschub.cartan", "fundamental_coweight"),
    Target("cartan.minuscule_nodes", "affschub.cartan", "minuscule_nodes"),
    Target("weyl.mul", "affschub.weyl", "__mul__", "WeylElem"),
    Target("weyl.length", "affschub.weyl", "length", "WeylElem"),
    Target("weyl.word", "affschub.weyl", "word", "WeylElem"),
    Target("weyl.inverse", "affschub.weyl", "inverse", "WeylElem"),
    Target("weyl.min_coset_reps", "affschub.weyl", "min_coset_reps"),
    Target("affine.mul", "affschub.affine", "__mul__", "AffineElem"),
    Target("affine.length", "affschub.affine", "length", "AffineElem"),
    Target("affine.min_rep", "affschub.affine", "min_rep"),
    Target("affine.enumerate_minreps", "affschub.affine", "enumerate_minreps"),
    Target("affine.bruhat_leq", "affschub.affine", "bruhat_leq"),
    Target("affine.reduced_word", "affschub.affine", "reduced_word"),
    Target("affine.parse_element", "affschub.affine", "parse_element"),
    # The on-disk cache has no public entry point; its two private helpers
    # are the only place its cost can be separated from the enumeration.
    Target("affine.cache", "affschub.affine", "_cache_load"),
    Target("affine.cache", "affschub.affine", "_cache_store"),
    Target("schubert.star", "affschub.schubert", "star"),
    Target("schubert.segment_factorize", "affschub.schubert", "segment_factorize"),
    Target("schubert.schubert_poincare", "affschub.schubert", "schubert_poincare"),
    Target("schubert.star_decompose", "affschub.schubert", "star_decompose"),
    Target("cohomology.chevalley_divisor_mult", "affschub.cohomology", "chevalley_divisor_mult"),
    Target("cohomology.chain_coeffs", "affschub.cohomology", "chain_coeffs"),
    Target("classify.type_report", "affschub.classify", "type_report"),
    Target("cli.main", "affschub.cli", "main"),
    Target("verify.run_suite", "affschub.verify", "run_suite"),
)


def _cache_snapshot(args, kwargs):
    cache_dir = kwargs.get("cache_dir")
    if not cache_dir or not os.path.isdir(cache_dir):
        return cache_dir, {}
    snap = {}
    for entry in os.scandir(cache_dir):
        st = entry.stat()
        snap[entry.name] = (st.st_mtime_ns, st.st_size)
    return cache_dir, snap


def _enumerate_after(counts, state, args, kwargs, result):
    """Representatives, yield, and cache hit/miss inferred from the cache files."""
    cache_dir, before = state
    reps = sum(result.level_sizes())
    counts["affine.enumerate_minreps.reps"] += reps
    if cache_dir:
        _, after = _cache_snapshot(args, kwargs)
        if after == before:
            counts["affine.cache.hits"] += 1
            return  # served from disk: no candidates were tried
        counts["affine.cache.misses"] += 1
    sizes = result.level_sizes()
    # Each representative of level k-1 is multiplied by every generator
    # (rank + 1 of them) and projected; level k keeps the new ones.
    counts["affine.enumerate_minreps.kept"] += sum(sizes[1:])
    counts["affine.enumerate_minreps.tried"] += sum(sizes[:-1]) * (result.lie_type.rank + 1)


def _star_after(counts, state, args, kwargs, result):
    if result is not None:
        counts["schubert.star.nonzero"] += 1


def _chevalley_after(counts, state, args, kwargs, result):
    w = args[3] if len(args) > 3 else kwargs["w"]
    counts["cohomology.chevalley_divisor_mult.terms"] += len(result.coeffs)
    counts["cohomology.chevalley_divisor_mult.roots"] += len(w.datum.pos_roots)


def _min_coset_after(counts, state, args, kwargs, result):
    counts["weyl.min_coset_reps.elems"] += sum(len(level) for level in result)


def _reduced_word_after(counts, state, args, kwargs, result):
    counts["affine.reduced_word.letters"] += len(result)


# span name -> (before hook, after hook); hooks run outside the span's timing
OBSERVERS: dict[str, tuple[Callable | None, Callable]] = {
    "affine.enumerate_minreps": (_cache_snapshot, _enumerate_after),
    "schubert.star": (None, _star_after),
    "cohomology.chevalley_divisor_mult": (None, _chevalley_after),
    "weyl.min_coset_reps": (None, _min_coset_after),
    "affine.reduced_word": (None, _reduced_word_after),
}


class Tracer:
    """Collects spans, call counts and self times for one pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, request id)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts, self_s = self.spans, self._stack, self.counts, self.self_s
        before, after = OBSERVERS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)
                took = end - start
                self_s[name] += took - frame[1]
                counts[name + ".calls"] += 1
                if stack:
                    stack[-1][1] += took
            if after:
                after(counts, state, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target found in the already-imported affschub modules."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "affschub" or key.startswith("affschub."))
        ]
        for t in targets:
            mod = sys.modules.get(t.module)
            if mod is None:
                continue
            if t.cls is not None:
                owner = getattr(mod, t.cls, None)
                orig = vars(owner).get(t.attr) if owner is not None else None
                if orig is not None:
                    setattr(owner, t.attr, self.wrap(t.span, orig))
                continue
            orig = getattr(mod, t.attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(t.span, orig)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
