"""Span tracing for the benchmark, done entirely from outside the library.

zipvl's internal call sites reach each other through module attributes
(``attention.causal_scores``) or through bare names that resolve in the
module's globals (``prefill`` inside ``engine.generate``). Replacing the
attribute on the module or class therefore lets a wrapper see every call,
so no line of the library changes to be traced.

A span is one call: name, start, end and the span that was open when it
started. Self time is a span's duration minus the time its child spans
cover. Calls are single-threaded and strictly nested, so children never
overlap and the covered time is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

MODES = ("dense", "zipvl-exact", "zipvl-probe", "fixed")
ROOT = "request"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` is recorded under ``name``.

    ``tag(*args, **kwargs)`` labels the span before the call;
    ``count(counts, result, *args, **kwargs)`` adds to the counters after it.
    """

    owner: object
    attr: str
    name: str
    tag: Callable | None = None
    count: Callable | None = None


class Tracer:
    """Records spans and counters in memory while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, tag, start, end, parent index]
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def _open(self, name: str, tag) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, tag, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        idx = self._open(name, tag)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name, tag, count = target.name, target.tag, target.count
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, tag(*args, **kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[calls] += 1
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore it."""
        try:
            for t in targets:
                original = vars(t.owner)[t.attr]
                self._installed.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(t, original))
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)


def leaked(targets: list[Target], originals: dict) -> list[str]:
    """Names of targets whose attribute is not the original object any more."""
    return [t.name for t in targets if vars(t.owner)[t.attr] is not originals[t.name]]


def snapshot(targets: list[Target]) -> dict:
    return {t.name: vars(t.owner)[t.attr] for t in targets}


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the summed duration of its direct children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def enclosing(spans: list[list], idx: int, name: str) -> int:
    """Index of the nearest ancestor of span idx called name, or -1."""
    parent = spans[idx][4]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][4]
    return parent


def summarize(tracer: Tracer) -> dict:
    """Reduce one request's spans and counters to per-layer values.

    The request must be wrapped in a single ROOT span. Raises ValueError when
    the self times do not add up to the root's duration, which would mean a
    span was left open or attributed to the wrong parent.
    """
    spans = tracer.spans
    if not spans or spans[0][0] != ROOT or any(s[4] < 0 for s in spans[1:]):
        raise ValueError("trace is not a single request-rooted tree")
    own = self_times(spans)
    wall = spans[0][3] - spans[0][2]
    if abs(sum(own) - wall) > 1e-9 * max(1.0, wall) + 1e-12:
        raise ValueError(f"self times sum to {sum(own)!r}, request took {wall!r}")
    out: defaultdict = defaultdict(float)
    for i, (name, tag, start, end, parent) in enumerate(spans):
        out[f"{name}.self_ms"] += 1e3 * own[i]
        if name == "engine.prefill":
            out[f"engine.prefill.ms.{tag}"] += 1e3 * (end - start)
        elif name == "engine.init_model":
            out["engine.init_model.ms"] += 1e3 * (end - start)
        elif name.startswith("attention.") and not spans[parent][0].startswith("attention."):
            prefill = enclosing(spans, i, "engine.prefill")
            if prefill >= 0:
                out[f"attention.ms.{spans[prefill][1]}"] += 1e3 * (end - start)
    out["trace.harness.self_ms"] = out.pop(f"{ROOT}.self_ms")
    out.update(tracer.counts)
    prefills = out.get("engine.prefill.calls", 0)
    for key in ("kvcache.resident_bytes", "kvcache.modeled_bytes"):
        if prefills:
            out[key] /= prefills
    return dict(out)


# --- what gets wrapped -----------------------------------------------------


def _prefill_mode(model, tokens, policy, *args, **kwargs):
    return policy.mode


def _count_prefill(counts, result, model, tokens, policy, *args, **kwargs):
    _, cache, reports = result
    counts[f"metrics.attn_flops.{policy.mode}"] += sum(r.attn_flops for r in reports)
    counts["kvcache.modeled_bytes"] += sum(r.kv_bytes for r in reports)
    counts["kvcache.resident_bytes"] += sum(
        k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values)
    )


def _count_rows(key):
    def count(counts, result, *args, **kwargs):
        counts[key] += result.n_rows

    return count


def _count_kept(counts, result, q, k, v, scale, indices):
    counts["attention.restricted_attention.kept_rows"] += np.size(indices)


def _count_elems(counts, result, logits, mask):
    counts["numkit.masked_softmax_rows.elems"] += np.size(logits)


def _count_tokens(counts, result, normalized, p):
    counts["budget.partition_tokens.tokens"] += np.size(normalized)


def _count_append(counts, result, cache, layer, *args, **kwargs):
    # computed: concatenate rebuilds the layer's K, V and positions arrays
    rows = cache.rows(layer)
    counts["kvcache.KVCache.append.bytes_copied"] += rows * (2 * cache.heads * cache.d_head * 4 + 8)


def _count_read(counts, result, fh):
    counts["workload.read_workload_csv.bytes"] += os.fstat(fh.fileno()).st_size


def zipvl_targets() -> list[Target]:
    """The public functions whose calls the traced run records."""
    from zipvl import attention, budget, cli, engine, kvcache, metrics, numkit, workload

    plain = [
        (cli, ("main", "cmd_run", "cmd_sweep_tau", "cmd_compare", "cmd_gen_workload")),
        (engine, ("init_model", "decode_step", "generate")),
        (attention, ("accumulated_scores", "normalized_scores")),
        (numkit, ("cumsum_desc", "topk_indices")),
        (budget, ("adaptive_budget", "fixed_budget", "top_mass_fraction")),
        (kvcache, ("quantize_mixed", "dequantize")),
        (metrics, ("build_run_report",)),
        (workload, ("generate_workload", "write_workload_csv", "evaluate_score_workload")),
    ]
    targets = [
        Target(mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}")
        for mod, attrs in plain
        for attr in attrs
    ]
    targets += [
        Target(engine, "prefill", "engine.prefill", _prefill_mode, _count_prefill),
        Target(attention, "causal_scores", "attention.causal_scores", None,
               _count_rows("attention.causal_scores.rows")),
        Target(attention, "probe_attention", "attention.probe_attention", None,
               _count_rows("attention.probe_attention.rows")),
        Target(attention, "restricted_attention", "attention.restricted_attention", None,
               _count_kept),
        Target(numkit, "masked_softmax_rows", "numkit.masked_softmax_rows", None, _count_elems),
        Target(budget, "partition_tokens", "budget.partition_tokens", None, _count_tokens),
        Target(kvcache.KVCache, "append", "kvcache.KVCache.append", None, _count_append),
        Target(kvcache.KVCache, "set_layer", "kvcache.KVCache.set_layer"),
        Target(kvcache.KVCache, "retain", "kvcache.KVCache.retain"),
        Target(workload, "read_workload_csv", "workload.read_workload_csv", None, _count_read),
    ]
    return targets
