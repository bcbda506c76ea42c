"""Time prefill and decode on the default model; append a row set to each BENCH_*.json file.

Each of REPEATS rounds runs every mode (or policy) once, in turn, so a
drift of the machine's speed reaches all of them alike. A measured time is
reported three ways: its min over the rounds (prefill_ms, ms_per_step),
its median (*_median) and its interquartile range (*_iqr). speedup_measured
divides the dense min by the row's min; speedup_median is the median over
rounds of dense's time divided by the row's time in the same round.

Each round also times reference_ms, a fixed computation that does not
touch zipvl, once before its modes. *_ref_median is the median over rounds
of the row's time divided by that round's reference time, and
ref_ms_median the median reference time itself. The reference follows the
speed the machine gives the process, so row sets from two invocations,
say a parent tree and a change, compare in ref units where their
milliseconds drift apart.

Prefill: one row per (n, mode) pair, n in SIZES: the measured prefill time,
the modeled prefill attention flops (the sum of the layer reports'
attn_flops), the measured and modeled speedup over dense at the same n, and
peak_mib, the tracemalloc peak of one more, untimed prefill: the memory
numpy allocates during it, the returned logits and cache included.

Decode: one row per cache policy in DECODE_POLICIES (dense, fixed 0.25,
fixed 0.05, zipvl-probe with quantize), each a PROMPT-token prefill followed
by STEPS greedy engine.decode steps: the mean cache rows per layer when
decode starts, the measured ms per step and tokens per second (tok_per_s
from the min; prefill untimed), the modeled decode attention flops, and the
measured and modeled speedup over dense.

Both row kinds also size the cache that prefill returns, which is the
cache a decode row starts from: kv_bytes, the bytes modeled (the sum of
the layer reports' kv_bytes), beside resident_bytes, the .nbytes of the K
and V arrays it holds. The two are equal without quantize; a quantized
cache holds dequantized float32 values, so its resident bytes exceed the
packed bytes it models.

Rows of one invocation form a row set under --label in each file; the files
keep every row set, so the trajectory across changes can be read. The model
has the CLI default shape, read from cli.ExperimentConfig (4 layers x 4
heads x d_model 64 with a 256-token vocabulary), but not the CLI's
weights: it seeds init_model with 1234 directly, where the CLI derives its
model seed from the global seed. The policies keep the default knobs
(tau 0.975, fixed_ratio 0.5, probes 64 + 64); numpy runs on one BLAS
thread.

Usage:
    PYTHONPATH=src python3 scripts/bench.py --label NAME
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import time
import tracemalloc

import numpy as np

from zipvl import cli, engine, kvcache

SIZES = (128, 512, 2048)
PROMPT, STEPS = 2048, 256
REPEATS = 7
_SHAPE = cli.ExperimentConfig()
LAYERS, HEADS, D_MODEL, VOCAB = _SHAPE.layers, _SHAPE.heads, _SHAPE.d_model, _SHAPE.vocab_size
SEED = 1234
DECODE_POLICIES = (
    ("dense", {"mode": "dense"}),
    ("fixed 0.25", {"mode": "fixed", "fixed_ratio": 0.25}),
    ("fixed 0.05", {"mode": "fixed", "fixed_ratio": 0.05}),
    ("zipvl-probe quantize", {"mode": "zipvl-probe", "quantize": True}),
)
ROOT = pathlib.Path(__file__).resolve().parent.parent
PREFILL_OUT = ROOT / "BENCH_prefill.json"
DECODE_OUT = ROOT / "BENCH_decode.json"


def _model(max_seq: int) -> engine.TinyTransformer:
    return engine.init_model(
        engine.ModelConfig(
            layers=LAYERS, heads=HEADS, d_model=D_MODEL, vocab_size=VOCAB, max_seq=max_seq,
            seed=SEED,
        )
    )


def reference_ms() -> float:
    """Milliseconds taken by one fixed computation that does not touch zipvl.

    Array work and Python string work, like perfbench/worker.py's
    reference_s, so its time follows the machine's speed at that moment.
    """
    x = np.random.default_rng(0).random((384, 384))
    t0 = time.perf_counter()
    for _ in range(6):
        e = np.exp(np.where(x > 0.3, x, -np.inf) - 1.0)
        e /= e.sum(axis=1, keepdims=True)
        e @ x[:, :16]
        np.sort(x, axis=1)
    sum(float(v) for v in ",".join(repr(float(v)) for v in x[:48].ravel()).split(","))
    return 1e3 * (time.perf_counter() - t0)


def _timing(key: str, ms: np.ndarray, digits: int) -> dict:
    """The min, median and interquartile range of one row's per-round times, in ms."""
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    return {
        key: round(float(ms.min()), digits),
        f"{key}_median": round(float(median), digits),
        f"{key}_iqr": round(float(q3 - q1), digits),
    }


def _in_ref(key: str, ms: np.ndarray, ref: np.ndarray) -> dict:
    """The median of one row's per-round times over their rounds' reference times, and of ref."""
    return {
        key: round(float(np.median(ms / ref)), 4),
        "ref_ms_median": round(float(np.median(ref)), 3),
    }


def _add_speedups(rows: list[dict], ms: np.ndarray, time_key: str, flops_key: str) -> None:
    """Speedups over the first row, the dense one; ms holds one row of round times per row."""
    dense = rows[0]
    for r, row_ms in zip(rows, ms):
        r["speedup_measured"] = round(dense[time_key] / r[time_key], 3)
        r["speedup_median"] = round(float(np.median(ms[0] / row_ms)), 3)
        r["speedup_modeled"] = round(dense[flops_key] / r[flops_key], 3)


def _cache_bytes(cache: kvcache.KVCache, reports: list) -> dict:
    """A prefilled cache's modeled bytes and the bytes its K and V arrays hold."""
    return {
        "kv_bytes": sum(r.kv_bytes for r in reports),
        "resident_bytes": sum(k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values)),
    }


def measure_prefill(n: int) -> list[dict]:
    model = _model(n)
    prompt = np.random.default_rng(SEED + n).integers(0, VOCAB, size=n)
    policies = [engine.SparsityPolicy(mode=mode) for mode in engine.MODES]
    ms = np.empty((len(policies), REPEATS))
    ref = np.empty(REPEATS)
    reports = [None] * len(policies)
    for rnd in range(REPEATS):
        ref[rnd] = reference_ms()
        for i, policy in enumerate(policies):
            t0 = time.perf_counter()
            _, _, reports[i] = engine.prefill(model, prompt, policy)
            ms[i, rnd] = 1e3 * (time.perf_counter() - t0)
    rows = []
    for policy, row_ms, layer_reports in zip(policies, ms, reports):
        tracemalloc.start()
        try:
            _, cache, _ = engine.prefill(model, prompt, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append(
            {
                "n": n,
                "mode": policy.mode,
                **_timing("prefill_ms", row_ms, 1),
                **_in_ref("prefill_ref_median", row_ms, ref),
                "peak_mib": round(peak / 2**20, 3),
                "attn_flops": sum(r.attn_flops for r in layer_reports),
                "mean_ratio": float(np.mean([r.ratio for r in layer_reports])),
                **_cache_bytes(cache, layer_reports),
            }
        )
    _add_speedups(rows, ms, "prefill_ms", "attn_flops")
    return rows


def measure_decode() -> list[dict]:
    model = _model(PROMPT + STEPS)
    prompt = np.random.default_rng(SEED + PROMPT).integers(0, VOCAB, size=PROMPT)
    policies = [engine.SparsityPolicy(**knobs) for _, knobs in DECODE_POLICIES]
    ms = np.empty((len(policies), REPEATS))
    ref = np.empty(REPEATS)
    cache_rows = [0.0] * len(policies)
    cache_bytes = [{}] * len(policies)
    reports = [None] * len(policies)
    for rnd in range(REPEATS):
        ref[rnd] = reference_ms()
        for i, policy in enumerate(policies):
            prefilled = engine.prefill(model, prompt, policy)
            _, cache, layer_reports = prefilled
            cache_rows[i] = float(np.mean([cache.rows(layer) for layer in range(LAYERS)]))
            cache_bytes[i] = _cache_bytes(cache, layer_reports)
            t0 = time.perf_counter()
            _, reports[i] = engine.decode(model, prompt, prefilled, STEPS, policy)
            ms[i, rnd] = 1e3 * (time.perf_counter() - t0) / STEPS
    rows = []
    for (name, _), row_ms, rows_cached, held, report in zip(
        DECODE_POLICIES, ms, cache_rows, cache_bytes, reports
    ):
        rows.append(
            {
                "policy": name,
                "prompt": PROMPT,
                "steps": STEPS,
                "cache_rows": rows_cached,
                **held,
                **_timing("ms_per_step", row_ms, 4),
                **_in_ref("ms_per_step_ref_median", row_ms, ref),
                "tok_per_s": round(1e3 / float(row_ms.min()), 1),
                "decode_attn_flops": report.decode_attn_flops,
            }
        )
    _add_speedups(rows, ms, "ms_per_step", "decode_attn_flops")
    return rows


def _append_row_set(path: pathlib.Path, label: str, rows: list[dict]) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"row_sets": []}
    doc["row_sets"].append(
        {
            "label": label,
            "repeats": REPEATS,
            "blas_threads": 1,
            "model": {"layers": LAYERS, "heads": HEADS, "d_model": D_MODEL, "vocab_size": VOCAB},
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus, numpy {np.__version__}",
            "rows": rows,
        }
    )
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this row set, e.g. a commit")
    args = parser.parse_args(argv)

    prefill = [row for n in SIZES for row in measure_prefill(n)]
    _append_row_set(PREFILL_OUT, args.label, prefill)
    for r in prefill:
        print(
            f"prefill n={r['n']:<5} {r['mode']:<12} {r['prefill_ms']:>9.1f} ms "
            f"{r['prefill_ref_median']:>8.3f} ref {r['peak_mib']:>8.2f} MiB  "
            f"x{r['speedup_measured']:<6} measured  x{r['speedup_median']:<6} median  "
            f"x{r['speedup_modeled']:<6} modeled"
        )
    decode = measure_decode()
    _append_row_set(DECODE_OUT, args.label, decode)
    for r in decode:
        print(
            f"decode {r['policy']:<21} {r['cache_rows']:>7.1f} rows "
            f"{r['ms_per_step']:>8.4f} ms/step {r['ms_per_step_ref_median']:>7.4f} ref "
            f"{r['tok_per_s']:>7.1f} tok/s  "
            f"x{r['speedup_measured']:<6} measured  x{r['speedup_median']:<6} median  "
            f"x{r['speedup_modeled']:<6} modeled"
        )


if __name__ == "__main__":
    main()
