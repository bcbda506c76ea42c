"""Time prefill per mode on the default model and append the rows to BENCH_prefill.json.

Each row holds one (n, mode) pair: the measured prefill time (min over
REPEATS runs), the modeled prefill attention flops (the sum of the layer
reports' attn_flops), and the measured and modeled speedup over dense at
the same n. Rows of one invocation form a row set under --label; the file
keeps every row set, so the trajectory across changes can be read. The
model is the CLI default, 4 layers x 4 heads x d_model 64, with the default
policy knobs (tau 0.975, fixed_ratio 0.5, probes 64 + 64); numpy runs on
one BLAS thread.

Usage:
    PYTHONPATH=src python3 scripts/bench_prefill.py --label NAME
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from zipvl import engine

SIZES = (128, 512, 2048)
REPEATS = 3
LAYERS, HEADS, D_MODEL, VOCAB, SEED = 4, 4, 64, 256, 1234
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_prefill.json"


def measure(n: int) -> list[dict]:
    model = engine.init_model(
        engine.ModelConfig(
            layers=LAYERS, heads=HEADS, d_model=D_MODEL, vocab_size=VOCAB, max_seq=n, seed=SEED
        )
    )
    prompt = np.random.default_rng(SEED + n).integers(0, VOCAB, size=n)
    rows = []
    for mode in engine.MODES:
        policy = engine.SparsityPolicy(mode=mode)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _, _, reports = engine.prefill(model, prompt, policy)
            times.append(time.perf_counter() - t0)
        rows.append(
            {
                "n": n,
                "mode": mode,
                "prefill_ms": round(1e3 * min(times), 1),
                "attn_flops": sum(r.attn_flops for r in reports),
                "mean_ratio": float(np.mean([r.ratio for r in reports])),
            }
        )
    dense = next(r for r in rows if r["mode"] == "dense")
    for r in rows:
        r["speedup_measured"] = round(dense["prefill_ms"] / r["prefill_ms"], 3)
        r["speedup_modeled"] = round(dense["attn_flops"] / r["attn_flops"], 3)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this row set, e.g. a commit")
    args = parser.parse_args()
    doc = json.loads(OUT.read_text()) if OUT.exists() else {"row_sets": []}
    rows = [row for n in SIZES for row in measure(n)]
    doc["row_sets"].append(
        {
            "label": args.label,
            "repeats": REPEATS,
            "blas_threads": 1,
            "model": {"layers": LAYERS, "heads": HEADS, "d_model": D_MODEL, "vocab_size": VOCAB},
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus, numpy {np.__version__}",
            "rows": rows,
        }
    )
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for r in rows:
        print(
            f"n={r['n']:<5} {r['mode']:<12} {r['prefill_ms']:>9.1f} ms  "
            f"x{r['speedup_measured']:<6} measured  x{r['speedup_modeled']:<6} modeled"
        )


if __name__ == "__main__":
    main()
