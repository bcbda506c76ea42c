"""zipvl benchmark: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload compare-1k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from any directory of a checkout; the library is imported from the
checkout's src/. Each workload runs in WORKERS fresh worker processes one
after another, each with OpenBLAS pinned to THREADS thread(s). Each worker
sets up (imports, model, temp files, one untimed warm-up request), then
serves timed requests closed-loop with one client until its share of
--seconds is spent. Between requests a worker times a fixed reference
computation (worker.reference_s), which follows the shared machine's swings
in speed. request_ref.p50 is request_s.p50 in units of the run's median
reference time. setup_s is the median over the workers of each one's set-up
time scaled to a reference time of REF_NOMINAL_S; setup_wall_s is unscaled.

With --trace 0 the run reports every end-to-end metric. With --trace 1 every
request index runs once traced and once untraced, and the run reports the
per-layer metrics of the traced ones plus the tracing overhead. Either way
the last stdout line is one JSON object {correct, attempted, failed,
metrics}, holding the metrics BENCHMARK.json lists for that mode; a table of
all metrics, labelled measured, computed or modeled, comes before it. A
record of the run, with per-request output digests, goes to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("compare-1k", "decode-2k", "score-sweep")
WORKERS = 3
THREADS = "1"  # one client, small matrices: a second BLAS thread only adds noise
RUN_LIMIT_S = 170  # the whole run of one workload, workers included
REF_NOMINAL_S = 0.05  # reference time that setup_s is scaled to

# Every end-to-end metric: name, unit, kind. A workload that does not
# produce one reports it absent, with the reason.
END_TO_END = (
    ("setup_s", "s", "computed"),
    ("setup_wall_s", "s", "measured"),
    ("request_s.p50", "s", "measured"),
    ("request_ref.p50", "ref", "computed"),
    ("reference_ms.p50", "ms", "measured"),
    ("request_s.tail", "s", "measured"),
    ("req_per_s", "1/s", "measured"),
    ("ttft_ms.p50", "ms", "measured"),
    ("itl_ms.p50", "ms", "measured"),
    ("itl_ms.p90", "ms", "measured"),
    ("gen_tok_per_s", "tok/s", "measured"),
    ("failed_ratio", "1", "measured"),
    ("kv_resident_bytes", "B", "measured"),
    ("peak_rss_mb", "MB", "measured"),
    ("kv_reduction", "1", "modeled"),
    ("flops_reduction", "1", "modeled"),
    ("retained_mass.min", "1", "computed"),
    ("logit_delta_vs_dense.max", "1", "computed"),
)
NOT_MEASURED = {
    "kvcache.KVCache.append.bytes_copied": "computed",
    "kvcache.modeled_bytes": "modeled",
    **{f"metrics.attn_flops.{m}": "modeled"
       for m in ("dense", "zipvl-exact", "zipvl-probe", "fixed")},
}
TAIL_BEYOND = 10


def tail(values: list, beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with `beyond` samples above it.

    That is the sample with exactly `beyond` samples ranked after it; with
    `beyond` or fewer samples no percentile qualifies and the result is None.
    """
    n = len(values)
    if n <= beyond:
        return None
    return sorted(values)[n - 1 - beyond], 100.0 * (n - beyond) / n


def spawn_workers(name: str, seed: int, seconds: int, trace: int) -> tuple[list, int]:
    """Run the workers one after another; returns (their records, crashed count)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS)
    deadline = time.monotonic() + RUN_LIMIT_S
    records, crashed, used = [], 0, 0.0
    for w in range(WORKERS):
        budget = max(0.0, (seconds - used) / (WORKERS - w))
        argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(w),
                repr(budget), str(trace), str(OUT / "tmp")]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            print(f"worker {w} of {name} ran past the {RUN_LIMIT_S} s limit", file=sys.stderr)
            crashed += 1
            break
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            print(f"worker {w} of {name} exited {proc.returncode}", file=sys.stderr)
            crashed += 1
            continue
        rec = json.loads(lines[-1])
        if rec["warm_up"]["problems"] or any(r["problems"] for r in rec["requests"]):
            sys.stderr.write(proc.stderr[-4000:])
        rec["setup_s"] = rec["t_ready"] - t_spawn
        used += rec["timed_phase_s"]
        records.append(rec)
    return records, crashed


def end_to_end(workers: list, failed: int, attempted: int) -> tuple[dict, dict]:
    """Every end-to-end metric of an untraced run, None where the workload has
    none, plus a note per metric for the table."""
    ok = [r for w in workers for r in w["requests"] if not r["problems"]]
    walls = [r["wall_s"] for r in ok]
    warm = [w["warm_up"]["modeled"] for w in workers]
    ref = statistics.median(x for w in workers for x in w["reference_s"])
    t = tail(walls)
    m = dict.fromkeys(metric for metric, _, _ in END_TO_END)
    m.update({
        "setup_s": statistics.median(
            w["setup_s"] * REF_NOMINAL_S / statistics.median(w["reference_s"]) for w in workers
        ),
        "setup_wall_s": statistics.median(w["setup_s"] for w in workers),
        "request_s.p50": statistics.median(walls) if walls else None,
        "request_ref.p50": statistics.median(walls) / ref if walls else None,
        "reference_ms.p50": 1e3 * ref,
        "request_s.tail": t[0] if t else None,
        "req_per_s": len(ok) / sum(w["timed_phase_s"] for w in workers),
        "failed_ratio": failed / attempted,
        "peak_rss_mb": max(w["peak_rss_kb"] for w in workers) * 1024 / 1e6,
        "kv_reduction": statistics.fmean(x["kv_reduction"] for x in warm),
        "flops_reduction": statistics.fmean(x["flops_reduction"] for x in warm),
        "retained_mass.min": min(x["retained_mass.min"] for x in warm),
    })
    if "logit_delta_vs_dense.max" in warm[0]:
        m["logit_delta_vs_dense.max"] = max(x["logit_delta_vs_dense.max"] for x in warm)
    if ok and "itl_s" in ok[0]:
        itl = [s for r in ok for s in r["itl_s"]]
        m.update({
            "ttft_ms.p50": 1e3 * statistics.median(r["ttft_s"] for r in ok),
            "itl_ms.p50": 1e3 * statistics.median(itl),
            "itl_ms.p90": 1e3 * statistics.quantiles(itl, n=10, method="inclusive")[8],
            "gen_tok_per_s": len(itl) / sum(r["decode_s"] for r in ok),
            "kv_resident_bytes": statistics.fmean(r["kv_resident_bytes"] for r in ok),
        })
    notes = {n: "not produced by this workload" for n, v in m.items() if v is None}
    notes["request_s.tail"] = (
        f"p{t[1]:.4g} of {len(walls)} requests" if t else
        f"needs more than {TAIL_BEYOND} requests, the run made {len(walls)}"
    )
    return m, notes


def per_layer(workers: list, names: list) -> dict:
    """Per-request means of the traced requests, plus the tracing overhead."""
    reqs = [r for w in workers for r in w["requests"] if not r["problems"]]
    traced = [r for r in reqs if r["traced"]]
    untraced = [r for r in reqs if not r["traced"]]
    m = {n: statistics.fmean(r["trace"].get(n, 0.0) for r in traced) for n in names}
    m["trace.request_s.p50"] = statistics.median(r["wall_s"] for r in traced)
    m["trace.untraced_request_s.p50"] = statistics.median(r["wall_s"] for r in untraced)
    m["trace.overhead_s"] = m["trace.request_s.p50"] - m["trace.untraced_request_s.p50"]
    return m


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: int, trace: int, bench: dict) -> dict:
    workers, crashed = spawn_workers(name, seed, seconds, trace)
    if not workers:
        raise SystemExit(f"no worker of {name} finished; no result")
    attempted = crashed + sum(1 + len(w["requests"]) for w in workers)
    failed = crashed + sum(
        bool(w["warm_up"]["problems"]) + sum(bool(r["problems"]) for r in w["requests"])
        for w in workers
    )
    digest = hashlib.sha256("".join(w["warm_up"]["digest"] for w in workers).encode()).hexdigest()
    env = workers[0]["env"]

    print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"requests: attempted={attempted} failed={failed} "
          f"(workers={len(workers)}/{WORKERS}, one warm-up each)")
    print(f"output_digest: sha256:{digest}  (over the warm-up requests, fixed by the seed)")
    for w in workers:
        for p in w["warm_up"]["problems"] + [p for r in w["requests"] for p in r["problems"]]:
            print(f"problem: {p}")

    if trace:
        layer_names = [d["name"] for d in bench["per_layer"]]
        metrics = per_layer(workers, layer_names)
        units = {d["name"]: d["unit"] for d in bench["per_layer"]}
        print(f"{'per-layer metric':44} {'value':>14}  {'unit':10} kind")
        for n in layer_names:
            note = "" if metrics[n] or n.startswith("trace.") else "  (not called here)"
            kind = NOT_MEASURED.get(n, "measured")
            print(f"{n:44} {fmt(metrics[n]):>14}  {units[n]:10} {kind}{note}")
        listed = bench["per_layer"]
    else:
        metrics, notes = end_to_end(workers, failed, attempted)
        print(f"{'end-to-end metric':28} {'value':>14}  {'unit':6} kind")
        for n, unit, kind in END_TO_END:
            value = "absent" if metrics[n] is None else fmt(metrics[n])
            note = f"  ({notes[n]})" if n in notes else ""
            print(f"{n:28} {value:>14}  {unit:6} {kind}{note}")
        listed = bench["end_to_end"]

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in listed},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "output_digest": digest, "line": line, "all_metrics": metrics,
        "workers": [
            {"setup_s": w["setup_s"], "timed_phase_s": w["timed_phase_s"],
             "warm_up_digest": w["warm_up"]["digest"],
             "requests": [{k: r.get(k) for k in ("index", "traced", "wall_s", "digest", "problems")}
                          for r in w["requests"]]}
            for w in workers
        ],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "zipvl" / "__init__.py").is_file():
        print(f"no zipvl sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {n: run_workload(n, args.seed, args.seconds, args.trace, bench) for n in names}
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "workloads": {n: x["metrics"] for n, x in lines.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
