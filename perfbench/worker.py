"""One benchmark worker: a fresh process that sets up, warms up and serves.

run.py starts it with the OpenBLAS thread count already fixed in the
environment; it is not meant to be run by hand. Arguments:

    worker.py WORKLOAD SEED WORKER BUDGET_S TRACE TMP_DIR

It builds the workload, runs one untimed warm-up request, then runs timed
requests closed-loop until BUDGET_S is spent (at least one). With TRACE=1
every request index runs twice, once traced and once untraced, in
alternating order. The last line of stdout is a JSON record of all of it.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path and thread settings)
import zipvl  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DECODE_FIELDS = ("ttft_s", "itl_s", "decode_s", "kv_resident_bytes")
REF_REPEATS = 5


def reference_s() -> float:
    """Seconds taken by one fixed computation that does not touch zipvl.

    It mixes numpy array work with Python string work, as the workloads do,
    so its duration follows the speed the shared machine gives this process
    at that moment. Requests are also reported in units of it.
    """
    x = np.random.default_rng(0).random((384, 384))
    t0 = time.perf_counter()
    for _ in range(6):
        e = np.exp(np.where(x > 0.3, x, -np.inf) - 1.0)
        e /= e.sum(axis=1, keepdims=True)
        e @ x[:, :16]
        np.sort(x, axis=1)
    sum(float(v) for v in ",".join(repr(float(v)) for v in x[:48].ravel()).split(","))
    return time.perf_counter() - t0


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded, if it says."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Worker:
    def __init__(self, workload, tracer: tracing.Tracer | None):
        self.workload = workload
        self.tracer = tracer
        self.targets = tracing.zipvl_targets() if tracer else []
        self.originals = tracing.snapshot(self.targets)

    def attempt(self, i: int, traced: bool) -> dict:
        """Run and check request i; failures are recorded, never raised."""
        rec = {"index": i, "traced": traced, "problems": []}
        try:
            if traced:
                tracer = self.tracer
                tracer.reset()
                with tracer.installed(self.targets), tracer.span(tracing.ROOT):
                    t0 = time.perf_counter()
                    raw = self.workload.run(i)
                    rec["wall_s"] = time.perf_counter() - t0
                leaked = tracing.leaked(self.targets, self.originals)
                if leaked:
                    rec["problems"].append(f"tracing left wrappers installed: {leaked}")
                rec["trace"] = tracing.summarize(tracer)
            else:
                t0 = time.perf_counter()
                raw = self.workload.run(i)
                rec["wall_s"] = time.perf_counter() - t0
            outcome = self.workload.check(raw)
            rec["digest"] = outcome.digest
            rec["problems"] += outcome.problems
            rec.update({k: raw[k] for k in DECODE_FIELDS if k in raw})
        except Exception as exc:  # one failed request must not end the run
            traceback.print_exc()
            rec["problems"].append(f"{type(exc).__name__}: {exc}")
        return rec

    def serve(self, budget_s: float, warm_digest: str) -> tuple[list, list, float]:
        """Closed loop: next request only after the last; stop when the budget is spent.

        Before the first request and after each one the reference computation
        runs REF_REPEATS times. Returns the request records, the reference
        times, and the timed-phase length without the reference time.
        """
        records: list = []
        refs = [reference_s() for _ in range(REF_REPEATS)]
        start = time.monotonic()
        i = 0
        while True:
            if self.tracer is None:
                records.append(self.attempt(i, traced=False))
            else:
                order = (False, True) if i % 2 == 0 else (True, False)
                pair = [self.attempt(i, traced) for traced in order]
                if len({r.get("digest") for r in pair}) != 1:
                    pair[1]["problems"].append("traced and untraced outputs differ")
                records += pair
            t_ref = time.monotonic()
            refs += [reference_s() for _ in range(REF_REPEATS)]
            start += time.monotonic() - t_ref
            i += 1
            elapsed = time.monotonic() - start
            if elapsed + elapsed / i > budget_s:
                break
        for rec in records:
            if rec["index"] == 0 and rec.get("digest") != warm_digest:
                rec["problems"].append("request 0 differs from the warm-up's output")
        return records, refs, time.monotonic() - start


def main(argv: list[str]) -> int:
    name, seed, worker, budget_s, trace, tmp = argv
    if Path(zipvl.__file__).resolve().parent != ROOT / "src" / "zipvl":
        print(f"zipvl imported from {zipvl.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tmp = Path(tmp) / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](tmp, int(seed), int(worker))
        warm = workload.warm_up()
        runner = Worker(workload, tracing.Tracer() if trace == "1" else None)
        t_ready = time.monotonic()
        records, refs, timed_phase_s = runner.serve(float(budget_s), warm.digest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "env": environment(),
        "t_ready": t_ready,
        "warm_up": {"digest": warm.digest, "problems": warm.problems, "modeled": warm.modeled},
        "requests": records,
        "timed_phase_s": timed_phase_s,
        "reference_s": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
