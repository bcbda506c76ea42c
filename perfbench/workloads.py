"""The three benchmark workloads: inputs from the seed, one request, checks.

Each workload runs closed-loop from one process with one client. A request
is split into ``run`` (timed: the calls a user would make) and ``check``
(untimed: parse the outputs, compare them with closed forms, digest them).
Inputs derive from (benchmark seed, worker, request index) only, so a seed
reproduces every request; the program sees only the generated configs,
prompts and files.

Why each workload exists, what it stresses and where it predicts no change
is recorded in BENCHMARK.json and README.md next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from zipvl import cli, engine


def derive(*parts) -> int:
    """A 31-bit seed that depends only on the parts, for CLI --seed and prompts."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFF_FFFF


def sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


@dataclass
class Outcome:
    """What the untimed check learned about one request."""

    digest: str
    problems: list = field(default_factory=list)
    # modeled accuracy/cost figures of the request, by end-to-end metric name
    modeled: dict = field(default_factory=dict)


def flops_closed_form(ps, n: int, d_head: int, heads: int, probe_rows: int) -> tuple[int, int]:
    """(actual, dense) prefill attention flops, per ACCEPTANCE 06."""
    actual = sum(4 * p * p * d_head * heads + 2 * probe_rows * n * d_head * heads for p in ps)
    return actual, len(ps) * 4 * n * n * d_head * heads


def probe_rows(n: int, recent: int = 64, random: int = 64) -> int:
    n_recent = min(recent, n)
    return n_recent + min(random, n - n_recent)


def retains_tau(retained: float, tau: float, ratio: float) -> bool:
    # tau=1 is defined as keeping every token; its mass sum may round a hair low
    return retained >= tau or (tau == 1.0 and ratio == 1.0)


def _cli(argv: list[str], problems: list) -> None:
    rc = cli.main(argv)
    if rc != 0:
        problems.append(f"zipvl {' '.join(argv)} exited {rc}")


class CompareWorkload:
    """`zipvl compare` over all four prefill modes at n=1024."""

    name = "compare-1k"
    N, STEPS, TAU, LAYERS, HEADS, D_HEAD = 1024, 16, 0.975, 4, 4, 16
    MODES = "zipvl-probe,zipvl-exact,fixed,dense"

    def __init__(self, tmp: Path, seed: int, worker: int):
        self.tmp, self.seed, self.worker = tmp, seed, worker
        self.config = tmp / "compare.cfg"
        self.config.write_text(f"n={self.N}\nmax_seq={self.N + self.STEPS}\nsteps={self.STEPS}\n")

    def run(self, i: int) -> dict:
        out = self.tmp / "compare.json"
        problems: list = []
        _cli(
            [
                "--config", str(self.config), "--seed", str(derive(self.seed, self.worker, i)),
                "--out", str(out), "compare", "--modes", self.MODES, "--tau", str(self.TAU),
            ],
            problems,
        )
        return {"out": out, "problems": problems}

    def check(self, raw: dict) -> Outcome:
        problems = raw["problems"]
        text = raw["out"].read_bytes()
        result = Outcome(sha256(text), problems)
        doc = json.loads(text)
        entries = {e["mode"]: e for e in doc["modes"]}
        if list(entries) != self.MODES.split(","):
            problems.append(f"compare modes {list(entries)}")
        for mode, e in entries.items():
            ps = [round(r * self.N) for r in e["ratio_profile"]]
            if any(p / self.N != r for p, r in zip(ps, e["ratio_profile"])):
                problems.append(f"{mode}: ratio_profile is not p/n")
            probe = probe_rows(self.N) if mode == "zipvl-probe" else 0
            actual, dense = flops_closed_form(ps, self.N, self.D_HEAD, self.HEADS, probe)
            if e["flops_reduction"] != 1.0 - actual / dense:
                problems.append(f"{mode}: flops_reduction differs from closed form")
            kv_actual = sum(2 * self.HEADS * p * self.D_HEAD * 4 for p in ps)
            kv_dense = len(ps) * 2 * self.HEADS * self.N * self.D_HEAD * 4
            if e["kv_reduction"] != 1.0 - kv_actual / kv_dense:
                problems.append(f"{mode}: kv_reduction differs from closed form")
            if mode.startswith("zipvl") and not all(
                retains_tau(m, self.TAU, r) for m, r in zip(e["retained_mass"], e["ratio_profile"])
            ):
                problems.append(f"{mode}: a layer retains less than tau")
        first = entries["zipvl-probe"]
        result.modeled = {
            "kv_reduction": first["kv_reduction"],
            "flops_reduction": first["flops_reduction"],
            "retained_mass.min": min(
                min(entries[m]["retained_mass"]) for m in ("zipvl-probe", "zipvl-exact")
            ),
            "logit_delta_vs_dense.max": first["logit_delta_vs_dense"],
        }
        return result

    def warm_up(self) -> Outcome:
        return self.check(self.run(0))


class DecodeWorkload:
    """Probe prefill with a quantized cache, then 2048 greedy decode steps."""

    name = "decode-2k"
    PROMPT, STEPS, TAU = 512, 2048, 0.975
    LAYERS, HEADS, D_MODEL, VOCAB = 4, 4, 64, 256

    def __init__(self, tmp: Path, seed: int, worker: int):
        self.seed, self.worker = seed, worker
        self.model = engine.init_model(
            engine.ModelConfig(
                layers=self.LAYERS, heads=self.HEADS, d_model=self.D_MODEL,
                vocab_size=self.VOCAB, max_seq=self.PROMPT + self.STEPS,
                seed=derive(seed, worker, "model"),
            )
        )
        self.policy = engine.SparsityPolicy(mode="zipvl-probe", tau=self.TAU, quantize=True)

    def prompt(self, i: int) -> np.ndarray:
        rng = np.random.default_rng(derive(self.seed, self.worker, i))
        return rng.integers(0, self.VOCAB, size=self.PROMPT, dtype=np.int64)

    def run(self, i: int) -> dict:
        """Drive prefill and decode_step by hand, the way generate does, timing each."""
        prompt = self.prompt(i)
        t0 = time.perf_counter()
        logits, cache, reports = engine.prefill(self.model, prompt, self.policy)
        t1 = time.perf_counter()
        resident = sum(k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values))
        tokens = [int(t) for t in prompt]
        itl = []
        cur = logits[-1]
        t2 = time.perf_counter()
        for step in range(self.STEPS):
            nxt = int(np.argmax(cur))
            tokens.append(nxt)
            ts = time.perf_counter()
            cur, cache = engine.decode_step(self.model, nxt, cache, position=prompt.size + step)
            itl.append(time.perf_counter() - ts)
        t3 = time.perf_counter()
        return {
            "tokens": tokens, "reports": reports, "problems": [],
            "ttft_s": t1 - t0, "itl_s": itl, "decode_s": t3 - t2, "kv_resident_bytes": resident,
        }

    def check(self, raw: dict) -> Outcome:
        reports = raw["reports"]
        blob = json.dumps(
            {"tokens": raw["tokens"], "layer_reports": [dataclasses.asdict(r) for r in reports]},
            sort_keys=True,
        ).encode()
        problems = raw["problems"]
        d_head = self.D_MODEL // self.HEADS
        n, probe = self.PROMPT, probe_rows(self.PROMPT)
        # one quantization group per row: ceil(d*bits/8) code bytes + float32 scale and zero
        b4, b2, meta = math.ceil(d_head * 4 / 8), math.ceil(d_head * 2 / 8), 8
        for r in reports:
            if r.attn_flops != flops_closed_form([r.p], n, d_head, self.HEADS, probe)[0]:
                problems.append(f"layer {r.layer}: attn_flops differs from closed form")
            packed = 2 * self.HEADS * (r.p * b4 + (n - r.p) * b2 + n * meta)
            if r.kv_rows != n or r.kv_bytes != packed:
                problems.append(f"layer {r.layer}: kv_bytes differs from packed closed form")
            if not retains_tau(r.retained_mass, self.TAU, r.ratio):
                problems.append(f"layer {r.layer}: retains less than tau")
        if len(raw["tokens"]) != n + self.STEPS:
            problems.append("wrong number of generated tokens")
        return Outcome(sha256(blob), problems)

    def warm_up(self) -> Outcome:
        """Request 0 through engine.generate; timed request 0 must reproduce it."""
        tokens, report = engine.generate(self.model, self.prompt(0), self.STEPS, self.policy)
        result = self.check({"tokens": tokens, "reports": report.layer_reports, "problems": []})
        result.modeled = {
            "kv_reduction": report.kv_reduction,
            "flops_reduction": report.flops_reduction,
            "retained_mass.min": min(r.retained_mass for r in report.layer_reports),
        }
        return result


class ScoreSweepWorkload:
    """gen-workload, run on the CSV, and sweep-tau: budgeting without a model."""

    name = "score-sweep"
    N, LAYERS, TAU = 16384, 32, 0.95
    TAUS = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 1.0)  # the CLI's default sweep

    def __init__(self, tmp: Path, seed: int, worker: int):
        self.tmp, self.seed, self.worker = tmp, seed, worker
        self.config = tmp / "diffuse.cfg"
        self.config.write_text(f"workload=diffuse\nn={self.N}\nlayers={self.LAYERS}\n")

    def run(self, i: int) -> dict:
        seed = str(derive(self.seed, self.worker, i))
        csv_path, run_path, sweep_path = (
            self.tmp / name for name in ("peaked.csv", "run.json", "sweep.json")
        )
        problems: list = []
        _cli(["--seed", seed, "--out", str(csv_path), "gen-workload", "--kind", "peaked",
              "--n", str(self.N), "--layers", str(self.LAYERS)], problems)
        _cli(["--seed", seed, "--out", str(run_path), "run",
              "--workload-file", str(csv_path), "--tau", str(self.TAU)], problems)
        _cli(["--config", str(self.config), "--seed", seed, "--out", str(sweep_path),
              "sweep-tau"], problems)
        return {"paths": (csv_path, run_path, sweep_path), "problems": problems}

    def check(self, raw: dict) -> Outcome:
        problems = raw["problems"]
        csv_text, run_text, sweep_text = (p.read_bytes() for p in raw["paths"])
        result = Outcome(sha256(csv_text, run_text, sweep_text), problems)
        lines = csv_text.split(b"\n")
        if lines[0] != b"layer,token,score" or len(lines) != self.N * self.LAYERS + 2:
            problems.append("gen-workload CSV has the wrong header or row count")
        run = json.loads(run_text)
        layers = run["layer_reports"]
        n = self.N
        for r in layers:
            p = r["p"]
            if (r["n"], r["kv_rows"], r["probe_rows"], r["ratio"]) != (n, p, 0, p / n):
                problems.append(f"run layer {r['layer']}: inconsistent n/p/kv_rows/ratio")
            if r["attn_flops"] != 4 * p * p or r["kv_bytes"] != 2 * p * 4:
                problems.append(f"run layer {r['layer']}: accounting differs from closed form")
            if not retains_tau(r["retained_mass"], self.TAU, r["ratio"]):
                problems.append(f"run layer {r['layer']}: retains less than tau")
        actual, dense = flops_closed_form([r["p"] for r in layers], n, 1, 1, 0)
        kv_actual, kv_dense = sum(8 * r["p"] for r in layers), len(layers) * 8 * n
        if (
            len(layers) != self.LAYERS
            or (run["total_attn_flops_actual"], run["total_attn_flops_dense"]) != (actual, dense)
            or run["flops_reduction"] != 1.0 - actual / dense
            or (run["kv_bytes_actual"], run["kv_bytes_dense"]) != (kv_actual, kv_dense)
            or run["kv_reduction"] != 1.0 - kv_actual / kv_dense
        ):
            problems.append("run totals differ from closed form")
        rows = json.loads(sweep_text)
        if tuple(r["tau"] for r in rows) != self.TAUS:
            problems.append("sweep-tau rows do not follow the default taus")
        for r in rows:
            if not retains_tau(r["min_retained_mass"], r["tau"], r["mean_ratio"]):
                problems.append(f"sweep tau={r['tau']}: a layer retains less than tau")
        result.modeled = {
            "kv_reduction": run["kv_reduction"],
            "flops_reduction": run["flops_reduction"],
            "retained_mass.min": min(
                [r["retained_mass"] for r in layers] + [r["min_retained_mass"] for r in rows]
            ),
        }
        return result

    def warm_up(self) -> Outcome:
        return self.check(self.run(0))


WORKLOADS = {w.name: w for w in (CompareWorkload, DecodeWorkload, ScoreSweepWorkload)}
