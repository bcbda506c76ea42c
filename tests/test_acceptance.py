"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test prints "ACCEPTANCE NN <name>: PASS|FAIL" on the real stdout so the
verdicts survive pytest's capture. The checks pin down: exact equivalence of
the sparse pipeline at full retention, oracle agreement of the budget rule,
probe exactness, quantization error bounds, exact accounting arithmetic,
the adaptivity behaviors, and CLI determinism.
"""

import contextlib
import json
import sys
import time

import numpy as np
import pytest

import oracles
from zipvl import attention, cli, engine, kvcache, metrics, numkit, workload
from zipvl.budget import adaptive_budget

_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    # pytest's default fd-level capture swallows even sys.__stdout__, so the
    # verdict printer needs the capture manager to punch through
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _announce(num: int, name: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__ or sys.stdout, flush=True)


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        _announce(num, name, False)
        raise
    _announce(num, name, True)


def test_01_full_retention_matches_dense():
    with criterion(1, "full-retention-matches-dense"):
        t0 = time.time()
        shapes = [(1, 1, 16), (2, 2, 32), (3, 4, 64), (4, 2, 32), (2, 4, 64)]
        lengths = [32, 128, 256]
        dense = engine.SparsityPolicy(mode="dense")
        full = engine.SparsityPolicy(mode="zipvl-exact", tau=1.0)
        for trial in range(20):
            layers, heads, d_model = shapes[trial % len(shapes)]
            n = lengths[trial % len(lengths)]
            config = engine.ModelConfig(
                layers=layers,
                heads=heads,
                d_model=d_model,
                vocab_size=96,
                max_seq=n + 32,
                seed=1000 + trial,
            )
            model = engine.init_model(config)
            prompt = numkit.make_rng(2000 + trial).integers(0, 96, size=n, dtype=np.int64)
            logits_d, _, reports_d = engine.prefill(model, prompt, dense)
            logits_f, _, reports_f = engine.prefill(model, prompt, full)
            assert np.max(np.abs(logits_d.astype(np.float64) - logits_f.astype(np.float64))) <= 1e-5
            tokens_d, _ = engine.generate(model, prompt, 32, dense)
            tokens_f, _ = engine.generate(model, prompt, 32, full)
            assert tokens_d == tokens_f
            # emitted per-layer costs must equal the accounting formulas
            for r in reports_d + reports_f:
                assert r.p == n and r.probe_rows == 0
                assert r.attn_flops == metrics.attn_flops_sparse(
                    r.p, n, config.d_head, heads, r.probe_rows
                )
                assert r.attn_flops == metrics.attn_flops_dense(n, config.d_head, heads)
        assert time.time() - t0 < 60.0


def test_02_adaptive_budget_minimality_oracle():
    with criterion(2, "adaptive-budget-minimality-oracle"):
        t0 = time.time()
        rng = numkit.make_rng(77)
        taus = (0.5, 0.9, 0.96, 0.975, 1.0)
        for trial in range(1000):
            n = int(rng.integers(1, 513))
            style = trial % 4
            if style == 0:
                vec = rng.gamma(0.3, 1.0, size=n)
            elif style == 1:
                vec = rng.uniform(0.0, 2.0, size=n)
            elif style == 2:
                vec = rng.integers(0, 6, size=n).astype(np.float64)  # heavy ties
            else:
                vec = rng.uniform(0.0, 1.0, size=n)
                vec[rng.uniform(size=n) < 0.3] = 0.0  # zero patches
            vec = vec.astype(np.float32)
            mass = float(np.sum(vec, dtype=np.float64))
            for tau in taus:
                got, _ = adaptive_budget(vec, tau, mass)
                want = oracles.budget_oracle(vec, tau, mass)
                assert got == want, f"n={n} tau={tau}: {got} != {want}"
        assert time.time() - t0 < 10.0


def test_03_attention_mass_identity():
    with criterion(3, "attention-mass-identity"):
        rng = numkit.make_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 129))
            d = int(rng.choice([4, 8, 16]))
            q = rng.normal(size=(n, d)).astype(np.float32)
            k = rng.normal(size=(n, d)).astype(np.float32)
            acc = attention.accumulated_scores(attention.causal_scores(q, k, 1.0 / np.sqrt(d)))
            weights = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(d))
            assert abs(float(np.sum(acc, dtype=np.float64)) - n) <= 1e-3 * n
            assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-6
            assert np.array_equal(acc, weights.sum(axis=0).astype(np.float32))


def test_04_probe_row_exactness():
    with criterion(4, "probe-row-exactness"):
        rng = numkit.make_rng(41)
        for trial in range(100):
            n = int(rng.integers(2, 129))
            d = int(rng.choice([4, 8]))
            q = rng.normal(size=(n, d)).astype(np.float32)
            k = rng.normal(size=(n, d)).astype(np.float32)
            recent = int(rng.integers(1, 9))
            probe, w = attention.select_probe_set(
                n, recent=recent, random=int(rng.integers(0, 9)), seed=trial
            )
            ps = attention.probe_attention(q, probe, k, 1.0 / np.sqrt(d), w)
            rows = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(d), probe)
            full = oracles.causal_score_matrix(q, k, 1.0 / np.sqrt(d))
            assert np.max(np.abs(rows - full[probe])) <= 1e-6
            want = (rows * w[:, None]).sum(axis=0)
            assert np.all(np.abs(ps.mass - want) <= oracles.summation_order_tol(want, probe.size))

        # a probe set covering every row reproduces the exact pipeline
        config = engine.ModelConfig(
            layers=3, heads=2, d_model=32, vocab_size=64, max_seq=64, seed=404
        )
        model = engine.init_model(config)
        prompt = numkit.make_rng(405).integers(0, 64, size=48, dtype=np.int64)
        exact = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9)
        probe_all = engine.SparsityPolicy(
            mode="zipvl-probe", tau=0.9, probe_recent=48, probe_random=0
        )
        tr_e: list = []
        tr_p: list = []
        logits_e, _, _ = engine.prefill(model, prompt, exact, trace=tr_e)
        logits_p, _, _ = engine.prefill(model, prompt, probe_all, trace=tr_p)
        for ee, pp in zip(tr_e, tr_p):
            assert np.array_equal(ee["important"], pp["important"])
        assert np.array_equal(logits_e, logits_p)


def test_04_random_rows_covering_the_pool_match_exact():
    # beside ACCEPTANCE 04: here the random draw, not the recent block, covers
    # the pool, so every row weighs pool / take = 1.0 and probe is exact
    config = engine.ModelConfig(layers=3, heads=2, d_model=32, vocab_size=64, max_seq=64, seed=404)
    model = engine.init_model(config)
    prompt = numkit.make_rng(405).integers(0, 64, size=48, dtype=np.int64)
    exact = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9)
    probe_pool = engine.SparsityPolicy(
        mode="zipvl-probe", tau=0.9, probe_recent=16, probe_random=32
    )
    tr_e: list = []
    tr_p: list = []
    logits_e, _, _ = engine.prefill(model, prompt, exact, trace=tr_e)
    logits_p, _, _ = engine.prefill(model, prompt, probe_pool, trace=tr_p)
    for ee, pp in zip(tr_e, tr_p):
        assert pp["probe_rows"] == 48
        assert np.array_equal(ee["accumulated"], pp["accumulated"])
        assert np.array_equal(ee["normalized"], pp["normalized"])
        assert np.array_equal(ee["important"], pp["important"])
    assert np.array_equal(logits_e, logits_p)


def test_05_quantization_half_step_bound():
    with criterion(5, "quantization-half-step-bound"):
        heads, t, d = 2, 625, 32
        rng = numkit.make_rng(51)
        cache = kvcache.KVCache(1, heads, d)
        cache.set_layer(
            0,
            (rng.normal(size=(heads, t, d)) * 4).astype(np.float32),
            (rng.normal(size=(heads, t, d)) * 4).astype(np.float32),
        )
        p = t // 2
        # quantize_mixed replaces the layer in place, so keep the originals first
        originals = {"keys": cache.keys[0].copy(), "values": cache.values[0].copy()}
        kvcache.quantize_mixed(cache, 0, np.arange(p, dtype=np.int64))
        rows_checked = 0
        for name in ("keys", "values"):
            orig = originals[name].astype(np.float64)
            back = getattr(cache, name)[0].astype(np.float64)
            for rows, bits in ((slice(0, p), 4), (slice(p, t), 2)):
                o, b = orig[:, rows], back[:, rows]
                half_step = (o.max(axis=-1) - o.min(axis=-1)) / (2 * (2**bits - 1))
                err = np.abs(o - b).max(axis=-1)
                assert np.all(err <= half_step + 1e-6)
                rows_checked += err.size
        assert rows_checked == 2_500

        # grid-aligned values (power-of-two scale, exact float32 points)
        # must reconstruct exactly, as must constant rows
        for bits, scale in ((4, 0.25), (2, 0.5)):
            levels = 2**bits - 1
            codes = numkit.make_rng(52).integers(0, levels + 1, size=(1, 40, 8))
            # pin both grid endpoints of each row so the quantizer
            # rederives exactly this grid from min/max
            codes[..., 0] = 0
            codes[..., 1] = levels
            exact_vals = (-2.0 + codes * scale).astype(np.float32)
            c2 = kvcache.KVCache(1, 1, 8)
            c2.set_layer(0, exact_vals, exact_vals.copy())
            important2 = np.arange(40 if bits == 4 else 0, dtype=np.int64)
            kvcache.quantize_mixed(c2, 0, important2)
            assert np.array_equal(c2.keys[0], exact_vals)
        const = np.full((1, 10, 8), -3.75, dtype=np.float32)
        c3 = kvcache.KVCache(1, 1, 8)
        c3.set_layer(0, const, const.copy())
        kvcache.quantize_mixed(c3, 0, np.arange(5, dtype=np.int64))
        assert np.array_equal(c3.values[0], const)


def test_06_flops_kv_accounting_exactness():
    with criterion(6, "flops-kv-accounting-exactness"):
        config = engine.ModelConfig(
            layers=4, heads=2, d_model=32, vocab_size=64, max_seq=160, seed=606
        )
        model = engine.init_model(config)
        prompt = numkit.make_rng(607).integers(0, 64, size=128, dtype=np.int64)
        fixed = engine.SparsityPolicy(mode="fixed", fixed_ratio=0.5)
        _, report = engine.generate(model, prompt, 0, fixed)
        assert all(r.p == 64 for r in report.layer_reports)
        assert report.flops_reduction == 0.75
        assert report.kv_reduction == 0.5
        assert report.mean_ratio == 0.5

        # probe-mode cost includes the score pass over all columns
        probe = engine.SparsityPolicy(
            mode="zipvl-probe", tau=0.9, probe_recent=8, probe_random=8
        )
        _, _, reports = engine.prefill(model, prompt, probe)
        for r in reports:
            assert r.attn_flops == metrics.attn_flops_sparse(
                r.p, 128, config.d_head, 2, probe_rows=16
            )


def test_07_peaked_vs_diffuse_adaptivity():
    with criterion(7, "peaked-vs-diffuse-adaptivity"):
        pol = engine.SparsityPolicy(mode="zipvl-exact", tau=0.975)
        for seed in range(10):
            peaked = workload.generate_workload("peaked", 1000, 32, 8.0, seed=seed)
            diffuse = workload.generate_workload("diffuse", 1000, 32, 8.0, seed=seed)
            mean_p_peaked = np.mean(
                [r.p for r in workload.evaluate_score_workload(peaked, pol)]
            )
            mean_p_diffuse = np.mean(
                [r.p for r in workload.evaluate_score_workload(diffuse, pol)]
            )
            assert mean_p_peaked < mean_p_diffuse
        uniform = workload.generate_workload("diffuse", 1000, 32, float("inf"), seed=0)
        want = int(np.ceil(0.975 * 1000))
        assert all(r.p == want for r in workload.evaluate_score_workload(uniform, pol))


def test_08_tau_sweep_monotonicity():
    with criterion(8, "tau-sweep-monotonicity"):
        cfg = cli.build_config(
            {
                "n": "64",
                "steps": "0",
                "layers": "4",
                "d_model": "32",
                "heads": "2",
                "vocab_size": "128",
                "taus": "0.5,0.8,0.9,0.96,0.975,1.0",
            }
        )
        rows = cli.cmd_sweep_tau(cfg)
        ratios = [r["mean_ratio"] for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] == 1.0


def test_09_adaptive_vs_fixed_mass_coverage(tmp_path):
    with criterion(9, "adaptive-vs-fixed-mass-coverage"):
        tau = 0.95
        peaked = workload.generate_workload("peaked", 256, 8, 16.0, seed=90)
        diffuse = workload.generate_workload("diffuse", 256, 8, 8.0, seed=91)
        hetero = np.empty((16, 256), dtype=np.float32)
        hetero[0::2] = peaked
        hetero[1::2] = diffuse
        w_path = tmp_path / "hetero.csv"
        with open(w_path, "w", newline="") as fh:
            workload.write_workload_csv(fh, hetero)
        out_path = tmp_path / "compare.json"
        rc = cli.main(
            [
                "--out",
                str(out_path),
                "compare",
                "--workload-file",
                str(w_path),
                "--tau",
                str(tau),
            ]
        )
        assert rc == 0
        res = json.loads(out_path.read_text())
        by_mode = {e["mode"]: e for e in res["modes"]}
        assert res["adaptive_layers_below_tau"] == 0
        assert all(m >= tau - 1e-12 for m in by_mode["zipvl-exact"]["retained_mass"])
        assert res["fixed_layers_below_tau"] >= 1
        assert abs(res["fixed_ratio_used"] - by_mode["zipvl-exact"]["mean_ratio"]) <= 1e-12


def test_10_cli_determinism(tmp_path):
    with criterion(10, "cli-determinism"):
        cfg_path = tmp_path / "model.cfg"
        cfg_path.write_text(
            "n=48\nsteps=8\nlayers=3\nd_model=32\nheads=2\nvocab_size=64\nmode=zipvl-probe\n"
            "probe_recent=8\nprobe_random=8\n"
        )
        w_path = tmp_path / "w.csv"
        assert (
            cli.main(
                ["--out", str(w_path), "gen-workload", "--kind", "peaked", "--n", "64", "--layers", "4"]
            )
            == 0
        )
        commands = [
            ["--config", str(cfg_path), "run"],
            ["--config", str(cfg_path), "--format", "csv", "run"],
            ["run", "--workload-file", str(w_path), "--tau", "0.9"],
            ["sweep-tau", "--workload-file", str(w_path), "--taus", "0.5,0.9,1.0"],
            ["compare", "--workload-file", str(w_path), "--tau", "0.9"],
            ["gen-workload", "--kind", "diffuse", "--n", "32", "--layers", "2"],
        ]
        for i, argv in enumerate(commands):
            a = tmp_path / f"out_{i}_a"
            b = tmp_path / f"out_{i}_b"
            assert cli.main(["--out", str(a)] + argv) == 0
            assert cli.main(["--out", str(b)] + argv) == 0
            assert a.read_bytes() == b.read_bytes()
