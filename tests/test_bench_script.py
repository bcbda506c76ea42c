"""scripts/bench.py at a tiny size: one row set per invocation in each file, modes alternated."""

import importlib.util
import json
import pathlib

from zipvl import engine

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_each_run_appends_a_prefill_and_a_decode_row_set(monkeypatch, tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these on import; undone after the test
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, value in [("SIZES", (8,)), ("PROMPT", 8), ("STEPS", 3), ("REPEATS", 3)]:
        monkeypatch.setattr(bench, name, value)
    monkeypatch.setattr(bench, "PREFILL_OUT", tmp_path / "prefill.json")
    monkeypatch.setattr(bench, "DECODE_OUT", tmp_path / "decode.json")
    bench.main(["--label", "a"])
    modes: list = []
    original = engine.prefill

    def recorded(model, prompt, policy, *args, **kwargs):
        modes.append(policy.mode)
        return original(model, prompt, policy, *args, **kwargs)

    monkeypatch.setattr(engine, "prefill", recorded)
    references: list = []

    def reference():  # one per round, before its modes; a constant 0.5 ms in this run
        references.append(len(modes))
        return 0.5

    monkeypatch.setattr(bench, "reference_ms", reference)
    bench.main(["--label", "b"])
    # each round runs every mode in turn, then one untimed pass per mode measures
    # memory; the decode rounds take their policies in turn too
    decode_modes = [knobs["mode"] for _, knobs in bench.DECODE_POLICIES]
    assert modes == list(engine.MODES) * 4 + decode_modes * 3
    prefill_rounds = [i * len(engine.MODES) for i in range(3)]
    decode_rounds = [4 * len(engine.MODES) + i * len(decode_modes) for i in range(3)]
    assert references == prefill_rounds + decode_rounds

    prefill = json.loads((tmp_path / "prefill.json").read_text())["row_sets"]
    assert [s["label"] for s in prefill] == ["a", "b"]
    assert [(r["n"], r["mode"]) for r in prefill[1]["rows"]] == [(8, m) for m in engine.MODES]
    assert all(r["prefill_ms"] >= 0 and r["attn_flops"] > 0 for r in prefill[1]["rows"])
    assert prefill[1]["rows"][0]["speedup_median"] == 1.0
    # the traced prefill holds at least its logits, 8 x VOCAB float32
    assert all(r["peak_mib"] >= 8 * bench.VOCAB * 4 / 2**20 for r in prefill[1]["rows"])

    decode = json.loads((tmp_path / "decode.json").read_text())["row_sets"]
    assert [s["label"] for s in decode] == ["a", "b"]
    rows = decode[1]["rows"]
    assert [r["policy"] for r in rows] == [name for name, _ in bench.DECODE_POLICIES]
    assert all(r["prompt"] == 8 and r["steps"] == 3 and r["tok_per_s"] > 0 for r in rows)
    dense, fixed_quarter, fixed_twentieth, probe = (r["cache_rows"] for r in rows)
    assert dense == probe == 8.0 and dense > fixed_quarter >= fixed_twentieth >= 1
    assert rows[0]["speedup_measured"] == rows[0]["speedup_median"] == 1.0
    assert rows[0]["speedup_modeled"] == 1.0
    assert rows[2]["speedup_modeled"] > 1.0

    # modeled and resident cache bytes agree without quantize; the quantized cache
    # holds float32 values for the packed bytes it models
    for r in prefill[1]["rows"] + rows[:3]:
        assert r["resident_bytes"] == r["kv_bytes"] > 0
    assert rows[3]["resident_bytes"] > rows[3]["kv_bytes"] > 0

    # beside each min: the median and interquartile range of the round times, and
    # the median of the times in units of their round's reference
    timings = [
        ("prefill_ms", "prefill_ref_median", prefill, 1),
        ("ms_per_step", "ms_per_step_ref_median", decode, 4),
    ]
    for key, ref_key, row_sets, digits in timings:
        for r in row_sets[1]["rows"]:
            assert r[key] <= r[f"{key}_median"] and r[f"{key}_iqr"] >= 0
            assert r["speedup_median"] > 0
            assert r["ref_ms_median"] == 0.5
            assert abs(r[ref_key] - 2 * r[f"{key}_median"]) <= 10.0**-digits + 1e-4
        # the first invocation timed the real reference computation
        assert all(r["ref_ms_median"] > 0 and r[ref_key] > 0 for r in row_sets[0]["rows"])
