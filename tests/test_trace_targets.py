"""The benchmark tracer wraps zipvl attributes by name; each must still exist and trace a run."""

import pathlib

import numpy as np
import pytest

from zipvl import engine, numkit

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_every_trace_target_exists(tracing):
    targets = tracing.zipvl_targets()
    assert targets
    assert [t.name for t in targets if t.attr not in vars(t.owner)] == []


def test_traced_run_calls_every_counting_target(tracing):
    # the wrappers' tag and count callbacks unpack the library's arguments and
    # results, so a signature change must fail here, not in a benchmark run
    config = engine.ModelConfig(layers=2, heads=2, d_model=16, vocab_size=32, max_seq=40, seed=3)
    model = engine.init_model(config)
    prompt = numkit.make_rng(3).integers(0, config.vocab_size, size=32, dtype=np.int64)
    probe = engine.SparsityPolicy(
        mode="zipvl-probe", tau=0.9, probe_recent=4, probe_random=4, quantize=True
    )
    exact = engine.SparsityPolicy(mode="zipvl-exact", tau=0.9)
    targets = tracing.zipvl_targets()
    originals = tracing.snapshot(targets)
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        with tracer.span(tracing.ROOT):
            tokens, _ = engine.generate(model, prompt, 4, probe)
            engine.prefill(model, prompt, exact)
    assert tracing.leaked(targets, originals) == []
    assert len(tokens) == prompt.size + 4
    out = tracing.summarize(tracer)
    for name in (
        "budget.partition_tokens",
        "kvcache.quantize_mixed",
        "kvcache.dequantize",
        "kvcache.KVCache.retain",
        "attention.restricted_attention",
        # decode-2k's per-layer softmax figures rest on decode calling this target
        "numkit.masked_softmax_rows",
    ):
        assert out.get(f"{name}.calls", 0) > 0, name
    # budget.plan_layer, which is not traced, calls the scorers: their time must
    # still land under each scored mode's prefill
    for key in (
        "attention.causal_scores.calls",
        "attention.probe_attention.calls",
        "attention.ms.zipvl-probe",
        "attention.ms.zipvl-exact",
    ):
        assert out.get(key, 0) > 0, key
    # exact scores each layer through causal_scores, probe through probe_attention,
    # which forwards to it
    assert out["attention.causal_scores.calls"] == 2 * config.layers
    assert out["attention.probe_attention.calls"] == config.layers
    # quantize_mixed dequantizes K and V of each layer it quantizes
    assert out["kvcache.quantize_mixed.calls"] == config.layers
    assert out["kvcache.dequantize.calls"] == 2 * config.layers
    assert out["kvcache.KVCache.retain.calls"] == config.layers
    assert out["engine.prefill.calls"] == 2
    assert out["kvcache.KVCache.append.calls"] == 4 * config.layers
