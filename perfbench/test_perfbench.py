"""Self-tests of the benchmark's own arithmetic and plumbing.

    python3 -m pytest -q perfbench

They cover self-time subtraction on nested wrappers, the request_s.tail
percentile rule, that tracing restores every wrapped attribute, and that
the output checks pass on real (small) zipvl outputs and catch a bad one.
"""

import dataclasses
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from zipvl import engine  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    numkit = types.ModuleType("numkit")
    attention = types.ModuleType("attention")

    def masked_softmax_rows(logits, mask):
        clock.advance(3.0)

    def causal_scores(q):
        clock.advance(1.5)
        numkit.masked_softmax_rows(q, None)  # looked up through the module
        clock.advance(0.5)

    def probe_attention(q):
        clock.advance(1.0)
        attention.causal_scores(q)

    numkit.masked_softmax_rows = masked_softmax_rows
    attention.causal_scores = causal_scores
    attention.probe_attention = probe_attention
    targets = [
        tracing.Target(numkit, "masked_softmax_rows", "numkit.masked_softmax_rows"),
        tracing.Target(attention, "causal_scores", "attention.causal_scores"),
        tracing.Target(attention, "probe_attention", "attention.probe_attention"),
    ]
    tracer = tracing.Tracer(clock=clock)
    with tracer.installed(targets), tracer.span(tracing.ROOT):
        clock.advance(0.25)
        attention.probe_attention(None)
        attention.probe_attention(None)

    out = tracing.summarize(tracer)
    assert out["attention.probe_attention.self_ms"] == pytest.approx(2 * 1000.0)
    assert out["attention.causal_scores.self_ms"] == pytest.approx(2 * 2000.0)
    assert out["numkit.masked_softmax_rows.self_ms"] == pytest.approx(2 * 3000.0)
    assert out["trace.harness.self_ms"] == pytest.approx(250.0)
    assert out["attention.causal_scores.calls"] == 2
    own = sum(v for k, v in out.items() if k.endswith("self_ms"))
    assert own == pytest.approx(1e3 * clock.now)


def test_summarize_rejects_spans_outside_the_request():
    tracer = tracing.Tracer(clock=FakeClock())
    with tracer.span(tracing.ROOT):
        pass
    with tracer.span("engine.prefill"):
        pass
    with pytest.raises(ValueError):
        tracing.summarize(tracer)


@pytest.mark.parametrize(
    "n, expect",
    [(1, None), (10, None), (11, (0, 100 / 11)), (20, (9, 50.0)), (100, (89, 90.0)),
     (1000, (989, 99.0))],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expect):
    values = list(range(n))
    random.Random(n).shuffle(values)
    got = run.tail(values)
    assert got == (None if expect is None else pytest.approx(expect))
    if got is not None:
        assert sum(v > got[0] for v in values) == run.TAIL_BEYOND


def _tiny_generate():
    model = engine.init_model(engine.ModelConfig(2, 2, 16, 32, 48, seed=5))
    policy = engine.SparsityPolicy(mode="zipvl-probe", tau=0.9, probe_recent=4,
                                   probe_random=4, quantize=True)
    return engine.generate(model, list(range(24)), 8, policy)


def test_tracing_restores_every_wrapped_attribute():
    targets = tracing.zipvl_targets()
    originals = tracing.snapshot(targets)
    tracer = tracing.Tracer()
    with tracer.installed(targets), tracer.span(tracing.ROOT):
        assert tracing.leaked(targets, originals) == [t.name for t in targets]
        traced_tokens, _ = _tiny_generate()
    assert tracing.leaked(targets, originals) == []
    out = tracing.summarize(tracer)
    assert out["engine.prefill.calls"] == 1 and out["kvcache.KVCache.append.calls"] == 16
    assert out["attention.ms.zipvl-probe"] > 0
    assert out["kvcache.modeled_bytes"] < out["kvcache.resident_bytes"]

    spans = len(tracer.spans)
    untraced_tokens, _ = _tiny_generate()
    assert len(tracer.spans) == spans
    assert untraced_tokens == traced_tokens

    with pytest.raises(RuntimeError), tracer.installed(targets):
        raise RuntimeError("request failed mid-trace")
    assert tracing.leaked(targets, originals) == []


class TinyCompare(workloads.CompareWorkload):
    N, STEPS = 64, 2


class TinyDecode(workloads.DecodeWorkload):
    PROMPT, STEPS = 48, 4


class TinySweep(workloads.ScoreSweepWorkload):
    N, LAYERS = 64, 3


@pytest.mark.parametrize("kind", [TinyCompare, TinyDecode, TinySweep])
def test_checks_pass_on_real_outputs_and_repeat_exactly(kind, tmp_path):
    wl = kind(tmp_path, seed=3, worker=0)
    warm = wl.warm_up()
    again = wl.check(wl.run(0))
    assert warm.problems == [] and again.problems == []
    assert again.digest == warm.digest
    assert wl.check(wl.run(1)).digest != warm.digest
    assert set(warm.modeled) >= {"kv_reduction", "flops_reduction", "retained_mass.min"}


def test_checks_catch_wrong_accounting(tmp_path):
    wl = TinyDecode(tmp_path, seed=3, worker=0)
    raw = wl.run(0)
    first = raw["reports"][0]
    raw["reports"][0] = dataclasses.replace(first, kv_bytes=first.kv_bytes + 1)
    assert any("kv_bytes" in p for p in wl.check(raw).problems)
