"""The benchmark tracer wraps zipvl attributes by name; each must still exist."""

import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing.zipvl_targets()
    assert targets
    assert [t.name for t in targets if t.attr not in vars(t.owner)] == []
