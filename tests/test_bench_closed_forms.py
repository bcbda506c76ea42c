"""The benchmark's closed forms must match the library they check.

perfbench/workloads.py checks each run's attn_flops against a closed form
that counts the probe rows as probe_rows(n). A change to the probe draw
must fail here first, not as incorrect outputs in a benchmark run.
"""

import pathlib

import pytest

from zipvl import attention, engine

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("seed", [0, 5, 2**63])
def test_probe_rows_closed_form_counts_the_drawn_rows(workloads, seed):
    # compare-1k scores n=1024 and decode-2k a 512-token prompt, both under
    # the default policy's probe counts
    policy = engine.SparsityPolicy(mode="zipvl-probe")
    for n in (workloads.CompareWorkload.N, workloads.DecodeWorkload.PROMPT):
        rows, _ = attention.select_probe_set(n, policy.probe_recent, policy.probe_random, seed)
        assert workloads.probe_rows(n) == rows.size
