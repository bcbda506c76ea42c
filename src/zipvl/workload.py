"""Synthetic per-layer attention-score workloads.

A workload is a (layers, n) float32 array of nonnegative scores, one row per
layer, each row normalized to sum to n (matching the total mass of a row of
accumulated attention scores over n tokens). Two shapes are provided:

  peaked   gamma draws with shape 1/concentration; higher concentration
           piles the mass onto fewer tokens
  diffuse  1 + uniform(0,1)/concentration; higher concentration flattens
           toward exactly uniform (concentration=inf gives all ones)

Workloads round-trip through a layer,token,score CSV so runs can be driven
from files and spliced together.
"""

from __future__ import annotations

import csv

import numpy as np

from . import budget, metrics, numkit
from .engine import LayerReport
from .errors import ConfigError, DomainError, FormatError

KINDS = ("peaked", "diffuse")


def generate_workload(
    kind: str, n: int, layers: int, concentration: float, seed: int
) -> np.ndarray:
    if kind not in KINDS:
        raise DomainError(f"unknown workload kind {kind!r}; expected one of {KINDS}")
    if n < 1 or layers < 1:
        raise DomainError("n and layers must be >= 1")
    if not concentration > 0:
        raise DomainError(f"concentration must be positive, got {concentration}")
    rng = numkit.make_rng(seed)
    rows = np.empty((layers, n), dtype=np.float32)
    for i in range(layers):
        if kind == "peaked":
            vals = rng.gamma(shape=1.0 / concentration, scale=1.0, size=n)
            vals = np.maximum(vals, np.finfo(np.float64).tiny)
        elif np.isinf(concentration):
            vals = np.ones(n, dtype=np.float64)
        else:
            vals = 1.0 + rng.uniform(0.0, 1.0, size=n) / concentration
        rows[i] = (vals * (n / vals.sum())).astype(np.float32)
    return rows


def write_workload_csv(fh, scores: np.ndarray) -> None:
    """Emit layer,token,score rows; floats use shortest round-trip repr.

    Each layer's rows are joined into one string and written at once.
    """
    scores = np.asarray(scores, dtype=np.float32)
    fh.write("layer,token,score\n")
    tokens = [f",{token}," for token in range(scores.shape[1])]
    for layer, row in enumerate(scores.tolist()):
        fh.write("".join([f"{layer}{t}{v!r}\n" for t, v in zip(tokens, row)]))


# numpy's parser gets the lines about this many characters at a time. The
# whole file as one str would be widened to four bytes a character, and
# batches of 1 << 20 left score-sweep's peak RSS 8 MB above these, no faster
_BATCH_CHARS = 1 << 16
_HEADER_LINES = ("layer,token,score\n", "layer,token,score\r\n")
# numpy's parser only gets lines made of these characters. Over them it reads
# a subset of what int() and float() read, to the same values; beyond them it
# reads some control and non-ASCII characters as blanks or digits where int()
# fails (\x1c1 as 1, \u01fe1 as 4621)
_PLAIN = b"0123456789,.+-eE\r\n"
_RECORD = np.dtype([("layer", np.int64), ("token", np.int64), ("score", np.float64)])


def read_workload_csv(fh) -> np.ndarray:
    """Parse a workload CSV back into a (layers, n) array.

    Rows must be layer-major, token-ascending and rectangular, and every
    score finite and nonnegative. Fields are read as the csv module splits
    them and int() and float() read them. numpy's parser reads a valid
    workload from a seekable input; input it cannot vouch for is read
    again from the start, row by row, which names the first bad line.
    """
    if fh.seekable():
        start = fh.tell()
        scores = _read_valid(fh)
        if scores is not None:
            return scores
        fh.seek(start)
    return _read_rows(fh)


def _read_valid(fh) -> np.ndarray | None:
    """The workload in fh if numpy's parser reads it as a valid one, else None.

    Each batch is checked against the grid as it is read, and only its
    float32 scores are kept. numpy skips blank lines (warning on a batch
    of nothing else), where the row parser rejects them, so a line shorter
    than the shortest row, "0,0,0", is not vouched for, and neither is a
    batch with fewer records than lines.
    """
    if fh.readline() not in _HEADER_LINES:
        return None
    parts = []
    rows, n = 0, None  # n stays None until a row of layer 1 or later shows it
    while lines := fh.readlines(_BATCH_CHARS):
        text = "".join(lines)
        if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
            return None
        if min(map(len, lines)) < 5:
            return None
        try:
            recs = np.loadtxt(
                lines, delimiter=",", dtype=_RECORD, comments=None, quotechar=None, ndmin=1
            )
        except ValueError:
            return None
        if recs.size != len(lines):
            return None
        if n is None and recs["layer"].any():
            n = rows + int(np.flatnonzero(recs["layer"])[0])
            if n == 0:
                return None
        index = np.arange(rows, rows + recs.size)
        layer, token = (0, index) if n is None else np.divmod(index, n)
        if not np.all((recs["layer"] == layer) & (recs["token"] == token)):
            return None
        with np.errstate(over="ignore"):
            part = recs["score"].astype(np.float32)
        if not np.all(np.isfinite(part) & (part >= 0)):
            return None
        parts.append(part)
        rows += recs.size
    n = n or rows
    if not rows or rows % n:
        return None
    return np.concatenate(parts).reshape(-1, n)


def _read_rows(fh) -> np.ndarray:
    """read_workload_csv one csv row at a time; every FormatError comes from here."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["layer", "token", "score"]:
        raise FormatError(f"bad workload header: {header}")
    rows: list[list[float]] = []
    for lineno, rec in enumerate(reader, start=2):
        if len(rec) != 3:
            raise FormatError(f"line {lineno}: expected 3 fields, got {len(rec)}")
        try:
            layer, token, score = int(rec[0]), int(rec[1]), float(rec[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if layer == len(rows):
            _check_not_short(rows, lineno)
            rows.append([])
        if layer != len(rows) - 1 or token != len(rows[-1]):
            raise FormatError(f"line {lineno}: rows out of order at layer={layer} token={token}")
        if layer and token == len(rows[0]):
            raise FormatError(
                f"line {lineno}: workload rows are ragged: layer {layer} runs past "
                f"layer 0's {token} tokens"
            )
        rows[-1].append(score)
    if not rows:
        raise FormatError("workload has no score rows")
    _check_not_short(rows, lineno + 1)
    n = len(rows[0])
    with np.errstate(over="ignore"):  # overflow to inf is reported below
        scores = np.asarray(rows, dtype=np.float32)
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0)))
    if bad.size:
        layer, token = divmod(int(bad[0]), n)
        raise FormatError(
            f"line {2 + bad[0]}: score {rows[layer][token]!r} is negative or not finite"
        )
    return scores


def _check_not_short(rows: list, lineno: int) -> None:
    """Reject, at lineno, a last layer that ends before layer 0's token count."""
    if len(rows) > 1 and len(rows[-1]) < len(rows[0]):
        raise FormatError(
            f"line {lineno}: workload rows are ragged: layer {len(rows) - 1} ends after "
            f"{len(rows[-1])} of layer 0's {len(rows[0])} tokens"
        )


def evaluate_score_workload(scores: np.ndarray, policy) -> list:
    """Apply a budgeting policy directly to score vectors, one per layer.

    The score row stands in for both importance metrics, so this path
    exercises budgeting and accounting without a model. keep_last and
    dense_first_layers apply as in prefill; probe mode needs real attention
    rows and quantization needs a KV cache, so both are rejected.
    """
    policy.validate()
    if policy.mode == "zipvl-probe":
        raise ConfigError("probe mode requires a model workload")
    if policy.quantize:
        raise ConfigError("quantize requires a model workload")
    scores = np.asarray(scores, dtype=np.float32)
    if scores.ndim != 2 or scores.size == 0:
        raise DomainError("scores must be a nonempty (layers, n) array")
    reports = []
    n = scores.shape[1]
    for layer, vec in enumerate(scores):
        lb, part = budget.plan_layer(
            policy.layer_mode(layer), n, vec, vec, policy.tau, policy.fixed_ratio, policy.keep_last
        )
        p = int(part.important.size)
        reports.append(
            LayerReport(
                layer=layer,
                n=n,
                p=p,
                ratio=p / n,
                retained_mass=float(lb.retained_mass_fraction),
                attn_flops=metrics.attn_flops_sparse(p, n, d_head=1, heads=1),
                kv_rows=p,
                probe_rows=0,
                kv_bytes=2 * p * 4,
            )
        )
    return reports
