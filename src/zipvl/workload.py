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
        # a tiny concentration overflows the draws or their sum; the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "peaked":
                vals = rng.gamma(shape=1.0 / concentration, scale=1.0, size=n)
                vals = np.maximum(vals, np.finfo(np.float64).tiny)
            else:
                vals = 1.0 + rng.uniform(0.0, 1.0, size=n) / concentration
            rows[i] = (vals * (n / vals.sum())).astype(np.float32)
        if not (np.isfinite(rows[i]).all() and rows[i].any()):
            raise DomainError(
                f"concentration={concentration} overflows the {kind} draws: "
                f"layer {i} has no finite nonzero mass"
            )
    return rows


def write_workload_csv(fh, scores: np.ndarray) -> None:
    """Emit layer,token,score rows, each score with nine significant digits.

    Nine significant digits ("%.9g", C's FLT_DECIMAL_DIG) round-trip every
    float32: they move a normal score by at most 5e-9 of itself, under a
    fifth of float32's smallest relative half-spacing 2^-25, and a
    subnormal by far less than 2^-150, so the reader's float64 parse
    rounds back to the written bits and never lands on a tie.

    One row template, "@,token,%.9g\n" over every token, is built per file.
    Each layer gets the template with its number in place of "@" and one
    `%` call over its scores as Python floats, and is written at once, so
    only one layer of floats is held at a time.
    """
    scores = np.asarray(scores, dtype=np.float32)
    fh.write("layer,token,score\n")
    template = "".join([f"@,{token},%.9g\n" for token in range(scores.shape[1])])
    for layer, row in enumerate(scores):
        fh.write(template.replace("@", str(layer)) % tuple(row.tolist()))


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
    """read_workload_csv one csv row at a time; every FormatError comes from here.

    A message names the physical line its record ends on, as
    csv.reader.line_num counts them, so a quoted field that spans a line
    break moves the later line numbers on.
    """
    reader = csv.reader(fh)
    records = _csv_records(reader)
    header = next(records, None)
    if header != ["layer", "token", "score"]:
        raise FormatError(f"bad workload header: {header}")
    rows: list[list[float]] = []
    ends: list[int] = []  # the line each score's record ends on
    for rec in records:
        lineno = reader.line_num
        if len(rec) != 3:
            raise FormatError(f"line {lineno}: expected 3 fields, got {len(rec)}")
        try:
            layer, token, score = int(rec[0]), int(rec[1]), float(rec[2])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if layer == len(rows):
            _check_not_short(rows, lineno)
            rows.append([])
        if not rows or layer != len(rows) - 1 or token != len(rows[-1]):
            raise FormatError(f"line {lineno}: rows out of order at layer={layer} token={token}")
        if layer and token == len(rows[0]):
            raise FormatError(
                f"line {lineno}: workload rows are ragged: layer {layer} runs past "
                f"layer 0's {token} tokens"
            )
        rows[-1].append(score)
        ends.append(lineno)
    if not rows:
        raise FormatError("workload has no score rows")
    _check_not_short(rows, reader.line_num + 1)
    n = len(rows[0])
    with np.errstate(over="ignore"):  # overflow to inf is reported below
        scores = np.asarray(rows, dtype=np.float32)
    bad = np.flatnonzero(~(np.isfinite(scores) & (scores >= 0)))
    if bad.size:
        layer, token = divmod(int(bad[0]), n)
        raise FormatError(
            f"line {ends[bad[0]]}: score {rows[layer][token]!r} is negative or not finite"
        )
    return scores


def _csv_records(reader):
    """The reader's records; a csv.Error, such as a field over the csv module's
    field size limit, becomes a FormatError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from exc


def _check_not_short(rows: list, lineno: int) -> None:
    """Reject, at lineno, a last layer that ends before layer 0's token count."""
    if len(rows) > 1 and len(rows[-1]) < len(rows[0]):
        raise FormatError(
            f"line {lineno}: workload rows are ragged: layer {len(rows) - 1} ends after "
            f"{len(rows[-1])} of layer 0's {len(rows[0])} tokens"
        )


def evaluate_score_workload(scores: np.ndarray, policy) -> list:
    """Apply a budgeting policy directly to score vectors, one per layer.

    The score row stands in for both the accumulated and the normalized
    score, so this path exercises budgeting and accounting without a model.
    keep_last applies as in prefill; probe mode needs real attention rows
    and quantization needs a KV cache, so both are rejected.
    """
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
        plan = budget.plan_layer(policy, n, lambda probe: (vec, vec))
        p = int(plan.important.size)
        reports.append(metrics.layer_report(layer, n, plan, 1, 1, p, metrics.kv_bytes(p, 1, 1)))
    return reports
