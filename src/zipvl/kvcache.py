"""Per-layer key/value storage with eviction, decode append and quantization.

A cache holds, per layer, (heads, rows, d_head) float32 key and value
tensors plus the original sequence position of every row. All heads of a
layer always share one position list. A cache instance belongs to a single
inference session and is mutated in place; whole caches may be handed
between threads.

Prefill (set_layer, retain) installs exact-size arrays. Decode appends
write one row in place into a per-layer buffer whose capacity doubles when
full, so a step copies nothing but the new row and, now and then, the
layer once. `keys[layer]`, `values[layer]` and `positions[layer]` are views
of the live rows. Memory accounting (layer_memory_bytes,
`engine.LayerReport.kv_bytes`, `.nbytes` of the views) counts those rows,
not the spare capacity, so after decode the memory held can reach twice
the rows counted.

Quantization is uniform asymmetric per channel group within each token row:
scale = (max - min) / (2^b - 1), zero-point = min. Important rows get 4
bits, the rest 2. Packed size per group is ceil(len * b / 8) code bytes
plus 8 bytes for the float32 scale and zero-point.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .budget import TokenPartition
from .errors import BoundsError, DomainError, FormatError, OrderingError, ShapeError

SNAPSHOT_MAGIC = b"ZVKV"
SNAPSHOT_VERSION = 1


class KVCache:
    """Mutable per-layer, per-head key/value store for one session.

    `keys[layer]`, `values[layer]` and `positions[layer]` are plain arrays:
    views of the first rows(layer) rows of the layer's backing buffers.
    append grows the buffers by doubling and keeps the layer's memory layout,
    which decides how BLAS rounds the decode matmuls.
    """

    def __init__(self, layers: int, heads: int, d_head: int):
        self.heads = heads
        self.d_head = d_head
        self.keys = [np.zeros((heads, 0, d_head), dtype=np.float32) for _ in range(layers)]
        self.values = [np.zeros((heads, 0, d_head), dtype=np.float32) for _ in range(layers)]
        self.positions = [np.zeros(0, dtype=np.int64) for _ in range(layers)]
        self._buffers = list(zip(self.keys, self.values, self.positions))

    @property
    def num_layers(self) -> int:
        return len(self.keys)

    def _check_layer(self, layer: int) -> int:
        if not 0 <= layer < self.num_layers:
            raise BoundsError(f"layer {layer} out of range [0, {self.num_layers})")
        return layer

    def _install(
        self, layer: int, keys: np.ndarray, values: np.ndarray, positions: np.ndarray
    ) -> None:
        """Make exact-size arrays both the layer's contents and its buffers."""
        self._buffers[layer] = (keys, values, positions)
        self.keys[layer], self.values[layer], self.positions[layer] = keys, values, positions

    def rows(self, layer: int) -> int:
        return self.positions[self._check_layer(layer)].size

    def set_layer(
        self, layer: int, keys: np.ndarray, values: np.ndarray, positions: np.ndarray
    ) -> None:
        """Install prefill rows for one layer, replacing its contents."""
        layer = self._check_layer(layer)
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        positions = np.asarray(positions, dtype=np.int64)
        expect = (self.heads, positions.size, self.d_head)
        if keys.shape != expect or values.shape != expect:
            raise ShapeError(f"expected K/V shape {expect}, got {keys.shape}/{values.shape}")
        if positions.size > 1 and np.any(np.diff(positions) <= 0):
            raise OrderingError("positions must be strictly increasing")
        self._install(layer, keys.copy(), values.copy(), positions.copy())

    def retain(self, layer: int, partition: TokenPartition) -> "KVCache":
        """Keep only rows whose original position is in the important set."""
        layer = self._check_layer(layer)
        keep = np.asarray(partition.important, dtype=np.int64)
        if not np.isin(keep, self.positions[layer]).all():
            raise BoundsError("partition refers to positions not present in the layer")
        mask = np.isin(self.positions[layer], keep)
        # the boolean index leaves the token axis outermost in memory
        self._install(
            layer,
            self.keys[layer][:, mask, :],
            self.values[layer][:, mask, :],
            self.positions[layer][mask],
        )
        return self

    def append(
        self, layer: int, k_row: np.ndarray, v_row: np.ndarray, position: int
    ) -> "KVCache":
        """Append one token's K/V row to every head of the layer, in place."""
        layer = self._check_layer(layer)
        pos = self.positions[layer]
        if pos.size and position <= pos[-1]:
            raise OrderingError(f"position {position} not beyond cached {int(pos[-1])}")
        k_row = np.asarray(k_row, dtype=np.float32)
        v_row = np.asarray(v_row, dtype=np.float32)
        if k_row.size != self.heads * self.d_head or v_row.size != k_row.size:
            raise ShapeError(
                f"expected {self.heads}x{self.d_head} K/V rows, got {k_row.shape}/{v_row.shape}"
            )
        rows = pos.size
        kbuf, vbuf, pbuf = self._buffers[layer]
        if rows == pbuf.size:
            cap = max(2 * rows, 1)
            shape = (self.heads, cap, self.d_head)
            # empty_like keeps the layer's layout (C order or token axis outermost)
            kbuf = np.empty_like(self.keys[layer], shape=shape)
            vbuf = np.empty_like(self.values[layer], shape=shape)
            pbuf = np.empty(cap, dtype=np.int64)
            kbuf[:, :rows] = self.keys[layer]
            vbuf[:, :rows] = self.values[layer]
            pbuf[:rows] = pos
            self._buffers[layer] = (kbuf, vbuf, pbuf)
        kbuf[:, rows] = k_row.reshape(self.heads, self.d_head)
        vbuf[:, rows] = v_row.reshape(self.heads, self.d_head)
        pbuf[rows] = position
        self.keys[layer] = kbuf[:, : rows + 1]
        self.values[layer] = vbuf[:, : rows + 1]
        self.positions[layer] = pbuf[: rows + 1]
        return self


# --- mixed-precision quantization ---------------------------------------


@dataclass(frozen=True)
class PackedTensor:
    """Packed codes for one K or V tensor of one layer.

    Rows are bucketed by bit width; codes4/codes2 are (heads, rows_b, bytes)
    uint8 arrays in bucket row order. Scales and zero-points cover all rows.
    """

    codes4: np.ndarray
    codes2: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray


@dataclass(frozen=True)
class QuantizedLayer:
    positions: np.ndarray
    bits_per_row: np.ndarray
    keys: PackedTensor
    values: PackedTensor


@dataclass(frozen=True)
class QuantizedKV:
    layers: list
    heads: int
    d_head: int
    group_size: int


def _group_spans(d: int, group_size: int) -> list[tuple[int, int]]:
    g = min(group_size, d)
    return [(s, min(s + g, d)) for s in range(0, d, g)]


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack small integer codes along the last axis into bytes."""
    per_byte = 8 // bits
    length = codes.shape[-1]
    pad = (-length) % per_byte
    if pad:
        codes = np.concatenate(
            [codes, np.zeros(codes.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    out = np.zeros(codes.shape[:-1] + (codes.shape[-1] // per_byte,), dtype=np.uint8)
    for i in range(per_byte):
        out |= codes[..., i::per_byte] << (bits * i)
    return out


def _unpack_codes(packed: np.ndarray, bits: int, length: int) -> np.ndarray:
    per_byte = 8 // bits
    codes = np.zeros(packed.shape[:-1] + (packed.shape[-1] * per_byte,), dtype=np.uint8)
    mask = (1 << bits) - 1
    for i in range(per_byte):
        codes[..., i::per_byte] = (packed >> (bits * i)) & mask
    return codes[..., :length]


def _quantize_rows(x: np.ndarray, bits: int, spans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize (heads, rows, d) values; returns packed codes, scales, zeros."""
    levels = (1 << bits) - 1
    packed, scales, zeros = [], [], []
    for s, e in spans:
        g = x[..., s:e].astype(np.float64)
        mn = g.min(axis=-1, keepdims=True)
        mx = g.max(axis=-1, keepdims=True)
        scale = (mx - mn) / levels
        safe = np.where(scale > 0, scale, 1.0)
        codes = np.clip(np.rint((g - mn) / safe), 0, levels).astype(np.uint8)
        codes[np.broadcast_to(scale == 0, codes.shape)] = 0
        packed.append(_pack_codes(codes, bits))
        scales.append(scale[..., 0].astype(np.float32))
        zeros.append(mn[..., 0].astype(np.float32))
    return (
        np.concatenate(packed, axis=-1),
        np.stack(scales, axis=-1),
        np.stack(zeros, axis=-1),
    )


def _dequantize_rows(
    packed: np.ndarray, scales: np.ndarray, zeros: np.ndarray, bits: int, spans
) -> np.ndarray:
    d = spans[-1][1]
    out = np.zeros(packed.shape[:-1] + (d,), dtype=np.float32)
    offset = 0
    for gi, (s, e) in enumerate(spans):
        nbytes = -(-(e - s) * bits // 8)
        codes = _unpack_codes(packed[..., offset : offset + nbytes], bits, e - s)
        out[..., s:e] = (
            codes.astype(np.float64) * scales[..., gi, None].astype(np.float64)
            + zeros[..., gi, None].astype(np.float64)
        ).astype(np.float32)
        offset += nbytes
    return out


def _quantize_tensor(x: np.ndarray, bits_per_row: np.ndarray, spans) -> PackedTensor:
    rows4 = bits_per_row == 4
    rows2 = ~rows4
    n_groups = len(spans)
    heads, t, _ = x.shape
    scales = np.zeros((heads, t, n_groups), dtype=np.float32)
    zeros = np.zeros((heads, t, n_groups), dtype=np.float32)
    codes = {}
    for bits, sel in ((4, rows4), (2, rows2)):
        if sel.any():
            packed, sc, zp = _quantize_rows(x[:, sel, :], bits, spans)
            scales[:, sel, :] = sc
            zeros[:, sel, :] = zp
        else:
            nbytes = sum(-(-(e - s) * bits // 8) for s, e in spans)
            packed = np.zeros((heads, 0, nbytes), dtype=np.uint8)
        codes[bits] = packed
    return PackedTensor(codes4=codes[4], codes2=codes[2], scales=scales, zeros=zeros)


def _dequantize_tensor(pt: PackedTensor, bits_per_row: np.ndarray, spans) -> np.ndarray:
    heads, t, _ = pt.scales.shape
    d = spans[-1][1]
    out = np.zeros((heads, t, d), dtype=np.float32)
    for bits, packed in ((4, pt.codes4), (2, pt.codes2)):
        sel = bits_per_row == bits
        if sel.any():
            out[:, sel, :] = _dequantize_rows(
                packed, pt.scales[:, sel, :], pt.zeros[:, sel, :], bits, spans
            )
    return out


def quantize_mixed(
    cache: KVCache,
    partition: TokenPartition | Sequence[TokenPartition],
    group_size: int,
) -> QuantizedKV:
    """Quantize a cache: 4 bits for important rows, 2 bits for the rest.

    `partition` is either one TokenPartition applied to every layer or a
    per-layer sequence. Importance is matched by original position.
    """
    if group_size < 1:
        raise DomainError("group_size must be >= 1")
    parts = (
        list(partition)
        if isinstance(partition, (list, tuple))
        else [partition] * cache.num_layers
    )
    if len(parts) != cache.num_layers:
        raise ShapeError(f"expected {cache.num_layers} partitions, got {len(parts)}")
    spans = _group_spans(cache.d_head, group_size)
    layers = []
    for layer in range(cache.num_layers):
        pos = cache.positions[layer]
        important = np.isin(pos, np.asarray(parts[layer].important, dtype=np.int64))
        bits = np.where(important, 4, 2).astype(np.uint8)
        layers.append(
            QuantizedLayer(
                positions=pos.copy(),
                bits_per_row=bits,
                keys=_quantize_tensor(cache.keys[layer], bits, spans),
                values=_quantize_tensor(cache.values[layer], bits, spans),
            )
        )
    return QuantizedKV(
        layers=layers, heads=cache.heads, d_head=cache.d_head, group_size=group_size
    )


def dequantize(q: QuantizedKV) -> KVCache:
    """Reconstruct a float32 cache; shapes and positions are preserved exactly."""
    spans = _group_spans(q.d_head, q.group_size)
    cache = KVCache(len(q.layers), q.heads, q.d_head)
    for layer, ql in enumerate(q.layers):
        expected_bytes = {
            b: sum(-(-(e - s) * b // 8) for s, e in spans) for b in (2, 4)
        }
        for pt in (ql.keys, ql.values):
            if pt.codes4.shape[-1] != expected_bytes[4] or pt.codes2.shape[-1] != expected_bytes[2]:
                raise FormatError("packed code width does not match group layout")
        cache.set_layer(
            layer,
            _dequantize_tensor(ql.keys, ql.bits_per_row, spans),
            _dequantize_tensor(ql.values, ql.bits_per_row, spans),
            ql.positions,
        )
    return cache


def layer_memory_bytes(cache: KVCache | QuantizedKV, layer: int) -> int:
    """Storage footprint of one layer in bytes.

    Unquantized: 2 tensors x heads x rows x d_head x 4 bytes, counting live
    rows only, not the spare capacity append leaves behind.
    Quantized: packed code bytes plus 8 bytes (scale + zero-point) per group.
    """
    if isinstance(cache, KVCache):
        return 2 * cache.heads * cache.rows(layer) * cache.d_head * 4
    if not 0 <= layer < len(cache.layers):
        raise BoundsError(f"layer {layer} out of range")
    ql = cache.layers[layer]
    total = 0
    for pt in (ql.keys, ql.values):
        total += pt.codes4.size + pt.codes2.size
        total += 4 * (pt.scales.size + pt.zeros.size)
    return total


def memory_bytes(cache: KVCache | QuantizedKV) -> int:
    """Storage footprint of the whole cache in bytes."""
    n_layers = cache.num_layers if isinstance(cache, KVCache) else len(cache.layers)
    return sum(layer_memory_bytes(cache, layer) for layer in range(n_layers))


# --- binary snapshot ------------------------------------------------------


def save_snapshot(cache: KVCache, path) -> None:
    """Write a cache in the little-endian snapshot layout (see docs/FORMATS.md)."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(
            struct.pack(
                "<IIII", SNAPSHOT_VERSION, cache.num_layers, cache.heads, cache.d_head
            )
        )
        for layer in range(cache.num_layers):
            fh.write(struct.pack("<I", cache.rows(layer)))
            fh.write(cache.positions[layer].astype("<i8").tobytes())
            fh.write(np.ascontiguousarray(cache.keys[layer], dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(cache.values[layer], dtype="<f4").tobytes())


def load_snapshot(path) -> KVCache:
    """Read a snapshot written by save_snapshot."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != SNAPSHOT_MAGIC:
        raise FormatError("not a cache snapshot (bad magic)")
    try:
        version, layers, heads, d_head = struct.unpack_from("<IIII", blob, 4)
        if version != SNAPSHOT_VERSION:
            raise FormatError(f"unsupported snapshot version {version}")
        cache = KVCache(layers, heads, d_head)
        offset = 20
        for layer in range(layers):
            (t,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            positions = np.frombuffer(blob, dtype="<i8", count=t, offset=offset)
            offset += 8 * t
            keys = np.frombuffer(blob, dtype="<f4", count=heads * t * d_head, offset=offset)
            offset += 4 * heads * t * d_head
            values = np.frombuffer(blob, dtype="<f4", count=heads * t * d_head, offset=offset)
            offset += 4 * heads * t * d_head
            cache.set_layer(
                layer,
                keys.reshape(heads, t, d_head),
                values.reshape(heads, t, d_head),
                positions,
            )
    except (struct.error, ValueError) as exc:
        raise FormatError(f"truncated snapshot: {exc}") from exc
    if offset != len(blob):
        raise FormatError("snapshot has trailing or missing bytes")
    return cache
