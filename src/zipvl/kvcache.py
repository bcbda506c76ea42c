"""Per-layer key/value storage with eviction, decode append and quantization.

A cache holds, per layer, (heads, rows, d_head) float32 key and value
tensors; all heads of a layer always hold the same rows. A row is known
only by its index in the layer: prefill installs one row per prompt
token, so there row i is prompt position i, retain renumbers the rows it
keeps from 0 in their order, and decode appends after the last. A cache
instance belongs to a single inference session and is mutated in place;
whole caches may be handed between threads. A layer's important tokens
arrive as one strictly ascending int64 array of the layer's row indices,
the one budget.plan_layer returns: retain keeps those rows and evicts the
rest, quantize_mixed keeps every row at a precision set by that array.
Both check the array with numkit.index_set before they change anything:
one that is not strictly ascending is an OrderingError, an index outside
[0, rows) a BoundsError.

Prefill (set_layer, retain) installs exact-size C-order arrays. A decode append
takes one (heads, d_head) K row and V row and writes them in place into a
per-layer buffer whose capacity doubles when full, so a step copies
nothing but the new row and, now and then, the layer once. `keys[layer]`
and `values[layer]` are views of the live rows. Memory accounting
(`metrics.kv_bytes`, `.nbytes` of the views) counts those rows, not the
spare capacity, so after decode the memory held can reach twice the rows
counted.

Quantization is uniform asymmetric, and its group is one head row (the
d_head channels of one token in one head): scale = (max - min) / (2^b - 1),
zero-point = min. Important rows get 4 bits, the rest 2. quantize_mixed
works on one layer, as prefill writes it: it quantizes the layer's K and V
and installs their dequantized float32 values in its place, so codes are
never kept or bit-packed. The packed size they stand for, ceil(d_head * b / 8)
code bytes plus 8 bytes for the float32 scale and zero-point per head row,
is what it returns, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import BoundsError, ShapeError


class KVCache:
    """Mutable per-layer, per-head key/value store for one session.

    `keys[layer]` and `values[layer]` are plain arrays: views of the first
    rows(layer) rows of the layer's backing buffers, whose row axis is the
    layer's only row identity. append grows the buffers by doubling and
    keeps the layer's memory layout, which decides how BLAS rounds the
    decode matmuls.
    """

    def __init__(self, layers: int, heads: int, d_head: int):
        self.heads = heads
        self.d_head = d_head
        self.keys = [np.zeros((heads, 0, d_head), dtype=np.float32) for _ in range(layers)]
        self.values = [np.zeros((heads, 0, d_head), dtype=np.float32) for _ in range(layers)]
        self._buffers = list(zip(self.keys, self.values))

    @property
    def num_layers(self) -> int:
        return len(self.keys)

    def _check_layer(self, layer: int) -> int:
        if not 0 <= layer < self.num_layers:
            raise BoundsError(f"layer {layer} out of range [0, {self.num_layers})")
        return layer

    def _install(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Make exact-size arrays both the layer's contents and its buffers."""
        self._buffers[layer] = (keys, values)
        self.keys[layer], self.values[layer] = keys, values

    def rows(self, layer: int) -> int:
        return self.keys[self._check_layer(layer)].shape[1]

    def set_layer(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Install prefill rows for one layer, replacing its contents."""
        layer = self._check_layer(layer)
        keys = np.asarray(keys, dtype=np.float32)
        values = np.asarray(values, dtype=np.float32)
        # the keys give the row count; keys of another rank differ from expect in length
        expect = (self.heads, *keys.shape[1:2], self.d_head)
        if keys.shape != expect or values.shape != expect:
            raise ShapeError(f"expected K/V shape {expect}, got {keys.shape}/{values.shape}")
        self._install(layer, keys.copy(), values.copy())

    def retain(self, layer: int, important: np.ndarray) -> "KVCache":
        """Keep only the rows that `important` indexes, renumbered from 0 in their order."""
        keep = numkit.index_set(important, self.rows(layer))
        # take installs C order; a boolean index would leave the token axis
        # outermost, where the decode matmuls run about a fifth slower
        self._install(
            layer, self.keys[layer].take(keep, axis=1), self.values[layer].take(keep, axis=1)
        )
        return self

    def append(self, layer: int, k_row: np.ndarray, v_row: np.ndarray) -> "KVCache":
        """Append one token's (heads, d_head) K and V rows to the layer, in place."""
        kbuf, vbuf = self._buffers[self._check_layer(layer)]
        rows = self.keys[layer].shape[1]
        shape = (self.heads, self.d_head)
        if np.shape(k_row) != shape or np.shape(v_row) != shape:
            raise ShapeError(f"expected {shape} K/V rows, got {np.shape(k_row)}/{np.shape(v_row)}")
        if rows == kbuf.shape[1]:
            cap = max(2 * rows, 1)
            # empty_like keeps the layer's layout, which decides how BLAS rounds decode
            kbuf = np.empty_like(kbuf, shape=(self.heads, cap, self.d_head))
            vbuf = np.empty_like(vbuf, shape=(self.heads, cap, self.d_head))
            kbuf[:, :rows] = self.keys[layer]
            vbuf[:, :rows] = self.values[layer]
            self._buffers[layer] = (kbuf, vbuf)
        kbuf[:, rows] = k_row
        vbuf[:, rows] = v_row
        rows += 1
        self.keys[layer] = kbuf[:, :rows]
        self.values[layer] = vbuf[:, :rows]
        return self


# --- mixed-precision quantization ---------------------------------------


@dataclass(frozen=True)
class QuantizedTensor:
    """One K or V tensor of one layer: codes with their scales and zero-points.

    codes is (heads, rows, d_head) uint8, one unpacked code per channel;
    scales and zeros are (heads, rows, 1) float32, one pair per head row.
    """

    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray


def _quantize(x: np.ndarray, levels: np.ndarray) -> QuantizedTensor:
    """Quantize (heads, rows, d) values; levels is (rows, 1), 2^bits - 1 per row."""
    x = x.astype(np.float64)
    mn = x.min(axis=-1, keepdims=True)
    scale = (x.max(axis=-1, keepdims=True) - mn) / levels
    safe = np.where(scale > 0, scale, 1.0)
    codes = np.clip(np.rint((x - mn) / safe), 0, levels)
    return QuantizedTensor(codes.astype(np.uint8), scale.astype(np.float32), mn.astype(np.float32))


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct float32 values, shaped like the quantized tensor."""
    return (qt.codes.astype(np.float64) * qt.scales + qt.zeros).astype(np.float32)


def quantize_mixed(cache: KVCache, layer: int, important: np.ndarray) -> int:
    """Quantize one layer in place: 4 bits for important rows, 2 bits for the rest.

    `important` indexes the layer's rows and is checked as retain checks
    it, before the layer changes. The layer's K and V are replaced by their
    dequantized values, installed in C order. Returns the layer's packed
    size in bytes: per tensor, heads x the sum over rows of
    ceil(d_head * bits / 8) code bytes plus 8 bytes for the float32 scale
    and zero-point.
    """
    important = numkit.index_set(important, cache.rows(layer))
    bits = np.full(cache.rows(layer), 2)
    bits[important] = 4
    levels = ((1 << bits) - 1)[:, None]
    cache.set_layer(
        layer,
        dequantize(_quantize(cache.keys[layer], levels)),
        dequantize(_quantize(cache.values[layer], levels)),
    )
    code_bytes = (cache.d_head * bits + 7) // 8
    return 2 * cache.heads * int(code_bytes.sum() + 8 * code_bytes.size)
