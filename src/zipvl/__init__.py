"""Adaptive sparse attention with importance-driven KV-cache compression.

Layers decide how many tokens they need: accumulated attention mass picks a
per-layer budget, normalized scores pick which tokens fill it, prefill
attention runs only among those tokens, and the KV cache keeps (or keeps
quantized) only what was picked. A tiny deterministic transformer makes the
whole pipeline checkable against its dense counterpart.
"""

from .attention import (
    AttentionScores,
    accumulated_scores,
    causal_scores,
    normalized_scores,
    probe_attention,
    restricted_attention,
    select_probe_set,
)
from .budget import (
    adaptive_budget,
    fixed_budget,
    partition_tokens,
    plan_layer,
    top_mass_fraction,
)
from .engine import (
    ModelConfig,
    SparsityPolicy,
    TinyTransformer,
    decode,
    decode_step,
    generate,
    init_model,
    prefill,
)
from .errors import (
    BoundsError,
    ConfigError,
    DegenerateMaskError,
    DomainError,
    EmptySequenceError,
    FormatError,
    OrderingError,
    ShapeError,
    VocabError,
    ZipvlError,
)
from .kvcache import (
    KVCache,
    dequantize,
    quantize_mixed,
)
from .metrics import (
    LayerReport,
    RunReport,
    attn_flops_dense,
    attn_flops_sparse,
    build_run_report,
)
from .workload import evaluate_score_workload, generate_workload

__all__ = [name for name in dir() if not name.startswith("_")]
