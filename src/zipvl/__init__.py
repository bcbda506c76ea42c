"""Adaptive sparse attention with importance-driven KV-cache compression.

Layers decide how many tokens they need: accumulated attention mass picks a
per-layer budget, normalized scores pick which tokens fill it, prefill
attention runs only among those tokens, and the KV cache keeps (or keeps
quantized) only what was picked. A tiny deterministic transformer makes the
whole pipeline checkable against its dense counterpart.

The modules are the API (`from zipvl.engine import prefill`); the package
re-exports nothing.
"""
