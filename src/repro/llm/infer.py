"""No-autograd inference kernel for :class:`~repro.llm.TinyCausalLM`.

Every serving forward — prefill, the continuous-batching decode round, the
speculative verify, and the per-token steps of ``decode_from`` — runs here,
in plain numpy over the model's parameter arrays.  No :class:`~repro.ag.
Tensor` is built per operation (only the returned caches wrap their arrays
as Tensors), and dropout is never applied: this is eval-mode inference, so
the model's train/eval flag is not read or written.

The autograd ``TinyCausalLM.forward`` stays for training and as the
equivalence oracle.  The contract is bit-identity with it: each op below
repeats the autograd op sequence on arrays of the same shape —

- LayerNorm as ``sum * float32(1/n)`` (``Tensor.mean``), ``x - mean``
  (bitwise ``x + mean * -1``: IEEE subtraction is addition of the exact
  negation), and ``1 / sqrt(var + eps)`` (``Tensor.__pow__(-0.5)``);
- a dense ``Linear`` as matmul then bias add; a
  :class:`~repro.ag.QuantizedLinear` through its public ``affine_numpy``,
  which already adds the bias;
- the GELU formula of :func:`repro.ag.gelu` and the softmax of
  :func:`repro.ag.softmax`, inlined.

Two forwards are built from those ops:

- :func:`prefill` keeps ``forward``'s ``(1, T, d_model)`` layout with the
  causal mask, soft-prompt rows (passed as input embeddings), a trained
  KV prefix, and an optional cached past.
- :func:`decode_span` is the one ragged span-attention kernel.  Sequence
  ``s`` feeds ``spans[s] >= 1`` new tokens, each on its own batch-of-one
  slice ``(N, 1, d_model)``, so the dense sublayers evaluate per row
  exactly as a one-token ``forward`` step does; attention runs per
  position over that sequence's compact cache plus its earlier span
  positions.  A padded key mask would be mathematically equal but not
  bit-identical (masked entries change the length, hence the summation
  order, of numpy's reductions).  Spans of 1 are the plain decode round;
  longer spans are the speculative verify.

The draft model's padded proposal loop (``llm/speculative.py``) reuses
these ops but not this layout: its proposals only steer, so it trades
bit-identity for whole-batch matmuls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..ag import QuantizedLinear, Tensor
from .attention import KVPrefix, MultiHeadSelfAttention
from .kv_cache import KVCache

if TYPE_CHECKING:
    from .transformer import TinyCausalLM

__all__ = ["prefill", "decode_span", "embed"]

_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_COEFF = np.float32(0.044715)
_NEG_INF = np.float32(-1e9)


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------
def _gelu(x: np.ndarray) -> np.ndarray:
    """GPT-2 tanh-approximation GELU (same formula as :func:`ag.gelu`)."""
    inner = _SQRT_2_OVER_PI * (x + _GELU_COEFF * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def _layer_norm(x: np.ndarray, layer) -> np.ndarray:
    """Numpy mirror of :class:`ag.LayerNorm`, op for op."""
    inv_n = np.float32(1.0 / x.shape[-1])
    mean = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    normed = centered * (1.0 / np.sqrt(var + np.float32(layer.eps)))
    return normed * layer.weight.data + layer.bias.data


def _affine(layer, x: np.ndarray) -> np.ndarray:
    """``x @ W + b`` for a dense or weight-quantized Linear.

    ``QuantizedLinear.affine_numpy`` is the fused kernel its autograd
    ``forward`` runs, bias included.  ``bias`` may be None (the lm_head).
    """
    if isinstance(layer, QuantizedLinear):
        return layer.affine_numpy(x)
    out = np.matmul(x, layer.weight.data)
    if layer.bias is not None:
        out += layer.bias.data
    return out


def _softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """:func:`ag.softmax` over the last axis, overwriting ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _mlp(x: np.ndarray, block) -> np.ndarray:
    """The block's second residual: ``x + ff2(gelu(ff1(ln2(x))))``."""
    hidden = _gelu(_affine(block.ff1, _layer_norm(x, block.ln2)))
    return x + _affine(block.ff2, hidden)


def _logits(model: TinyCausalLM, x: np.ndarray) -> np.ndarray:
    return _affine(model.lm_head, _layer_norm(x, model.ln_final))


def _kv_buffer(n_heads: int, length: int, d_head: int,
               dtype) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialised (1, heads, length, d_head) key and value arrays laid
    out token-major, like the head-split projections a forward caches."""
    keys = np.empty((1, length, n_heads, d_head), dtype=dtype)
    return (keys.transpose(0, 2, 1, 3),
            np.empty_like(keys).transpose(0, 2, 1, 3))


def embed(model: TinyCausalLM, ids: np.ndarray) -> np.ndarray:
    """Token embeddings (no positions) for an integer id array."""
    ids = np.asarray(ids)
    vocab = model.config.vocab_size
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"embedding index out of range [0, {vocab})")
    return model.token_embedding.weight.data[ids]


def _check_prefixes(model: TinyCausalLM, prefixes) -> None:
    n_layers = len(model.blocks)
    for prefix in prefixes:
        if prefix is not None and len(prefix) != n_layers:
            raise ValueError(f"prefix_kv has {len(prefix)} entries for "
                             f"{n_layers} layers")


# ----------------------------------------------------------------------
# Prefill: forward's (1, T, d_model) layout with the causal mask
# ----------------------------------------------------------------------
def prefill(
    model: TinyCausalLM,
    embeddings: np.ndarray,
    *,
    prefix_kv: list[KVPrefix] | None = None,
    past: KVCache | None = None,
) -> tuple[np.ndarray, KVCache]:
    """Logits and extended cache for ``T`` new positions of one sequence.

    ``embeddings`` is ``(1, T, d_model)`` input embeddings without
    positions (soft-prompt rows first, then token embeddings).  The new
    positions follow ``past`` (if given) in the causal window and see the
    whole ``prefix_kv``.  Returns ``(logits, cache)`` with logits
    ``(1, T, vocab)``, bit-identical to ``model(embeddings=...,
    prefix_kv=..., past_kv=past, use_cache=True)``.
    """
    batch, length, d_model = embeddings.shape
    past_len = 0 if past is None else past.seq_len
    if batch != 1:
        raise ValueError(f"prefill runs one sequence, got batch {batch}")
    if past_len + length > model.config.max_seq_len:
        raise ValueError(f"sequence of {past_len + length} exceeds "
                         f"max_seq_len={model.config.max_seq_len}")
    if prefix_kv is not None:
        _check_prefixes(model, [prefix_kv])
    positions = model.position_embedding.weight.data[
        np.arange(past_len, past_len + length)]
    x = embeddings + positions
    present: list[KVPrefix] = []
    for index, block in enumerate(model.blocks):
        attn = block.attn
        n_heads, d_head = attn.n_heads, attn.d_head
        h = _layer_norm(x, block.ln1)
        q, k, v = (_affine(proj, h).reshape(1, length, n_heads, d_head)
                   .transpose(0, 2, 1, 3)
                   for proj in (attn.q_proj, attn.k_proj, attn.v_proj))
        if past is not None:
            past_k, past_v = past.layer(index)
            k = np.concatenate([past_k.data, k], axis=2)
            v = np.concatenate([past_v.data, v], axis=2)
        present.append((Tensor(k), Tensor(v)))
        prefix_len = 0
        if prefix_kv is not None and prefix_kv[index] is not None:
            pk, pv = prefix_kv[index]
            prefix_len = pk.shape[2]
            k = np.concatenate([pk.data, k], axis=2)
            v = np.concatenate([pv.data, v], axis=2)
        scores = np.matmul(q, k.swapaxes(-1, -2)) \
            * np.float32(1.0 / np.sqrt(d_head))
        mask = MultiHeadSelfAttention._causal_mask(length, prefix_len,
                                                   past_len)
        scores = np.where(mask, _NEG_INF, scores)
        context = np.matmul(_softmax_inplace(scores), v)
        merged = context.transpose(0, 2, 1, 3).reshape(1, length, d_model)
        x = x + _affine(attn.out_proj, merged)
        x = _mlp(x, block)
    return _logits(model, x), KVCache(present)


# ----------------------------------------------------------------------
# Decode: the ragged span-attention kernel
# ----------------------------------------------------------------------
def decode_span(
    model: TinyCausalLM,
    token_spans: Sequence[np.ndarray],
    caches: Sequence[KVCache],
    prefix_kvs: Sequence[list[KVPrefix] | None] | None = None,
) -> tuple[np.ndarray, list[KVCache]]:
    """Advance each cached sequence by its span of new tokens.

    ``token_spans[s]`` (1-D, length >= 1) follows ``caches[s]``;
    ``prefix_kvs[s]`` is that sequence's trained KV prefix (or None),
    re-attached ahead of its cache exactly as ``forward`` does.  Returns
    ``(logits, caches)``: logits ``(sum(spans), 1, vocab)`` with rows in
    sequence order and each sequence's positions contiguous, and one new
    :class:`KVCache` per sequence extended by its whole span.  Every row
    is bit-identical to a one-token ``forward(past_kv=..., use_cache=True)``
    step of that sequence alone; the input caches are never mutated.
    """
    spans = [np.asarray(span, dtype=np.int64).reshape(-1)
             for span in token_spans]
    n_seqs = len(spans)
    if any(span.size == 0 for span in spans):
        raise ValueError("every token span must hold at least one token")
    if len(caches) != n_seqs:
        raise ValueError(f"{n_seqs} token spans for {len(caches)} "
                         f"cached sequences")
    n_layers = len(model.blocks)
    for cache in caches:
        if cache.n_layers != n_layers:
            raise ValueError(f"cache has {cache.n_layers} layers for "
                             f"{n_layers} blocks")
    if prefix_kvs is not None:
        if len(prefix_kvs) != n_seqs:
            raise ValueError(f"{len(prefix_kvs)} prefix entries for "
                             f"{n_seqs} sequences")
        _check_prefixes(model, prefix_kvs)
    span_lens = [span.size for span in spans]
    lengths = [cache.seq_len for cache in caches]
    for length, span_len in zip(lengths, span_lens):
        if length + span_len > model.config.max_seq_len:
            raise ValueError(f"a sequence of {length + span_len} exceeds "
                             f"max_seq_len={model.config.max_seq_len}")

    rows = sum(span_lens)
    ids = np.concatenate(spans)
    positions = np.concatenate([np.arange(length, length + span_len)
                                for length, span_len
                                in zip(lengths, span_lens)])
    x = (embed(model, ids[:, None])
         + model.position_embedding.weight.data[positions[:, None]])
    d_model = x.shape[-1]
    present: list[list[KVPrefix]] = [[] for _ in range(n_seqs)]
    for index, block in enumerate(model.blocks):
        attn = block.attn
        n_heads, d_head = attn.n_heads, attn.d_head
        h = _layer_norm(x, block.ln1)
        q, k, v = (_affine(proj, h).reshape(rows, 1, n_heads, d_head)
                   .transpose(0, 2, 1, 3)
                   for proj in (attn.q_proj, attn.k_proj, attn.v_proj))
        scale = np.float32(1.0 / np.sqrt(d_head))
        contexts = np.empty((rows, n_heads, 1, d_head), dtype=q.dtype)
        row = 0
        for s, span_len in enumerate(span_lens):
            past_k, past_v = caches[s].layer(index)
            prefix = None if prefix_kvs is None or prefix_kvs[s] is None \
                else prefix_kvs[s][index]
            prefix_len = 0 if prefix is None else prefix[0].shape[2]
            # One key/value buffer per sequence: row ``i`` attends over
            # the slice [:, :, :prefix+past+i+1, :], whose per-head 2-D
            # blocks have the values *and* strides of the concatenation a
            # one-token forward step builds, so every matmul takes the
            # same BLAS path and the rows stay bitwise those of stepping
            # one token at a time; the O(T) copy of the past is paid once
            # per sequence.  Without a prefix that concatenation keeps the
            # token-major layout of the prefill's head-split views; with
            # one it is head-major (numpy's concatenate follows its
            # inputs' stride order) — and matmul results depend on it.
            base_at = prefix_len + lengths[s]
            total = base_at + span_len
            if prefix is None:
                buf_k, buf_v = _kv_buffer(n_heads, total, d_head, k.dtype)
            else:
                buf_k = np.empty((1, n_heads, total, d_head), dtype=k.dtype)
                buf_v = np.empty_like(buf_k)
                buf_k[:, :, :prefix_len] = prefix[0].data
                buf_v[:, :, :prefix_len] = prefix[1].data
            buf_k[:, :, prefix_len:base_at] = past_k.data
            buf_v[:, :, prefix_len:base_at] = past_v.data
            buf_k[0, :, base_at:] = k[row:row + span_len, :, 0, :] \
                .transpose(1, 0, 2)
            buf_v[0, :, base_at:] = v[row:row + span_len, :, 0, :] \
                .transpose(1, 0, 2)
            for at in range(base_at, base_at + span_len):
                # One new query sees the prefix, the cache and its span
                # predecessors: the causal mask is all-visible here.
                scores = np.matmul(q[row:row + 1],
                                   buf_k[:, :, :at + 1].swapaxes(-1, -2)) \
                    * scale
                np.matmul(_softmax_inplace(scores), buf_v[:, :, :at + 1],
                          out=contexts[row:row + 1])
                row += 1
            if prefix is not None:
                # The cache holds real positions only, token-major as a
                # forward step's present keys/values are.
                keys, values = _kv_buffer(n_heads, total - prefix_len,
                                          d_head, k.dtype)
                keys[...] = buf_k[:, :, prefix_len:]
                values[...] = buf_v[:, :, prefix_len:]
                buf_k, buf_v = keys, values
            present[s].append((Tensor(buf_k), Tensor(buf_v)))
        merged = contexts.transpose(0, 2, 1, 3).reshape(rows, 1, d_model)
        x = x + _affine(attn.out_proj, merged)
        x = _mlp(x, block)
    return _logits(model, x), [KVCache(layers) for layers in present]
