"""Transformer blocks and the causal language model.

Implements both architectures the paper benchmarks:

* **OPT family** — pre-LayerNorm blocks, ReLU feed-forward, learned
  position embeddings, biased projections.
* **LLaMA family** — pre-RMSNorm blocks, SwiGLU feed-forward, rotary
  position embeddings, bias-free projections.

The four FP-INT GeMM activation tensors (Fig. 3) route through the
model's shared :class:`~repro.llm.hooks.ActivationTap`:

========  =======================================  ==================
tap kind  activation                               consumed by
========  =======================================  ==================
QKV       normed block input                       Wq / Wk / Wv
O         attention context                        Wo
U         normed attention output                  W_up (and W_gate)
D         FFN intermediate (post-nonlinearity)     W_down
========  =======================================  ==================
"""

from __future__ import annotations

import numpy as np

from repro.core.precision import TensorKind
from repro.errors import ModelError
from repro.llm.attention import (
    KVCache,
    MultiHeadAttention,
    active_scope,
    chunk_positions,
)
from repro.llm.autograd import Tensor, no_grad, softmax_cross_entropy
from repro.llm.config import ModelConfig
from repro.llm.hooks import ActivationTap
from repro.llm.layers import Embedding, Linear, Module, make_norm, row_gemm


class FeedForward(Module):
    """OPT-style two-layer ReLU feed-forward with U/D taps."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.up_proj = Linear(config.d_model, config.ffn_dim, rng, bias=True)
        self.down_proj = Linear(config.ffn_dim, config.d_model, rng, bias=True)
        self.tap = tap

    def __call__(self, x: Tensor) -> Tensor:
        x = self.tap.apply(TensorKind.U, x)
        hidden = self.up_proj(x).relu()
        hidden = self.tap.apply(TensorKind.D, hidden)
        return self.down_proj(hidden)

    def step(self, x: np.ndarray) -> np.ndarray:
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.U, x)
        hidden = np.maximum(row_gemm(x, self.up_proj), 0.0)
        if self.tap.quantizer is not None:
            hidden = self.tap.quantizer(TensorKind.D, hidden)
        return row_gemm(hidden, self.down_proj).astype(np.float32)


class GatedFeedForward(Module):
    """LLaMA-style SwiGLU feed-forward with U/D taps.

    The U tap feeds *both* the gate and up projections (they share the
    same input activation, which is why the BOPs model counts the U
    GeMM twice for gated FFNs).
    """

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.gate_proj = Linear(config.d_model, config.ffn_dim, rng, bias=False)
        self.up_proj = Linear(config.d_model, config.ffn_dim, rng, bias=False)
        self.down_proj = Linear(config.ffn_dim, config.d_model, rng, bias=False)
        self.tap = tap

    def __call__(self, x: Tensor) -> Tensor:
        x = self.tap.apply(TensorKind.U, x)
        hidden = self.gate_proj(x).silu() * self.up_proj(x)
        hidden = self.tap.apply(TensorKind.D, hidden)
        return self.down_proj(hidden)

    def step(self, x: np.ndarray) -> np.ndarray:
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.U, x)
        gate = row_gemm(x, self.gate_proj)
        gate = gate / (1.0 + np.exp(-gate)) * row_gemm(x, self.up_proj)
        if self.tap.quantizer is not None:
            gate = self.tap.quantizer(TensorKind.D, gate)
        return row_gemm(gate, self.down_proj).astype(np.float32)


class TransformerBlock(Module):
    """Pre-norm residual block: attention then feed-forward."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        self.attn_norm = make_norm(config.norm, config.d_model)
        self.attention = MultiHeadAttention(config, tap, rng)
        self.ffn_norm = make_norm(config.norm, config.d_model)
        self.ffn: Module = (
            GatedFeedForward(config, tap, rng)
            if config.gated_ffn
            else FeedForward(config, tap, rng)
        )

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self.attention(self.attn_norm(x))
        return x + self.ffn(self.ffn_norm(x))

    def step(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        x = x + self.attention.step(self.attn_norm(x), cache)
        return x + self.ffn.step(self.ffn_norm(x))

    def step_mixed(
        self, x: np.ndarray, caches: list[KVCache], lengths: list[int]
    ) -> np.ndarray:
        """One flat step over variable-length per-request segments.

        Norms and the feed-forward reduce along the last axis only, and
        their GeMMs are row GeMMs, so they run over the flat pass as-is;
        attention routes through
        :meth:`~repro.llm.attention.MultiHeadAttention.step_mixed`.
        """
        x = x + self.attention.step_mixed(self.attn_norm(x), caches, lengths)
        return x + self.ffn.step(self.ffn_norm(x))


class CausalLM(Module):
    """A causal language model in the OPT or LLaMA style.

    Args:
        config: architecture description (see
            :mod:`repro.llm.config`); the config's ``seed`` initializes
            the weights deterministically.
    """

    def __init__(self, config: ModelConfig) -> None:
        rng = np.random.default_rng(config.seed)
        self.tap = ActivationTap()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng)
        self.position_embedding = (
            Embedding(config.max_seq_len, config.d_model, rng)
            if config.family == "opt"
            else None
        )
        self.blocks = [
            TransformerBlock(config, self.tap, rng) for _ in range(config.n_layers)
        ]
        self.final_norm = make_norm(config.norm, config.d_model)
        self.lm_head = Linear(config.d_model, config.vocab_size, rng, bias=False)

    # -- full-sequence path -----------------------------------------------

    def _embed(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ModelError(f"tokens must be (batch, time), got shape {tokens.shape}")
        if tokens.shape[1] > self.config.max_seq_len:
            raise ModelError(
                f"sequence length {tokens.shape[1]} exceeds max_seq_len "
                f"{self.config.max_seq_len}"
            )
        hidden = self.token_embedding(tokens)
        if self.position_embedding is not None:
            positions = np.arange(tokens.shape[1])
            hidden = hidden + self.position_embedding(positions)
        return hidden

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits for every position: ``(batch, time, vocab)``."""
        hidden = self._embed(tokens)
        for block in self.blocks:
            hidden = block(hidden)
        return self.lm_head(self.final_norm(hidden))

    __call__ = forward

    def loss(self, tokens: np.ndarray) -> Tensor:
        """Mean next-token cross entropy over a ``(batch, time)`` batch."""
        tokens = np.asarray(tokens)
        if tokens.shape[1] < 2:
            raise ModelError("need at least two tokens for a next-token loss")
        logits = self.forward(tokens[:, :-1])
        return softmax_cross_entropy(logits, tokens[:, 1:])

    # -- incremental decode path --------------------------------------------

    def new_cache(self) -> list[KVCache]:
        """Fresh per-layer KV caches for incremental decoding."""
        return [KVCache() for _ in self.blocks]

    def _embed_step(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Plain-numpy token (plus learned position) embeddings."""
        with no_grad():
            hidden = self.token_embedding(tokens).data
            if self.position_embedding is not None:
                hidden = hidden + self.position_embedding(positions).data
        return hidden

    def forward_step(
        self, tokens: np.ndarray, caches: list[KVCache]
    ) -> np.ndarray:
        """Extend cached decoding by ``tokens`` (``(batch, new)`` ids).

        The sequential oracle the serving engine is pinned against.
        Returns plain-numpy logits ``(batch, new, vocab)``.
        """
        tokens = np.asarray(tokens)
        start = caches[0].length
        hidden = self._embed_step(tokens, np.arange(start, start + tokens.shape[1]))
        for block, cache in zip(self.blocks, caches):
            hidden = block.step(hidden, cache)
        return row_gemm(self.final_norm(hidden), self.lm_head)

    def forward_decode_batch(
        self, tokens: np.ndarray, request_caches: list[list[KVCache]]
    ) -> np.ndarray:
        """Decode one token for many requests in one flat pass.

        A thin entry into :meth:`forward_mixed_step` with no chunks.

        Args:
            tokens: ``(batch, 1)`` next-token ids, one row per request.
            request_caches: per request, its per-layer cache list.

        Returns:
            Plain-numpy logits ``(batch, 1, vocab)``.
        """
        _, logits = self.forward_mixed_step([], [], tokens, request_caches)
        assert logits is not None
        return logits

    def forward_mixed_step(
        self,
        chunk_groups: list[np.ndarray],
        chunk_caches: list[list[KVCache]],
        decode_tokens: np.ndarray | None = None,
        decode_caches: list[list[KVCache]] | None = None,
    ) -> tuple[list[np.ndarray], np.ndarray | None]:
        """Run prompt chunks and decodes for many requests in one pass.

        This is the serving engine's model step.  Every segment — a
        prompt chunk, or one decode token — is flattened along the time
        axis into one ``(1, total, d_model)`` pass
        (:meth:`~repro.llm.transformer.TransformerBlock.step_mixed`), so
        norms, projections, FFN and LM head each run as one row GeMM
        over the whole step.  Attention runs per segment at each
        request's exact KV length, so requests may sit at arbitrary,
        different positions.  Row GeMMs make every row bitwise
        independent of the rows it shares a call with (see
        :func:`~repro.llm.layers.row_gemm`), so each segment's logits
        equal the same rows of a sequential :meth:`forward_step`.

        Chunks come first in the pass and decodes after them.

        Args:
            chunk_groups: per chunked request, a 1-D array of prompt
                token ids (length >= 1) continuing that request's
                cache.
            chunk_caches: per chunked request, the per-layer cache list
                to extend, aligned with ``chunk_groups``.
            decode_tokens: optional ``(batch, 1)`` next-token ids, one
                row per decoding request.
            decode_caches: per decode request, the per-layer cache
                list (required when ``decode_tokens`` is given).

        Returns:
            ``(chunk_logits, decode_logits)`` — per chunk, plain-numpy
            logits ``(len(group), vocab)``; decode logits ``(batch, 1,
            vocab)`` or ``None`` when no decode tokens were given.
        """
        if len(chunk_caches) != len(chunk_groups):
            raise ModelError(
                f"got {len(chunk_caches)} cache sets for "
                f"{len(chunk_groups)} chunk groups"
            )
        segments = [np.asarray(group).reshape(-1) for group in chunk_groups]
        caches = list(chunk_caches)
        decodes = 0
        if decode_tokens is not None:
            decode_tokens = np.asarray(decode_tokens)
            if decode_tokens.ndim != 2 or decode_tokens.shape[1] != 1:
                raise ModelError(
                    f"decode batch expects (batch, 1) token ids, got "
                    f"{decode_tokens.shape}"
                )
            decodes = decode_tokens.shape[0]
            if decode_caches is None or len(decode_caches) != decodes:
                raise ModelError(
                    f"got {0 if decode_caches is None else len(decode_caches)} "
                    f"cache sets for {decodes} decode requests"
                )
            segments.extend(decode_tokens)
            caches.extend(decode_caches)
        if not segments:
            raise ModelError("mixed step needs at least one chunk or decode")
        lengths = [segment.shape[0] for segment in segments]
        if min(lengths) < 1:
            raise ModelError("every chunk group must hold at least one token")
        starts = [request[0].length for request in caches]
        if max(
            start + length for start, length in zip(starts, lengths)
        ) > self.config.max_seq_len:
            raise ModelError(
                f"a request would exceed max_seq_len {self.config.max_seq_len}"
            )
        total = sum(lengths)
        flat = np.empty((1, total), dtype=np.int64)
        offset = 0
        for segment in segments:
            flat[0, offset : offset + segment.shape[0]] = segment
            offset += segment.shape[0]
        tracer = active_scope().tracer
        if tracer is not None:
            tracer.begin(
                "step.forward",
                chunks=len(chunk_groups),
                decodes=decodes,
                tokens=total,
            )
        # Shared with the attention layers' rotary gather: one memoized
        # build per step, not one per consumer.
        hidden = self._embed_step(flat, chunk_positions(starts, lengths))
        for layer_index, block in enumerate(self.blocks):
            layer_caches = [request[layer_index] for request in caches]
            hidden = block.step_mixed(hidden, layer_caches, lengths)
        logits = row_gemm(self.final_norm(hidden), self.lm_head)[0]  # (total, vocab)
        if tracer is not None:
            tracer.end("step.forward")
        chunk_logits: list[np.ndarray] = []
        offset = 0
        for length in lengths[: len(chunk_groups)]:
            chunk_logits.append(logits[offset : offset + length])
            offset += length
        decode_logits = None
        if decode_tokens is not None:
            decode_logits = logits[offset:, None, :]
        return chunk_logits, decode_logits

    # -- tap plumbing ----------------------------------------------------------

    def set_quantizer(self, quantizer) -> None:
        """Install (or clear, with ``None``) the activation quantizer."""
        self.tap.quantizer = quantizer

    def set_recorder(self, recorder) -> None:
        """Install (or clear, with ``None``) the activation recorder."""
        self.tap.recorder = recorder


def build_model(config: ModelConfig) -> CausalLM:
    """Construct a freshly initialized model for a config."""
    return CausalLM(config)
