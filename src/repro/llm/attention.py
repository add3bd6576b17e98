"""Causal multi-head self-attention with the A_qkv / A_o tap points.

One fused QKV projection consumes the (possibly quantized) ``A_qkv``
activation; the attention output consumes ``A_o`` before the output
projection.  LLaMA-family models apply rotary position embeddings to
queries and keys; OPT-family models rely on the model's learned position
embeddings instead.

Three forward paths are provided:

* :meth:`MultiHeadAttention.__call__` — autograd path used for training
  and whole-sequence (prefill) evaluation.
* :meth:`MultiHeadAttention.step` — plain-numpy incremental path with a
  KV cache, used by :mod:`repro.llm.generation` (the paper keeps the KV
  cache in FP16; so does this model).
* :meth:`MultiHeadAttention.step_mixed` — the serving engine's flat
  lane: many requests' new tokens packed into one pass, attention per
  request.  Its rows are bitwise equal to :meth:`step`'s.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.precision import TensorKind
from repro.errors import ModelError
from repro.llm.autograd import Tensor, concat, softmax
from repro.llm.config import ModelConfig
from repro.llm.hooks import ActivationTap
from repro.llm.layers import Linear, Module, row_gemm

#: Additive mask value for future positions (large enough to zero the
#: softmax in float32 without producing NaN through inf - inf).
MASK_VALUE = -1e9


def causal_mask(length: int) -> np.ndarray:
    """Upper-triangular additive mask of shape (length, length)."""
    mask = np.zeros((length, length), dtype=np.float32)
    mask[np.triu_indices(length, k=1)] = MASK_VALUE
    return mask


# -- decode hot-path accounting -----------------------------------------------


@dataclass
class KVHotPathStats:
    """Process-wide counters of Python-side KV re-materialization work.

    Two byte streams distinguish necessary work from waste on the
    decode hot path:

    * ``copy_bytes`` — bytes memcpy'd moving *already-stored* history
      around: capacity-doubling buffer growth, scratch growth, and the
      reference implementations' per-append concatenates.  Amortized
      O(1) per token for the preallocated path; O(history) per step
      for the reference path.
    * ``dequant_bytes`` — bytes dequantized from float16 for attention
      reads, counted at float32 width for keys and values alike (the
      values twin is float64).  Incremental views convert only the tail
      appended since the last step; the reference path re-converts the
      whole history every layer every step.

    The engine snapshots these around each step and reports the deltas
    (``StepReport.kv_copy_bytes`` / ``kv_dequant_bytes``), which is
    what makes the hot-path win measurable and CI-gateable.
    """

    copy_bytes: int = 0
    dequant_bytes: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.copy_bytes, self.dequant_bytes)

    def reset(self) -> None:
        self.copy_bytes = 0
        self.dequant_bytes = 0


#: The process-wide instance every cache variant reports into.
HOT_PATH_STATS = KVHotPathStats()


@dataclass
class AttentionDispatchStats:
    """Process-wide counter of attention kernel launches.

    ``dispatches`` counts attention-pipeline launches: one per
    :meth:`MultiHeadAttention._attention_core` call, i.e. one per
    (layer, segment) of a forward pass — a decode row and a prompt
    chunk each count once.

    The engine snapshots it around each step and reports the delta
    (``StepReport.attention_dispatches``), mirroring
    :class:`KVHotPathStats`.
    """

    dispatches: int = 0

    def snapshot(self) -> tuple[int]:
        return (self.dispatches,)

    def reset(self) -> None:
        self.dispatches = 0


#: The process-wide instance every attention path reports into.
ATTENTION_STATS = AttentionDispatchStats()


@dataclass
class StatScope:
    """Where hot-path counters (and optional trace spans) are routed.

    Every increment site on the decode hot path — buffer growth,
    dequant views, attention dispatches, the paged gather — reports into
    the *active* scope instead of naming the module globals directly.
    The default scope wraps :data:`HOT_PATH_STATS` /
    :data:`ATTENTION_STATS` (tracer ``None``), so direct model calls
    (benchmarks, tests, sequential ``generate``) behave exactly as
    before; an :class:`~repro.serve.engine.Engine` installs its own
    per-engine stats around each step via :func:`stats_scope`, which is
    what keeps two engines in one process — or one per thread, since
    contextvars are thread-local — from double-counting each other.

    ``tracer`` is an optional :class:`repro.serve.telemetry.StepTracer`
    duck type (``span``/``begin``/``end``/``instant``); hot sites guard
    every use with an ``is not None`` check so the disabled cost is one
    contextvar load per site.
    """

    hot: KVHotPathStats
    attention: AttentionDispatchStats
    tracer: object | None = None


_DEFAULT_SCOPE = StatScope(HOT_PATH_STATS, ATTENTION_STATS)
_ACTIVE_SCOPE: contextvars.ContextVar[StatScope] = contextvars.ContextVar(
    "repro_stats_scope", default=_DEFAULT_SCOPE
)


def active_scope() -> StatScope:
    """The scope hot-path counters currently report into."""
    return _ACTIVE_SCOPE.get()


@contextmanager
def stats_scope(
    hot: KVHotPathStats,
    attention: AttentionDispatchStats,
    tracer: object | None = None,
):
    """Route hot-path counters (and spans) into private stats objects.

    Reentrant and exception-safe: the previous scope is restored on
    exit via the contextvar token, so nested engine steps (or an engine
    stepping inside another engine's traced region) unwind correctly.
    """
    token = _ACTIVE_SCOPE.set(StatScope(hot, attention, tracer))
    try:
        yield
    finally:
        _ACTIVE_SCOPE.reset(token)


def grow_buffer(
    buffer: np.ndarray | None,
    shape: tuple[int, ...],
    axis: int,
    kept: int,
    dtype: np.dtype,
) -> np.ndarray:
    """Allocate a larger cache buffer, carrying over its logical prefix.

    The one growth implementation shared by every capacity-doubling
    buffer on the hot path — float16 storage, dequant views, and the
    paged gather scratch — so the prefix-copy slicing and the
    ``copy_bytes`` accounting cannot drift apart between them.

    Args:
        buffer: current buffer, or None for a first allocation.
        shape: target shape (the new capacity already at ``shape[axis]``).
        axis: the time axis being grown.
        kept: logical positions to carry over along ``axis``.
    """
    grown = np.empty(shape, dtype=dtype)
    if buffer is not None and kept:
        index = (slice(None),) * axis + (slice(0, kept),)
        grown[index] = buffer[index]
        _ACTIVE_SCOPE.get().hot.copy_bytes += grown[index].nbytes
    return grown


# -- per-forward-pass memos ---------------------------------------------------
#
# Every layer of a forward pass asks for the same additive masks and
# position ranges (all layers sit at the same cache lengths), so these
# small module-level memos turn O(layers) identical constructions per
# step into O(1).  Values are marked read-only: callers only ever add
# or index them, never mutate.

_MASK_MEMO: dict[tuple[int, int], np.ndarray] = {}
#: Cap the memo by *bytes*, not entries: one full-prompt prefill mask is
#: O(L^2) float32 (a 1024-position mask is ~4 MB), so an entry cap
#: alone could pin hundreds of MB across varied prompt lengths.
_MASK_MEMO_MAX_BYTES = 32 * 1024 * 1024
_MASK_MEMO_BYTES = 0

_CHUNK_POS_MEMO: tuple[tuple, np.ndarray] | None = None


def history_mask(start: int, new_len: int) -> np.ndarray | None:
    """Additive causal mask for queries at ``[start, start + new_len)``.

    The history spans ``start + new_len`` cached positions (the query
    rows' own positions included).  Returns ``None`` when the mask
    would be all zeros — the single-token decode case — because adding
    a zero mask is a bitwise no-op through the softmax (``exp`` maps
    ``-0.0`` and ``+0.0`` to the same ``1.0``) and skipping it saves
    one (batch, heads, 1, total) allocation per request per layer.
    """
    if new_len <= 1:
        return None
    global _MASK_MEMO_BYTES
    key = (start, new_len)
    mask = _MASK_MEMO.get(key)
    if mask is None:
        total = start + new_len
        positions = np.arange(start, total)[:, None]
        history = np.arange(total)[None, :]
        mask = np.where(history > positions, MASK_VALUE, 0.0).astype(np.float32)
        mask.setflags(write=False)
        if _MASK_MEMO_BYTES + mask.nbytes > _MASK_MEMO_MAX_BYTES:
            _MASK_MEMO.clear()
            _MASK_MEMO_BYTES = 0
        _MASK_MEMO[key] = mask
        _MASK_MEMO_BYTES += mask.nbytes
    return mask


def chunk_positions(starts: list[int], lengths: list[int]) -> np.ndarray:
    """Flattened per-segment position ids for a mixed step's chunk lane.

    Memoized single-slot: all layers of one forward pass (and the
    position-embedding lookup before them) share identical
    ``(starts, lengths)``, so the concatenated arange is built once per
    pass instead of once per layer.
    """
    global _CHUNK_POS_MEMO
    key = (tuple(starts), tuple(lengths))
    memo = _CHUNK_POS_MEMO
    if memo is not None and memo[0] == key:
        return memo[1]
    positions = np.concatenate(
        [np.arange(start, start + length) for start, length in zip(starts, lengths)]
    )
    positions.setflags(write=False)
    _CHUNK_POS_MEMO = (key, positions)
    return positions


_CONTEXT_SCRATCH: dict[tuple, np.ndarray] = {}
_CONTEXT_SCRATCH_CAP = 8


def _context_scratch(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """Reusable attention-context buffer for one step shape.

    :meth:`MultiHeadAttention.step_mixed` writes each segment's context
    slice into a per-shape scratch instead of concatenating the slices
    into a fresh array every layer; writing the slices
    into a per-shape scratch reuses one allocation across all layers of
    a step (the downstream transpose+reshape copies out of it before
    the next layer runs).  The dtype is the attention core's own output
    dtype — the scores pipeline runs in float64 (the float64 ``scale``
    scalar promotes it), and storing the context any narrower would
    round it before the output projection, breaking bitwise parity
    with the single-request ``step`` path.
    """
    key = (shape, dtype)
    scratch = _CONTEXT_SCRATCH.get(key)
    if scratch is None:
        if len(_CONTEXT_SCRATCH) >= _CONTEXT_SCRATCH_CAP:
            _CONTEXT_SCRATCH.clear()
        scratch = np.empty(shape, dtype=dtype)
        _CONTEXT_SCRATCH[key] = scratch
    return scratch


_ROTARY_BUILD_MEMO: dict[tuple[int, int, float], "RotaryTable"] = {}
_ROTARY_BUILD_MEMO_CAP = 32


@dataclass
class RotaryTable:
    """Precomputed cos/sin tables for rotary position embeddings.

    Tables are pure functions of ``(head_dim, max_len, base)``, so
    :meth:`build` memoizes them — every attention layer of a model
    (and equal-geometry models in one process) shares a single
    instance, which is what lets :meth:`gather` keep a one-slot memo
    that hits for layers 2..L of each forward pass.  Instances are
    immutable by convention: ``cos``/``sin`` are never written after
    construction.
    """

    cos: np.ndarray
    sin: np.ndarray
    _gather_memo: tuple[tuple, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False
    )

    @classmethod
    def build(cls, head_dim: int, max_len: int, base: float = 10000.0) -> "RotaryTable":
        key = (head_dim, max_len, base)
        table = _ROTARY_BUILD_MEMO.get(key)
        if table is not None:
            return table
        half = head_dim // 2
        freqs = base ** (-np.arange(0, half, dtype=np.float64) / half)
        angles = np.outer(np.arange(max_len, dtype=np.float64), freqs)
        double = np.concatenate([angles, angles], axis=-1)
        cos = np.cos(double).astype(np.float32)
        sin = np.sin(double).astype(np.float32)
        # The instance is shared process-wide (and slice() hands out
        # views of it): freeze the tables so an in-place mutation by
        # any one caller cannot corrupt every other model.
        cos.setflags(write=False)
        sin.setflags(write=False)
        table = cls(cos=cos, sin=sin)
        if len(_ROTARY_BUILD_MEMO) >= _ROTARY_BUILD_MEMO_CAP:
            _ROTARY_BUILD_MEMO.clear()
        _ROTARY_BUILD_MEMO[key] = table
        return table

    def slice(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        if stop > self.cos.shape[0]:
            raise ModelError(
                f"rotary table holds {self.cos.shape[0]} positions, "
                f"requested up to {stop}"
            )
        return self.cos[start:stop], self.sin[start:stop]

    def gather(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-request cos/sin rows for arbitrary (unsorted) positions.

        One-slot memo: every layer of a forward pass gathers the same
        positions, so the fancy-index copy runs once per pass instead
        of once per layer (the table instance is shared via
        :meth:`build`'s memo).
        """
        key = (positions.tobytes(), positions.dtype.str, positions.shape)
        memo = self._gather_memo
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        limit = int(positions.max(initial=0)) + 1
        if limit > self.cos.shape[0]:
            raise ModelError(
                f"rotary table holds {self.cos.shape[0]} positions, "
                f"requested up to {limit}"
            )
        cos_rows = self.cos[positions]
        sin_rows = self.sin[positions]
        cos_rows.setflags(write=False)
        sin_rows.setflags(write=False)
        self._gather_memo = (key, cos_rows, sin_rows)
        return cos_rows, sin_rows


def _rotate_half(x: Tensor) -> Tensor:
    half = x.shape[-1] // 2
    front = x[..., :half]
    back = x[..., half:]
    return concat([-back, front], axis=-1)


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate (batch, heads, time, head_dim) queries/keys by position."""
    return x * Tensor(cos) + _rotate_half(x) * Tensor(sin)


def _rotate_half_np(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


#: Smallest time-axis capacity a cache buffer is allocated with; single
#: -token decode growth doubles from here instead of reallocating at
#: every one of the first appends.
_INITIAL_CAPACITY = 16


class KVCache:
    """Per-layer key/value history for incremental decoding (FP16).

    Two subclass seams keep every cache variant on one append path:

    * **compression** — :meth:`compress` (a row-local transform applied
      on write) and :meth:`compression_key`; the flat forward lane uses
      those to compress a whole step's K/V in one call per key and then
      append per segment via :meth:`append_precompressed`.
    * **storage** — :meth:`_store` (persist float16 rows) and
      :meth:`view` (return the full history: float32 keys, float64
      values).  The paged subclass
      (:class:`repro.serve.kvpool.paged.PagedKVCache`) scatters rows
      into pool blocks on write and gathers the non-contiguous blocks
      on read.  Because both store the same float16 bytes, the two are
      bitwise interchangeable under ``step`` / ``step_mixed``.

    Storage here is the decode hot path, so per-step cost must be
    proportional to *new* tokens, not history length:

    * float16 rows land in preallocated, capacity-doubling buffers
      with a logical length (``_len``) — appending a token is one row
      write, and buffer-growth copies amortize to O(1) per token;
    * :meth:`view` keeps a memoized dequantized twin of the storage
      and converts only the tail appended since the last call,
      returning zero-copy slices of it.  Keys are float32 (the scores
      matmul runs in float32); values are float64, the dtype the
      float64 ``weights @ values`` context matmul promotes them to
      anyway, so the twin saves that O(history) cast per call.  The
      memo is invalidated if :meth:`compression_key` ever changes
      (defensive — compression is applied at write time, so stored
      bytes never change under it).

    Both choices are bitwise-invisible: stored float16 bytes are
    identical to the old concatenate storage, float16 -> float32 ->
    float64 conversion is exact, and numpy matmuls buffer strided views
    to contiguous memory before BLAS sees them.
    :class:`ReferenceKVCache` keeps the O(history)-per-step storage
    alive as the parity oracle the growth property tests and the
    decode hot-path benchmark compare against.
    """

    __slots__ = (
        "_k16",
        "_v16",
        "_len",
        "_deq_k",
        "_deq_v",
        "_deq_len",
        "_deq_key",
    )

    def __init__(self) -> None:
        self._k16: np.ndarray | None = None
        self._v16: np.ndarray | None = None
        self._len = 0
        self._deq_k: np.ndarray | None = None
        self._deq_v: np.ndarray | None = None
        self._deq_len = 0
        self._deq_key: tuple | None = None

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        """Write-side transform; must be row-local along leading axes."""
        return tensor

    def compression_key(self) -> tuple:
        """Caches with equal keys share one batched compress call."""
        return ("fp16",)

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.append_precompressed(self.compress(k), self.compress(v))

    def append_precompressed(
        self, k: np.ndarray, v: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append K/V already passed through :meth:`compress`."""
        self._store(k.astype(np.float16), v.astype(np.float16))
        return self.view()

    @property
    def keys(self) -> np.ndarray | None:
        """Stored float16 keys ``(batch, heads, length, hd)`` (a view)."""
        return None if self._k16 is None else self._k16[:, :, : self._len]

    @property
    def values(self) -> np.ndarray | None:
        """Stored float16 values ``(batch, heads, length, hd)`` (a view)."""
        return None if self._v16 is None else self._v16[:, :, : self._len]

    def _store(self, k16: np.ndarray, v16: np.ndarray) -> None:
        """Persist new float16 rows into the preallocated buffers."""
        new_len = k16.shape[2]
        end = self._len + new_len
        if self._k16 is None:
            shape = list(k16.shape)
            shape[2] = max(new_len, _INITIAL_CAPACITY)
            self._k16 = np.empty(shape, dtype=np.float16)
            self._v16 = np.empty(shape, dtype=np.float16)
        elif end > self._k16.shape[2]:
            capacity = self._k16.shape[2]
            while capacity < end:
                capacity *= 2
            shape = list(self._k16.shape)
            shape[2] = capacity
            grown = tuple(shape)
            self._k16 = grow_buffer(self._k16, grown, 2, self._len, np.float16)
            self._v16 = grow_buffer(self._v16, grown, 2, self._len, np.float16)
        self._k16[:, :, self._len : end] = k16
        self._v16[:, :, self._len : end] = v16
        self._len = end

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Full cached history ``(batch, heads, time, hd)``.

        Keys come back float32 and values float64 (see the class
        docstring).

        Memoized: only positions appended since the last call are
        converted; the returned arrays are read-mostly slices of the
        persistent buffers (valid until the next append forces
        a growth reallocation, i.e. for the current layer step).
        """
        if self._len == 0 or self._k16 is None:
            raise ModelError("view() on an empty KV cache")
        key = self.compression_key()
        if self._deq_key is not None and self._deq_key != key:
            self._deq_len = 0  # compression changed: re-dequantize
        self._deq_key = key
        capacity = self._k16.shape[2]
        if self._deq_k is None or self._deq_k.shape[2] != capacity:
            shape = tuple(self._k16.shape)
            self._deq_k = grow_buffer(self._deq_k, shape, 2, self._deq_len, np.float32)
            self._deq_v = grow_buffer(self._deq_v, shape, 2, self._deq_len, np.float64)
        if self._deq_len < self._len:
            tail = slice(self._deq_len, self._len)
            self._deq_k[:, :, tail] = self._k16[:, :, tail]
            self._deq_v[:, :, tail] = self._v16[:, :, tail]
            _ACTIVE_SCOPE.get().hot.dequant_bytes += (
                2 * self._deq_k[:, :, tail].nbytes
            )
            self._deq_len = self._len
        keys = self._deq_k[:, :, : self._len]
        values = self._deq_v[:, :, : self._len]
        # The old view() returned private copies; these alias the
        # persistent buffers, so hand out read-only views (the buffers
        # themselves stay writable for the next tail dequant).
        keys.setflags(write=False)
        values.setflags(write=False)
        return keys, values

    @property
    def length(self) -> int:
        return self._len

    def truncate(self, length: int) -> None:
        """Roll the cache back to ``length`` stored positions.

        The engine's batch-level fault rollback: positions beyond
        ``length`` are logically dropped (the preallocated buffers keep
        their capacity) and the dequant memo is clamped so the next
        :meth:`view` re-dequantizes nothing stale.  Re-appending the
        same rows afterwards reproduces the pre-truncation bytes
        exactly.
        """
        if not 0 <= length <= self._len:
            raise ModelError(
                f"truncate({length}) outside stored length {self._len}"
            )
        self._len = length
        self._deq_len = min(self._deq_len, length)


class ReferenceKVCache(KVCache):
    """The pre-optimization O(history)-per-step storage, kept as oracle.

    Appends by whole-array concatenate and dequantizes the full
    history on every :meth:`view` — exactly what :class:`KVCache` did
    before preallocated buffers and incremental views.  The growth
    property tests pin the optimized storage bitwise against this, and
    ``benchmarks/bench_decode_hotpath.py`` measures the step-latency
    gap.  An optional ``codec`` delegates the write-side compression,
    so one reference class covers FP16 and Anda storage.
    """

    __slots__ = ("_codec", "_ref_k", "_ref_v")

    def __init__(self, codec: KVCache | None = None) -> None:
        super().__init__()
        self._codec = codec
        self._ref_k: np.ndarray | None = None
        self._ref_v: np.ndarray | None = None

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        return tensor if self._codec is None else self._codec.compress(tensor)

    def compression_key(self) -> tuple:
        return ("fp16",) if self._codec is None else self._codec.compression_key()

    @property
    def keys(self) -> np.ndarray | None:
        return self._ref_k

    @property
    def values(self) -> np.ndarray | None:
        return self._ref_v

    def _store(self, k16: np.ndarray, v16: np.ndarray) -> None:
        if self._ref_k is None:
            self._ref_k, self._ref_v = k16, v16
        else:
            self._ref_k = np.concatenate([self._ref_k, k16], axis=2)
            self._ref_v = np.concatenate([self._ref_v, v16], axis=2)
            _ACTIVE_SCOPE.get().hot.copy_bytes += (
                self._ref_k.nbytes + self._ref_v.nbytes
            )

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        if self._ref_k is None:
            raise ModelError("view() on an empty KV cache")
        keys = self._ref_k.astype(np.float32)
        values = self._ref_v.astype(np.float64)
        _ACTIVE_SCOPE.get().hot.dequant_bytes += 2 * keys.nbytes
        return keys, values

    @property
    def length(self) -> int:
        return 0 if self._ref_k is None else self._ref_k.shape[2]

    def truncate(self, length: int) -> None:
        if not 0 <= length <= self.length:
            raise ModelError(
                f"truncate({length}) outside stored length {self.length}"
            )
        if self._ref_k is not None:
            if length == 0:
                self._ref_k = None
                self._ref_v = None
            else:
                self._ref_k = self._ref_k[:, :, :length]
                self._ref_v = self._ref_v[:, :, :length]


class MultiHeadAttention(Module):
    """Fused-QKV causal attention with activation taps."""

    def __init__(
        self, config: ModelConfig, tap: ActivationTap, rng: np.random.Generator
    ) -> None:
        bias = config.family == "opt"
        self.qkv_proj = Linear(config.d_model, 3 * config.d_model, rng, bias=bias)
        self.out_proj = Linear(config.d_model, config.d_model, rng, bias=bias)
        self.n_heads = config.n_heads
        self.head_dim = config.head_dim
        self.scale = 1.0 / np.sqrt(config.head_dim)
        self.tap = tap
        self.rotary = (
            RotaryTable.build(config.head_dim, config.max_seq_len)
            if config.family == "llama"
            else None
        )

    # -- training / prefill path ----------------------------------------

    def __call__(self, x: Tensor) -> Tensor:
        batch, length, d_model = x.shape
        x = self.tap.apply(TensorKind.QKV, x)
        qkv = self.qkv_proj(x)  # (B, T, 3D)
        qkv = qkv.reshape(batch, length, 3, self.n_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        if self.rotary is not None:
            cos, sin = self.rotary.slice(0, length)
            q = apply_rotary(q, cos, sin)
            k = apply_rotary(k, cos, sin)

        scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
        scores = scores + Tensor(causal_mask(length))
        weights = softmax(scores, axis=-1)
        context = weights @ v  # (B, H, T, hd)
        context = context.transpose(0, 2, 1, 3).reshape(batch, length, d_model)

        context = self.tap.apply(TensorKind.O, context)
        return self.out_proj(context)

    # -- incremental (plain-numpy) path ----------------------------------

    def _project_qkv(self, x: np.ndarray) -> np.ndarray:
        """QKV-tap + fused projection: ``(B, T, D)`` -> ``(3, B, H, T, hd)``."""
        batch, new_len, _ = x.shape
        if self.tap.quantizer is not None:
            x = self.tap.quantizer(TensorKind.QKV, x)
        qkv = row_gemm(x, self.qkv_proj)
        qkv = qkv.reshape(batch, new_len, 3, self.n_heads, self.head_dim)
        return qkv.transpose(2, 0, 3, 1, 4)

    def _attention_core(
        self, q: np.ndarray, keys: np.ndarray, values: np.ndarray, start: int
    ) -> np.ndarray:
        """Masked softmax attention over one request's exact history.

        ``q`` is ``(batch, heads, new, head_dim)``; ``keys``/``values``
        hold ``start + new`` cached positions.  No padding is involved:
        scores span exactly the request's history, which is what makes
        a segment of a packed step token-identical to sequential decode.
        """
        new_len = q.shape[2]
        _ACTIVE_SCOPE.get().attention.dispatches += 1
        scores = (q @ keys.swapaxes(-1, -2)) * self.scale
        mask = history_mask(start, new_len)
        if mask is not None:
            scores = scores + mask
        scores -= scores.max(axis=-1, keepdims=True)
        weights_np = np.exp(scores)
        weights_np /= weights_np.sum(axis=-1, keepdims=True)
        return weights_np @ values

    def _project_out(self, context: np.ndarray) -> np.ndarray:
        """O-tap + output projection for ``(B, T, D)`` attention context."""
        if self.tap.quantizer is not None:
            context = self.tap.quantizer(TensorKind.O, context)
        return row_gemm(context, self.out_proj).astype(np.float32)

    def step(self, x: np.ndarray, cache: KVCache) -> np.ndarray:
        """Process new tokens with cached history (plain numpy).

        Args:
            x: ``(batch, new_tokens, d_model)`` activations.
            cache: layer cache; extended in place.
        """
        batch, new_len, d_model = x.shape
        start = cache.length
        qkv = self._project_qkv(x)
        q, k, v = qkv[0], qkv[1], qkv[2]

        if self.rotary is not None:
            cos, sin = self.rotary.slice(start, start + new_len)
            q = q * cos + _rotate_half_np(q) * sin
            k = k * cos + _rotate_half_np(k) * sin

        keys, values = cache.append(k, v)
        context = self._attention_core(q, keys, values, start)
        context = context.transpose(0, 2, 1, 3).reshape(batch, new_len, d_model)
        return self._project_out(context)

    def step_batch(self, x: np.ndarray, caches: list[KVCache]) -> np.ndarray:
        """One decode token for each of many requests: ``(B, 1, D)``.

        A thin entry into :meth:`step_mixed`: the rows become B
        one-token segments of one flat pass.
        """
        batch, new_len, d_model = x.shape
        if new_len != 1:
            raise ModelError(f"step_batch decodes one token per request, got {new_len}")
        out = self.step_mixed(x.reshape(1, batch, d_model), caches, [1] * batch)
        return out.reshape(batch, 1, d_model)

    def step_mixed(
        self, x: np.ndarray, caches: list[KVCache], lengths: list[int]
    ) -> np.ndarray:
        """Variable-length segments for many requests in one flat pass.

        The serving engine's only forward lane.  Each segment is one
        request's new tokens: a prompt chunk, a whole short prompt, or a
        single decode token.  Segments are flattened along the time axis
        into one ``(1, total, d_model)`` array, so the QKV and output
        projections run as one row GeMM over every token of the step
        (:func:`~repro.llm.layers.row_gemm`).  Rows of that GeMM are
        bitwise independent of which rows share it, so every segment
        equals the same rows of a sequential :meth:`step`.

        The write-side codec runs once per compression key over the
        whole step's K and V (:meth:`_stored_rows`).  Attention then
        runs per segment through :meth:`_attention_core`, against that
        request's exact-length cache.  A segment may start anywhere
        (``cache.length`` positions already cached): rotary phases are
        gathered per flattened position (:meth:`RotaryTable.gather`),
        and the causal mask spans ``cache_len + segment``, so chunk
        queries see the whole cached history plus their own prefix.

        Args:
            x: ``(1, total, d_model)`` activations, segments
                concatenated in request order.
            caches: one :class:`KVCache` per segment for *this* layer,
                each extended in place by its segment's positions.
            lengths: per-segment token counts summing to ``total``.
        """
        batch, total, d_model = x.shape
        if batch != 1:
            raise ModelError(f"mixed steps flatten to batch 1, got {batch}")
        if sum(lengths) != total or min(lengths, default=0) < 1:
            raise ModelError(
                f"segment lengths {lengths} must be positive and sum to {total}"
            )
        if len(caches) != len(lengths):
            raise ModelError(f"got {len(caches)} caches for {len(lengths)} segments")
        starts = [cache.length for cache in caches]
        qkv = self._project_qkv(x)
        q = qkv[0]  # (1, H, total, hd)

        if self.rotary is not None:
            positions = chunk_positions(starts, lengths)
            cos, sin = self.rotary.gather(positions)  # (total, hd)
            q = q * cos + _rotate_half_np(q) * sin
            # Rotate keys in place so K and V stay one stacked view.
            k = qkv[1]
            qkv[1] = k * cos + _rotate_half_np(k) * sin

        stored = self._stored_rows(qkv[1:3], caches, lengths)
        # (1, H, total, hd) scratch reused across the step's layers.
        context: np.ndarray | None = None
        offset = 0
        for cache, start, length, rows in zip(caches, starts, lengths, stored):
            stop = offset + length
            keys, values = cache.append_precompressed(rows[0], rows[1])
            segment = self._attention_core(q[:, :, offset:stop], keys, values, start)
            if context is None:
                context = _context_scratch(
                    (1, self.n_heads, total, self.head_dim), segment.dtype
                )
            context[:, :, offset:stop] = segment
            offset = stop
        context = context.transpose(0, 2, 1, 3).reshape(batch, total, d_model)
        return self._project_out(context)

    @staticmethod
    def _stored_rows(
        kv: np.ndarray, caches: list[KVCache], lengths: list[int]
    ) -> list[np.ndarray]:
        """Per segment, its ``(2, 1, H, len, hd)`` K/V rows in stored form.

        ``kv`` stacks the whole step's keys and values.  The write-side
        codec is row-local, so one :meth:`KVCache.compress` call per
        compression key over every segment using it is bitwise equal to
        compressing each segment alone.  A uniform step (the common
        case) makes exactly one call over ``kv``; fp16 rows are the
        identity and skip the codec.
        """
        offsets = list(itertools.accumulate(lengths, initial=0))
        rows = [
            kv[:, :, :, offsets[index] : offsets[index + 1]]
            for index in range(len(lengths))
        ]
        groups: dict[tuple, list[int]] = {}
        for index, cache in enumerate(caches):
            key = cache.compression_key()
            if key != ("fp16",):
                groups.setdefault(key, []).append(index)
        if not groups:
            return rows
        tracer = _ACTIVE_SCOPE.get().tracer
        span = (
            nullcontext()
            if tracer is None
            else tracer.span("forward.codec", segments=len(lengths))
        )
        with span:
            for members in groups.values():
                packed = kv
                if len(members) < len(lengths):
                    picked = np.zeros(kv.shape[3], dtype=bool)
                    for index in members:
                        picked[offsets[index] : offsets[index + 1]] = True
                    packed = kv[:, :, :, picked]
                compressed = caches[members[0]].compress(packed)
                cursor = 0
                for index in members:
                    rows[index] = compressed[:, :, :, cursor : cursor + lengths[index]]
                    cursor += lengths[index]
        return rows
