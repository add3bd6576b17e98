"""Block-table-backed KV caches: the paged counterpart of ``KVCache``.

A :class:`SequenceKV` is one request's view of the pool: an ordered
block table (shared across layers — a block holds every layer's K/V
for its token positions) plus one :class:`PagedKVCache` per layer that
plugs into the attention ``step`` / ``step_mixed`` paths.
Writes scatter new positions into blocks (allocating or copy-on-write
forking as needed); reads gather the non-contiguous blocks back into
one contiguous history.  Stored bytes are identical to the unpaged
``KVCache`` — float16 rows, compressed per position — so paged decode
is bitwise identical to unpaged decode.

The gather is the decode hot path: every layer of every step reads a
request's whole history.  :meth:`SequenceKV.gather` therefore keeps a
persistent per-layer scratch per sequence (float32 keys, float64
values, the dtypes :class:`~repro.llm.attention.KVCache.view` hands
out) and extends it
incrementally — one vectorized fancy-index gather over the block table
covers exactly the positions appended since the last step, so a decode
step costs O(new tokens), not O(history).  Copy-on-write forks copy
bytes verbatim, so they never invalidate the scratch; a write below
the dequantized watermark (only possible through direct
:meth:`SequenceKV.write` calls, e.g. in tests) rolls the watermark
back.  :meth:`SequenceKV.gather_reference` keeps the original
per-block-loop gather as the parity oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError
from repro.llm.attention import KVCache, active_scope, grow_buffer
from repro.serve.faults.injector import inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pool -> paged)
    from repro.serve.kvpool.pool import KVPool


class PagedKVCache(KVCache):
    """One layer's KV history stored in pool blocks.

    Drop-in for :class:`~repro.llm.attention.KVCache`: ``append`` /
    ``append_precompressed`` write through the sequence's block table
    and return the gathered history, and ``compress`` /
    ``compression_key`` delegate to the pool's codec so the flat
    forward lane can precompress a whole step in one call exactly as it
    does for unpaged caches.
    """

    __slots__ = ("_sequence", "_layer", "_length")

    def __init__(self, sequence: "SequenceKV", layer: int) -> None:
        # Initialize the base storage slots (left empty — rows live in
        # pool blocks) so the inherited keys/values properties keep
        # returning None, as the pre-paged cache did for no history.
        super().__init__()
        self._sequence = sequence
        self._layer = layer
        self._length = sequence.shared_tokens

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        # Attribution caveat: a stacked-group compress call reaches
        # here through one member cache on behalf of the whole group;
        # the owner id is still the right attribution because the
        # engine rolls the entire step back on any mid-forward fault
        # before quarantining/retrying the attributed request.
        inject("codec.encode", self._sequence.owner)
        return self._sequence.codec_for(self._layer).compress(tensor)

    def compression_key(self) -> tuple:
        return self._sequence.codec_for(self._layer).compression_key()

    def _store(self, k16: np.ndarray, v16: np.ndarray) -> None:
        if k16.shape[0] != 1:
            raise ModelError(f"paged caches hold one request, got batch {k16.shape[0]}")
        self._sequence.write(self._layer, self._length, k16, v16)
        self._length += k16.shape[2]

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        return self._sequence.gather(self._layer, self._length)

    @property
    def length(self) -> int:
        return self._length

    def truncate(self, length: int) -> None:
        """Roll this layer back to ``length`` positions (fault rollback).

        Positions beyond ``length`` stay in their blocks but are
        logically dropped; the sequence-level gather watermark is
        clamped so re-appended positions are re-dequantized.  Block
        trimming is the sequence's job (:meth:`SequenceKV.rollback`).
        """
        if not 0 <= length <= self._length:
            raise ModelError(
                f"truncate({length}) outside stored length {self._length}"
            )
        self._length = length
        deq = self._sequence._deq_len
        deq[self._layer] = min(deq[self._layer], length)


class SequenceKV:
    """One request's block table plus its per-layer paged caches.

    Created by :meth:`~repro.serve.kvpool.pool.KVPool.create_sequence`,
    possibly seeded with shared prefix blocks (``shared_tokens`` cached
    positions the request never recomputes).  The table is append-only
    from the writer's point of view; the only in-place mutation is the
    copy-on-write fork that replaces a shared block with a private copy
    the first time this request writes into it.
    """

    __slots__ = (
        "pool",
        "block_table",
        "shared_tokens",
        "caches",
        "codecs",
        "owner",
        "_released",
        "_deq_k",
        "_deq_v",
        "_deq_len",
    )

    def __init__(
        self,
        pool: "KVPool",
        block_table: list[int],
        shared_tokens: int,
        codecs: "list[KVCache] | None" = None,
    ) -> None:
        self.pool = pool
        self.block_table = block_table
        self.shared_tokens = shared_tokens
        #: Per-layer write-side codec overrides for requests whose KV
        #: format differs from the pool's engine-wide default; None
        #: delegates every layer to ``pool.codec``.  A sequence with
        #: overrides stores bytes other sequences cannot interpret, so
        #: the pool refuses to register its blocks for prefix sharing.
        if codecs is not None and len(codecs) != pool.n_layers:
            raise ModelError(
                f"per-layer codecs cover {len(codecs)} layers, pool has "
                f"{pool.n_layers}"
            )
        self.codecs = codecs
        #: Owning request id for fault attribution; set by the engine
        #: when it binds this sequence to a request, None for
        #: free-standing sequences (tests, benchmarks).
        self.owner: int | None = None
        self.caches = [PagedKVCache(self, layer) for layer in range(pool.n_layers)]
        self._released = False
        # Per-layer gather scratch: dequantized history prefix
        # [0, _deq_len[layer]) lives in _deq_k/_deq_v[layer], shaped
        # (heads, capacity, head_dim) and grown by doubling.
        self._deq_k: list[np.ndarray | None] = [None] * pool.n_layers
        self._deq_v: list[np.ndarray | None] = [None] * pool.n_layers
        self._deq_len = [0] * pool.n_layers

    def codec_for(self, layer: int) -> KVCache:
        """The write-side codec governing one layer of this sequence."""
        if self.codecs is not None:
            return self.codecs[layer]
        if self.pool.codecs is not None:
            return self.pool.codecs[layer]
        return self.pool.codec

    @property
    def length(self) -> int:
        """Positions written (layer 0 leads during a forward pass)."""
        return self.caches[0].length

    @property
    def capacity(self) -> int:
        return len(self.block_table) * self.pool.block_size

    def blocks_for_append(self, n_new: int) -> int:
        """Upper bound on fresh blocks appending ``n_new`` positions needs.

        Counts capacity growth plus one block when the first write
        would land in a shared block (the copy-on-write fork allocates
        a private copy while other owners keep the original).
        """
        size = self.pool.block_size
        start, end = self.length, self.length + n_new
        needed = max(0, -(-end // size) - len(self.block_table))
        if start < self.capacity and self.pool.allocator.is_shared(
            self.block_table[start // size]
        ):
            needed += 1
        return needed

    # -- write path -------------------------------------------------------

    def _ensure_writable(self, start: int, end: int) -> None:
        """Grow the table to ``end`` and privatize touched shared blocks."""
        size = self.pool.block_size
        missing = -(-end // size) - len(self.block_table)
        if missing > 0:
            self.block_table.extend(self.pool.take_blocks(missing))
        allocator = self.pool.allocator
        for index in range(start // size, -(-end // size)):
            if allocator.is_shared(self.block_table[index]):
                self._fork(index)

    def _fork(self, index: int) -> None:
        """Copy-on-write: replace a shared block with a private copy."""
        old = self.block_table[index]
        new = self.pool.take_block()
        # A block carries every layer's K/V for its positions, so one
        # fork copies the whole position range across layers.
        self.pool.keys[:, new] = self.pool.keys[:, old]
        self.pool.values[:, new] = self.pool.values[:, old]
        self.pool.allocator.decref(old)
        self.block_table[index] = new
        self.pool.cow_forks += 1

    def write(self, layer: int, start: int, k16: np.ndarray, v16: np.ndarray) -> None:
        """Scatter ``(1, H, T, hd)`` float16 rows into blocks."""
        new_len = k16.shape[2]
        self._ensure_writable(start, start + new_len)
        if start < self._deq_len[layer]:
            # Rewriting already-dequantized positions (direct write()
            # callers only; the engine path is append-only): roll the
            # scratch watermark back so gather re-reads them.
            self._deq_len[layer] = start
        size = self.pool.block_size
        position, offset = start, 0
        while offset < new_len:
            block = self.block_table[position // size]
            row = position % size
            count = min(size - row, new_len - offset)
            self.pool.keys[layer, block, :, row : row + count] = k16[
                0, :, offset : offset + count
            ]
            self.pool.values[layer, block, :, row : row + count] = v16[
                0, :, offset : offset + count
            ]
            position += count
            offset += count

    # -- read path --------------------------------------------------------

    def gather(self, layer: int, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous ``(1, H, length, hd)`` K/V history.

        Keys are float32 and values float64, as
        :meth:`~repro.llm.attention.KVCache.view` returns them.

        Incremental: positions below the layer's dequant watermark are
        served straight from the persistent scratch; the tail is
        fetched with one fancy-index gather over the block table
        (``O(new positions)``, including the table slice converted —
        never the whole table), not a per-block Python loop over the
        whole history.
        """
        if length < 1:
            raise ModelError("gather needs at least one cached position")
        inject("paged.gather", self.owner)
        kept = self._deq_len[layer]
        k = self._deq_k[layer]
        v = self._deq_v[layer]
        if k is None or k.shape[1] < length:
            capacity = max(
                length, self.pool.block_size, 2 * (0 if k is None else k.shape[1])
            )
            shape = (self.pool.keys.shape[2], capacity, self.pool.keys.shape[4])
            k = grow_buffer(k, shape, 1, kept, np.float32)
            v = grow_buffer(v, shape, 1, kept, np.float64)
            self._deq_k[layer] = k
            self._deq_v[layer] = v
        if kept < length:
            size = self.pool.block_size
            positions = np.arange(kept, length)
            first = kept // size
            table = np.asarray(
                self.block_table[first : -(-length // size)], dtype=np.intp
            )
            blocks = table[positions // size - first]
            rows = positions % size
            # (tail, H, hd) fancy gather, dequantized on assignment.
            k[:, kept:length] = self.pool.keys[layer, blocks, :, rows].transpose(
                1, 0, 2
            )
            v[:, kept:length] = self.pool.values[layer, blocks, :, rows].transpose(
                1, 0, 2
            )
            active_scope().hot.dequant_bytes += 2 * k[:, kept:length].nbytes
            self._deq_len[layer] = length
        keys = k[None, :, :length]
        values = v[None, :, :length]
        # Read-only views: these alias the persistent scratch (the old
        # gather returned private copies).
        keys.setflags(write=False)
        values.setflags(write=False)
        return keys, values

    def gather_reference(
        self, layer: int, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pre-optimization gather: per-block loop + concatenate.

        Re-materializes and re-dequantizes the entire history on every
        call — kept as the bitwise oracle for the growth property tests
        and the decode hot-path benchmark.
        """
        size = self.pool.block_size
        k_parts, v_parts = [], []
        remaining = length
        for block in self.block_table:
            if remaining <= 0:
                break
            rows = min(size, remaining)
            k_parts.append(self.pool.keys[layer, block, :, :rows])
            v_parts.append(self.pool.values[layer, block, :, :rows])
            remaining -= rows
        keys = np.concatenate(k_parts, axis=1)[None].astype(np.float32)
        values = np.concatenate(v_parts, axis=1)[None].astype(np.float64)
        scope = active_scope()
        scope.hot.copy_bytes += keys.nbytes
        scope.hot.dequant_bytes += 2 * keys.nbytes
        return keys, values

    # -- teardown ---------------------------------------------------------

    def rollback(self, length: int) -> None:
        """Roll the whole sequence back to ``length`` positions.

        The engine's batch-level fault recovery: every layer cache is
        truncated to ``length`` (layers the aborted forward never
        reached are already there) and blocks past the kept range are
        returned to the pool.  Copy-on-write forks taken during the
        aborted step are kept — a fork copies its block's bytes
        verbatim, so the kept prefix is bitwise intact and replaying
        the dropped positions reproduces the pre-fault bytes exactly.
        """
        if self._released:
            raise ModelError("rollback() on a released sequence")
        if length < self.shared_tokens:
            raise ModelError(
                f"rollback({length}) below the shared prefix "
                f"({self.shared_tokens} tokens)"
            )
        for cache in self.caches:
            if cache.length > length:
                cache.truncate(length)
        size = self.pool.block_size
        keep = -(-length // size)
        for block in self.block_table[keep:]:
            self.pool.allocator.decref(block)
        del self.block_table[keep:]

    def release(self) -> None:
        """Drop this sequence's references (blocks may live on, shared)."""
        if self._released:
            return
        for block in self.block_table:
            self.pool.allocator.decref(block)
        self.block_table = []
        self._released = True
        # Free the gather scratch with the residency it mirrors.
        self._deq_k = [None] * self.pool.n_layers
        self._deq_v = [None] * self.pool.n_layers
        self._deq_len = [0] * self.pool.n_layers
