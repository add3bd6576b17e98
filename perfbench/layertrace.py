"""Outside-in layer tracing: wraps each layer's public functions from here.

Nothing in ``src/`` knows about this module.  :class:`Tracer` replaces
the functions named in :data:`LAYER_SPANS` with timing wrappers for the
duration of a ``with`` block and restores them afterwards.  Each wrapper
keeps a stack of open spans, so a span's *self* time is its duration
minus the time of the spans it encloses; the self times of all spans
therefore add up to the time spent inside root spans, and the driver
loop around them is the explicit residual.

A call into a function whose span is already the innermost open span
(``PagedKVCache.compress`` delegating to its codec's ``compress``) is
not a new span, so calls count each encode once.

Spans are aggregated in memory as they close (calls and self time per
name); single spans are not kept.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

import driver
import repro.serve.engine
from repro.llm.attention import KVCache, MultiHeadAttention
from repro.llm.layers import LayerNorm, RMSNorm
from repro.llm.transformer import CausalLM
from repro.serve import Engine, RequestHandle, RequestStatus, StepOutputs
from repro.serve.kvpool.paged import SequenceKV

#: (owner, attribute, span name): the layer boundaries.  Module-level
#: functions are wrapped in the namespace the engine calls them from.
LAYER_SPANS: list[tuple[Any, str, str]] = [
    (Engine, "step", "engine.step"),
    (repro.serve.engine, "plan_step", "scheduler.plan_step"),
    (CausalLM, "forward_decode_batch", "model.decode"),
    (CausalLM, "forward_mixed_step", "model.mixed"),
    (CausalLM, "forward_step", "model.step"),
    (MultiHeadAttention, "step", "attention"),
    (MultiHeadAttention, "step_batch", "attention"),
    (MultiHeadAttention, "step_mixed", "attention"),
    (SequenceKV, "gather", "kvpool.gather"),
    (SequenceKV, "write", "kvpool.write"),
    (LayerNorm, "__call__", "layers.norm"),
    (RMSNorm, "__call__", "layers.norm"),
    (repro.serve.engine, "select_next_token", "sampling"),
    (repro.serve.engine, "decode_step_traffic", "traffic.model"),
    (repro.serve.engine, "decode_request_kv_bytes", "traffic.model"),
    (repro.serve.engine, "prefill_chunk_traffic", "traffic.model"),
    (repro.serve.engine, "prefill_traffic", "traffic.model"),
    (repro.serve.engine, "prefix_cache_savings", "traffic.model"),
    (driver, "scrape", "metrics.scrape"),
]


def _codec_spans() -> list[tuple[Any, str, str]]:
    """Every class in the KVCache family that defines its own compress."""
    found: list[type] = []
    pending = [KVCache]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return [
        (cls, "compress", "codec.encode") for cls in found if "compress" in vars(cls)
    ]


class Tracer:
    """Self time and calls per span name while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.scrape_s: list[float] = []
        self.decode_rows = 0
        self.decode_kv_positions = 0
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in LAYER_SPANS + _codec_spans():
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        scrapes = self.scrape_s if name == "metrics.scrape" else None
        clock = time.perf_counter
        decode = name == "model.decode"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if decode:
                caches = args[2]
                self.decode_rows += len(caches)
                self.decode_kv_positions += sum(c[0].length + 1 for c in caches)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                if scrapes is not None:
                    scrapes.append(elapsed)

        return wrapper


class LayerObserver:
    """Per-step polls the traced run adds: queue waits, rows, blocks."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.dispatches = 0
        self.padded_reads = 0
        self.queue_wait_s: list[float] = []
        self.blocks_peak = 0
        self.blocks_total = 0
        self._waiting: list[RequestHandle] = []
        self._step_started = 0.0

    def submitted(self, handle: RequestHandle) -> None:
        self._waiting.append(handle)

    def before_step(self) -> None:
        self._step_started = time.perf_counter()

    def after_step(self, engine: Engine, outputs: StepOutputs) -> None:
        report = outputs.report
        self.rows.append(report.prefills + report.decodes)
        self.dispatches += report.attention_dispatches
        self.padded_reads += report.attention_padded_reads
        # A handle seen out of WAITING now was still waiting when this
        # step started: its wait ends at the step's start.
        still = []
        for handle in self._waiting:
            if handle.status() is RequestStatus.WAITING:
                still.append(handle)
            else:
                self.queue_wait_s.append(self._step_started - handle.arrival_time)
        self._waiting = still
        # The pool is not public API; its block counts are read here only.
        pool = engine._pool
        if pool is not None:
            self.blocks_total = pool.num_blocks
            live = pool.allocator.used_blocks - pool.reclaimable_blocks
            self.blocks_peak = max(self.blocks_peak, live)
