"""The continuous-batching inference engine.

One :class:`Engine` owns a model and serves many requests concurrently.
It is the *internal* layer of the serving stack — clients normally talk
to the :class:`repro.serve.llm.LLM` facade — but its surface is fully
usable on its own:

* :meth:`Engine.submit` enqueues a request under a per-request
  :class:`~repro.serve.params.SamplingParams` recipe and returns a
  :class:`~repro.serve.handle.RequestHandle` (admission is the
  scheduler's job, so submissions are cheap and can arrive mid-stream);
* :meth:`Engine.step` runs one scheduler-planned model step — every
  running request decodes its next token, and waiting requests prefill
  *prompt chunks* sized to the budget left after decodes, both inside
  one mixed model invocation
  (:meth:`repro.llm.transformer.CausalLM.forward_mixed_step`) — and
  returns a :class:`~repro.serve.handle.StepOutputs`: the step's
  aggregate report plus one :class:`~repro.serve.handle.TokenDelta` per
  token emitted, so tokens are observable the step they are produced;
* :meth:`Engine.abort` cancels an in-flight request, releasing its
  paged blocks / prefix-cache references through the same rollback path
  preemption uses (a half-done chunked prefill leaks nothing);
* :meth:`Engine.drain` steps until the queue is empty and returns the
  finished requests.

**Chunked prefill** (``EngineConfig.chunked_prefill``, on by default)
is what bounds latency under long-prompt traffic: instead of stalling
the whole decode batch for one monolithic prompt forward, a long
prompt prefills across several steps — each step reserves one token of
budget per running decode and gives the remainder to the prompt as a
chunk.  ``RequestState.prefill_pos`` tracks progress; a half-prefilled
request waits in the queue holding its partial cache until its final
chunk completes and emits its first token.  Chunked output is
token-bitwise-identical to unchunked prefill: row GeMMs are row-local
and attention masks span ``cache_len + chunk``.

Decode rows ride the same flat pass as one-token segments, so every
step — decode-only, chunk-only or mixed — is one model call.  Per-request
KV caches stay at their exact lengths (no cross-request padding): the
big GeMMs run once over every row of the step, attention runs per
request, and logits scatter back to the per-request states.  Every
emitted token is bitwise identical to what a sequential
:func:`repro.llm.generation.generate` call would produce — the parity
tests pin this down for FP16 and Anda-compressed KV caches, chunked and
unchunked.

With ``kv_pool=True`` the engine swaps per-request exact-length caches
for the paged memory subsystem (:mod:`repro.serve.kvpool`): KV lives
in a fixed pool of refcounted blocks, requests sharing a prompt prefix
map the same physical blocks (skipping the shared prefill compute and
KV writes), admission is planned against the free-block budget — for a
chunk, only the chunk's block growth — and under pool pressure the
engine preempts the latest-arrived request, running *or*
half-prefilled (recompute-on-resume), so admission never deadlocks.
Paged decode stores the same float16 bytes the unpaged path stores, so
token parity is preserved bitwise in both KV modes.
"""

from __future__ import annotations

import bisect
import itertools
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import DeadlineExceededError, ModelError, RequestError
from repro.hw.traffic import (
    StepTraffic,
    decode_request_kv_bytes,
    decode_step_traffic,
    prefill_chunk_traffic,
    prefill_traffic,
    prefix_cache_savings,
)
from repro.llm.attention import (
    AttentionDispatchStats,
    KVCache,
    KVHotPathStats,
    stats_scope,
)
from repro.llm.generation import select_next_token
from repro.llm.kv_quant import (
    KVFormat,
    kv_bits_per_element,
    make_cache_factory,
)
from repro.llm.transformer import CausalLM
from repro.serve.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    PressurePolicy,
    RetryPolicy,
    TransientFault,
    inject,
    injection_scope,
    request_scope,
)
from repro.serve.handle import RequestHandle, StepOutputs, TokenDelta
from repro.serve.kvpool.paged import SequenceKV
from repro.serve.kvpool.pool import DEFAULT_BLOCK_SIZE, KVPool
from repro.serve.kvpool.preempt import Preemptor
from repro.serve.metrics import EngineMetrics, StepReport, summarize
from repro.serve.params import SamplingParams
from repro.serve.request import (
    CompletedRequest,
    Request,
    RequestMetrics,
    RequestState,
    RequestStatus,
    complete,
)
from repro.serve.scheduler import (
    PrefillChunk,
    SchedulerPolicy,
    get_policy,
    plan_step,
    validate_admission,
)
from repro.serve.telemetry import EngineTelemetry, TelemetryConfig
from repro.serve.telemetry.export import log_step_summary

#: Process-wide engine numbering for default telemetry labels.
_ENGINE_LABELS = itertools.count()


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Serving knobs of one engine instance.

    Args:
        max_batch_size: concurrent requests resident in KV memory
            (running decodes plus half-prefilled prompts).
        max_batch_tokens: scheduler token budget per step (decodes cost
            1, prefill chunks cost their length).  With chunked prefill
            this is *the* time-to-first-token vs throughput dial: small
            budgets bound every step's work (tight inter-token latency,
            more chunk steps per prompt), large budgets prefill prompts
            in fewer, longer steps.
        policy: admission order — ``"fcfs"``,
            ``"shortest-prompt-first"`` or ``"decode-first"`` (finish
            in-flight chunked prefills before admitting new requests).
        chunked_prefill: admit waiting prompts for budget-sized chunks
            that ride along with the decode batch (mixed steps) instead
            of requiring the whole prompt to fit one step.  Token
            output is bitwise identical either way; chunking only
            changes step composition — and therefore latency.
        kv_format: the engine-wide KV-cache format
            (:class:`repro.llm.kv_quant.KVFormat`): ``KVFormat.fp16()``
            (paper baseline, the default), ``KVFormat.anda(M)``,
            ``KVFormat.bfp(M)``, ``KVFormat.mx(M)``, or a
            ``KVFormat.per_layer([...])`` stack.  Requests may override
            it individually via ``SamplingParams.kv_format``.
        kv_mode: deprecated spelling of the format's mode string; use
            ``kv_format``.  Passing it (or ``kv_mantissa_bits``) emits
            a :class:`DeprecationWarning` and builds the equivalent
            ``kv_format``; both fields remain readable as mirrors of
            the resolved format.
        kv_mantissa_bits: deprecated Anda/BFP/MX mantissa length; use
            ``kv_format``.
        kv_pool: store KV in the paged block pool
            (:mod:`repro.serve.kvpool`) instead of per-request
            exact-length caches.
        kv_pool_blocks: physical blocks in the pool (kv_pool mode).
        kv_block_size: token positions per block; defaults to 64, the
            Anda group size (any size stays bitwise exact — grouping is
            per position along the head dimension).
        prefix_caching: share prompt-prefix blocks across requests
            (kv_pool mode).
        telemetry: optional instruments
            (:class:`~repro.serve.telemetry.TelemetryConfig`) — phase
            span tracing for Chrome-trace export and per-step summary
            logging.  The per-engine counter registry exists regardless
            of this config; only the tracer and log lines are optional.
        faults: optional seeded
            :class:`~repro.serve.faults.FaultPlan` evaluated at the
            named injection points threaded through the stack
            (chaos testing).  None (the default) makes every probe a
            no-op.
        retry: bounded-backoff
            :class:`~repro.serve.faults.RetryPolicy` applied to
            transient faults — retried requests replay through the
            bitwise recompute-on-resume path.
        pressure: :class:`~repro.serve.faults.PressurePolicy` for
            graceful degradation under KV-pool exhaustion (load
            shedding / KV-format downgrade at admission); inert by
            default and outside kv_pool mode.
    """

    max_batch_size: int = 8
    max_batch_tokens: int = 256
    policy: str = "fcfs"
    chunked_prefill: bool = True
    kv_mode: str | None = None
    kv_mantissa_bits: int | None = None
    kv_pool: bool = False
    kv_pool_blocks: int = 64
    kv_block_size: int = DEFAULT_BLOCK_SIZE
    prefix_caching: bool = True
    telemetry: TelemetryConfig = TelemetryConfig()
    kv_format: KVFormat | None = None
    faults: FaultPlan | None = None
    retry: RetryPolicy = RetryPolicy()
    pressure: PressurePolicy = PressurePolicy()

    def __post_init__(self) -> None:
        # A bad config must fail at construction, never mid-step with
        # requests already accepted.
        if self.max_batch_size < 1:
            raise ModelError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_batch_tokens < 1:
            raise ModelError(
                f"max_batch_tokens must be >= 1, got {self.max_batch_tokens}"
            )
        if self.kv_pool_blocks < 2:
            # One block of CoW slack is always reserved, so a 1-block
            # pool could not hold even a 1-token request.
            raise ModelError(f"kv_pool_blocks must be >= 2, got {self.kv_pool_blocks}")
        if self.kv_block_size < 1:
            raise ModelError(f"kv_block_size must be >= 1, got {self.kv_block_size}")
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ModelError(
                "faults must be a repro.serve.faults.FaultPlan or None, "
                f"got {type(self.faults).__name__}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ModelError(
                "retry must be a repro.serve.faults.RetryPolicy, "
                f"got {type(self.retry).__name__}"
            )
        if not isinstance(self.pressure, PressurePolicy):
            raise ModelError(
                "pressure must be a repro.serve.faults.PressurePolicy, "
                f"got {type(self.pressure).__name__}"
            )
        # kv_format is canonical; the legacy kv_mode/kv_mantissa_bits
        # kwargs are deprecation shims that build the equivalent format
        # (same pattern as the serve_batch shim).  After resolution both
        # scalar fields hold read mirrors of the format, so pre-redesign
        # readers of config.kv_mode keep seeing the same values.
        if self.kv_mode is not None or self.kv_mantissa_bits is not None:
            warnings.warn(
                "EngineConfig.kv_mode / kv_mantissa_bits are deprecated; "
                "pass EngineConfig(kv_format=KVFormat.anda(8)) (or "
                ".fp16()/.bfp()/.mx()/.per_layer()) instead",
                DeprecationWarning,
                stacklevel=3,
            )
            if self.kv_format is not None:
                raise ModelError(
                    "kv_format conflicts with the legacy kv_mode/"
                    "kv_mantissa_bits kwargs; pass only kv_format"
                )
            resolved = KVFormat(
                mode=self.kv_mode if self.kv_mode is not None else "fp16",
                mantissa_bits=(
                    self.kv_mantissa_bits
                    if self.kv_mantissa_bits is not None
                    else 8
                ),
            )
            object.__setattr__(self, "kv_format", resolved)
        elif self.kv_format is None:
            object.__setattr__(self, "kv_format", KVFormat.fp16())
        elif not isinstance(self.kv_format, KVFormat):
            raise ModelError(
                "kv_format must be a repro.llm.kv_quant.KVFormat, got "
                f"{type(self.kv_format).__name__}"
            )
        object.__setattr__(self, "kv_mode", self.kv_format.mode)
        object.__setattr__(self, "kv_mantissa_bits", self.kv_format.mantissa_bits)
        kv_bits_per_element(self.kv_format)

    @property
    def kv_bits(self) -> float:
        """Stored bits per cached K/V element under this config.

        For a per-layer format this is the mean across layers — the
        width the analytic traffic model charges per element.
        """
        return kv_bits_per_element(self.kv_format)


def _common_prefix(first: np.ndarray, second: np.ndarray) -> int:
    """Length of the shared leading run of two token arrays."""
    limit = min(first.shape[0], second.shape[0])
    mismatch = np.nonzero(first[:limit] != second[:limit])[0]
    return int(mismatch[0]) if mismatch.size else limit


@dataclass(slots=True)
class _ChunkRun:
    """One prompt chunk scheduled for execution in this step.

    ``tokens`` is the positions actually executed (the scheduler's
    grant, shrunk by any prefix-cache hit); ``prefix_hit`` the cached
    positions a fresh paged request mapped instead of computing.
    """

    state: RequestState
    tokens: int
    prefix_hit: int = 0


class Engine:
    """Continuous-batching serving engine over one :class:`CausalLM`."""

    def __init__(self, model: CausalLM, config: EngineConfig | None = None) -> None:
        self.model = model
        self.config = config or EngineConfig()
        self._policy: SchedulerPolicy = get_policy(self.config.policy)
        fmt = self.config.kv_format
        self._cache_factory = make_cache_factory(model, fmt)
        self._n_layers = model.config.n_layers
        self._default_signature = fmt.signature(self._n_layers)
        self._pool: KVPool | None = None
        self._preemptor = Preemptor()
        if self.config.kv_pool:
            self._pool = KVPool(
                model.config,
                num_blocks=self.config.kv_pool_blocks,
                block_size=self.config.kv_block_size,
                codec=fmt.codec() if fmt.uniform else None,
                codecs=None if fmt.uniform else fmt.codecs(self._n_layers),
                enable_prefix_cache=self.config.prefix_caching,
            )
        # Per-engine hot-path stats: installed around every step via
        # stats_scope, so two engines in one process (or one per
        # thread) never bleed kv_copy_bytes / attention_dispatches into
        # each other through the module globals.  The globals remain
        # the default sink for direct model calls outside any engine.
        self._hot_stats = KVHotPathStats()
        self._attn_stats = AttentionDispatchStats()
        self.telemetry = EngineTelemetry(
            self.config.telemetry, f"engine{next(_ENGINE_LABELS)}", self.metrics
        )
        self._tracer = self.telemetry.tracer
        self._ids = itertools.count()
        self._waiting: list[RequestState] = []
        self._running: list[RequestState] = []
        self._finished: dict[int, CompletedRequest] = {}
        self._handles: dict[int, RequestHandle] = {}
        self._request_records: list[RequestMetrics] = []
        self._reports: list[StepReport] = []
        self._step_deltas: list[TokenDelta] = []
        self._step_index = 0
        self._aborted = 0
        # Failure-semantics state: the seeded injector (None without a
        # plan) and the engine-level failure counters summarize() folds
        # in alongside `aborted`.
        self._injector: FaultInjector | None = (
            FaultInjector(self.config.faults)
            if self.config.faults is not None
            else None
        )
        self._failed = 0
        self._fault_retries = 0
        self._deadline_expired = 0
        self._shed = 0
        self._degraded = 0
        # Reusable (capacity, 1) decode-token scratch; grown by
        # doubling, filled in place each step instead of building a
        # fresh (batch, 1) array per step.
        self._decode_token_buf: np.ndarray | None = None

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The engine's seeded injector (None without a fault plan)."""
        return self._injector

    # -- admission --------------------------------------------------------

    def submit(
        self,
        prompt_tokens: np.ndarray,
        params: "SamplingParams | int | None" = None,
        *,
        max_new_tokens: int | None = None,
        temperature: float | None = None,
        top_k: int | None = None,
        seed: int | None = None,
    ) -> RequestHandle:
        """Enqueue one request; returns its :class:`RequestHandle`.

        The decoding recipe is a per-request
        :class:`~repro.serve.params.SamplingParams`.  For migration, a
        bare int in the ``params`` position (the pre-redesign
        ``max_new_tokens`` argument) or the legacy scalar kwargs build
        a default recipe; combining a full ``params`` with any scalar
        kwarg is a contradiction and raises (nothing is silently
        dropped).

        Validation happens *here*, with ``errors``-module exceptions —
        empty prompts, non-positive ``max_new_tokens``, out-of-vocab
        ids and pool-overflowing requests are rejected before they can
        fail deep in a scheduler step (mirroring what
        :func:`repro.llm.generation.generate` would accept).
        """
        if params is not None and not isinstance(params, SamplingParams):
            if not isinstance(params, (int, np.integer)):
                raise RequestError(
                    "params must be a SamplingParams (or a legacy "
                    f"max_new_tokens int), got {type(params).__name__}"
                )
            if max_new_tokens is not None:
                raise RequestError(
                    "pass max_new_tokens positionally or by keyword, not both"
                )
            max_new_tokens = int(params)
            params = None
        if isinstance(params, SamplingParams):
            conflicts = {
                "max_new_tokens": max_new_tokens,
                "temperature": temperature,
                "top_k": top_k,
                "seed": seed,
            }
            given = sorted(k for k, v in conflicts.items() if v is not None)
            if given:
                raise RequestError(
                    f"scalar kwargs {given} conflict with the explicit "
                    "SamplingParams; put them in the params instead"
                )
        else:
            if max_new_tokens is None:
                raise RequestError(
                    "submit needs a SamplingParams (or max_new_tokens)"
                )
            params = SamplingParams(
                max_new_tokens=max_new_tokens,
                temperature=0.0 if temperature is None else temperature,
                top_k=20 if top_k is None else top_k,
                seed=0 if seed is None else seed,
            )
        prompt = np.asarray(prompt_tokens).reshape(-1)
        validate_admission(prompt, params, self.model.config, pool=self._pool)
        # Resolve the request's KV format once at admission: an explicit
        # per-request override, else the engine default.  A request is
        # "private" when its resolved byte layout differs from the
        # default — it then opts out of prefix sharing entirely.
        fmt = params.kv_format if params.kv_format is not None else self.config.kv_format
        # Graceful degradation under KV pressure: headroom below the
        # shed threshold refuses the admission outright (a FAILED
        # handle, not an exception — the caller still observes it);
        # below the degrade threshold, a request without an explicit
        # format override is admitted at the policy's lower-bit format
        # instead (prefix-signature privacy keeps it out of shared
        # prefixes automatically when the layouts differ).
        shed = False
        degraded = False
        pressure = self.config.pressure
        if self._pool is not None and pressure.active:
            headroom = (
                self._pool.free_blocks + self._pool.reclaimable_blocks
            ) / self._pool.num_blocks
            if headroom < pressure.shed_below_free_fraction:
                shed = True
            elif (
                params.kv_format is None
                and pressure.degrade_below_free_fraction > 0.0
                and headroom < pressure.degrade_below_free_fraction
            ):
                assert pressure.degraded_format is not None  # validated
                fmt = pressure.degraded_format
                degraded = True
        kv_private = (
            (params.kv_format is not None or degraded)
            and fmt.signature(self._n_layers) != self._default_signature
        )
        request = Request(
            request_id=next(self._ids),
            prompt=prompt,
            params=params,
        )
        arrival = time.perf_counter()
        state = RequestState(
            request=request,
            arrival_step=self._step_index,
            arrival_time=arrival,
            kv_format=fmt,
            kv_bits=fmt.bits_per_element(self._n_layers),
            kv_private=kv_private,
            deadline=(
                None if params.deadline_s is None else arrival + params.deadline_s
            ),
        )
        self._waiting.append(state)
        handle = RequestHandle(self, state)
        self._handles[request.request_id] = handle
        if self._tracer is not None:
            self._tracer.lifecycle(
                request.request_id, "QUEUED", prompt_tokens=int(prompt.shape[0])
            )
        if degraded:
            self._degraded += 1
            if self._tracer is not None:
                self._tracer.lifecycle(
                    request.request_id, "DEGRADED", format=fmt.label
                )
        if shed:
            self._waiting.remove(state)
            self._release_residency(state)
            self._shed += 1
            self._fail_terminal(state, None, reason="shed")
            return handle
        if self._injector is not None:
            # The admission injection site: a transient fault re-queues
            # the request with backoff, a permanent one fails it at the
            # gate.  Either way the handle is returned to the caller.
            try:
                self._injector.begin_step(self._step_index)
                self._injector.probe("admission", request.request_id)
            except InjectedFault as fault:
                self._handle_request_fault(state, fault)
        return handle

    # -- cancellation ------------------------------------------------------

    def abort(self, request_id: int) -> bool:
        """Cancel an in-flight request; returns True if it was active.

        The request's KV residency — paged blocks, prefix-cache
        references, a half-done chunked prefill's partial cache — is
        released through the same rollback path preemption uses, so
        allocator refcounts stay balanced whatever state the request
        was aborted in.  Its partial tokens stay readable on the
        handle; it never produces a :class:`CompletedRequest`.
        Aborting a finished or unknown id is a no-op returning False.
        """
        state = next(
            (
                candidate
                for candidate in itertools.chain(self._running, self._waiting)
                if candidate.request.request_id == request_id
            ),
            None,
        )
        if state is None:
            return False
        if state in self._running:
            self._running.remove(state)
        else:
            self._waiting.remove(state)
        self._release_residency(state)
        state.status = RequestStatus.ABORTED
        state.finish_reason = "abort"
        state.finish_step = self._step_index
        state.finish_time = time.perf_counter()
        self._aborted += 1
        self._handles.pop(request_id, None)
        if self._tracer is not None:
            self._tracer.lifecycle(
                request_id, "ABORTED", tokens=len(state.generated)
            )
        return True

    # -- stepping ---------------------------------------------------------

    def has_work(self) -> bool:
        return bool(self._waiting or self._running)

    def step(self) -> StepOutputs:
        """Run one scheduler-planned mixed step (decodes + prompt chunks).

        Fresh prompt chunks and the decode batch execute in one
        :meth:`~repro.llm.transformer.CausalLM.forward_mixed_step`
        invocation; a chunk that completes its prompt emits the
        request's first token (that is the moment TTFT is recorded),
        an incomplete chunk leaves the request half-prefilled in the
        waiting queue.  Resumed (previously preempted, mid-decode)
        requests replay their whole call pattern in one legacy
        admission so the rebuilt cache stays bitwise.  In kv_pool mode
        the step first reserves its block growth — preempting the
        latest-arrived request, running or half-prefilled, when the
        pool cannot cover it — and fresh prefills go through the
        prefix cache.

        Returns a :class:`~repro.serve.handle.StepOutputs`: the step's
        aggregate :class:`StepReport` plus one
        :class:`~repro.serve.handle.TokenDelta` per token emitted this
        step (also fed to the emitting requests'
        :class:`RequestHandle` buffers), so streaming consumers observe
        tokens — and measure TTFT — the step they are produced.
        """
        # Route every hot-path counter (and span) this step produces
        # into the engine's own stats; the module globals only ever see
        # direct model calls made outside an engine.
        with stats_scope(self._hot_stats, self._attn_stats, self._tracer):
            if self._injector is None:
                return self._step_scoped()
            self._injector.begin_step(self._step_index)
            with injection_scope(self._injector):
                return self._step_scoped()

    def _step_scoped(self) -> StepOutputs:
        started = time.perf_counter()  # include scheduling in step cost
        tracer = self._tracer
        if tracer is not None:
            # The root span reuses the exact perf_counter readings that
            # define StepReport.elapsed_seconds, so its duration and
            # the report agree to the clock tick.
            tracer.begin("step", ts=tracer.to_us(started), step=self._step_index)
        self._step_deltas = []
        copy_before, dequant_before = self._hot_stats.snapshot()
        dispatches_before = self._attn_stats.dispatches
        # Deadlines are enforced at step boundaries: sweep before
        # planning so an expired request never costs another forward.
        self._expire_deadlines(started)
        if tracer is not None:
            tracer.begin(
                "step.schedule",
                waiting=len(self._waiting),
                running=len(self._running),
            )
        # Requests backing off after a transient fault keep their queue
        # slot but are hidden from the planner until their retry step
        # (they hold no residency, so inflight accounting is unchanged).
        eligible = [
            state
            for state in self._waiting
            if state.retry_at_step <= self._step_index
        ]
        plan = plan_step(
            eligible,
            self._running,
            self._policy,
            self.config.max_batch_size,
            self.config.max_batch_tokens,
            blocks=(None if self._pool is None else self._pool.planner(self._running)),
            chunking=self.config.chunked_prefill,
        )
        if tracer is not None:
            tracer.end("step.schedule")
        traffic = StepTraffic()
        new_tokens = 0
        preemptions = 0
        prefill_done = 0
        partial = 0
        prefix_hit_tokens = 0
        saved = StepTraffic()
        evicted_before = 0 if self._pool is None else self._pool.evicted_blocks
        # Per-format attribution of the step's KV bytes.
        fmt_bytes: dict[str, float] = {}

        def charge_format(state: RequestState, nbytes: float) -> None:
            if nbytes <= 0.0:
                return
            label = state.kv_format.label if state.kv_format is not None else "fp16"
            fmt_bytes[label] = fmt_bytes.get(label, 0.0) + nbytes

        chunked: list[PrefillChunk] = []
        legacy: list[PrefillChunk] = []
        for chunk in plan.prefills:
            if self.config.chunked_prefill and not chunk.state.generated:
                chunked.append(chunk)
            else:
                legacy.append(chunk)

        decodes = list(plan.decodes)
        # Decodes ride the first wave; a decode-only step is one wave
        # with no chunks.
        waves = self._plan_waves(chunked) or ([[]] if decodes else [])
        executed_chunks = 0
        first_wave = True
        # Set when an injected fault aborts the forward: the rest of
        # the step (later waves, legacy prefills) is skipped; every
        # participant was rolled back to its pre-step KV state, so the
        # next step replays it bitwise.
        faulted = False
        # The weight stream is charged once per *step*: the step is the
        # fusion quantum of the analytic traffic model, so the decode
        # rows' charge covers every chunk riding along, and an
        # all-prefill step pays it exactly once however its waves fall.
        weights_charged = False
        for wave in waves:
            runs = self._begin_chunks(wave)
            if self._pool is not None:
                step_decodes = decodes if first_wave else []
                step_decodes, runs, evicted = self._reserve_step_blocks(
                    step_decodes, runs
                )
                if first_wave:
                    decodes = step_decodes
                preemptions += evicted
            wave_decodes = decodes if first_wave else []
            if not runs and not wave_decodes:
                first_wave = False
                continue
            decode_contexts = [state.context_length for state in wave_decodes]
            try:
                for state in wave_decodes:
                    inject("model.decode", state.request.request_id)
                chunk_logits, decode_logits = self.model.forward_mixed_step(
                    [
                        run.state.request.prompt[
                            run.state.prefill_pos : run.state.prefill_pos + run.tokens
                        ]
                        for run in runs
                    ],
                    [run.state.caches for run in runs],
                    decode_tokens=(
                        self._decode_tokens(wave_decodes) if wave_decodes else None
                    ),
                    decode_caches=[state.caches for state in wave_decodes],
                )
            except InjectedFault as fault:
                # Injected faults have precise rollback semantics: every
                # participant's KV returns to its pre-step watermark, an
                # attributed victim is quarantined or retried, and the
                # step is abandoned (the survivors replay bitwise next
                # step).  The engine stays serviceable.
                self._recover_step_fault(fault, runs, wave_decodes, decode_contexts)
                decodes = []
                faulted = True
                break
            except Exception:
                # Blanket-with-reraise, deliberately: an *unknown*
                # failure class mid-forward may have corrupted shared
                # engine state, so the engine must not absorb it — but
                # it still rolls back what it provably can before
                # propagating.  Decode caches go back to their pre-step
                # watermarks, and releasing the chunk participants'
                # partial caches puts them back to a clean un-prefilled
                # waiting state (no pool blocks leak).  Earlier waves
                # already committed consistent states (completed or
                # half-prefilled).
                for state, length in zip(wave_decodes, decode_contexts):
                    self._truncate_caches(state, length)
                for run in runs:
                    self._rollback_chunk(run.state)
                raise
            first_wave = False
            executed_chunks += len(runs)

            if wave_decodes:
                traffic = traffic + decode_step_traffic(
                    self.model.config,
                    decode_contexts,
                    kv_bits_per_element=[state.kv_bits for state in wave_decodes],
                    batched=True,
                )
                weights_charged = True
                for index, state in enumerate(wave_decodes):
                    charge_format(
                        state,
                        decode_request_kv_bytes(
                            self.model.config, decode_contexts[index], state.kv_bits
                        ),
                    )
                    self._emit(state, decode_logits[index, -1, :])
                    new_tokens += 1

            for run, logits in zip(runs, chunk_logits):
                state = run.state
                chunk_traffic = prefill_chunk_traffic(
                    self.model.config,
                    run.tokens,
                    cached_context_tokens=state.prefill_pos,
                    kv_bits_per_element=state.kv_bits,
                    include_weights=not weights_charged,
                )
                traffic = traffic + chunk_traffic
                charge_format(
                    state,
                    chunk_traffic.kv_read_bytes + chunk_traffic.kv_write_bytes,
                )
                weights_charged = True
                state.prefill_pos += run.tokens
                prefill_done += run.tokens
                if run.prefix_hit:
                    prefix_hit_tokens += run.prefix_hit
                    saved = saved + prefix_cache_savings(
                        self.model.config,
                        run.prefix_hit,
                        kv_bits_per_element=state.kv_bits,
                    )
                if state.prefill_pos >= state.request.prompt_length:
                    self._waiting.remove(state)
                    state.status = RequestStatus.RUNNING
                    if self._tracer is not None:
                        self._tracer.lifecycle(
                            state.request.request_id, "RUNNING"
                        )
                    if self._pool is not None:
                        self._pool.register_prefix(state.kv, state.request.prompt)
                    self._running.append(state)
                    self._emit(state, logits[-1, :], first=True)
                    new_tokens += 1
                else:
                    if (
                        self._tracer is not None
                        and state.status is not RequestStatus.PREFILLING
                    ):
                        self._tracer.lifecycle(
                            state.request.request_id,
                            "PREFILLING",
                            prefill_pos=state.prefill_pos,
                        )
                    state.status = RequestStatus.PREFILLING
                    partial += 1

        if faulted:
            # A batch-level rollback already abandoned this step; the
            # legacy prefills stay queued and run next step.
            legacy = []
        if legacy and tracer is not None:
            tracer.begin("step.prefill", requests=len(legacy))
        for chunk in legacy:
            state = chunk.state
            request_id = state.request.request_id
            try:
                # The legacy lane is per-request, so faults here are
                # always attributable; the ambient scope additionally
                # attributes pool/codec/gather probes fired inside.
                with request_scope(request_id):
                    inject("model.prefill", request_id)
                    if self._pool is None:
                        # Run the fallible work (cache build, model
                        # prefill) before dequeuing: if either raises,
                        # the request stays queued instead of vanishing.
                        # A resumed request (re-queued mid-decode by a
                        # transient-fault backoff) replays its exact
                        # original call pattern — prompt prefill, then
                        # one single-token step per already-emitted
                        # token — so the rebuilt cache is bitwise and
                        # it emits nothing until it rejoins decode.
                        resumed = bool(state.generated)
                        state.caches = self._caches_for(state)
                        logits = self.model.forward_step(
                            state.request.prompt.reshape(1, -1), state.caches
                        )
                        request_traffic = prefill_traffic(
                            self.model.config,
                            state.request.prompt_length,
                            kv_bits_per_element=state.kv_bits,
                        )
                        for token in state.generated[:-1]:
                            context = state.context_length
                            self.model.forward_step(
                                np.array([[token]]), state.caches
                            )
                            request_traffic = request_traffic + decode_step_traffic(
                                self.model.config,
                                [context],
                                kv_bits_per_element=state.kv_bits,
                            )
                        self._waiting.remove(state)
                        state.status = RequestStatus.RUNNING
                        if tracer is not None:
                            tracer.lifecycle(request_id, "RUNNING", resumed=resumed)
                        state.prefill_pos = state.request.prompt_length
                        traffic = traffic + request_traffic
                        charge_format(
                            state,
                            request_traffic.kv_read_bytes
                            + request_traffic.kv_write_bytes,
                        )
                        prefill_done += state.request.prompt_length
                        self._running.append(state)
                        if not resumed:
                            self._emit(state, logits[0, -1, :], first=True)
                            new_tokens += 1
                    else:
                        cost = state.prefill_tokens
                        hit, prefill_cost, emitted = self._prefill_paged(state)
                        traffic = traffic + prefill_cost
                        charge_format(
                            state,
                            prefill_cost.kv_read_bytes
                            + prefill_cost.kv_write_bytes,
                        )
                        new_tokens += emitted
                        prefix_hit_tokens += hit
                        prefill_done += cost - hit
                        if hit:
                            saved = saved + prefix_cache_savings(
                                self.model.config,
                                hit,
                                kv_bits_per_element=state.kv_bits,
                            )
            except InjectedFault as fault:
                # Per-request isolation: the inner rollback paths have
                # already released this request's partial residency
                # (release is idempotent); quarantine or back off just
                # this request and keep serving the rest of the lane.
                self._release_residency(state)
                self._handle_request_fault(state, fault)
        if legacy and tracer is not None:
            tracer.end("step.prefill")

        ended = time.perf_counter()
        report = StepReport(
            step=self._step_index,
            prefills=executed_chunks + len(legacy),
            decodes=len(decodes),
            new_tokens=new_tokens,
            batch_tokens=len(decodes) + sum(chunk.tokens for chunk in plan.prefills),
            prefill_tokens=prefill_done,
            partial_prefills=partial,
            elapsed_seconds=ended - started,
            traffic=traffic,
            preemptions=preemptions,
            evicted_blocks=(
                0
                if self._pool is None
                else self._pool.evicted_blocks - evicted_before
            ),
            prefix_hit_tokens=prefix_hit_tokens,
            prefix_saved_bytes=saved.total_bytes,
            kv_copy_bytes=self._hot_stats.copy_bytes - copy_before,
            kv_dequant_bytes=self._hot_stats.dequant_bytes - dequant_before,
            attention_dispatches=self._attn_stats.dispatches - dispatches_before,
            kv_format_bytes=tuple(sorted(fmt_bytes.items())),
        )
        self._reports.append(report)
        self._step_index += 1
        if tracer is not None:
            tracer.end("step", ts=tracer.to_us(ended))
        telemetry_config = self.config.telemetry
        if telemetry_config.log_steps and (
            report.step % telemetry_config.log_every == 0
        ):
            log_step_summary(self.telemetry.engine_label, report)
        return StepOutputs(report=report, deltas=tuple(self._step_deltas))

    def _decode_tokens(self, states: list[RequestState]) -> np.ndarray:
        """Gather the decode batch's next-token ids into reused scratch.

        The model's embedding lookup copies out of the array, so the
        engine-held buffer can be refilled in place next step.
        """
        batch = len(states)
        buf = self._decode_token_buf
        if buf is None or buf.shape[0] < batch:
            capacity = max(batch, self.config.max_batch_size)
            buf = np.empty((capacity, 1), dtype=np.int64)
            self._decode_token_buf = buf
        for index, state in enumerate(states):
            buf[index, 0] = state.last_token
        return buf[:batch]

    # -- per-request KV formats -------------------------------------------

    def _caches_for(self, state: RequestState) -> list[KVCache]:
        """Unpaged per-layer caches honoring the request's KV format.

        Non-private requests (no override, or an override whose byte
        layout matches the engine default) share the engine's memoized
        factory; private requests build their own codec stack.
        """
        if not state.kv_private:
            return self._cache_factory()
        assert state.kv_format is not None  # kv_private implies an override
        return state.kv_format.codecs(self._n_layers)

    def _sequence_for(
        self, state: RequestState, reserve_logits: bool = True
    ) -> "SequenceKV":
        """Paged sequence for one request, honoring its KV format.

        A private request carries per-layer codec overrides and opts
        out of prefix sharing — cached blocks hold default-format
        bytes it can neither read nor contribute to.
        """
        assert self._pool is not None
        codecs = None
        if state.kv_private:
            assert state.kv_format is not None  # kv_private implies an override
            codecs = state.kv_format.codecs(self._n_layers)
        return self._pool.create_sequence(
            state.request.prompt,
            reserve_logits=reserve_logits,
            codecs=codecs,
            shareable=not state.kv_private,
        )

    # -- chunked prefill --------------------------------------------------

    def _plan_waves(self, chunks: list[PrefillChunk]) -> list[list[PrefillChunk]]:
        """Partition one step's chunks into prefix-ordered waves.

        The chunk lane fuses every chunk into one flat pass, but a
        fresh request can only map a prefix-cache hit *after* the
        donor's blocks are registered — which happens when the donor's
        prompt completes.  So a chunk whose prompt shares at least one
        whole block with an earlier same-step chunk that completes is
        deferred to a later wave: the earlier prompt registers first,
        and the deferred request maps its blocks instead of recomputing
        them (exactly what the sequential admission order used to
        give).  Requests with distinct prompts all land in wave one.
        """
        if (
            self._pool is None
            or self._pool.prefix_cache is None
            or len(chunks) <= 1
        ):
            return [chunks] if chunks else []
        block = self._pool.block_size
        waves: list[list[PrefillChunk]] = []
        committed: list[PrefillChunk] = []
        remaining = list(chunks)
        while remaining:
            wave: list[PrefillChunk] = []
            deferred: list[PrefillChunk] = []
            for chunk in remaining:
                if chunk.state.caches is not None:
                    # A continuation already holds its cache; its hit
                    # opportunity has passed.
                    wave.append(chunk)
                    continue
                prompt = chunk.request.prompt

                def blocks_from(
                    donors: list[PrefillChunk], prompt: np.ndarray = prompt
                ) -> int:
                    # `prompt` bound as a default: the closure is only
                    # called within this iteration, but binding keeps
                    # the capture explicit (and loop-safe).
                    return max(
                        (
                            _common_prefix(prompt, donor.request.prompt) // block
                            for donor in donors
                            if donor.completes
                        ),
                        default=0,
                    )

                # Defer only when waiting strictly improves on what the
                # pool (or an earlier wave) already offers this prompt.
                have = max(
                    self._pool.peek_shared(prompt) // block,
                    blocks_from(committed),
                )
                if blocks_from(wave) > have:
                    deferred.append(chunk)
                else:
                    wave.append(chunk)
            waves.append(wave)
            committed.extend(wave)
            remaining = deferred
        return waves

    def _begin_chunks(self, chunks: list[PrefillChunk]) -> list[_ChunkRun]:
        """Materialize caches for this step's chunks (fallible setup).

        A fresh request gets its cache here — through the prefix cache
        in pool mode, which may shrink the executed chunk (cached
        positions are mapped, not computed).  Setup runs per chunk
        inside that request's fault-attribution scope: an injected
        fault drops only the faulted chunk (quarantine or backoff) and
        the rest of the wave proceeds.  If setup raises anything
        *else*, every chunk already set up is rolled back and the error
        propagates (blanket-with-reraise: an unknown failure class must
        not be absorbed) so no request loses pool blocks or its queue
        slot.
        """
        runs: list[_ChunkRun] = []
        for chunk in chunks:
            state = chunk.state
            request_id = state.request.request_id
            try:
                with request_scope(request_id):
                    hit = 0
                    if state.caches is None:
                        if self._pool is not None:
                            seq = self._sequence_for(state)
                            seq.owner = request_id
                            state.kv = seq
                            state.caches = seq.caches
                            state.prefill_pos = seq.shared_tokens
                            hit = seq.shared_tokens
                        else:
                            state.caches = self._caches_for(state)
                    inject("model.chunk", request_id)
            except InjectedFault as fault:
                self._release_residency(state)
                self._handle_request_fault(state, fault)
                continue
            except Exception:
                for run in runs:
                    self._rollback_chunk(run.state)
                self._release_residency(state)
                raise
            tokens = min(
                chunk.tokens,
                state.request.prompt_length - state.prefill_pos,
            )
            runs.append(_ChunkRun(state=state, tokens=tokens, prefix_hit=hit))
        return runs

    def _release_residency(self, state: RequestState) -> None:
        """Give a request's KV memory back (shared rollback primitive).

        The one place residency is torn down — chunk-failure rollback,
        preemption of running or half-prefilled requests, and client
        aborts all release through here, so every path returns paged
        blocks (and the references taken on shared prefix blocks) to
        the pool identically.
        """
        if state.kv is not None:
            state.kv.release()
            state.kv = None
        state.caches = None
        state.prefill_pos = 0

    def _rollback_chunk(self, state: RequestState) -> None:
        """Undo a chunk participant: release its cache, stay queued."""
        self._release_residency(state)
        state.status = RequestStatus.WAITING

    # -- failure semantics ------------------------------------------------

    def _expire_deadlines(self, now: float) -> None:
        """Fail every queued/running request past its deadline."""
        expired = [
            state
            for state in itertools.chain(self._waiting, self._running)
            if state.deadline is not None and now >= state.deadline
        ]
        for state in expired:
            if state in self._running:
                self._running.remove(state)
            else:
                self._waiting.remove(state)
            self._release_residency(state)
            self._deadline_expired += 1
            self._fail_terminal(
                state,
                DeadlineExceededError(
                    f"request {state.request.request_id} exceeded "
                    f"deadline_s={state.request.params.deadline_s} after "
                    f"{len(state.generated)} tokens"
                ),
                reason="deadline",
            )

    def _handle_request_fault(
        self, state: RequestState, fault: InjectedFault
    ) -> None:
        """Route an attributed fault: bounded retry, else quarantine."""
        if (
            isinstance(fault, TransientFault)
            and state.retries < self.config.retry.max_retries
        ):
            self._backoff(state, fault)
        else:
            self._quarantine(state, fault)

    def _backoff(self, state: RequestState, fault: InjectedFault) -> None:
        """Re-queue a transiently faulted request with bounded backoff.

        Residency is released and the request re-enters the waiting
        queue in arrival order (exactly the preemption path), hidden
        from the planner until ``retry_at_step``; re-admission replays
        its cache bitwise, so a retried request's tokens are identical
        to an unfaulted run's.
        """
        if state in self._running:
            self._running.remove(state)
            index = bisect.bisect_left(
                [waiting.request.request_id for waiting in self._waiting],
                state.request.request_id,
            )
            self._waiting.insert(index, state)
        self._release_residency(state)
        state.status = RequestStatus.WAITING
        state.failure = fault
        state.retries += 1
        state.retry_at_step = (
            self._step_index + 1 + self.config.retry.delay_steps(state.retries)
        )
        self._fault_retries += 1
        if self._tracer is not None:
            self._tracer.lifecycle(
                state.request.request_id,
                "RETRY",
                site=fault.site,
                retries=state.retries,
                at_step=state.retry_at_step,
            )

    def _quarantine(self, state: RequestState, fault: InjectedFault) -> None:
        """Terminal isolation of one faulted request.

        The victim moves to FAILED and releases its residency through
        the shared rollback primitive; its batchmates' KV state is
        untouched (the caller already rolled any shared step work back
        to the pre-step watermarks).
        """
        if state in self._running:
            self._running.remove(state)
        elif state in self._waiting:
            self._waiting.remove(state)
        self._release_residency(state)
        self._fail_terminal(state, fault, reason="error")

    def _fail_terminal(
        self, state: RequestState, failure: BaseException | None, reason: str
    ) -> None:
        """Move a request to FAILED (residency already released)."""
        state.status = RequestStatus.FAILED
        state.finish_reason = reason
        state.failure = failure
        state.finish_step = self._step_index
        state.finish_time = time.perf_counter()
        self._failed += 1
        # The handle keeps its state reference, so result() raises the
        # typed failure; like aborts, the id leaves the live-handle map.
        self._handles.pop(state.request.request_id, None)
        if self._tracer is not None:
            self._tracer.lifecycle(
                state.request.request_id,
                "FAILED",
                reason=reason,
                tokens=len(state.generated),
            )

    def _truncate_caches(self, state: RequestState, length: int) -> None:
        """Roll one request's KV back to ``length`` positions."""
        if state.kv is not None:
            state.kv.rollback(length)
        elif state.caches is not None:
            for cache in state.caches:
                if cache.length > length:
                    cache.truncate(length)

    def _recover_step_fault(
        self,
        fault: InjectedFault,
        runs: list[_ChunkRun],
        decodes: list[RequestState],
        watermarks: list[int],
    ) -> None:
        """Batch-level rollback after a mid-forward injected fault.

        Every decode participant's KV is truncated back to its
        pre-step watermark (captured before the forward), every chunk
        participant returns to a clean waiting state.  An attributed
        victim is then quarantined or backed off; an unattributed fault
        counts as one batch retry — the whole step simply replays next
        tick, bitwise.
        """
        for state, length in zip(decodes, watermarks):
            self._truncate_caches(state, length)
        victim: RequestState | None = None
        if fault.request_id is not None:
            for state in itertools.chain(
                (run.state for run in runs), decodes
            ):
                if state.request.request_id == fault.request_id:
                    victim = state
                    break
        for run in runs:
            if run.state is not victim:
                self._rollback_chunk(run.state)
        if victim is None:
            self._fault_retries += 1
            return
        self._release_residency(victim)
        self._handle_request_fault(victim, fault)

    # -- paged KV pool paths ----------------------------------------------

    def _reserve_step_blocks(
        self, decodes: list[RequestState], runs: list[_ChunkRun]
    ) -> tuple[list[RequestState], list[_ChunkRun], int]:
        """Shrink the step until its block growth fits the pool.

        Every surviving decode appends one position and every chunk its
        token count; when the pool (free plus reclaimable prefix-cache
        blocks) cannot cover the worst-case growth, the latest-arrived
        request — running, chunked this step, or half-prefilled but
        unscheduled — is preempted: its blocks return to the pool and
        it recomputes from scratch on re-admission.
        """
        assert self._pool is not None
        preemptions = 0
        tracer = self._tracer
        if tracer is not None:
            tracer.begin("step.preempt", decodes=len(decodes), chunks=len(runs))
        while decodes or runs:
            demand = sum(state.kv.blocks_for_append(1) for state in decodes) + sum(
                run.state.kv.blocks_for_append(run.tokens) for run in runs
            )
            if demand <= self._pool.free_blocks + self._pool.reclaimable_blocks:
                break
            holders = [state for state in self._waiting if state.kv is not None]
            victim = self._preemptor.select_victim(decodes + holders)
            if victim in decodes:
                decodes.remove(victim)
                self._preempt(victim)
            else:
                runs = [run for run in runs if run.state is not victim]
                self._preempt_prefill(victim)
            preemptions += 1
        if tracer is not None:
            tracer.end("step.preempt")
        return decodes, runs, preemptions

    def _preempt(self, state: RequestState) -> None:
        """Evict a running request's KV residency (recompute-on-resume)."""
        self._running.remove(state)
        self._release_residency(state)
        state.status = RequestStatus.WAITING
        state.preemptions += 1
        if self._tracer is not None:
            self._tracer.lifecycle(state.request.request_id, "PREEMPTED")
        # Re-enter the waiting queue in arrival order so FCFS resumes
        # the oldest preempted request first.
        index = bisect.bisect_left(
            [waiting.request.request_id for waiting in self._waiting],
            state.request.request_id,
        )
        self._waiting.insert(index, state)

    def _preempt_prefill(self, state: RequestState) -> None:
        """Evict a half-prefilled request's partial cache.

        The request keeps its waiting-queue position (arrival order)
        but restarts its prefill from scratch when re-admitted; with
        prefix caching on, any blocks its earlier chunks registered
        may still be re-mapped instead of recomputed.
        """
        self._release_residency(state)
        state.status = RequestStatus.WAITING
        state.preemptions += 1
        if self._tracer is not None:
            self._tracer.lifecycle(state.request.request_id, "PREEMPTED")

    def _prefill_paged(self, state: RequestState) -> tuple[int, StepTraffic, int]:
        """Prefill (or resume) one request through the paged pool.

        The legacy whole-admission path, kept for resumed requests (a
        previously preempted, mid-decode request rebuilds its cache
        bitwise by replaying its exact original call pattern — suffix
        prefill, then one single-token step per already-emitted token —
        and emits nothing until it rejoins the decode batch) and for
        fresh prefills when chunking is off.

        Returns ``(prefix_hit_tokens, traffic, tokens_emitted)``.
        """
        assert self._pool is not None
        request = state.request
        prompt = request.prompt
        resumed = bool(state.generated)
        seq = self._sequence_for(state, reserve_logits=not resumed)
        seq.owner = request.request_id
        hit = seq.shared_tokens
        logits = None
        try:
            state.kv = seq
            state.caches = seq.caches
            traffic = StepTraffic()
            suffix = prompt[hit:]
            if suffix.size:
                logits = self.model.forward_step(suffix.reshape(1, -1), state.caches)
                traffic = traffic + prefill_traffic(
                    self.model.config,
                    request.prompt_length,
                    kv_bits_per_element=state.kv_bits,
                    cached_prefix_tokens=hit,
                )
            for token in state.generated[:-1]:
                context = state.context_length
                self.model.forward_step(np.array([[token]]), state.caches)
                traffic = traffic + decode_step_traffic(
                    self.model.config,
                    [context],
                    kv_bits_per_element=state.kv_bits,
                )
        except Exception:
            # The request stays queued; give its references back so a
            # failed prefill cannot leak pool blocks.
            seq.release()
            state.kv = None
            state.caches = None
            raise
        self._waiting.remove(state)
        state.status = RequestStatus.RUNNING
        if self._tracer is not None:
            self._tracer.lifecycle(request.request_id, "RUNNING", resumed=resumed)
        state.prefill_pos = request.prompt_length
        self._pool.register_prefix(seq, prompt)
        self._running.append(state)
        if resumed:
            return hit, traffic, 0
        if logits is None:
            # Unreachable by construction — reserve_logits caps prefix
            # sharing at prompt_length - 1, so a fresh prefill always
            # recomputes at least the final prompt position — but a
            # shared-cap regression must fail loudly here, not as an
            # AttributeError on None inside _emit.
            raise ModelError(
                "paged prefill produced no logits for a fresh request "
                "(prefix sharing must leave >= 1 position to compute)"
            )
        self._emit(state, logits[0, -1, :], first=True)
        return hit, traffic, 1

    def _emit(
        self, state: RequestState, logits: np.ndarray, first: bool = False
    ) -> None:
        """Select one token for a request and update its lifecycle.

        Every emission produces a :class:`TokenDelta` — appended to the
        step's outputs and pushed to the request's handle — so the
        token is observable immediately, not only after ``drain``.  A
        token in the request's ``stop_token_ids`` ends the request
        early (``finish_reason="stop"``); the length cap ends it with
        ``finish_reason="length"``.
        """
        request = state.request
        params = request.params
        tracer = self._tracer
        if tracer is None:
            token = select_next_token(
                logits,
                params.temperature,
                params.top_k,
                state.rng,
                top_p=params.top_p,
            )
        else:
            with tracer.span("step.sample", request=request.request_id):
                token = select_next_token(
                    logits,
                    params.temperature,
                    params.top_k,
                    state.rng,
                    top_p=params.top_p,
                )
        now = time.perf_counter()
        state.generated.append(token)
        state.token_times.append(now)
        if first:
            state.first_token_step = self._step_index
            state.first_token_time = now
        if params.is_stop(token):
            state.stopped = True
        finished = state.done
        if finished:
            state.finish_reason = "stop" if state.stopped else "length"
        delta = TokenDelta(
            request_id=request.request_id,
            index=len(state.generated) - 1,
            token=token,
            finished=finished,
            finish_reason=state.finish_reason if finished else None,
            time=now,
        )
        self._step_deltas.append(delta)
        handle = self._handles.get(request.request_id)
        if handle is not None:
            handle._push(delta)
        if finished:
            state.status = RequestStatus.FINISHED
            state.finish_step = self._step_index
            state.finish_time = now
            if tracer is not None:
                tracer.lifecycle(
                    request.request_id,
                    "FINISHED",
                    reason=state.finish_reason,
                    tokens=len(state.generated),
                )
            if state.kv is not None:
                # Drop the request's block references; blocks shared
                # through the prefix cache stay resident for future hits.
                state.kv.release()
                state.kv = None
            state.caches = None  # release KV memory
            # Leave the running set immediately (not at end of step): if
            # a later prefill in the same step raises, the request must
            # not linger in _running with its caches already released.
            if state in self._running:
                self._running.remove(state)
            done = complete(state)
            self._finished[request.request_id] = done
            self._request_records.append(done.metrics)
            if handle is not None:
                handle._complete(done)
            self._handles.pop(request.request_id, None)

    # -- collection -------------------------------------------------------

    def _stuck_summary(self) -> str:
        """Ids of every stuck request, with status/failure detail.

        The comma-separated id list stays contiguous (tooling greps
        ``stuck request ids: 0, 1``); per-request detail — status,
        retry count, and the last recorded failure — follows in
        brackets so a drain timeout explains *why* each request is
        stuck, not just that it is.
        """
        states = sorted(
            self._waiting + self._running,
            key=lambda state: state.request.request_id,
        )
        ids = ", ".join(str(state.request.request_id) for state in states)
        details = []
        for state in states:
            parts = [state.status.value]
            if state.retries:
                parts.append(f"{state.retries} retries")
            if state.failure is not None:
                parts.append(
                    f"last failure: {type(state.failure).__name__}: "
                    f"{state.failure}"
                )
            details.append(f"{state.request.request_id}: {', '.join(parts)}")
        return f"{ids} [{'; '.join(details)}]"

    def run_until(
        self,
        condition: Callable[[], bool],
        max_steps: int | None = None,
        what: str = "run_until",
    ) -> None:
        """Step the engine until ``condition()`` holds.

        The shared stepping loop under every blocking consumer —
        :meth:`drain`, :meth:`RequestHandle.result`, handle token
        iteration, and :meth:`LLM.generate` — with the engine's
        progress guards applied once, here:

        * ``max_steps`` bounds the wait (raising
          :class:`~repro.errors.ModelError` naming the stuck request
          ids) — the guard for preemption thrash in an undersized pool;
          ``what`` names the waiting operation in that error, so a
          timeout points at the call the client actually made;
        * a step that makes no progress at all (no prefill, no decode,
          no preemption) while requests are queued is a scheduler
          invariant violation and raises immediately;
        * an engine that goes idle before the condition holds raises
          (the condition can never become true by stepping further).
        """
        if max_steps is not None and max_steps < 1:
            raise ModelError(f"max_steps must be >= 1, got {max_steps}")
        steps = 0
        while not condition():
            if not self.has_work():
                raise ModelError(
                    "engine drained idle before the awaited condition held "
                    "(e.g. waiting on a request that can no longer emit)"
                )
            if max_steps is not None and steps >= max_steps:
                raise ModelError(
                    f"{what} did not finish within max_steps={max_steps}: "
                    f"{len(self._waiting)} waiting / {len(self._running)} "
                    f"running requests remain (stuck request ids: "
                    f"{self._stuck_summary()})"
                )
            # A step that only fails/retries requests, or that idles
            # because every waiting request is inside its retry backoff
            # window, still counts as progress.
            failures_before = self._failed + self._fault_retries
            backoff_pending = any(
                state.retry_at_step > self._step_index
                for state in self._waiting
            )
            report = self.step().report
            steps += 1
            no_progress = (
                report.prefills == 0
                and report.decodes == 0
                and report.preemptions == 0
                and self._failed + self._fault_retries == failures_before
                and not backoff_pending
            )
            if no_progress and self.has_work():
                raise ModelError(
                    "scheduler made no progress with requests queued "
                    f"({len(self._waiting)} waiting / {len(self._running)} "
                    f"running; stuck request ids: {self._stuck_summary()}); "
                    "this is a scheduling bug, not a capacity limit"
                )

    def run_until_idle(self, max_steps: int | None = None) -> None:
        """Step until no request is waiting or running.

        Unlike :meth:`drain` this does not collect: finished requests
        stay claimable through their handles or :meth:`pop_finished`,
        which is what lets :meth:`LLM.generate` drain a shared engine
        without swallowing results submitted elsewhere.
        """
        self.run_until(
            lambda: not self.has_work(), max_steps=max_steps, what="drain"
        )

    def drain(self, max_steps: int | None = None) -> list[CompletedRequest]:
        """Step until idle; return uncollected finished requests by id.

        Collect-once semantics (like :meth:`pop_finished`): returned
        results are released, so a long-lived engine reused across many
        batches does not retain every token array ever served.
        Aggregate metrics keep accumulating regardless.

        Args:
            max_steps: optional guard — raise
                :class:`~repro.errors.ModelError` instead of looping
                forever if the queue has not drained after this many
                steps (e.g. a scheduler bug starving a request, or
                preemption thrash in an undersized KV pool).  The error
                names the stuck request ids.
        """
        self.run_until_idle(max_steps=max_steps)
        return self.pop_finished()

    def pop_finished(self) -> list[CompletedRequest]:
        """Return and clear currently finished requests (id order)."""
        done = [self._finished[key] for key in sorted(self._finished)]
        self._finished.clear()
        return done

    def metrics(self) -> EngineMetrics:
        """Aggregate throughput/latency/traffic over the engine's life.

        Request records accumulate independently of
        :meth:`pop_finished`, so streaming consumers keep full latency
        statistics.
        """
        return summarize(
            self._reports,
            self._request_records,
            aborted=self._aborted,
            failed=self._failed,
            fault_retries=self._fault_retries,
            deadline_expired=self._deadline_expired,
            shed=self._shed,
            degraded=self._degraded,
        )
