"""Serving throughput benchmark: continuous batching vs one-at-a-time.

Compares sequential ``generate()`` decoding against the
:mod:`repro.serve` engine — driven through the redesigned ``LLM``
facade, streaming :class:`TokenDelta` s — at several batch sizes, in
FP16 and Anda-compressed KV modes, and records tokens/sec, per-request
latency (TTFT measured from each request's *first streamed delta*, not
reconstructed after drain), and simulated DRAM traffic.  A second
section benchmarks the paged KV pool on a *shared-prefix* workload (N
requests behind one common system prompt): prefix caching on vs off,
tracking prefill positions actually computed, prefix-hit tokens, and
the simulated DRAM bytes the hits avoided.  A third section benchmarks
chunked prefill on a *long-prompt* mixed workload (one long prompt
arriving while short requests decode): chunking on vs off, reporting
TTFT and inter-token latency percentiles — the latency surface
``benchmarks/check_bench_regression.py`` gates in CI.  A fourth
section exercises the *abort* lifecycle: a paged engine serving a
batch from which a fraction of requests is cancelled mid-flight,
recording the abort rate, wasted (pre-abort) tokens, and that the
allocator leaks nothing.  A fifth section is the *chaos* smoke: a
fixed-seed :class:`FaultPlan` injected into a paged chunked engine,
hard-gating bitwise parity of surviving requests against a fault-free
twin, zero leaked blocks, and exact failure accounting (results in
``BENCH_chaos.json``).  Results are written to
``BENCH_serving.json`` so CI can accumulate a perf trajectory as a
workflow artifact.

Usage::

    python benchmarks/bench_serving.py                  # full sweep
    python benchmarks/bench_serving.py --smoke          # CI-sized run
    python benchmarks/bench_serving.py --kv-mode anda --batch-sizes 1,4,8
    python benchmarks/bench_serving.py --shared-prefix 0   # skip that section
    python benchmarks/bench_serving.py --long-prompt 0     # skip that section
    python benchmarks/bench_serving.py --abort 0           # skip that section

Unlike the paper-figure benchmarks (which run under pytest-benchmark),
this is a standalone script: serving throughput is a trajectory we
track per commit, not a paper artifact we reproduce once.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.llm.generation import generate  # noqa: E402
from repro.llm.kv_quant import KVFormat, make_cache_factory  # noqa: E402
from repro.llm.zoo import get_model  # noqa: E402
from repro.serve import (  # noqa: E402
    LLM,
    Engine,
    EngineConfig,
    FaultPlan,
    FaultRule,
    RequestStatus,
    RetryPolicy,
    SamplingParams,
    TelemetryConfig,
    validate_chrome_trace,
)
from repro.serve.metrics import percentile  # noqa: E402

#: Shared-prefix workload sizes (requests) for full and --smoke runs.
SHARED_PREFIX_DEFAULT = 8
SHARED_PREFIX_SMOKE = 4

#: Long-prompt workload: length of the prompt that arrives mid-stream.
LONG_PROMPT_DEFAULT = 192
#: Chunked engine's token budget on that workload (the TTFT/ITL dial).
LONG_PROMPT_CHUNK_BUDGET = 32
#: Short requests decoding when the long prompt lands (their gaps are
#: what the monolithic prefill stalls, so they dominate the ITL tail).
LONG_PROMPT_DECODERS = 6

#: Abort workload sizes (requests) for full and --smoke runs; every
#: third request is cancelled mid-flight.
ABORT_DEFAULT = 8
ABORT_SMOKE = 4
ABORT_EVERY = 3

#: Chaos workload sizes (requests) for full and --smoke runs; the
#: fixed-seed plan targets request ids up to 3, so keep >= 4.
CHAOS_DEFAULT = 8
CHAOS_SMOKE = 6


def make_prompts(count: int, vocab_size: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic mixed-length prompts (lengths cycle 4..19)."""
    rng = np.random.default_rng(seed)
    lengths = [4 + (3 * index) % 16 for index in range(count)]
    return [rng.integers(0, vocab_size, size=length) for length in lengths]


def run_sequential(model, prompts, max_new_tokens, kv_mode, mantissa_bits):
    """One-at-a-time decode baseline; returns (results, elapsed_seconds)."""
    factory = make_cache_factory(model, kv_mode, mantissa_bits)
    started = time.perf_counter()
    results = [
        generate(model, prompt, max_new_tokens, cache_factory=factory)
        for prompt in prompts
    ]
    return results, time.perf_counter() - started


def run_engine(model, prompts, max_new_tokens, batch_size, kv_mode, mantissa_bits):
    """Batched serving run through the streaming LLM facade.

    Returns ``(results_by_submission, engine, stream_ttfts)`` where
    ``stream_ttfts`` is each request's time-to-first-token measured the
    streaming way: first :class:`TokenDelta` timestamp minus the
    handle's submission mark — observed live, not reconstructed from
    drain-time records.
    """
    engine = Engine(
        model,
        EngineConfig(
            max_batch_size=batch_size,
            max_batch_tokens=max(64, 32 * batch_size),
            kv_format=KVFormat(mode=kv_mode, mantissa_bits=mantissa_bits),
        ),
    )
    llm = LLM(engine=engine)
    params = SamplingParams(max_new_tokens=max_new_tokens)
    handles = [llm.submit(prompt, params) for prompt in prompts]
    arrivals = {handle.request_id: handle.arrival_time for handle in handles}
    stream_ttfts = {}
    for delta in llm.stream(handles):
        if delta.is_first:
            stream_ttfts[delta.request_id] = delta.time - arrivals[delta.request_id]
    results = [handle.result() for handle in handles]
    return results, engine, [stream_ttfts[h.request_id] for h in handles]


def bench_kv_mode(model, prompts, max_new_tokens, batch_sizes, kv_mode, bits):
    """Benchmark one KV mode; returns result rows and checks parity."""
    sequential, seq_seconds = run_sequential(
        model, prompts, max_new_tokens, kv_mode, bits
    )
    total_tokens = max_new_tokens * len(prompts)
    seq_tps = total_tokens / seq_seconds
    rows = [
        {
            "mode": "sequential",
            "kv_mode": kv_mode,
            "batch_size": 1,
            "tokens_per_second": seq_tps,
            "speedup_vs_sequential": 1.0,
            "total_seconds": seq_seconds,
        }
    ]
    for batch_size in batch_sizes:
        results, engine, stream_ttfts = run_engine(
            model, prompts, max_new_tokens, batch_size, kv_mode, bits
        )
        for reference_result, served in zip(sequential, results):
            if not np.array_equal(reference_result.tokens, served.tokens):
                raise SystemExit(
                    f"PARITY FAILURE: batched decode (batch={batch_size}, "
                    f"kv={kv_mode}) diverged from sequential generate()"
                )
        metrics = engine.metrics()
        rows.append(
            {
                "mode": "engine",
                "kv_mode": kv_mode,
                "batch_size": batch_size,
                "tokens_per_second": metrics.tokens_per_second,
                "speedup_vs_sequential": metrics.tokens_per_second / seq_tps,
                "total_seconds": metrics.total_seconds,
                "steps": metrics.steps,
                "mean_batch_size": metrics.mean_batch_size,
                "mean_ttft_seconds": metrics.mean_ttft_seconds,
                # TTFT from streamed deltas (first-token observation),
                # not drain-time reconstruction:
                "ttft_stream_mean_seconds": (
                    sum(stream_ttfts) / len(stream_ttfts)
                ),
                "ttft_stream_p50_seconds": percentile(stream_ttfts, 0.50),
                "ttft_stream_p95_seconds": percentile(stream_ttfts, 0.95),
                "mean_latency_seconds": metrics.mean_latency_seconds,
                "dram_bytes_total": metrics.traffic.total_bytes,
                "dram_bytes_per_token": (
                    metrics.traffic.total_bytes / metrics.total_new_tokens
                ),
                "kv_read_bytes": metrics.traffic.kv_read_bytes,
                "weight_bytes": metrics.traffic.weight_bytes,
            }
        )
    return rows


def make_shared_prefix_prompts(
    count: int, vocab_size: int, common_len: int = 48, tail_len: int = 4, seed: int = 1
) -> list[np.ndarray]:
    """N requests sharing one system prompt, each with a unique tail."""
    rng = np.random.default_rng(seed)
    system = rng.integers(0, vocab_size, size=common_len)
    return [
        np.concatenate([system, rng.integers(0, vocab_size, size=tail_len)])
        for _ in range(count)
    ]


def bench_shared_prefix(model, num_requests, max_new_tokens, kv_mode, bits):
    """Paged-pool shared-prefix workload: prefix caching on vs off.

    Returns one row per configuration; parity across configurations is
    asserted (same tokens with and without sharing).
    """
    prompts = make_shared_prefix_prompts(num_requests, model.config.vocab_size)
    prompt_positions = sum(len(prompt) for prompt in prompts)
    rows = []
    results_by_variant = {}
    for variant, prefix_caching in (("kv_pool", False), ("kv_pool+prefix", True)):
        engine = Engine(
            model,
            EngineConfig(
                max_batch_size=num_requests,
                max_batch_tokens=max(256, 64 * num_requests),
                kv_format=KVFormat(mode=kv_mode, mantissa_bits=bits),
                kv_pool=True,
                kv_pool_blocks=max(64, 8 * num_requests),
                kv_block_size=16,
                prefix_caching=prefix_caching,
            ),
        )
        results_by_variant[variant] = LLM(engine=engine).generate(
            prompts, SamplingParams(max_new_tokens=max_new_tokens)
        )
        metrics = engine.metrics()
        rows.append(
            {
                "mode": variant,
                "workload": "shared_prefix",
                "kv_mode": kv_mode,
                "batch_size": num_requests,
                "tokens_per_second": metrics.tokens_per_second,
                "total_seconds": metrics.total_seconds,
                "prefill_positions_computed": (
                    prompt_positions - metrics.prefix_hit_tokens
                ),
                "prefix_hit_tokens": metrics.prefix_hit_tokens,
                "prefix_saved_bytes": metrics.prefix_saved_bytes,
                "preemptions": metrics.preemptions,
                "dram_bytes_total": metrics.traffic.total_bytes,
            }
        )
    for first, second in zip(
        results_by_variant["kv_pool"], results_by_variant["kv_pool+prefix"]
    ):
        if not np.array_equal(first.tokens, second.tokens):
            raise SystemExit(
                "PARITY FAILURE: prefix-cached decode diverged from the "
                "uncached paged engine"
            )
    baseline, cached = rows
    cached["speedup_vs_no_prefix"] = (
        cached["tokens_per_second"] / baseline["tokens_per_second"]
        if baseline["tokens_per_second"]
        else 0.0
    )
    cached["dram_saved_vs_no_prefix"] = (
        baseline["dram_bytes_total"] - cached["dram_bytes_total"]
    )
    return rows


def bench_long_prompt(model, kv_mode, bits, long_len, max_new_tokens):
    """Chunked vs unchunked on a long prompt arriving mid-stream.

    Short requests are decoding when a ``long_len``-token prompt (and
    more short requests) arrive.  The unchunked engine needs a token
    budget that covers the whole prompt, so its prefill rides one step
    with the running decodes and stalls them for the whole prompt
    forward; the chunked engine runs a small budget
    (``LONG_PROMPT_CHUNK_BUDGET``) and splits the prompt into chunks
    that ride along step by step.  Tokens are bitwise identical either
    way — the rows differ only in the latency percentiles, which is
    the point.
    """
    vocab = model.config.vocab_size
    rows = []
    tokens_by_variant = {}
    for chunked in (False, True):
        rng = np.random.default_rng(7)
        early = [
            rng.integers(0, vocab, size=6) for _ in range(LONG_PROMPT_DECODERS)
        ]
        long_prompt = rng.integers(0, vocab, size=long_len)
        late = [rng.integers(0, vocab, size=6) for _ in range(2)]
        budget = LONG_PROMPT_CHUNK_BUDGET if chunked else long_len + 16
        engine = Engine(
            model,
            EngineConfig(
                max_batch_size=LONG_PROMPT_DECODERS + 2,
                max_batch_tokens=budget,
                chunked_prefill=chunked,
                kv_format=KVFormat(mode=kv_mode, mantissa_bits=bits),
            ),
        )
        ids = [engine.submit(prompt, 12).request_id for prompt in early]
        for _ in range(2):
            engine.step()
        ids.append(engine.submit(long_prompt, max_new_tokens).request_id)
        ids.extend(
            engine.submit(prompt, max_new_tokens).request_id for prompt in late
        )
        done = {result.request_id: result for result in engine.drain(max_steps=2000)}
        tokens_by_variant[chunked] = [done[request_id].tokens for request_id in ids]
        metrics = engine.metrics()
        rows.append(
            {
                "mode": "engine+chunked" if chunked else "engine",
                "workload": "long_prompt",
                "chunked_prefill": chunked,
                "kv_mode": kv_mode,
                "long_prompt_tokens": long_len,
                "max_batch_tokens": budget,
                "batch_size": LONG_PROMPT_DECODERS + 2,
                "tokens_per_second": metrics.tokens_per_second,
                "total_seconds": metrics.total_seconds,
                "steps": metrics.steps,
                "partial_prefills": metrics.partial_prefills,
                "ttft_p50_seconds": metrics.ttft_p50_seconds,
                "ttft_p95_seconds": metrics.ttft_p95_seconds,
                "itl_p50_seconds": metrics.itl_p50_seconds,
                "itl_p95_seconds": metrics.itl_p95_seconds,
                "dram_bytes_total": metrics.traffic.total_bytes,
            }
        )
    for unchunked_tokens, chunked_tokens in zip(
        tokens_by_variant[False], tokens_by_variant[True]
    ):
        if not np.array_equal(unchunked_tokens, chunked_tokens):
            raise SystemExit(
                f"PARITY FAILURE: chunked prefill (kv={kv_mode}) diverged "
                "from unchunked on the long-prompt workload"
            )
    unchunked_row, chunked_row = rows
    chunked_row["itl_p95_ratio_vs_unchunked"] = (
        chunked_row["itl_p95_seconds"] / unchunked_row["itl_p95_seconds"]
        if unchunked_row["itl_p95_seconds"]
        else 0.0
    )
    return rows


def bench_abort(model, num_requests, max_new_tokens, kv_mode, bits):
    """Abort-rate workload: cancel every third request mid-flight.

    A paged, prefix-cached engine serves ``num_requests`` requests;
    once decoding is underway, every ``ABORT_EVERY``-th request is
    aborted through its handle.  The row records the abort rate, the
    tokens the aborted requests had already produced (wasted decode
    work the cancellation reclaimed), survivor throughput, and — the
    invariant the test suite pins — that the allocator leaked nothing:
    every pool block ends free or as a reclaimable prefix-cache
    resident.
    """
    rng = np.random.default_rng(23)
    prompts = [
        rng.integers(0, model.config.vocab_size, size=6 + (index % 5))
        for index in range(num_requests)
    ]
    engine = Engine(
        model,
        EngineConfig(
            max_batch_size=num_requests,
            max_batch_tokens=max(64, 16 * num_requests),
            kv_format=KVFormat(mode=kv_mode, mantissa_bits=bits),
            kv_pool=True,
            kv_pool_blocks=max(64, 8 * num_requests),
            kv_block_size=16,
        ),
    )
    llm = LLM(engine=engine)
    params = SamplingParams(max_new_tokens=max_new_tokens)
    handles = [llm.submit(prompt, params) for prompt in prompts]
    for _ in range(2):
        engine.step()
    doomed = handles[::ABORT_EVERY]
    wasted_tokens = 0
    for handle in doomed:
        wasted_tokens += len(handle.generated_tokens())
        handle.abort()
    engine.run_until_idle(max_steps=2000)
    survivors = [handle for handle in handles if not handle.aborted]
    for handle in survivors:
        handle.result()  # all complete despite the churn
    leaked = engine._pool.leaked_blocks()
    if leaked:
        raise SystemExit(
            f"ABORT LEAK: {leaked} pool blocks still referenced after "
            f"drain (kv={kv_mode})"
        )
    metrics = engine.metrics()
    return [
        {
            "mode": "engine+abort",
            "workload": "abort",
            "kv_mode": kv_mode,
            "batch_size": num_requests,
            "aborted": metrics.aborted,
            "completed": len(survivors),
            "abort_rate": metrics.aborted / num_requests,
            "wasted_tokens": wasted_tokens,
            "tokens_per_second": metrics.tokens_per_second,
            "total_seconds": metrics.total_seconds,
            "preemptions": metrics.preemptions,
            "leaked_blocks": leaked,
            "dram_bytes_total": metrics.traffic.total_bytes,
        }
    ]


#: The fixed-seed chaos plan the --chaos workload injects: a transient
#: decode fault (retried, must stay bitwise), a permanent decode fault
#: (quarantined), probabilistic chunk-prefill faults, and one
#: batch-level pool-allocation fault (whole-step rollback).
CHAOS_SEED = 1234


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        rules=(
            FaultRule(site="model.decode", kind="transient", request_id=1),
            FaultRule(site="model.decode", kind="permanent", request_id=3),
            FaultRule(
                site="model.chunk",
                kind="transient",
                probability=0.5,
                max_fires=2,
            ),
            FaultRule(site="pool.allocate", kind="transient", step=4),
        ),
        seed=CHAOS_SEED,
    )


def bench_chaos(model, num_requests, max_new_tokens, kv_mode, bits):
    """Chaos workload: a fixed-seed fault plan against a live engine.

    Runs the same paged, chunked workload twice — once fault-free,
    once under :func:`chaos_plan` — and enforces the failure-isolation
    invariants as hard gates (non-zero exit on violation, so CI
    catches a regression):

    * every request the faults did not fail is token-bitwise identical
      to the fault-free twin (retried requests included);
    * the pool leaks zero blocks after drain;
    * accounting is exact — every injected fault is either a retry or
      a failure;
    * the engine still completes new work after the faults.
    """
    rng = np.random.default_rng(29)
    prompts = [
        rng.integers(0, model.config.vocab_size, size=8 + (index % 7))
        for index in range(num_requests)
    ]

    def build(plan):
        return Engine(
            model,
            EngineConfig(
                max_batch_size=num_requests,
                max_batch_tokens=max(48, 8 * num_requests),
                chunked_prefill=True,
                kv_format=KVFormat(mode=kv_mode, mantissa_bits=bits),
                kv_pool=True,
                kv_pool_blocks=max(64, 8 * num_requests),
                kv_block_size=16,
                faults=plan,
                retry=RetryPolicy(max_retries=2, backoff_steps=1),
            ),
        )

    params = SamplingParams(max_new_tokens=max_new_tokens)

    twin = build(None)
    twin_handles = [twin.submit(prompt, params) for prompt in prompts]
    twin.run_until_idle(max_steps=2000)
    expected = [handle.result().tokens for handle in twin_handles]

    engine = build(chaos_plan())
    handles = [engine.submit(prompt, params) for prompt in prompts]
    engine.run_until_idle(max_steps=2000)

    survivors = 0
    for index, handle in enumerate(handles):
        if handle.status() is not RequestStatus.FINISHED:
            continue
        survivors += 1
        if not np.array_equal(handle.result().tokens, expected[index]):
            raise SystemExit(
                f"CHAOS PARITY: request {index} diverged from its "
                f"fault-free twin (kv={kv_mode})"
            )
    leaked = engine._pool.leaked_blocks()
    if leaked:
        raise SystemExit(
            f"CHAOS LEAK: {leaked} pool blocks still referenced after "
            f"drain (kv={kv_mode})"
        )
    metrics = engine.metrics()
    fired = engine.fault_injector.fired_total
    if fired != metrics.fault_retries + metrics.failed:
        raise SystemExit(
            f"CHAOS ACCOUNTING: {fired} faults fired but "
            f"{metrics.fault_retries} retries + {metrics.failed} "
            f"failures recorded (kv={kv_mode})"
        )
    probe = engine.submit(prompts[0], params)
    engine.run_until_idle(max_steps=2000)
    if probe.status() is not RequestStatus.FINISHED:
        raise SystemExit(
            f"CHAOS SERVICEABILITY: post-fault submission ended "
            f"{probe.status().value} (kv={kv_mode})"
        )
    if engine._pool.leaked_blocks():
        raise SystemExit(
            f"CHAOS LEAK: post-fault submission leaked blocks (kv={kv_mode})"
        )
    return [
        {
            "mode": "engine+chaos",
            "workload": "chaos",
            "kv_mode": kv_mode,
            "requests": num_requests,
            "plan_seed": CHAOS_SEED,
            "faults_fired": fired,
            "fired_by_site": dict(engine.fault_injector.fired_by_site),
            "failed": metrics.failed,
            "fault_retries": metrics.fault_retries,
            "survivors": survivors,
            "leaked_blocks": leaked,
            "tokens_per_second": metrics.tokens_per_second,
            "preemptions": metrics.preemptions,
        }
    ]


def bench_traced(model, trace_path, kv_mode, bits):
    """Traced mixed workload: chunked prefill + batched decode + abort.

    Runs a small engine with tracing enabled over a workload that
    exercises every span family (forward passes over prefill chunks and
    decode rows, sampling, lifecycle transitions including an abort),
    writes the Chrome trace-event JSON to
    ``trace_path`` (load it at https://ui.perfetto.dev), and validates
    the emitted file against the trace-event schema — a structural
    failure exits non-zero so CI catches a malformed exporter.
    """
    vocab = model.config.vocab_size
    rng = np.random.default_rng(11)
    prompts = [rng.integers(0, vocab, size=6 + (index % 9)) for index in range(6)]
    long_prompt = rng.integers(0, vocab, size=96)
    engine = Engine(
        model,
        EngineConfig(
            max_batch_size=8,
            max_batch_tokens=48,
            chunked_prefill=True,
            kv_format=KVFormat(mode=kv_mode, mantissa_bits=bits),
            telemetry=TelemetryConfig(trace=True),
        ),
    )
    llm = LLM(engine=engine)
    params = SamplingParams(max_new_tokens=10)
    handles = [llm.submit(prompt, params) for prompt in prompts]
    for _ in range(2):
        engine.step()
    handles.append(llm.submit(long_prompt, params))
    engine.step()
    handles[1].abort()
    engine.run_until_idle(max_steps=2000)
    engine.telemetry.write_trace(trace_path)
    problems = validate_chrome_trace(engine.telemetry.chrome_trace())
    if problems:
        raise SystemExit(
            "TRACE SCHEMA FAILURE: " + "; ".join(problems[:5])
        )
    metrics = engine.metrics()
    events = engine.telemetry.tracer.events
    return {
        "workload": "traced_mixed",
        "kv_mode": kv_mode,
        "trace_path": str(trace_path),
        "trace_events": len(events),
        "tracks": len({event.track for event in events}),
        "steps": metrics.steps,
        "aborted": metrics.aborted,
        "attention_dispatches": metrics.attention_dispatches,
        "tokens_per_second": metrics.tokens_per_second,
    }


def render_abort(rows) -> str:
    lines = [
        f"{'kv':>5} {'mode':>13} {'reqs':>5} {'aborted':>8} "
        f"{'wasted':>7} {'leaked':>7} {'tok/s':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['kv_mode']:>5} {row['mode']:>13} {row['batch_size']:>5} "
            f"{row['aborted']:>8} {row['wasted_tokens']:>7} "
            f"{row['leaked_blocks']:>7} {row['tokens_per_second']:>8.1f}"
        )
    return "\n".join(lines)


def render_chaos(rows) -> str:
    lines = [
        f"{'kv':>5} {'mode':>13} {'reqs':>5} {'fired':>6} "
        f"{'failed':>7} {'retries':>8} {'leaked':>7} {'tok/s':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['kv_mode']:>5} {row['mode']:>13} {row['requests']:>5} "
            f"{row['faults_fired']:>6} {row['failed']:>7} "
            f"{row['fault_retries']:>8} {row['leaked_blocks']:>7} "
            f"{row['tokens_per_second']:>8.1f}"
        )
    return "\n".join(lines)


def render_long_prompt(rows) -> str:
    lines = [
        f"{'kv':>5} {'mode':>15} {'ttft p95':>9} {'itl p50':>8} "
        f"{'itl p95':>8} {'tok/s':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['kv_mode']:>5} {row['mode']:>15} "
            f"{row['ttft_p95_seconds'] * 1e3:>7.1f}ms "
            f"{row['itl_p50_seconds'] * 1e3:>6.2f}ms "
            f"{row['itl_p95_seconds'] * 1e3:>6.2f}ms "
            f"{row['tokens_per_second']:>8.1f}"
        )
    return "\n".join(lines)


def render_shared_prefix(rows) -> str:
    lines = [
        f"{'kv':>5} {'mode':>15} {'reqs':>5} {'tok/s':>9} "
        f"{'hit tok':>8} {'saved MB':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['kv_mode']:>5} {row['mode']:>15} {row['batch_size']:>5} "
            f"{row['tokens_per_second']:>9.1f} "
            f"{row['prefix_hit_tokens']:>8} "
            f"{row['prefix_saved_bytes'] / 1e6:>9.2f}"
        )
    return "\n".join(lines)


def render(rows) -> str:
    lines = [
        f"{'kv':>5} {'mode':>10} {'batch':>5} {'tok/s':>9} "
        f"{'speedup':>8} {'B/token':>10}",
    ]
    for row in rows:
        per_token = row.get("dram_bytes_per_token")
        per_token_text = "-" if per_token is None else f"{per_token:.0f}"
        lines.append(
            f"{row['kv_mode']:>5} {row['mode']:>10} {row['batch_size']:>5} "
            f"{row['tokens_per_second']:>9.1f} "
            f"{row['speedup_vs_sequential']:>7.2f}x "
            f"{per_token_text:>10}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", default="opt-125m-sim")
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--num-prompts", type=int, default=None, help="default 16 (8 with --smoke)"
    )
    parser.add_argument(
        "--max-new-tokens", type=int, default=None, help="default 24 (8 with --smoke)"
    )
    parser.add_argument(
        "--batch-sizes",
        default=None,
        help="comma-separated engine batch sizes; default 2,4,8 (4 with --smoke)",
    )
    parser.add_argument(
        "--kv-mode",
        default="both",
        choices=["fp16", "anda", "both"],
        help="KV-cache mode(s) to benchmark",
    )
    parser.add_argument("--kv-mantissa-bits", type=int, default=8)
    parser.add_argument(
        "--shared-prefix",
        type=int,
        default=None,
        help=(
            "requests in the shared-prefix KV-pool workload; 0 skips it "
            f"(default {SHARED_PREFIX_DEFAULT}, {SHARED_PREFIX_SMOKE} "
            "with --smoke)"
        ),
    )
    parser.add_argument(
        "--long-prompt",
        type=int,
        default=None,
        help=(
            "long-prompt length for the chunked-prefill latency "
            f"workload; 0 skips it (default {LONG_PROMPT_DEFAULT})"
        ),
    )
    parser.add_argument(
        "--abort",
        type=int,
        default=None,
        help=(
            "requests in the abort-rate workload (every "
            f"{ABORT_EVERY}rd is cancelled mid-flight); 0 skips it "
            f"(default {ABORT_DEFAULT}, {ABORT_SMOKE} with --smoke)"
        ),
    )
    parser.add_argument(
        "--chaos",
        type=int,
        default=None,
        help=(
            "requests in the chaos workload (fixed-seed fault plan; "
            "parity-, leak- and accounting-gated); 0 skips it "
            f"(default {CHAOS_DEFAULT}, {CHAOS_SMOKE} with --smoke)"
        ),
    )
    parser.add_argument(
        "--chaos-output",
        default="BENCH_chaos.json",
        help="chaos workload result JSON path",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "also run a traced mixed workload and write Perfetto-loadable "
            "Chrome trace-event JSON to PATH (validated; schema problems "
            "exit non-zero)"
        ),
    )
    parser.add_argument(
        "--output", default="BENCH_serving.json", help="result JSON path"
    )
    args = parser.parse_args(argv)

    # --smoke only shrinks knobs the user left at their defaults, so an
    # explicit flag always wins.
    if args.num_prompts is None:
        args.num_prompts = 8 if args.smoke else 16
    if args.max_new_tokens is None:
        args.max_new_tokens = 8 if args.smoke else 24
    if args.batch_sizes is None:
        args.batch_sizes = "4" if args.smoke else "2,4,8"
    if args.shared_prefix is None:
        args.shared_prefix = SHARED_PREFIX_SMOKE if args.smoke else (
            SHARED_PREFIX_DEFAULT
        )
    if args.shared_prefix < 0:
        parser.error("--shared-prefix must be >= 0")
    if args.long_prompt is None:
        args.long_prompt = LONG_PROMPT_DEFAULT
    if args.long_prompt < 0:
        parser.error("--long-prompt must be >= 0")
    if args.abort is None:
        args.abort = ABORT_SMOKE if args.smoke else ABORT_DEFAULT
    if args.abort < 0:
        parser.error("--abort must be >= 0")
    if args.chaos is None:
        args.chaos = CHAOS_SMOKE if args.smoke else CHAOS_DEFAULT
    if args.chaos < 0:
        parser.error("--chaos must be >= 0")

    try:
        batch_sizes = [int(part) for part in args.batch_sizes.split(",") if part]
    except ValueError:
        parser.error(
            f"--batch-sizes must be comma-separated ints, got {args.batch_sizes!r}"
        )
    if not batch_sizes:
        parser.error("--batch-sizes needs at least one batch size")
    if min(batch_sizes) < 1:
        parser.error("--batch-sizes entries must be >= 1")
    kv_modes = ["fp16", "anda"] if args.kv_mode == "both" else [args.kv_mode]

    print(f"training/loading {args.model} ...", flush=True)
    model = get_model(args.model)
    prompts = make_prompts(args.num_prompts, model.config.vocab_size)

    rows = []
    for kv_mode in kv_modes:
        rows.extend(
            bench_kv_mode(
                model,
                prompts,
                args.max_new_tokens,
                batch_sizes,
                kv_mode,
                args.kv_mantissa_bits,
            )
        )
    print(render(rows))

    shared_rows = []
    if args.shared_prefix:
        for kv_mode in kv_modes:
            shared_rows.extend(
                bench_shared_prefix(
                    model,
                    args.shared_prefix,
                    args.max_new_tokens,
                    kv_mode,
                    args.kv_mantissa_bits,
                )
            )
        print()
        print(render_shared_prefix(shared_rows))

    long_rows = []
    if args.long_prompt:
        for kv_mode in kv_modes:
            long_rows.extend(
                bench_long_prompt(
                    model,
                    kv_mode,
                    args.kv_mantissa_bits,
                    args.long_prompt,
                    args.max_new_tokens,
                )
            )
        print()
        print(render_long_prompt(long_rows))

    abort_rows = []
    if args.abort:
        for kv_mode in kv_modes:
            abort_rows.extend(
                bench_abort(
                    model,
                    args.abort,
                    args.max_new_tokens,
                    kv_mode,
                    args.kv_mantissa_bits,
                )
            )
        print()
        print(render_abort(abort_rows))

    chaos_rows = []
    if args.chaos:
        for kv_mode in kv_modes:
            chaos_rows.extend(
                bench_chaos(
                    model,
                    args.chaos,
                    args.max_new_tokens,
                    kv_mode,
                    args.kv_mantissa_bits,
                )
            )
        print()
        print(render_chaos(chaos_rows))
        chaos_output = Path(args.chaos_output)
        chaos_output.write_text(
            json.dumps(
                {
                    "benchmark": "serving_chaos",
                    "model": args.model,
                    "plan_seed": CHAOS_SEED,
                    "smoke": args.smoke,
                    "python": platform.python_version(),
                    "results": chaos_rows,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"wrote {chaos_output}")

    trace_row = None
    if args.trace:
        trace_row = bench_traced(
            model, Path(args.trace), kv_modes[0], args.kv_mantissa_bits
        )
        print()
        print(
            f"trace: {trace_row['trace_events']} events on "
            f"{trace_row['tracks']} tracks over {trace_row['steps']} steps "
            f"-> {trace_row['trace_path']} (open in https://ui.perfetto.dev)"
        )

    payload = {
        "benchmark": "serving_throughput",
        "model": args.model,
        "num_prompts": args.num_prompts,
        "max_new_tokens": args.max_new_tokens,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "results": rows,
        "shared_prefix_results": shared_rows,
        "long_prompt_results": long_rows,
        "abort_results": abort_rows,
        "trace_result": trace_row,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    best = max(
        (row for row in rows if row["mode"] == "engine"),
        key=lambda row: row["speedup_vs_sequential"],
    )
    print(
        f"best engine speedup: {best['speedup_vs_sequential']:.2f}x at "
        f"batch={best['batch_size']} (kv={best['kv_mode']})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
