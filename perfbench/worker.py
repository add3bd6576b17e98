"""One benchmark process: set up, run one workload, check it, report JSON.

``run.py`` starts this file in a fresh interpreter per role, so every
measurement begins from a clean process (finished engines live in
reference cycles; repeats in one process inflate peak RSS):

* ``build``: load the ``opt-6.7b-sim`` checkpoint, training and caching
  it under ``.anda_zoo_cache/`` first if the checkout has none;
* ``setup``: time the set-up alone (imports, zoo load, warm-up, engine
  build) and exit;
* ``measure``: set up, then run the measured phase (``--trace 0``) or
  the untraced and traced count windows (``--trace 1``), then run the
  correctness gate.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, pinned before numpy loads: with the default two
# threads on a two-core host, BLAS threads fight the driver thread and
# CPU time exceeds wall time.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.llm.generation import generate  # noqa: E402
from repro.llm.zoo import get_model  # noqa: E402
from repro.serve import Engine, SamplingParams  # noqa: E402

from driver import ClosedLoop, LoopResult  # noqa: E402
from workloads import MEASURE, MODEL, WARMUP, WORKLOADS, Workload  # noqa: E402


def set_up(workload: Workload, seed: int):
    """Zoo load and a warm-up on a throwaway engine (another stream)."""
    model = get_model(MODEL)
    ClosedLoop(Engine(model, workload.engine_config()), workload, WARMUP, seed).run(
        workload.warmup_steps, 0.0
    )
    gc.collect()
    return model, Engine(model, workload.engine_config())


def check(model, workload: Workload, engine: Engine, result: LoopResult) -> list[str]:
    """The correctness gate; one message per miss besides failed requests."""
    errors = []
    accounted = result.finished + result.aborted + result.cut + result.failed
    if result.sent != accounted:
        errors.append(f"sent {result.sent} != finished+aborted+cut+failed {accounted}")
    leftovers = engine.drain()
    if leftovers or engine.has_work():
        errors.append(f"{len(leftovers)} results left in the engine after the run")
    # The pool is not public API; the leak check reads it here only.
    pool = engine._pool
    if pool is not None and pool.leaked_blocks():
        errors.append(f"{pool.leaked_blocks()} pool blocks leaked after drain")
    if result.window is None:
        errors.append("the count window was not reached")
    if not result.samples:
        errors.append("no finished request was sampled for the oracle")
    factory = workload.format().cache_factory(model)
    for prompt, max_new, tokens in result.samples:
        expected = generate(
            model,
            prompt,
            params=SamplingParams(max_new_tokens=max_new),
            cache_factory=factory,
        ).continuation()
        if not np.array_equal(expected, tokens):
            errors.append(
                f"tokens differ from generate() for a {prompt.size}-token prompt"
            )
    return errors


def beyond_p90(values: list[float]) -> int:
    cut = float(np.percentile(values, 90)) if values else 0.0
    return sum(1 for value in values if value > cut)


def end_to_end(result: LoopResult, setup_s: float) -> dict[str, float]:
    def ms(values: list[float], q: int) -> float:
        return 1000.0 * float(np.percentile(values, q))

    return {
        "setup_s": setup_s,
        "tokens_per_s": statistics.median(result.segment_rates),
        "ttft_p50_ms": ms(result.ttft_s, 50),
        "ttft_p90_ms": ms(result.ttft_s, 90),
        "itl_p50_ms": ms(result.itl_s, 50),
        "itl_p90_ms": ms(result.itl_s, 90),
        "peak_rss_mb": result.window_peak_rss_mb,
        "dram_bytes_per_token": (
            result.window.dram_bytes_per_token if result.window else 0.0
        ),
    }


def per_layer(
    tracer, observer, traced: LoopResult, untraced: LoopResult
) -> dict[str, float]:
    self_ms = {name: 1000.0 * seconds for name, seconds in tracer.self_s.items()}
    calls = tracer.calls
    scrapes = tracer.scrape_s
    useful_reads = tracer.decode_kv_positions
    wall_ms = 1000.0 * traced.wall_s
    return {
        "engine.step.calls": calls["engine.step"],
        "engine.step.self_ms": self_ms.get("engine.step", 0.0),
        "engine.batch_rows_mean": statistics.fmean(observer.rows),
        "scheduler.plan_step_ms": self_ms.get("scheduler.plan_step", 0.0),
        "scheduler.queue_wait_ms_p50": (
            1000.0 * statistics.median(observer.queue_wait_s)
        ),
        "model.decode.self_ms": self_ms.get("model.decode", 0.0),
        "model.decode.rows_per_call": (
            tracer.decode_rows / max(calls["model.decode"], 1)
        ),
        "model.mixed.self_ms": self_ms.get("model.mixed", 0.0),
        "model.step.self_ms": self_ms.get("model.step", 0.0),
        "attention.self_ms": self_ms.get("attention", 0.0),
        "attention.calls": calls["attention"],
        "attention.dispatches": observer.dispatches,
        "attention.padded_read_share": observer.padded_reads
        / max(observer.padded_reads + useful_reads, 1),
        "codec.encode_ms": self_ms.get("codec.encode", 0.0),
        "codec.encode_calls": calls["codec.encode"],
        "kvpool.gather_ms": self_ms.get("kvpool.gather", 0.0),
        "kvpool.gather_calls": calls["kvpool.gather"],
        "kvpool.write_ms": self_ms.get("kvpool.write", 0.0),
        "kvpool.prefix_hit_share": traced.prefix_hit_tokens / traced.prompt_tokens,
        "kvpool.preemptions": traced.preemptions,
        "kvpool.blocks_peak_share": (
            observer.blocks_peak / max(observer.blocks_total, 1)
        ),
        "layers.norm_ms": self_ms.get("layers.norm", 0.0),
        "layers.norm_calls": calls["layers.norm"],
        "sampling.ms": self_ms.get("sampling", 0.0),
        "traffic.model_ms": self_ms.get("traffic.model", 0.0),
        "metrics.scrape_ms_p50": (
            1000.0 * statistics.median(scrapes) if scrapes else 0.0
        ),
        "metrics.scrape_ms_last": 1000.0 * scrapes[-1] if scrapes else 0.0,
        "residual.ms": wall_ms - sum(self_ms.values()),
        "trace.wall_ms": wall_ms,
        "trace.overhead_share": traced.wall_s / untraced.wall_s - 1.0,
    }


def environment() -> dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {name: os.environ[name] for name in BLAS_ENV},
    }


def counts(result: LoopResult) -> dict[str, object]:
    window = result.window
    return {
        "steps": result.steps,
        "sent": result.sent,
        "finished": result.finished,
        "client_aborted": result.aborted,
        "cut_at_end": result.cut,
        "failed": result.failed,
        "oracle_checked": len(result.samples),
        "ttft_samples": len(result.ttft_s),
        "ttft_beyond_p90": beyond_p90(result.ttft_s),
        "itl_samples": len(result.itl_s),
        "itl_beyond_p90": beyond_p90(result.itl_s),
        "window": None
        if window is None
        else {
            "steps": window.steps,
            "new_tokens": window.new_tokens,
            "prefix_hit_tokens": window.prefix_hit_tokens,
            "dram_bytes_per_token": window.dram_bytes_per_token,
        },
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    model, engine = set_up(workload, seed)
    setup_s = time.perf_counter() - STARTED
    phases: list[tuple[Engine, LoopResult]] = []
    if not trace:
        result = ClosedLoop(engine, workload, MEASURE, seed).run(
            workload.window_steps, seconds
        )
        phases.append((engine, result))
        metrics = end_to_end(result, setup_s)
        errors = []
        if min(beyond_p90(result.ttft_s), beyond_p90(result.itl_s)) < 10:
            errors.append("fewer than 10 latency samples beyond p90")
    else:
        from layertrace import LayerObserver, Tracer

        untraced = ClosedLoop(engine, workload, MEASURE, seed).run(
            workload.window_steps, 0.0
        )
        phases.append((engine, untraced))
        gc.collect()
        engine = Engine(model, workload.engine_config())
        observer = LayerObserver()
        with Tracer() as tracer:
            traced = ClosedLoop(engine, workload, MEASURE, seed, observer).run(
                workload.window_steps, 0.0
            )
        phases.append((engine, traced))
        metrics = per_layer(tracer, observer, traced, untraced)
        errors = []
        if untraced.window != traced.window:
            errors.append("traced and untraced count windows differ")
    for phase_engine, result in phases:
        errors += check(model, workload, phase_engine, result)
    failed_requests = sum(result.failed for _, result in phases)
    failed = failed_requests + len(errors)
    if failed_requests:
        errors.append(f"{failed_requests} requests failed")
    return {
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": sum(result.sent for _, result in phases),
        "failed": failed,
        "errors": errors,
        "counts": [counts(result) for _, result in phases],
        "env": environment(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("build", "setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.role == "build":
        get_model(MODEL)
        report: dict = {"built": True}
    elif args.role == "setup":
        set_up(workload, args.seed)
        report = {"setup_s": time.perf_counter() - STARTED}
    else:
        report = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
