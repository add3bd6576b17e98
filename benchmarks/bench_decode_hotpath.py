"""Decode hot-path microbenchmark: amortized KV storage vs the O(L) path.

Measures what one batched decode step costs as context grows, isolating
the Python-side KV re-materialization the serving loop used to pay:

* **reference** storage — per-append ``np.concatenate`` plus a full
  float16 -> float32 re-dequantization of the whole history every
  layer, every step (``ReferenceKVCache`` / ``gather_reference``, the
  exact pre-optimization implementations);
* **optimized** storage — preallocated capacity-doubling buffers with
  memoized incremental dequant views (unpaged), and the vectorized
  fancy-index gather into persistent per-sequence scratch (paged).

Each ``{fp16, anda} x {unpaged, paged}`` cell prefills ``--batch``
requests to a context length, then times ``forward_decode_batch`` steps
on both storages and checks their logits are **bitwise identical** —
the speedup is pure allocation/copy savings, never a numerics change.
Per-step ``kv_copy_bytes`` / ``kv_dequant_bytes`` (from
``repro.llm.attention.HOT_PATH_STATS``) are recorded alongside latency:
the reference bytes grow with context, the optimized bytes stay flat.

Results land in ``BENCH_decode_hotpath.json``;
``benchmarks/check_bench_regression.py --decode-hotpath`` gates the
speedups against ``benchmarks/baselines/decode_hotpath.json`` in CI so
future PRs cannot silently reintroduce O(history) copies per step.

Usage::

    python benchmarks/bench_decode_hotpath.py                 # full sweep
    python benchmarks/bench_decode_hotpath.py --smoke         # CI-sized run
    python benchmarks/bench_decode_hotpath.py --seq-lens 128,512
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.anda import (  # noqa: E402
    fake_quantize_batch,
    fake_quantize_batch_reference,
)
from repro.llm.attention import (  # noqa: E402
    ATTENTION_STATS,
    HOT_PATH_STATS,
    AttentionDispatchStats,
    KVHotPathStats,
    ReferenceKVCache,
    stats_scope,
)
from repro.llm.config import tiny_test_config  # noqa: E402
from repro.llm.kv_quant import make_cache_factory, make_kv_codec  # noqa: E402
from repro.llm.transformer import CausalLM, build_model  # noqa: E402
from repro.serve.kvpool.paged import PagedKVCache  # noqa: E402
from repro.serve.kvpool.pool import DEFAULT_BLOCK_SIZE, KVPool  # noqa: E402
from repro.serve.telemetry import StepTracer  # noqa: E402

#: Decode batch the acceptance criterion is stated at.
DEFAULT_BATCH = 8
#: Anda KV mantissa length (the serving default).
MANTISSA_BITS = 8
#: Context lengths before the timed decode window.
SEQ_LENS_DEFAULT = (128, 512)
SEQ_LENS_SMOKE = (512,)
#: Timed decode steps (after warmup).
STEPS_DEFAULT = 16
STEPS_SMOKE = 8
WARMUP_STEPS = 2


class _ReferencePagedKVCache(PagedKVCache):
    """Paged cache whose reads use the pre-optimization block-loop gather."""

    __slots__ = ()

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        return self._sequence.gather_reference(self._layer, self._length)


def build_bench_model() -> CausalLM:
    """A small LLaMA-style model with headroom for long contexts.

    ``d_model=128`` with 2 heads gives ``head_dim=64`` — the Anda
    group size and the hardware word the rest of the stack models —
    so the anda codec runs its unpadded fast path, as it would on a
    real serving geometry.
    """
    config = replace(
        tiny_test_config(family="llama", d_model=128, n_layers=2, seed=7),
        max_seq_len=1024,
    )
    return build_model(config)


def build_request_caches(
    model: CausalLM,
    kv_mode: str,
    paged: bool,
    reference: bool,
    prompts: np.ndarray,
    decode_steps: int,
) -> list[list]:
    """Per-request per-layer caches, prefilled with each request's prompt."""
    batch, seq_len = prompts.shape
    if paged:
        blocks_per_request = -(-(seq_len + decode_steps) // DEFAULT_BLOCK_SIZE) + 1
        pool = KVPool(
            model.config,
            num_blocks=batch * blocks_per_request + 2,
            codec=make_kv_codec(kv_mode, MANTISSA_BITS),
            enable_prefix_cache=False,
        )
        sequences = [pool.create_sequence(prompt) for prompt in prompts]
        if reference:
            for sequence in sequences:
                sequence.caches = [
                    _ReferencePagedKVCache(sequence, layer)
                    for layer in range(pool.n_layers)
                ]
        all_caches = [sequence.caches for sequence in sequences]
    elif reference:
        codec = make_kv_codec(kv_mode, MANTISSA_BITS)
        all_caches = [
            [ReferenceKVCache(codec=codec) for _ in model.blocks] for _ in prompts
        ]
    else:
        factory = make_cache_factory(model, kv_mode, MANTISSA_BITS)
        all_caches = [factory() for _ in prompts]
    for prompt, caches in zip(prompts, all_caches):
        model.forward_step(prompt.reshape(1, -1), caches)
    return all_caches


def run_decode(
    model: CausalLM,
    all_caches: list[list],
    token_rows: list[np.ndarray],
) -> tuple[list[np.ndarray], float, tuple[int, int], int]:
    """Run scripted decode steps; time and meter the post-warmup window.

    Returns per-step logits, the timed window's elapsed seconds, the
    window's ``(copy, dequant)`` byte deltas and its attention-dispatch
    delta (``ATTENTION_STATS`` launches across the timed steps).
    """
    logits_per_step: list[np.ndarray] = []
    elapsed = 0.0
    copy0 = dequant0 = dispatch0 = 0
    for step, tokens in enumerate(token_rows):
        if step == WARMUP_STEPS:
            copy0, dequant0 = HOT_PATH_STATS.snapshot()
            dispatch0 = ATTENTION_STATS.dispatches
            started = time.perf_counter()
        logits = model.forward_decode_batch(tokens, all_caches)
        if step >= WARMUP_STEPS:
            elapsed = time.perf_counter() - started
        logits_per_step.append(logits)
    copy1, dequant1 = HOT_PATH_STATS.snapshot()
    dispatches = ATTENTION_STATS.dispatches - dispatch0
    return logits_per_step, elapsed, (copy1 - copy0, dequant1 - dequant0), dispatches


def bench_cell(
    model: CausalLM,
    kv_mode: str,
    paged: bool,
    seq_len: int,
    batch: int,
    steps: int,
    repeats: int = 1,
) -> dict:
    """Reference-vs-optimized comparison for one (kv, storage, seq) cell.

    Each variant's timed window runs ``repeats`` times from freshly
    prefilled caches and keeps the *minimum* elapsed time — the
    standard microbenchmark defence against scheduler noise, which
    matters because CI gates the reference/optimized ratio.  Decoding
    is deterministic, so parity is checked on every repeat.
    """
    rng = np.random.default_rng(11 * seq_len + (17 if paged else 0))
    vocab = model.config.vocab_size
    prompts = rng.integers(0, vocab, size=(batch, seq_len))
    total_steps = WARMUP_STEPS + steps
    token_rows = [rng.integers(0, vocab, size=(batch, 1)) for _ in range(total_steps)]

    outputs = {}
    for label, reference in (("reference", True), ("optimized", False)):
        best = None
        for _ in range(repeats):
            all_caches = build_request_caches(
                model, kv_mode, paged, reference, prompts, total_steps
            )
            logits, seconds, counters, dispatches = run_decode(
                model, all_caches, token_rows
            )
            if best is not None and not all(
                np.array_equal(a, b) for a, b in zip(best[0], logits)
            ):
                raise AssertionError(f"{label} decode is not deterministic")
            if best is None or seconds < best[1]:
                best = (logits, seconds, counters, dispatches)
        outputs[label] = best

    ref_logits, ref_seconds, (ref_copy, ref_dequant), _ = outputs["reference"]
    opt_logits, opt_seconds, (opt_copy, opt_dequant), opt_dispatches = outputs[
        "optimized"
    ]
    # Bit equality, not == (which would let -0.0 / +0.0 slip through).
    parity = all(
        ref.tobytes() == opt.tobytes() for ref, opt in zip(ref_logits, opt_logits)
    )
    return {
        "kv_mode": kv_mode,
        "paged": paged,
        "seq_len": seq_len,
        "batch_size": batch,
        "decode_steps": steps,
        "ms_per_step_reference": ref_seconds / steps * 1e3,
        "ms_per_step_optimized": opt_seconds / steps * 1e3,
        "speedup": ref_seconds / opt_seconds if opt_seconds > 0 else float("inf"),
        "reference_kv_copy_bytes_per_step": ref_copy / steps,
        "optimized_kv_copy_bytes_per_step": opt_copy / steps,
        "reference_kv_dequant_bytes_per_step": ref_dequant / steps,
        "optimized_kv_dequant_bytes_per_step": opt_dequant / steps,
        "attention_dispatches_per_step": opt_dispatches // steps,
        "parity": bool(parity),
    }


def bench_codec_cell(
    model: CausalLM,
    seq_len: int,
    batch: int,
    steps: int,
    repeats: int = 1,
) -> dict:
    """Vectorized vs reference Anda codec on the decode hot-path shape.

    Times the rows the flat forward lane compresses once per layer of
    a decode step — the stacked K+V single-position batch,
    ``(2 x batch, heads, 1, head_dim)`` — through the vectorized
    truncate-mode pipeline and through the pre-vectorization
    field-decomposition reference, over ``n_layers`` calls per step.
    The stored float16 bytes (what the KV caches persist) must be
    **bitwise identical** between the two; the speedup is pure dispatch
    fusion, never a numerics change.

    ``codec_step_share`` reports what fraction of a real optimized
    anda decode step (same batch, ``seq_len`` context) the vectorized
    codec accounts for — the Amdahl bound on further codec work.
    """
    config = model.config
    n_layers = config.n_layers
    rng = np.random.default_rng(41 * seq_len + batch)
    shape = (2 * batch, config.n_heads, 1, config.head_dim)
    total_steps = WARMUP_STEPS + steps
    # One activation-scaled tensor per layer per step, like the live path.
    tensors = [
        [
            (
                rng.normal(size=shape)
                * 10 ** (rng.normal(size=shape) / 2)
            ).astype(np.float32)
            for _ in range(n_layers)
        ]
        for _ in range(total_steps)
    ]

    outputs = {}
    for label, codec in (
        ("reference", fake_quantize_batch_reference),
        ("vectorized", fake_quantize_batch),
    ):
        best = None
        for _ in range(repeats):
            outs: list[np.ndarray] = []
            started = 0.0
            elapsed = 0.0
            for step, layer_tensors in enumerate(tensors):
                if step == WARMUP_STEPS:
                    started = time.perf_counter()
                for tensor in layer_tensors:
                    outs.append(codec(tensor, MANTISSA_BITS))
                if step >= WARMUP_STEPS:
                    elapsed = time.perf_counter() - started
            if best is None or elapsed < best[1]:
                best = (outs, elapsed)
        outputs[label] = best

    ref_outs, ref_seconds = outputs["reference"]
    vec_outs, vec_seconds = outputs["vectorized"]
    # Stored-byte parity: the float16 rows the KV caches persist.
    parity = all(
        ref.astype(np.float16).tobytes() == vec.astype(np.float16).tobytes()
        for ref, vec in zip(ref_outs, vec_outs)
    )

    # Codec share of a real optimized anda decode step at this context.
    prompts = rng.integers(0, config.vocab_size, size=(batch, seq_len))
    token_rows = [
        rng.integers(0, config.vocab_size, size=(batch, 1))
        for _ in range(total_steps)
    ]
    all_caches = build_request_caches(
        model, "anda", False, False, prompts, total_steps
    )
    _, decode_seconds, _, _ = run_decode(model, all_caches, token_rows)

    vec_ms = vec_seconds / steps * 1e3
    decode_ms = decode_seconds / steps * 1e3
    return {
        "seq_len": seq_len,
        "batch_size": batch,
        "decode_steps": steps,
        "n_layers": n_layers,
        "mantissa_bits": MANTISSA_BITS,
        "ms_per_step_reference": ref_seconds / steps * 1e3,
        "ms_per_step_vectorized": vec_ms,
        "codec_speedup": (
            ref_seconds / vec_seconds if vec_seconds > 0 else float("inf")
        ),
        "decode_ms_per_step": decode_ms,
        "codec_step_share": vec_ms / decode_ms if decode_ms > 0 else 0.0,
        "parity": bool(parity),
    }


def bench_telemetry_overhead(
    model: CausalLM,
    kv_mode: str,
    seq_len: int,
    batch: int,
    steps: int,
    repeats: int = 1,
) -> dict:
    """Decode-step cost of the telemetry plumbing, off and on.

    The same scripted decode window runs three ways on the optimized
    unpaged storage:

    * ``unscoped`` — stat increments hit the module globals (the
      pre-telemetry hot path, and still the path for direct model
      calls);
    * ``scoped`` — inside ``stats_scope(..., tracer=None)``, exactly
      what every ``Engine.step`` installs with telemetry *disabled*:
      the increments pay one contextvar load and every span site pays
      one ``is not None`` check;
    * ``traced`` — a live :class:`StepTracer` recording span events.

    ``check_bench_regression.py`` gates ``disabled_overhead_ratio`` at
    <= 2%: enabling the telemetry *capability* must stay free; only
    actually tracing may cost.  Logits from all three runs must be
    bitwise identical — telemetry never touches numerics.

    Measurement discipline: the gated ratio is ~1.00, far below runner
    noise, so the three variants advance *in lockstep* — three cache
    sets, one step of each timed back-to-back within the same few
    milliseconds, with the in-step order rotating to cancel
    cache-warmth bias — and the reported ratio is the **median of the
    paired per-step ratios**.  Window sums or floors-of-minima proved
    an order of magnitude noisier on shared runners: a mid-window
    interruption or a multi-second slow phase lands on one variant's
    whole window, while a paired ratio only sees jitter *between* two
    adjacent ~ms measurements.
    """
    rng = np.random.default_rng(31 * seq_len)
    vocab = model.config.vocab_size
    prompts = rng.integers(0, vocab, size=(batch, seq_len))
    total_steps = WARMUP_STEPS + steps
    token_rows = [rng.integers(0, vocab, size=(batch, 1)) for _ in range(total_steps)]
    labels = ("unscoped", "scoped", "traced")

    samples: dict[str, list[float]] = {label: [] for label in labels}
    logits_by_label: dict[str, list[np.ndarray]] = {label: [] for label in labels}
    for _ in range(repeats):
        caches = {
            label: build_request_caches(
                model, kv_mode, False, False, prompts, total_steps
            )
            for label in labels
        }
        scopes = {
            "scoped": (KVHotPathStats(), AttentionDispatchStats(), None),
            "traced": (KVHotPathStats(), AttentionDispatchStats(), StepTracer()),
        }
        for step, tokens in enumerate(token_rows):
            for offset in range(len(labels)):
                label = labels[(step + offset) % len(labels)]
                if label == "unscoped":
                    started = time.perf_counter()
                    logits = model.forward_decode_batch(tokens, caches[label])
                    elapsed = time.perf_counter() - started
                else:
                    with stats_scope(*scopes[label]):
                        started = time.perf_counter()
                        logits = model.forward_decode_batch(tokens, caches[label])
                        elapsed = time.perf_counter() - started
                if step >= WARMUP_STEPS:
                    samples[label].append(elapsed)
                logits_by_label[label].append(logits)

    reference = logits_by_label["unscoped"]
    parity = all(
        all(
            a.tobytes() == b.tobytes()
            for a, b in zip(reference, logits_by_label[label])
        )
        for label in ("scoped", "traced")
    )
    unscoped_ms = min(samples["unscoped"]) * 1e3
    scoped_ms = min(samples["scoped"]) * 1e3
    traced_ms = min(samples["traced"]) * 1e3
    scoped_ratios = sorted(
        scoped / unscoped
        for scoped, unscoped in zip(samples["scoped"], samples["unscoped"])
    )
    traced_ratios = sorted(
        traced / unscoped
        for traced, unscoped in zip(samples["traced"], samples["unscoped"])
    )
    return {
        "kv_mode": kv_mode,
        "seq_len": seq_len,
        "batch_size": batch,
        "decode_steps": steps,
        "paired_samples": len(scoped_ratios),
        "ms_per_step_unscoped": unscoped_ms,
        "ms_per_step_scoped": scoped_ms,
        "ms_per_step_traced": traced_ms,
        "disabled_overhead_ratio": scoped_ratios[len(scoped_ratios) // 2],
        "traced_overhead_ratio": traced_ratios[len(traced_ratios) // 2],
        "parity": bool(parity),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--batch", type=int, default=DEFAULT_BATCH, help="decode batch size"
    )
    parser.add_argument(
        "--seq-lens",
        type=str,
        default=None,
        help="comma-separated context lengths (default 128,512; 512 with --smoke)",
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="timed decode steps per cell"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per variant; minimum elapsed is kept "
        "(default 3, 5 with --smoke: CI runners are noisy and the "
        "gated ratio rides on the minima)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_decode_hotpath.json"),
        help="result JSON path",
    )
    args = parser.parse_args(argv)
    if args.seq_lens is not None:
        seq_lens = tuple(int(part) for part in args.seq_lens.split(","))
    else:
        seq_lens = SEQ_LENS_SMOKE if args.smoke else SEQ_LENS_DEFAULT
    steps = args.steps or (STEPS_SMOKE if args.smoke else STEPS_DEFAULT)
    repeats = args.repeats or (5 if args.smoke else 3)

    model = build_bench_model()
    results = []
    for seq_len in seq_lens:
        for kv_mode in ("fp16", "anda"):
            for paged in (False, True):
                row = bench_cell(
                    model, kv_mode, paged, seq_len, args.batch, steps, repeats
                )
                results.append(row)
                storage = "paged" if paged else "unpaged"
                print(
                    f"seq={seq_len:4d} kv={kv_mode:5s} {storage:7s}: "
                    f"ref {row['ms_per_step_reference']:8.2f} ms/step -> "
                    f"opt {row['ms_per_step_optimized']:8.2f} ms/step "
                    f"({row['speedup']:.2f}x, parity={row['parity']})"
                )
                if not row["parity"]:
                    print("FAIL decode logits diverged from the reference storage")
                    return 1

    # Codec scenario at the acceptance context (the largest measured
    # seq len, 512 by default): vectorized-vs-reference speedup with
    # stored-byte parity, plus the codec's share of a live decode step.
    codec = bench_codec_cell(model, max(seq_lens), args.batch, steps, repeats)
    print(
        f"codec seq={codec['seq_len']:4d} batch={codec['batch_size']:2d} "
        f"M={codec['mantissa_bits']}: "
        f"ref {codec['ms_per_step_reference']:6.3f} ms/step -> "
        f"vec {codec['ms_per_step_vectorized']:6.3f} ms/step "
        f"({codec['codec_speedup']:.2f}x, "
        f"{codec['codec_step_share']:.1%} of decode step, "
        f"parity={codec['parity']})"
    )
    if not codec["parity"]:
        print("FAIL vectorized codec stored bytes diverged from the reference")
        return 1

    # The overhead ratio gates at 1.02, so each variant gets at least
    # 8 x steps per-step samples for its floor regardless of the base
    # cells' repeat count.
    telemetry_overhead = bench_telemetry_overhead(
        model, "fp16", max(seq_lens), args.batch, steps, max(repeats, 8)
    )
    print(
        f"telemetry seq={telemetry_overhead['seq_len']:4d} "
        f"batch={telemetry_overhead['batch_size']:2d}: "
        f"unscoped {telemetry_overhead['ms_per_step_unscoped']:.3f} ms/step, "
        f"scoped {telemetry_overhead['ms_per_step_scoped']:.3f} "
        f"({telemetry_overhead['disabled_overhead_ratio']:.4f}x), "
        f"traced {telemetry_overhead['ms_per_step_traced']:.3f} "
        f"({telemetry_overhead['traced_overhead_ratio']:.4f}x, "
        f"parity={telemetry_overhead['parity']})"
    )
    if not telemetry_overhead["parity"]:
        print("FAIL telemetry-scoped decode logits diverged from unscoped")
        return 1

    payload = {
        "benchmark": "decode_hotpath",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": args.smoke,
        "batch_size": args.batch,
        "mantissa_bits": MANTISSA_BITS,
        "results": results,
        "codec": codec,
        "telemetry_overhead": telemetry_overhead,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
