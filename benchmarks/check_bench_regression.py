"""CI regression gate over the serving benchmark's JSON output.

Reads ``BENCH_serving.json`` (produced by ``bench_serving.py``) and a
committed baseline (``benchmarks/baselines/serving.json``), and fails
the build when the serving engine got slower or its latency tail got
worse than the baseline allows.

Two kinds of checks run:

1. **Structural** (no baseline needed): on the long-prompt workload,
   chunked prefill must beat unchunked on p95 inter-token latency in
   every KV mode.  This is the acceptance bar for chunked prefill —
   mixed steps exist to keep the decode tail flat while a long prompt
   prefills, so a build where chunking stops helping is broken however
   fast the runner is.

2. **Baseline-relative** (within ``--tolerance``, default 25%): the
   gated metrics are deliberately *machine-normalized ratios* —
   ``speedup_vs_sequential`` for throughput and the chunked/unchunked
   ``itl_p95`` ratio for latency — not absolute tokens/sec or
   milliseconds.  CI runners vary wildly in absolute speed between
   generations and even between runs; ratios measured inside one
   process on one machine cancel that out, so the gate trips on real
   regressions (a slower engine relative to its own sequential
   baseline, a fatter tail relative to its own unchunked run) instead
   of on runner lottery.

With ``--decode-hotpath`` the gate additionally checks
``BENCH_decode_hotpath.json`` (from ``bench_decode_hotpath.py``):
every cell must report bitwise parity between the reference and
optimized KV storages, the anda+paged cell at ``seq_len >= 512`` must
clear a structural 2.0x speedup floor (the decode hot-path acceptance
bar), and each baselined cell's reference/optimized ratio — again a
machine-normalized, in-process ratio — must stay inside the tolerance
band of ``benchmarks/baselines/decode_hotpath.json``.

The same file's ``telemetry_overhead`` section gates the serving
telemetry subsystem structurally: decoding inside the engine's
disabled-telemetry ``stats_scope`` must cost <= 2% step latency over
the unscoped hot path (an in-process median of paired per-step
ratios, measured in lockstep so runner noise cancels), with
bitwise-identical logits across unscoped, scoped and traced runs.

Both baseline files are validated up front: a baseline missing a
required section fails with a message naming the missing keys instead
of a bare ``KeyError`` deep inside a check.

Usage::

    python benchmarks/check_bench_regression.py BENCH_serving.json
    python benchmarks/check_bench_regression.py results.json \
        --baseline benchmarks/baselines/serving.json --tolerance 0.25
    python benchmarks/check_bench_regression.py BENCH_serving.json \
        --decode-hotpath BENCH_decode_hotpath.json

Exits non-zero with a per-check report when any check fails.  To
re-baseline after an intentional perf change, edit the matching file
under ``benchmarks/baselines/`` in the same PR and say why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "serving.json"
DEFAULT_DECODE_BASELINE = Path(__file__).parent / "baselines" / "decode_hotpath.json"

#: Structural floor for the decode hot path: the optimized storage must
#: at least halve step latency vs the reference O(history) storage on
#: the anda+paged cell at long context (the PR acceptance bar).
DECODE_HOTPATH_FLOOR = 2.0
DECODE_HOTPATH_FLOOR_SEQ = 512

#: Structural floor for the vectorized Anda codec: at the acceptance
#: context (512) the fused truncate-mode pipeline must beat the
#: field-decomposition reference by at least 1.5x on the decode-shape
#: stacked K+V batch, with bitwise-identical stored float16 bytes.
CODEC_SPEEDUP_FLOOR = 1.5

#: Structural ceiling on disabled-telemetry decode overhead: decoding
#: inside the engine's ``stats_scope(..., tracer=None)`` (what every
#: Engine.step installs when telemetry is off) may cost at most 2% over
#: the unscoped hot path.  The gated number is the median of paired
#: per-step ratios measured in lockstep, so runner speed and slow-phase
#: noise cancel out.
TELEMETRY_OVERHEAD_CEILING = 1.02


class CheckFailure(Exception):
    """One gated metric fell outside its allowed band."""


def require_baseline_keys(
    baseline: dict, keys: tuple[str, ...], path: str
) -> None:
    """Fail with the full list of missing sections, not a KeyError."""
    missing = [key for key in keys if key not in baseline]
    if missing:
        raise CheckFailure(
            f"baseline {path} is missing required key(s): "
            f"{', '.join(missing)} — add them (see the matching "
            "benchmark's output for the measured values)"
        )


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError as error:
        raise SystemExit(f"missing input: {path}") from error
    except json.JSONDecodeError as error:
        raise SystemExit(f"unparseable JSON in {path}: {error}") from error


def engine_speedups(results: dict) -> dict[tuple[str, int], float]:
    """(kv_mode, batch_size) -> speedup_vs_sequential for engine rows."""
    return {
        (row["kv_mode"], row["batch_size"]): row["speedup_vs_sequential"]
        for row in results.get("results", [])
        if row.get("mode") == "engine"
    }


def long_prompt_rows(results: dict) -> dict[tuple[str, bool], dict]:
    """(kv_mode, chunked_prefill) -> long-prompt workload row."""
    return {
        (row["kv_mode"], row["chunked_prefill"]): row
        for row in results.get("long_prompt_results", [])
    }


def check_chunking_beats_unchunked(results: dict) -> list[str]:
    """Structural gate: chunked p95 ITL strictly below unchunked."""
    rows = long_prompt_rows(results)
    kv_modes = sorted({kv_mode for kv_mode, _ in rows})
    if not kv_modes:
        raise CheckFailure(
            "no long_prompt_results in the benchmark output; run "
            "bench_serving.py without --long-prompt 0"
        )
    lines = []
    for kv_mode in kv_modes:
        try:
            chunked = rows[(kv_mode, True)]
            unchunked = rows[(kv_mode, False)]
        except KeyError:
            raise CheckFailure(
                f"long-prompt workload missing a chunked/unchunked pair "
                f"for kv={kv_mode}"
            ) from None
        chunked_p95 = chunked["itl_p95_seconds"]
        unchunked_p95 = unchunked["itl_p95_seconds"]
        if chunked_p95 >= unchunked_p95:
            raise CheckFailure(
                f"chunked prefill no longer improves p95 ITL for "
                f"kv={kv_mode}: chunked {chunked_p95 * 1e3:.2f}ms >= "
                f"unchunked {unchunked_p95 * 1e3:.2f}ms"
            )
        lines.append(
            f"ok   itl p95 (kv={kv_mode}): chunked "
            f"{chunked_p95 * 1e3:.2f}ms < unchunked "
            f"{unchunked_p95 * 1e3:.2f}ms"
        )
    return lines


def check_throughput(results: dict, baseline: dict, tolerance: float) -> list[str]:
    """Engine speedup-vs-sequential must not drop below baseline band."""
    measured = engine_speedups(results)
    lines = []
    for kv_mode, by_batch in baseline.get("speedup_vs_sequential", {}).items():
        for batch_text, base in by_batch.items():
            key = (kv_mode, int(batch_text))
            if key not in measured:
                raise CheckFailure(
                    f"baseline expects an engine row for kv={kv_mode} "
                    f"batch={batch_text}, none in the benchmark output"
                )
            floor = base * (1.0 - tolerance)
            actual = measured[key]
            if actual < floor:
                raise CheckFailure(
                    f"throughput regression (kv={kv_mode}, batch="
                    f"{batch_text}): speedup {actual:.2f}x < "
                    f"{floor:.2f}x (baseline {base:.2f}x - {tolerance:.0%})"
                )
            lines.append(
                f"ok   speedup (kv={kv_mode}, batch={batch_text}): "
                f"{actual:.2f}x >= {floor:.2f}x"
            )
    return lines


def check_itl_ratio(results: dict, baseline: dict, tolerance: float) -> list[str]:
    """Chunked/unchunked p95 ITL ratio must not rise beyond baseline band."""
    rows = long_prompt_rows(results)
    lines = []
    for kv_mode, base in baseline.get("long_prompt_itl_p95_ratio", {}).items():
        row = rows.get((kv_mode, True))
        if row is None:
            raise CheckFailure(
                f"baseline expects a chunked long-prompt row for "
                f"kv={kv_mode}, none in the benchmark output"
            )
        ceiling = base * (1.0 + tolerance)
        actual = row["itl_p95_ratio_vs_unchunked"]
        if actual > ceiling:
            raise CheckFailure(
                f"p95 ITL regression (kv={kv_mode}): chunked/unchunked "
                f"ratio {actual:.2f} > {ceiling:.2f} (baseline "
                f"{base:.2f} + {tolerance:.0%})"
            )
        lines.append(f"ok   itl ratio (kv={kv_mode}): {actual:.2f} <= {ceiling:.2f}")
    return lines


def decode_hotpath_cells(results: dict) -> dict[str, dict]:
    """'kv|storage|seq' -> row for decode hot-path benchmark output."""
    cells = {}
    for row in results.get("results", []):
        storage = "paged" if row["paged"] else "unpaged"
        cells[f"{row['kv_mode']}|{storage}|{row['seq_len']}"] = row
    return cells


def check_decode_parity(results: dict) -> list[str]:
    """Structural gate: optimized storage is bitwise-identical everywhere."""
    cells = decode_hotpath_cells(results)
    if not cells:
        raise CheckFailure(
            "no results in the decode hot-path output; run "
            "bench_decode_hotpath.py first"
        )
    for name, row in sorted(cells.items()):
        if not row.get("parity"):
            raise CheckFailure(
                f"decode hot path lost bitwise parity with the reference "
                f"storage at {name}"
            )
    return [f"ok   parity: {len(cells)} decode hot-path cells bitwise-identical"]


def check_decode_floor(results: dict) -> list[str]:
    """Structural gate: anda+paged long-context speedup >= the 2x floor."""
    rows = [
        row
        for row in results.get("results", [])
        if row["kv_mode"] == "anda"
        and row["paged"]
        and row["seq_len"] >= DECODE_HOTPATH_FLOOR_SEQ
    ]
    if not rows:
        raise CheckFailure(
            f"decode hot-path output has no anda+paged cell at seq_len >= "
            f"{DECODE_HOTPATH_FLOOR_SEQ}; the acceptance cell must be measured"
        )
    lines = []
    for row in rows:
        if row["speedup"] < DECODE_HOTPATH_FLOOR:
            raise CheckFailure(
                f"decode hot path below the structural floor at anda|paged|"
                f"{row['seq_len']}: {row['speedup']:.2f}x < "
                f"{DECODE_HOTPATH_FLOOR:.1f}x"
            )
        lines.append(
            f"ok   hot-path floor (anda|paged|{row['seq_len']}): "
            f"{row['speedup']:.2f}x >= {DECODE_HOTPATH_FLOOR:.1f}x"
        )
    return lines


def check_decode_speedups(
    results: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Per-cell step-latency speedup must not drop below baseline band."""
    cells = decode_hotpath_cells(results)
    lines = []
    for name, base in baseline.get("speedup", {}).items():
        row = cells.get(name)
        if row is None:
            raise CheckFailure(
                f"baseline expects a decode hot-path cell {name}, none in "
                "the benchmark output"
            )
        floor = base * (1.0 - tolerance)
        actual = row["speedup"]
        if actual < floor:
            raise CheckFailure(
                f"decode hot-path regression at {name}: speedup "
                f"{actual:.2f}x < {floor:.2f}x (baseline {base:.2f}x "
                f"- {tolerance:.0%})"
            )
        lines.append(f"ok   hot-path speedup ({name}): {actual:.2f}x >= {floor:.2f}x")
    return lines


def check_codec_vectorization(
    results: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Gates on the vectorized-codec scenario.

    Structural: the stored float16 bytes must be bitwise identical to
    the reference codec (the serving stack's parity bedrock), and the
    vectorized/reference speedup must clear the 1.5x floor.  Baseline-
    relative: the same speedup — an in-process ratio, so runner speed
    cancels — must stay inside the committed band.
    """
    row = results.get("codec")
    if not row:
        raise CheckFailure(
            "no codec section in the decode hot-path output; re-run "
            "bench_decode_hotpath.py"
        )
    if not row.get("parity"):
        raise CheckFailure(
            "vectorized codec stored bytes diverged from the reference "
            "(float16 parity lost)"
        )
    actual = row["codec_speedup"]
    if actual < CODEC_SPEEDUP_FLOOR:
        raise CheckFailure(
            f"vectorized codec below the structural floor at seq="
            f"{row['seq_len']}: {actual:.2f}x < {CODEC_SPEEDUP_FLOOR:.1f}x"
        )
    lines = [
        f"ok   codec floor (seq={row['seq_len']}): {actual:.2f}x >= "
        f"{CODEC_SPEEDUP_FLOOR:.1f}x "
        f"({row['codec_step_share']:.1%} of decode step, informational)"
    ]
    base = baseline.get("codec_speedup")
    if base is not None:
        floor = base * (1.0 - tolerance)
        if actual < floor:
            raise CheckFailure(
                f"vectorized codec regression: speedup {actual:.2f}x < "
                f"{floor:.2f}x (baseline {base:.2f}x - {tolerance:.0%})"
            )
        lines.append(f"ok   codec speedup: {actual:.2f}x >= {floor:.2f}x")
    return lines


def check_telemetry_overhead(results: dict) -> list[str]:
    """Structural gates on the telemetry-overhead scenario.

    Disabled-mode telemetry (the per-engine ``stats_scope`` with no
    tracer) must cost <= 2% step latency over the unscoped hot path,
    and all three variants (unscoped / scoped / traced) must have
    produced bitwise-identical logits — instrumentation never touches
    numerics.
    """
    row = results.get("telemetry_overhead")
    if not row:
        raise CheckFailure(
            "no telemetry_overhead section in the decode hot-path output; "
            "re-run bench_decode_hotpath.py"
        )
    if not row.get("parity"):
        raise CheckFailure(
            "telemetry-scoped decode lost bitwise parity with the "
            "unscoped hot path"
        )
    ratio = row["disabled_overhead_ratio"]
    if ratio > TELEMETRY_OVERHEAD_CEILING:
        raise CheckFailure(
            f"disabled-telemetry overhead too high: scoped/unscoped step "
            f"latency {ratio:.4f} > {TELEMETRY_OVERHEAD_CEILING:.2f} "
            f"(scoped {row['ms_per_step_scoped']:.3f} ms/step vs unscoped "
            f"{row['ms_per_step_unscoped']:.3f})"
        )
    return [
        f"ok   telemetry overhead (disabled): {ratio:.4f}x <= "
        f"{TELEMETRY_OVERHEAD_CEILING:.2f}x "
        f"(traced {row['traced_overhead_ratio']:.4f}x, informational)"
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        nargs="?",
        default="BENCH_serving.json",
        help="bench_serving.py output JSON",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional drift from baseline (default 0.25)",
    )
    parser.add_argument(
        "--decode-hotpath",
        default=None,
        help="bench_decode_hotpath.py output JSON; enables the decode "
        "hot-path gates",
    )
    parser.add_argument(
        "--decode-baseline",
        default=str(DEFAULT_DECODE_BASELINE),
        help="committed decode hot-path baseline JSON",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must lie in [0, 1)")

    results = load_json(Path(args.results))
    baseline = load_json(Path(args.baseline))

    try:
        report = []
        require_baseline_keys(
            baseline,
            ("speedup_vs_sequential", "long_prompt_itl_p95_ratio"),
            args.baseline,
        )
        report.extend(check_chunking_beats_unchunked(results))
        report.extend(check_throughput(results, baseline, args.tolerance))
        report.extend(check_itl_ratio(results, baseline, args.tolerance))
        if args.decode_hotpath is not None:
            decode_results = load_json(Path(args.decode_hotpath))
            decode_baseline = load_json(Path(args.decode_baseline))
            require_baseline_keys(
                decode_baseline,
                ("speedup", "codec_speedup"),
                args.decode_baseline,
            )
            report.extend(check_decode_parity(decode_results))
            report.extend(check_decode_floor(decode_results))
            report.extend(
                check_decode_speedups(decode_results, decode_baseline, args.tolerance)
            )
            report.extend(
                check_codec_vectorization(
                    decode_results, decode_baseline, args.tolerance
                )
            )
            report.extend(check_telemetry_overhead(decode_results))
    except CheckFailure as failure:
        print(f"FAIL {failure}")
        print(
            "hint: if this perf change is intentional, re-baseline "
            f"{args.baseline} in the same PR and explain why"
        )
        return 1
    for line in report:
        print(line)
    print(f"bench regression gate passed ({len(report)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
