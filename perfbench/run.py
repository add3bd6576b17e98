"""Closed-loop serving benchmark for ``repro.serve`` (entry point).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chat_prefix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload; ``--trace 1``
prints its per-layer metrics from a separately traced run.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.

This process imports no numpy.  It starts ``worker.py`` in fresh
interpreters with BLAS pinned to one thread: once to build the model
checkpoint if the checkout has none (not timed), then for set-up-only
runs, then for the measured run, and reports the median set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up is timed in this many fresh processes (the last one also
#: measures); setup_s is their median.
SETUP_RUNS = 3
#: Worker time limits.  Set-ups and the measurement together stay under
#: 180 s; only a first run that trains the checkpoint needs longer.
BUILD_TIMEOUT_S = 800
SETUP_TIMEOUT_S = 25
MEASURE_TIMEOUT_S = 110


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def worker(role: str, args: argparse.Namespace, timeout: float) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        ANDA_ZOO_CACHE=str(ROOT / ".anda_zoo_cache"),
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: the {role} worker did not finish within {timeout:.0f} s")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perfbench: the {role} worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description="Closed-loop repro.serve benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "serve" / "engine.py").is_file():
        sys.exit(f"perfbench: no repro.serve sources under {ROOT / 'src'}")
    units = declared_units(bool(args.trace))
    zoo = ROOT / ".anda_zoo_cache"
    cached = any(zoo.glob("opt-6.7b-sim-*.npz"))
    worker("build", args, BUILD_TIMEOUT_S)
    setups = [
        worker("setup", args, SETUP_TIMEOUT_S)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    report = worker("measure", args, MEASURE_TIMEOUT_S)
    setups.append(report["setup_s"])

    metrics = dict(report["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        sys.exit(
            "perfbench: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    env = report["env"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={env['nproc']} cpus_allowed={env['cpus_allowed']} "
        f"loadavg={env['loadavg']} numpy={env['numpy']} blas={env['blas']} "
        f"blas_threads={env['blas_threads_env']} zoo_checkpoint_cached={cached}"
    )
    for phase in report["counts"]:
        print("counts " + json.dumps(phase))
    print("setup_s runs " + json.dumps(setups))
    for name, value in metrics.items():
        analytic = name == "dram_bytes_per_token"
        label = " (analytic, from tensor sizes)" if analytic else ""
        print(f"{name} = {value:.6g} {units[name]}{label}")
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
