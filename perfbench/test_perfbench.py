"""Self-checks of the benchmark: exact closed-loop counts and seeded inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.llm.zoo import get_model  # noqa: E402
from repro.serve import Engine  # noqa: E402

import driver  # noqa: E402
import layertrace  # noqa: E402
from driver import ClosedLoop  # noqa: E402
from workloads import MEASURE, MODEL, WARMUP, WORKLOADS  # noqa: E402

TINY_STEPS = 40


@pytest.fixture(scope="module")
def model():
    return get_model(MODEL)


def tiny_run(model, name: str, seed: int, observer=None):
    workload = dataclasses.replace(WORKLOADS[name], window_steps=TINY_STEPS)
    engine = Engine(model, workload.engine_config())
    result = ClosedLoop(engine, workload, MEASURE, seed, observer).run(TINY_STEPS, 0.0)
    return engine, result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(model, name):
    _, first = tiny_run(model, name, seed=5)
    _, second = tiny_run(model, name, seed=5)
    assert first.window is not None
    assert first.window == second.window
    assert first.window.steps == TINY_STEPS
    assert (first.sent, first.finished, first.aborted, first.cut, first.tokens) == (
        second.sent,
        second.finished,
        second.aborted,
        second.cut,
        second.tokens,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_changes_the_trace_within_the_ranges(model, name):
    workload = WORKLOADS[name]
    first = list(itertools.islice(workload.client_stream(MEASURE, 5, 0), 20))
    second = list(itertools.islice(workload.client_stream(MEASURE, 6, 0), 20))
    warm = list(itertools.islice(workload.client_stream(WARMUP, 5, 0), 20))
    assert [spec.prompt.tolist() for spec in first] != [
        spec.prompt.tolist() for spec in second
    ]
    assert [spec.prompt.tolist() for spec in first] != [
        spec.prompt.tolist() for spec in warm
    ]
    shared = (
        workload.shared_len + workload.user_len[0],
        workload.shared_len + workload.user_len[1],
    )
    for spec in first + second:
        length = spec.prompt.shape[0]
        assert (
            workload.prompt_len[0] <= length <= workload.prompt_len[1]
            or (workload.shared_prompts and shared[0] <= length <= shared[1])
        )
        assert workload.output_len[0] <= spec.max_new_tokens <= workload.output_len[1]
        if spec.abort_after is not None:
            assert 1 <= spec.abort_after < spec.max_new_tokens
    _, five = tiny_run(model, name, seed=5)
    _, six = tiny_run(model, name, seed=6)
    assert five.window != six.window


def test_tracer_accounts_for_the_wall_time_and_restores(model):
    originals = {
        (id(owner), attribute): vars(owner)[attribute]
        for owner, attribute, _ in layertrace.LAYER_SPANS
    }
    observer = layertrace.LayerObserver()
    with layertrace.Tracer() as tracer:
        _, result = tiny_run(model, "chat_prefix", seed=5, observer=observer)
    for owner, attribute, _ in layertrace.LAYER_SPANS:
        assert vars(owner)[attribute] is originals[(id(owner), attribute)]
    assert driver.scrape is originals[(id(driver), "scrape")]
    assert tracer.calls["engine.step"] == TINY_STEPS
    assert tracer.calls["kvpool.gather"] > 0
    assert 0.0 < sum(tracer.self_s.values()) <= result.wall_s
    assert len(observer.rows) == TINY_STEPS
