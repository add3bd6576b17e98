"""Engine tests: token parity with sequential decoding, lifecycle, metrics.

The load-bearing guarantee: batched continuous decoding emits exactly
the tokens N independent ``generate()`` calls would — for mixed prompt
lengths, mid-stream arrivals, greedy and sampled decoding, and both
FP16 and Anda-compressed KV caches.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import make_cache_factory
from repro.llm.transformer import build_model
from repro.llm.zoo import get_model
from repro.serve import Engine, EngineConfig, RequestStatus
from serving_helpers import serve


@pytest.fixture(scope="module")
def model():
    return get_model("opt-125m-sim")


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(42)
    return [rng.integers(0, 256, size=length) for length in (5, 11, 3, 17)]


@pytest.fixture(
    params=[(5, 11, 3, 17), (7, 7, 7, 10, 9)], ids=["distinct", "shared_lengths"]
)
def length_prompts(request):
    """Prompt sets whose decode rows sit at distinct, or equal and near-equal,
    KV lengths within one step."""
    rng = np.random.default_rng(42)
    return [rng.integers(0, 256, size=length) for length in request.param]


def reference(model, prompt, max_new_tokens, kv_mode="fp16", bits=8, **kwargs):
    return generate(
        model,
        prompt,
        max_new_tokens,
        cache_factory=make_cache_factory(model, kv_mode, bits),
        **kwargs,
    )


class TestGreedyParity:
    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_mixed_prompt_lengths_token_identical(
        self, model, length_prompts, kv_mode
    ):
        config = EngineConfig(kv_mode=kv_mode, kv_mantissa_bits=6)
        results = serve(model, length_prompts, max_new_tokens=8, config=config)
        for prompt, result in zip(length_prompts, results):
            expected = reference(model, prompt, 8, kv_mode=kv_mode, bits=6)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_results_align_with_submission_order(self, model, prompts):
        results = serve(model, prompts, max_new_tokens=4)
        for prompt, result in zip(prompts, results):
            np.testing.assert_array_equal(result.tokens[: prompt.shape[0]], prompt)
            assert result.prompt_length == prompt.shape[0]
            assert result.continuation().shape[0] == 4

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_llama_family_rotary_decode_parity(self, length_prompts, kv_mode):
        # LLaMA-style models gather per-request rotary phases in the
        # batched path; untrained weights suffice for token parity.
        llama = build_model(tiny_test_config("llama", d_model=32, n_layers=2))
        config = EngineConfig(kv_mode=kv_mode, kv_mantissa_bits=6)
        results = serve(llama, length_prompts, max_new_tokens=8, config=config)
        for prompt, result in zip(length_prompts, results):
            expected = reference(llama, prompt, 8, kv_mode=kv_mode, bits=6)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_tiny_batch_budget_still_token_identical(self, model, prompts):
        # A starved scheduler (one admission at a time) changes step
        # composition but must not change any emitted token.
        config = EngineConfig(max_batch_size=2, max_batch_tokens=18)
        results = serve(model, prompts, max_new_tokens=6, config=config)
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 6)
            np.testing.assert_array_equal(result.tokens, expected.tokens)


class TestMidStreamArrival:
    def test_late_submission_token_identical(self, model, prompts):
        engine = Engine(model, EngineConfig(max_batch_tokens=64))
        early_a = engine.submit(prompts[0], 10).request_id
        early_b = engine.submit(prompts[1], 6).request_id
        for _ in range(3):
            engine.step()
        late = engine.submit(prompts[2], 12).request_id
        done = {result.request_id: result for result in engine.drain()}
        for request_id, prompt, count in [
            (early_a, prompts[0], 10),
            (early_b, prompts[1], 6),
            (late, prompts[2], 12),
        ]:
            expected = generate(model, prompt, count)
            np.testing.assert_array_equal(done[request_id].tokens, expected.tokens)

    def test_late_arrival_joins_running_batch(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 12)
        engine.step()
        engine.submit(prompts[1], 4)
        report = engine.step().report
        # One running decode plus the late arrival's prefill share a step.
        assert report.decodes == 1
        assert report.prefills == 1


class TestSampledParity:
    def test_same_seed_matches_generate(self, model, prompts):
        results = serve(
            model, prompts[:2], max_new_tokens=8, temperature=1.0, seed=9
        )
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 8, temperature=1.0, seed=9)
            np.testing.assert_array_equal(result.tokens, expected.tokens)


class TestLifecycle:
    def test_submit_validation_mirrors_generate(self, model):
        engine = Engine(model)
        with pytest.raises(ModelError):
            engine.submit(np.array([], dtype=np.int64), 4)
        with pytest.raises(ModelError):
            engine.submit(np.array([1, 2]), 0)
        with pytest.raises(ModelError):
            engine.submit(np.array([1, 2]), model.config.max_seq_len)
        with pytest.raises(ModelError):
            engine.submit(np.array([1, 2]), 4, temperature=1.0, top_k=0)

    def test_unknown_policy_and_kv_mode_rejected(self, model):
        with pytest.raises(ModelError):
            Engine(model, EngineConfig(policy="lifo"))
        with pytest.raises(ModelError):
            EngineConfig(kv_mode="int4")

    def test_bad_kv_mantissa_fails_at_construction_not_mid_step(self):
        # A deferred failure here used to drop the request silently.
        with pytest.raises(ModelError):
            EngineConfig(kv_mode="anda", kv_mantissa_bits=0)
        with pytest.raises(ModelError):
            EngineConfig(kv_mode="anda", kv_mantissa_bits=17)

    def test_bad_batch_limits_fail_at_construction(self):
        with pytest.raises(ModelError):
            EngineConfig(max_batch_size=0)
        with pytest.raises(ModelError):
            EngineConfig(max_batch_tokens=0)

    def test_serve_batch_accepts_prebuilt_engine(self, model, prompts):
        engine = Engine(model)
        results = serve(model, prompts[:2], 3, engine=engine)
        assert len(results) == 2
        assert engine.metrics().total_new_tokens == 6

    def test_serve_batch_preserves_foreign_requests_on_shared_engine(
        self, model, prompts
    ):
        engine = Engine(model)
        foreign = engine.submit(prompts[0], 4).request_id
        results = serve(model, [prompts[1]], 3, engine=engine)
        assert [len(r.continuation()) for r in results] == [3]
        leftover = engine.pop_finished()
        assert [done.request_id for done in leftover] == [foreign]
        expected = generate(model, prompts[0], 4)
        np.testing.assert_array_equal(leftover[0].tokens, expected.tokens)

    def test_drain_collects_once_and_engine_is_reusable(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 3)
        assert len(engine.drain()) == 1
        # Collect-once: already-returned results are released, so a
        # reused engine does not accumulate token arrays forever.
        assert engine.drain() == []
        assert not engine.has_work()
        engine.submit(prompts[1], 3)
        assert engine.has_work()
        assert len(engine.drain()) == 1
        assert engine.metrics().total_new_tokens == 6

    def test_out_of_vocab_prompt_rejected_at_submit(self, model):
        engine = Engine(model)
        with pytest.raises(ModelError):
            engine.submit(np.array([0, model.config.vocab_size]), 2)
        with pytest.raises(ModelError):
            engine.submit(np.array([-1, 3]), 2)
        assert not engine.has_work()

    def test_finished_requests_release_kv_memory(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 2)
        done = engine.drain()
        assert done[0].metrics.generated_tokens == 2
        assert engine._running == []

    def test_pop_finished_clears(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 2)
        while engine.has_work():
            engine.step()
        assert len(engine.pop_finished()) == 1
        assert engine.pop_finished() == []

    def test_metrics_survive_pop_finished(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 2)
        engine.drain()
        engine.pop_finished()
        metrics = engine.metrics()
        assert len(metrics.requests) == 1
        assert metrics.mean_latency_seconds > 0.0

    def test_submitted_prompt_buffer_can_be_reused(self, model):
        # The engine defers prefill; mutating the caller's buffer after
        # submit must not change what gets served.
        buffer = np.arange(6, dtype=np.int64) % 256
        engine = Engine(model)
        engine.submit(buffer, 3)
        expected = generate(model, buffer.copy(), 3)
        buffer[:] = 0
        done = engine.drain()[0]
        np.testing.assert_array_equal(done.tokens, expected.tokens)


class TestMetrics:
    def test_request_metrics_ordering(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 5)
        engine.drain()
        metrics = engine.metrics()
        record = metrics.requests[0]
        assert record.generated_tokens == 5
        assert 0 <= record.ttft_steps <= record.latency_steps
        assert 0.0 <= record.ttft_seconds <= record.latency_seconds
        assert metrics.total_new_tokens == 5
        assert metrics.tokens_per_second > 0

    def test_batched_run_reports_mean_batch_size(self, model, prompts):
        config = EngineConfig(max_batch_tokens=64)
        engine = Engine(model, config)
        for prompt in prompts:
            engine.submit(prompt, 6)
        engine.drain()
        assert engine.metrics().mean_batch_size > 1.0

    def test_anda_kv_moves_less_traffic_than_fp16(self, model, prompts):
        totals = {}
        for kv_mode in ("fp16", "anda"):
            engine = Engine(model, EngineConfig(kv_mode=kv_mode))
            for prompt in prompts:
                engine.submit(prompt, 6)
            engine.drain()
            totals[kv_mode] = engine.metrics().traffic
        assert (
            totals["anda"].kv_read_bytes + totals["anda"].kv_write_bytes
            < totals["fp16"].kv_read_bytes + totals["fp16"].kv_write_bytes
        )
        # Weight traffic is KV-mode independent.
        assert totals["anda"].weight_bytes == totals["fp16"].weight_bytes


class TestStatusTransitions:
    def test_waiting_running_finished(self, model, prompts):
        engine = Engine(model)
        engine.submit(prompts[0], 2)
        state = engine._waiting[0]
        assert state.status is RequestStatus.WAITING
        engine.step()
        assert state.status is RequestStatus.RUNNING
        engine.step()
        assert state.status is RequestStatus.FINISHED
