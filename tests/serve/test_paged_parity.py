"""Paged-engine tests: bitwise parity, prefix sharing, preemption.

The acceptance bar for the KV pool: the paged engine (FP16 and Anda
modes) emits tokens bitwise identical to the unpaged engine — through
block-granular storage, prefix-cache sharing, copy-on-write forks, and
preemption's recompute-on-resume replay.  Shared-prefix workloads must
show measurable prefill-compute and simulated-DRAM savings, and a
memory-pressure run must preempt yet still finish every request.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import make_cache_factory
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig
from serving_helpers import serve


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


@pytest.fixture(scope="module")
def llama():
    return build_model(tiny_test_config("llama", d_model=32, n_layers=2))


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


def paged_config(**overrides):
    defaults = dict(kv_pool=True, kv_pool_blocks=32, kv_block_size=4)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def assert_parity(results, references):
    for served, expected in zip(results, references):
        np.testing.assert_array_equal(served.tokens, expected.tokens)


class TestPagedParity:
    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_paged_tokens_match_unpaged_engine(self, model, prompts, kv_mode):
        paged = serve(
            model,
            prompts,
            max_new_tokens=8,
            config=paged_config(kv_mode=kv_mode, kv_mantissa_bits=6),
        )
        unpaged = serve(
            model,
            prompts,
            max_new_tokens=8,
            config=EngineConfig(kv_mode=kv_mode, kv_mantissa_bits=6),
        )
        assert_parity(paged, unpaged)

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_paged_tokens_match_sequential_generate(
        self, model, length_prompts, kv_mode
    ):
        results = serve(
            model,
            length_prompts,
            max_new_tokens=8,
            config=paged_config(kv_mode=kv_mode, kv_mantissa_bits=6),
        )
        factory = make_cache_factory(model, kv_mode, 6)
        for prompt, result in zip(length_prompts, results):
            expected = generate(model, prompt, 8, cache_factory=factory)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    @pytest.mark.parametrize("kv_mode", ["fp16", "anda"])
    def test_rotary_family_paged_parity(self, llama, prompts, kv_mode):
        paged = serve(
            llama,
            prompts,
            max_new_tokens=8,
            config=paged_config(kv_mode=kv_mode, kv_mantissa_bits=6),
        )
        unpaged = serve(
            llama,
            prompts,
            max_new_tokens=8,
            config=EngineConfig(kv_mode=kv_mode, kv_mantissa_bits=6),
        )
        assert_parity(paged, unpaged)

    @pytest.mark.parametrize("block_size", [1, 3, 64])
    def test_block_size_never_changes_tokens(self, model, prompts, block_size):
        # Anda groups per position along the head dimension, so even
        # unaligned block sizes stay bitwise exact.
        paged = serve(
            model,
            prompts,
            max_new_tokens=6,
            config=paged_config(
                kv_mode="anda",
                kv_mantissa_bits=6,
                kv_block_size=block_size,
                kv_pool_blocks=64,
            ),
        )
        unpaged = serve(
            model,
            prompts,
            max_new_tokens=6,
            config=EngineConfig(kv_mode="anda", kv_mantissa_bits=6),
        )
        assert_parity(paged, unpaged)

    def test_sampled_decoding_parity(self, model, prompts):
        paged = serve(
            model, prompts, max_new_tokens=8, temperature=1.0, seed=9,
            config=paged_config(),
        )
        for prompt, result in zip(prompts, paged):
            expected = generate(model, prompt, 8, temperature=1.0, seed=9)
            np.testing.assert_array_equal(result.tokens, expected.tokens)


class TestPrefixSharing:
    def shared_prompts(self, count=4, common=12, tail=3, seed=0):
        rng = np.random.default_rng(seed)
        system = rng.integers(0, 256, size=common)
        return [
            np.concatenate([system, rng.integers(0, 256, size=tail)])
            for _ in range(count)
        ]

    def test_shared_prefix_hits_and_parity(self, model):
        prompts = self.shared_prompts()
        engine = Engine(model, paged_config())
        results = serve(model, prompts, max_new_tokens=6, engine=engine)
        unpaged = serve(model, prompts, max_new_tokens=6, config=EngineConfig())
        assert_parity(results, unpaged)
        metrics = engine.metrics()
        # 3 of 4 requests share the 12-token system prompt's 3 blocks.
        assert metrics.prefix_hit_tokens == 3 * 12
        assert metrics.prefix_saved_bytes > 0

    def test_shared_prefix_saves_prefill_compute_and_traffic(self, model):
        # Unchunked engines: monolithic prefill never re-reads cached
        # context, so gross savings equal the traffic delta exactly
        # (the chunked counterpart is pinned in test_chunked_prefill).
        prompts = self.shared_prompts(count=6, common=16, tail=2)
        with_cache = Engine(
            model, paged_config(kv_pool_blocks=64, chunked_prefill=False)
        )
        without_cache = Engine(
            model,
            paged_config(
                kv_pool_blocks=64, prefix_caching=False, chunked_prefill=False
            ),
        )
        results = serve(model, prompts, 4, engine=with_cache)
        baseline = serve(model, prompts, 4, engine=without_cache)
        assert_parity(results, baseline)
        hit, miss = with_cache.metrics(), without_cache.metrics()
        assert hit.prefix_hit_tokens >= 5 * 16
        assert miss.prefix_hit_tokens == 0
        # Prefill work (batch_tokens beyond one decode per new token)
        # and simulated DRAM both shrink with sharing.
        assert hit.traffic.kv_write_bytes < miss.traffic.kv_write_bytes
        assert hit.traffic.total_bytes < miss.traffic.total_bytes
        assert hit.prefix_saved_bytes == pytest.approx(
            miss.traffic.total_bytes - hit.traffic.total_bytes
        )

    def test_identical_prompts_fork_copy_on_write(self, model):
        # A block-aligned duplicated prompt shares all but its final
        # token; writing that token must fork the partial shared block.
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, 256, size=8)
        engine = Engine(model, paged_config())
        results = serve(
            model, [prompt.copy() for _ in range(3)], 5, engine=engine
        )
        assert engine._pool.cow_forks >= 2
        expected = generate(model, prompt, 5)
        for result in results:
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_prefix_cache_survives_request_completion(self, model):
        prompt = np.arange(10, dtype=np.int64)
        engine = Engine(model, paged_config())
        serve(model, [prompt], 4, engine=engine)
        assert engine._pool.reclaimable_blocks > 0  # cached, evictable
        serve(model, [prompt.copy()], 4, engine=engine)
        assert engine.metrics().prefix_hit_tokens == 8  # 2 full blocks


class TestPreemption:
    def test_memory_pressure_preempts_and_completes(self, model):
        rng = np.random.default_rng(11)
        prompts = [rng.integers(0, 256, size=6) for _ in range(5)]
        # 8 blocks x 4 positions = 32 slots for 5 x 16 = 80 positions.
        engine = Engine(
            model,
            paged_config(kv_pool_blocks=8, max_batch_tokens=128),
        )
        results = serve(model, prompts, max_new_tokens=10, engine=engine)
        metrics = engine.metrics()
        assert metrics.preemptions > 0
        assert len(results) == len(prompts)
        unpaged = serve(model, prompts, max_new_tokens=10, config=EngineConfig())
        assert_parity(results, unpaged)

    def test_preempted_sampled_requests_resume_bitwise(self, model):
        rng = np.random.default_rng(13)
        prompts = [rng.integers(0, 256, size=5) for _ in range(4)]
        engine = Engine(
            model,
            paged_config(kv_pool_blocks=6, prefix_caching=False),
        )
        results = serve(
            model, prompts, max_new_tokens=12, temperature=1.0, seed=3,
            engine=engine,
        )
        assert engine.metrics().preemptions > 0
        for prompt, result in zip(prompts, results):
            expected = generate(model, prompt, 12, temperature=1.0, seed=3)
            np.testing.assert_array_equal(result.tokens, expected.tokens)

    def test_preemption_evicts_latest_arrival_first(self, model):
        rng = np.random.default_rng(17)
        prompts = [rng.integers(0, 256, size=6) for _ in range(4)]
        engine = Engine(model, paged_config(kv_pool_blocks=8))
        first = engine.submit(prompts[0], 10).request_id
        for prompt in prompts[1:]:
            engine.submit(prompt, 10)
        # Step until the first preemption: the earliest arrival must
        # still be resident (latest-arrival-first victim selection).
        for _ in range(200):
            if engine.step().report.preemptions:
                break
        else:
            pytest.fail("undersized pool never preempted")
        running_ids = {state.request.request_id for state in engine._running}
        assert first in running_ids
        results = {done.request_id for done in engine.drain(max_steps=400)}
        assert first in results  # everyone still completes

    def test_oversized_request_rejected_at_submit(self, model):
        engine = Engine(model, paged_config(kv_pool_blocks=4))
        with pytest.raises(ModelError):
            # 4 blocks x 4 tokens = 16 slots, minus one CoW slack block.
            engine.submit(np.arange(10, dtype=np.int64), 6)
        assert not engine.has_work()


class TestMidStepFailureRecovery:
    def test_failed_prefill_does_not_corrupt_finished_decode(self, model):
        # One step can both finish a decode and admit a prefill.  If
        # the prefill raises, the finished request (caches already
        # released) must already be out of the running set, and the
        # failed request must stay queued and be servable afterwards.
        # (Legacy whole-prompt path; the chunked-path recovery is
        # pinned in test_chunked_prefill.)
        engine = Engine(model, paged_config(chunked_prefill=False))
        engine.submit(np.arange(4, dtype=np.int64), max_new_tokens=2)
        engine.step()  # prefill: emits token 1 of 2
        engine.submit(np.arange(6, dtype=np.int64), max_new_tokens=3)

        real_forward_step = engine.model.forward_step

        def failing_forward_step(*args, **kwargs):
            raise ModelError("injected prefill failure")

        engine.model.forward_step = failing_forward_step
        try:
            with pytest.raises(ModelError, match="injected"):
                engine.step()  # decode finishes request 0; prefill blows up
        finally:
            engine.model.forward_step = real_forward_step
        assert engine._running == []  # finished request did not linger
        done = engine.drain(max_steps=20)  # queued request still serves
        assert sorted(result.request_id for result in done) == [0, 1]
        assert len(done[1].continuation()) == 3


class TestDrainGuard:
    def test_drain_max_steps_raises_instead_of_spinning(self, model):
        engine = Engine(model, EngineConfig())
        engine.submit(np.arange(4, dtype=np.int64), max_new_tokens=8)
        with pytest.raises(ModelError):
            engine.drain(max_steps=2)

    def test_drain_max_steps_validates(self, model):
        engine = Engine(model, EngineConfig())
        with pytest.raises(ModelError):
            engine.drain(max_steps=0)

    def test_generous_max_steps_drains_normally(self, model, prompts):
        engine = Engine(model, EngineConfig())
        engine.submit(prompts[0], 3)
        done = engine.drain(max_steps=50)
        assert len(done) == 1

    def test_starved_queue_raises_clear_error(self, model, monkeypatch):
        # Simulate a scheduler bug: a plan that never admits or decodes.
        import repro.serve.engine as engine_module
        from repro.serve.scheduler import StepPlan

        engine = Engine(model, EngineConfig())
        engine.submit(np.arange(4, dtype=np.int64), 4)
        monkeypatch.setattr(
            engine_module,
            "plan_step",
            lambda *args, **kwargs: StepPlan(decodes=[], prefills=[]),
        )
        with pytest.raises(ModelError, match="no progress"):
            engine.drain()


class TestPoolConfigValidation:
    def test_bad_pool_sizes_rejected(self):
        with pytest.raises(ModelError):
            EngineConfig(kv_pool=True, kv_pool_blocks=1)
        with pytest.raises(ModelError):
            EngineConfig(kv_pool=True, kv_block_size=0)

    def test_pool_metrics_counters_default_zero_unpaged(self, model, prompts):
        engine = Engine(model, EngineConfig())
        serve(model, prompts[:2], 3, engine=engine)
        metrics = engine.metrics()
        assert metrics.preemptions == 0
        assert metrics.evicted_blocks == 0
        assert metrics.prefix_hit_tokens == 0
        assert metrics.prefix_saved_bytes == 0.0
