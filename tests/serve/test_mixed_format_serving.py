"""Mixed-precision serving: one engine, heterogeneous KV formats.

The load-bearing guarantee of the format redesign: a batch whose
requests override ``SamplingParams.kv_format`` emits, request for
request, exactly the tokens each format's *solo* engine (configured
engine-wide with that format) would emit — across paged/unpaged and
chunked/unchunked serving.  On top: the prefix cache never mixes
byte-incompatible formats, and telemetry splits KV traffic by format.
"""

import numpy as np
import pytest

from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.llm.zoo import get_model
from repro.serve import Engine, EngineConfig, SamplingParams


@pytest.fixture(scope="module")
def model():
    return get_model("opt-125m-sim")


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(11)
    return [rng.integers(0, 256, size=length) for length in (6, 13, 21, 9)]


#: One format per request in the mixed batch (None inherits the engine
#: default, anda6; fp16 and bfp5 are byte-incompatible overrides).
REQUEST_FORMATS = [None, KVFormat.fp16(), KVFormat.bfp(5), KVFormat.anda(4)]

MODES = [
    pytest.param(kv_pool, chunked, id=f"{'paged' if kv_pool else 'unpaged'}-"
                 f"{'chunked' if chunked else 'unchunked'}")
    for kv_pool in (False, True)
    for chunked in (False, True)
]


def run_engine(model, prompts, formats, config, max_new_tokens=6):
    engine = Engine(model, config)
    handles = [
        engine.submit(
            prompt,
            SamplingParams(max_new_tokens=max_new_tokens, kv_format=fmt),
        )
        for prompt, fmt in zip(prompts, formats)
    ]
    while engine.has_work():
        engine.step()
    return engine, [handle.result().tokens for handle in handles]


def make_config(kv_pool, chunked, **overrides):
    return EngineConfig(
        kv_format=overrides.pop("kv_format", KVFormat.anda(6)),
        kv_pool=kv_pool,
        chunked_prefill=chunked,
        max_batch_tokens=overrides.pop("max_batch_tokens", 16),
        **overrides,
    )


class TestMixedBatchParity:
    @pytest.mark.parametrize("kv_pool,chunked", MODES)
    def test_tokens_match_per_format_solo_engines(
        self, model, prompts, kv_pool, chunked
    ):
        config = make_config(kv_pool, chunked)
        _, mixed = run_engine(model, prompts, REQUEST_FORMATS, config)
        for prompt, fmt, tokens in zip(prompts, REQUEST_FORMATS, mixed):
            solo_config = make_config(
                kv_pool, chunked, kv_format=fmt or KVFormat.anda(6)
            )
            _, solo = run_engine(model, [prompt], [None], solo_config)
            np.testing.assert_array_equal(tokens, solo[0])

    @pytest.mark.parametrize("kv_pool,chunked", MODES)
    def test_per_layer_override_in_mixed_batch(self, prompts, kv_pool, chunked):
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        formats = [None, stack, None, stack]
        config = make_config(kv_pool, chunked, kv_format=KVFormat.fp16())
        _, mixed = run_engine(tiny, prompts, formats, config)
        for prompt, fmt, tokens in zip(prompts, formats, mixed):
            solo_config = make_config(
                kv_pool, chunked, kv_format=fmt or KVFormat.fp16()
            )
            _, solo = run_engine(tiny, [prompt], [None], solo_config)
            np.testing.assert_array_equal(tokens, solo[0])

    def test_per_layer_engine_default_paged_matches_unpaged(self, prompts):
        # The pool's per-layer default codecs (pool.codecs) must write
        # the same bytes the unpaged per-layer caches write.
        tiny = build_model(tiny_test_config("opt", d_model=32, n_layers=2))
        stack = KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        formats = [None] * len(prompts)
        _, unpaged = run_engine(
            tiny, prompts, formats, make_config(False, False, kv_format=stack)
        )
        _, paged = run_engine(
            tiny, prompts, formats, make_config(True, False, kv_format=stack)
        )
        for a, b in zip(unpaged, paged):
            np.testing.assert_array_equal(a, b)


class TestFormatSplitTelemetry:
    def test_metrics_split_by_label(self, model, prompts):
        engine, _ = run_engine(
            model, prompts, REQUEST_FORMATS, make_config(True, True)
        )
        split = dict(engine.metrics().kv_format_bytes)
        assert set(split) == {"anda6", "fp16", "bfp5", "anda4"}
        assert all(value > 0 for value in split.values())

    def test_split_sums_to_step_kv_traffic_without_padding(self, model, prompts):
        # Attention never pads, so the per-format attribution covers
        # the KV streams exactly.
        engine, _ = run_engine(
            model, prompts, REQUEST_FORMATS, make_config(False, False)
        )
        metrics = engine.metrics()
        split_total = sum(dict(metrics.kv_format_bytes).values())
        kv_total = metrics.traffic.kv_read_bytes + metrics.traffic.kv_write_bytes
        assert split_total == pytest.approx(kv_total, rel=1e-9)

    def test_prometheus_counter_per_format(self, model, prompts):
        engine, _ = run_engine(
            model, prompts, REQUEST_FORMATS, make_config(True, False)
        )
        text = engine.telemetry.prometheus()
        assert "repro_engine_kv_format_bytes_total" in text
        for label in ("anda6", "fp16", "bfp5", "anda4"):
            assert f'format="{label}"' in text

    def test_uniform_traffic_unchanged_by_redesign(self, model, prompts):
        # A single-format batch must charge exactly what the scalar
        # kv_bits arithmetic always charged (no float re-association).
        engine_new, _ = run_engine(
            model, prompts, [None] * len(prompts), make_config(False, False)
        )
        with pytest.warns(DeprecationWarning):
            legacy_config = EngineConfig(
                kv_mode="anda",
                kv_mantissa_bits=6,
                kv_pool=False,
                chunked_prefill=False,
                max_batch_tokens=16,
            )
        engine_old, _ = run_engine(
            model, prompts, [None] * len(prompts), legacy_config
        )
        assert (
            engine_new.metrics().traffic.total_bytes
            == engine_old.metrics().traffic.total_bytes
        )


class TestPrefixSharingGuard:
    def shared_prompts(self):
        rng = np.random.default_rng(3)
        prefix = rng.integers(0, 256, size=70)
        return [
            np.concatenate([prefix, rng.integers(0, 256, size=6)]),
            np.concatenate([prefix, rng.integers(0, 256, size=9)]),
        ]

    def test_default_format_requests_still_share(self, model):
        prompts = self.shared_prompts()
        engine, _ = run_engine(
            model, prompts, [None, None], make_config(True, False)
        )
        assert engine.metrics().prefix_hit_tokens > 0

    def test_private_format_request_never_shares(self, model):
        prompts = self.shared_prompts()
        engine, tokens = run_engine(
            model,
            prompts,
            [None, KVFormat.fp16()],
            make_config(True, False),
        )
        # The fp16 override must not read the anda6 donor's blocks...
        assert engine.metrics().prefix_hit_tokens == 0
        # ...and must still decode exactly like its solo engine.
        _, solo = run_engine(
            model,
            [prompts[1]],
            [None],
            make_config(True, False, kv_format=KVFormat.fp16()),
        )
        np.testing.assert_array_equal(tokens[1], solo[0])

    def test_private_blocks_never_enter_the_cache(self, model):
        prompts = self.shared_prompts()
        # Submit the override FIRST: if its blocks were registered, the
        # second (default-format) request would "hit" wrong-format
        # bytes.  With the guard, the default request gets no hit and
        # decodes from its own correctly-formatted blocks.
        engine, tokens = run_engine(
            model,
            prompts,
            [KVFormat.fp16(), None],
            make_config(True, False),
        )
        assert engine.metrics().prefix_hit_tokens == 0
        _, solo = run_engine(
            model, [prompts[1]], [None], make_config(True, False)
        )
        np.testing.assert_array_equal(tokens[1], solo[0])

    def test_same_format_override_still_shares(self, model):
        # An explicit override equal to the engine default is byte
        # compatible — sharing stays on (kv_private is signature-based,
        # not identity-based).
        prompts = self.shared_prompts()
        engine, _ = run_engine(
            model,
            prompts,
            [None, KVFormat.anda(6)],
            make_config(True, False),
        )
        assert engine.metrics().prefix_hit_tokens > 0
