"""The three closed-loop serving workloads and their seeded request streams.

A workload is a fixed client count plus an engine configuration plus a
recipe for each client's next request.  Client ``c`` draws its requests
from its own generator keyed by ``(domain, seed, c)``, so the request a
client sends next never depends on timing: in a closed loop the whole
step schedule is a function of the seed alone.  ``domain`` separates the
measured stream (``MEASURE``) from the warm-up stream (``WARMUP``), so
warm-up never primes the measured engine's prefix cache with measured
prompts.

Only the generated prompts and ``max_new_tokens`` reach the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.serve import EngineConfig, KVFormat

#: The zoo model every workload serves.
MODEL = "opt-6.7b-sim"

MEASURE = 0
WARMUP = 1

#: Token ids are drawn from [1, VOCAB) (the sim models' byte vocabulary).
VOCAB = 256


@dataclass(frozen=True)
class RequestSpec:
    """One request a client sends.

    ``abort_after`` is the number of received tokens after which the
    client cancels the request (None: the client waits for the end).
    """

    prompt: np.ndarray
    max_new_tokens: int
    abort_after: int | None = None


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the engine settings it runs on.

    Attributes:
        name: workload name on the command line.
        why: the layers this workload exists to exercise.
        clients: closed-loop clients, each with one request in flight.
        max_batch_size: ``EngineConfig.max_batch_size``.
        kv_format: ``"fp16"`` or ``"anda4"`` (``KVFormat.anda(4)``).
        kv_pool_blocks: paged pool size, or None for unpaged storage.
        prompt_len: inclusive range of the unshared prompt length.
        output_len: inclusive range of ``max_new_tokens``.
        shared_share: share of requests that start with a shared
            system prompt.
        shared_prompts / shared_len: how many system prompts, and their
            length in tokens.
        user_len: inclusive range of the user turn after a system prompt.
        abort_share: share of requests the client aborts early.
        scrape_every: steps between two metrics scrapes (0: never).
        window_steps: the count window, the first steps of the measured
            phase; every run reaches it, so its counts repeat exactly.
        warmup_steps: steps of the throwaway warm-up engine.
    """

    name: str
    why: str
    clients: int
    max_batch_size: int
    kv_format: str
    kv_pool_blocks: int | None
    prompt_len: tuple[int, int]
    output_len: tuple[int, int]
    window_steps: int
    warmup_steps: int
    shared_share: float = 0.0
    shared_prompts: int = 0
    shared_len: int = 0
    user_len: tuple[int, int] = (0, 0)
    abort_share: float = 0.0
    scrape_every: int = 0

    def format(self) -> KVFormat:
        return KVFormat.fp16() if self.kv_format == "fp16" else KVFormat.anda(4)

    def engine_config(self) -> EngineConfig:
        """Only the fields the workload needs; every other knob stays default."""
        pool = {}
        if self.kv_pool_blocks is not None:
            pool = {"kv_pool": True, "kv_pool_blocks": self.kv_pool_blocks}
        return EngineConfig(
            max_batch_size=self.max_batch_size, kv_format=self.format(), **pool
        )

    def system_prompts(self, domain: int, seed: int) -> list[np.ndarray]:
        rng = np.random.default_rng([domain, seed, 1_000_000])
        return [
            rng.integers(1, VOCAB, size=self.shared_len)
            for _ in range(self.shared_prompts)
        ]

    def client_stream(self, domain: int, seed: int, client: int):
        """Endless iterator over one client's requests."""
        rng = np.random.default_rng([domain, seed, client])
        systems = self.system_prompts(domain, seed)
        while True:
            if systems and rng.random() < self.shared_share:
                system = systems[int(rng.integers(len(systems)))]
                user = rng.integers(1, VOCAB, size=_draw(rng, self.user_len))
                prompt = np.concatenate([system, user])
            else:
                prompt = rng.integers(1, VOCAB, size=_draw(rng, self.prompt_len))
            max_new = _draw(rng, self.output_len)
            abort_after = None
            if rng.random() < self.abort_share:
                abort_after = int(rng.integers(1, max_new))
            yield RequestSpec(prompt, max_new, abort_after)


def _draw(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    low, high = bounds
    return int(rng.integers(low, high + 1))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="chat_prefix",
            why=(
                "shared system prompts, client aborts and an admission queue: "
                "prefix cache, paged gather, mixed steps, abort rollback and "
                "metrics scrapes; fp16, so the KV codec is idle"
            ),
            clients=24,
            max_batch_size=16,
            kv_format="fp16",
            kv_pool_blocks=192,
            prompt_len=(16, 127),
            output_len=(16, 63),
            shared_share=0.6,
            shared_prompts=4,
            shared_len=128,
            user_len=(8, 63),
            abort_share=0.1,
            scrape_every=50,
            window_steps=1200,
            warmup_steps=80,
        ),
        Workload(
            name="decode_anda",
            why=(
                "decode-bound offline serving in the paper's Anda format: "
                "decode lane, batched attention over long KV, Anda encode "
                "per token; no prefix cache, no paged gather"
            ),
            clients=32,
            max_batch_size=32,
            kv_format="anda4",
            kv_pool_blocks=None,
            prompt_len=(8, 32),
            output_len=(128, 192),
            window_steps=1000,
            warmup_steps=60,
        ),
        Workload(
            name="prefill_long",
            why=(
                "prompt-bound traffic writing fresh KV into the paged pool: "
                "chunk lane and Anda encode over many positions set TTFT"
            ),
            clients=4,
            max_batch_size=8,
            kv_format="anda4",
            kv_pool_blocks=64,
            prompt_len=(160, 224),
            output_len=(4, 16),
            window_steps=1100,
            warmup_steps=60,
        ),
    )
}
