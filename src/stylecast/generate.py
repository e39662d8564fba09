"""Autoregressive styled text generation with a key/value cache.

One forward runs the prompt and fills the cache; each later step runs
only the last sampled token against the cached keys and values, appends
one sampled token, and stops at the first [EOS] or at the 512-token
ceiling (the model's own max_seq if smaller).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import text
from .model import ConfigError, KVCache, ModelConfig, lm_forward
from .style import CorpusStats, StyleSpec
from .tensor import Tensor

TOKEN_LIMIT = 512
SAMPLE_MODES = ("greedy", "temperature", "top_k")


class GenerationError(ValueError):
    pass


@dataclass
class SamplingPolicy:
    mode: str = "temperature"
    temperature: float = 0.8
    k: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in SAMPLE_MODES:
            raise GenerationError(f"unknown sampling mode {self.mode!r}")
        if self.temperature <= 0:
            raise GenerationError("temperature must be positive")
        if self.k < 1:
            raise GenerationError("top_k requires k >= 1")


def sample_next(logits: np.ndarray, policy: SamplingPolicy,
                rng: np.random.Generator) -> int:
    """Pick the next token id; greedy ties break toward the lowest id."""
    z = np.asarray(logits, dtype=np.float64)
    if policy.mode == "greedy":
        return int(np.argmax(z))
    if policy.mode == "top_k":
        if policy.k == 1:
            return int(np.argmax(z))
        kth = np.partition(z, -policy.k)[-policy.k]
        z = np.where(z >= kth, z, -np.inf)
    z = z / policy.temperature
    z -= z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def generate(prompt: str, spec: StyleSpec | None, policy: SamplingPolicy,
             params: dict[str, Tensor], config: ModelConfig, vocab: text.Vocab,
             stats: CorpusStats | None = None) -> str:
    """Styled continuation of prompt; the output always begins with the prompt.

    The prompt opens a main title ([SOS]-prefixed, matching the training
    template). Sampled specials other than the halting [EOS] render as
    bracketed markers.
    """
    if config.head_type != "lm":
        raise ConfigError("generate requires an lm checkpoint, got a classifier head")
    limit = min(TOKEN_LIMIT, config.max_seq)
    ids = [text.SOS] + [vocab.id_of(c) for c in prompt]
    if len(ids) >= limit:
        raise GenerationError(
            f"prompt of {len(ids) - 1} tokens leaves no room under the {limit}-token limit")
    rng = np.random.default_rng(policy.seed)
    cache = KVCache(config)
    prompt_len = len(ids)
    while len(ids) < limit:
        logits = lm_forward(params, config, ids[cache.length:], spec, stats, cache=cache).data[-1]
        nxt = sample_next(logits, policy, rng)
        ids.append(nxt)
        if nxt == text.EOS:
            break
    tail = ids[prompt_len:]
    if tail and tail[-1] == text.EOS:
        tail = tail[:-1]
    return prompt + text.decode(tail, vocab)
