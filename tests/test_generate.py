import numpy as np
import pytest

from stylecast import generate as gen_module
from stylecast import text
from stylecast.generate import GenerationError, SamplingPolicy, generate, sample_next
from stylecast.model import ConfigError, KVCache, ModelConfig, init_params, lm_forward
from stylecast.style import StyleSpec
from stylecast.text import Article, build_vocab
from stylecast.train import corpus_stats
from tests import reference as ref
from tests.conftest import make_regular_articles


def rng(seed=0):
    return np.random.default_rng(seed)


class TestSampleNext:
    def test_greedy_argmax(self):
        assert sample_next(np.array([0.0, 5.0, 1.0]), SamplingPolicy(mode="greedy"), rng()) == 1

    def test_greedy_tie_breaks_low_id(self):
        assert sample_next(np.array([2.0, 2.0, 1.0]), SamplingPolicy(mode="greedy"), rng()) == 0

    def test_top_k_one_is_greedy(self):
        z = np.array([0.3, -1.0, 4.0, 0.1])
        a = sample_next(z, SamplingPolicy(mode="top_k", k=1), rng(1))
        b = sample_next(z, SamplingPolicy(mode="greedy"), rng(2))
        assert a == b == 2

    def test_top_k_restricts_support(self):
        z = np.array([10.0, 9.0, -50.0, -50.0])
        picks = {sample_next(z, SamplingPolicy(mode="top_k", k=2, temperature=5.0), rng(i))
                 for i in range(50)}
        assert picks <= {0, 1}

    def test_temperature_seeded_reproducible(self):
        z = np.array([0.1, 0.2, 0.3, 0.4])
        pol = SamplingPolicy(mode="temperature", temperature=1.0)
        a = [sample_next(z, pol, rng(9)) for _ in range(10)]
        b = [sample_next(z, pol, rng(9)) for _ in range(10)]
        assert a == b

    def test_policy_validation(self):
        with pytest.raises(GenerationError):
            SamplingPolicy(mode="beam")
        with pytest.raises(GenerationError):
            SamplingPolicy(temperature=0.0)
        with pytest.raises(GenerationError):
            SamplingPolicy(k=0)


def make_model(bias_token=None, max_seq=64, vocab_size=12):
    cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=max_seq,
                      vocab_size=vocab_size, n_sections=2, dropout_rate=0.0)
    params = init_params(cfg, seed=0)
    if bias_token is not None:
        params["head.b"].data[bias_token] = 50.0
    return params, cfg


@pytest.fixture(scope="module")
def vocab():
    return build_vocab([Article("abcdef", "a", "b", 0, "x", 0)])


class TestGenerate:
    def test_output_begins_with_prompt(self, vocab):
        params, cfg = make_model(bias_token=8)
        out = generate("abc", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        assert out.startswith("abc")

    def test_immediate_eos_returns_prompt(self, vocab):
        params, cfg = make_model(bias_token=text.EOS)
        out = generate("ab", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        assert out == "ab"

    def test_never_eos_hits_512_token_limit(self, vocab):
        params, cfg = make_model(bias_token=7, max_seq=512)
        out = generate("a", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        # 512 total tokens = [SOS] + 1 prompt char + 510 generated
        assert len(out) == 511

    def test_desk_model_stops_at_max_seq(self, vocab):
        params, cfg = make_model(bias_token=7, max_seq=32)
        out = generate("a", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        assert len(out) == 31

    def test_prompt_too_long(self, vocab):
        params, cfg = make_model(max_seq=16)
        with pytest.raises(GenerationError, match="limit"):
            generate("a" * 20, None, SamplingPolicy(mode="greedy"), params, cfg, vocab)

    def test_classifier_checkpoint_rejected(self, vocab):
        cfg = ModelConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16, max_seq=16,
                          vocab_size=12, n_sections=2, head_type="classifier")
        params = init_params(cfg, seed=0)
        with pytest.raises(ConfigError, match="head"):
            generate("a", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)

    def test_greedy_regeneration_identical(self, vocab):
        params, cfg = make_model(max_seq=24)
        params["head.w"].data[:] = np.random.default_rng(3).standard_normal(
            params["head.w"].data.shape).astype(np.float32) * 0.5
        pol = SamplingPolicy(mode="greedy")
        assert (generate("ab", None, pol, params, cfg, vocab)
                == generate("ab", None, pol, params, cfg, vocab))

    def test_temperature_seeded_stable(self, vocab):
        params, cfg = make_model(max_seq=24)
        pol = SamplingPolicy(mode="temperature", temperature=0.8, seed=11)
        assert (generate("ab", None, pol, params, cfg, vocab)
                == generate("ab", None, pol, params, cfg, vocab))

    def test_unknown_prompt_chars_still_prefix(self, vocab):
        params, cfg = make_model(bias_token=text.EOS)
        out = generate("xyz", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        assert out == "xyz"


ORACLE_MODES = ["none", "minmax2", "learned10"]
ORACLE_TOL = {np.float64: dict(rtol=1e-9, atol=1e-12), np.float32: dict(rtol=1e-5, atol=1e-6)}


@pytest.fixture(scope="module")
def oracle_corpus():
    arts = make_regular_articles(8, title_words=2, sub_words=1, body_words=4)
    return arts, build_vocab(arts), corpus_stats(arts, 4)


def oracle_model(vocab, mode, dtype, head_std=None, seed=5):
    """A 2-layer model at init; head_std redraws the head wider, so picks have no near-ties."""
    cfg = ModelConfig(n_layers=2, n_heads=4, d_model=32, d_ff=48, max_seq=40,
                      vocab_size=vocab.size, n_sections=4, style_mode=mode, dropout_rate=0.0)
    params = init_params(cfg, seed=seed, dtype=dtype, zero_head=False)
    if head_std is not None:
        params["head.w"].data[:] = head_std * np.random.default_rng(seed).standard_normal(
            params["head.w"].data.shape).astype(dtype)
    return params, cfg


def oracle_prompts(arts, limit):
    """Prompts of 0 tokens, about half the limit, and limit - 2 tokens."""
    chars = " ".join(a.body for a in arts)
    return ["", chars[:limit // 2], chars[:limit - 2]]


class TestCachedDecodingOracle:
    """Cached decoding against full refeed (tests/reference.py)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_greedy_strings_identical(self, oracle_corpus, mode, dtype):
        arts, vocab, stats = oracle_corpus
        params, cfg = oracle_model(vocab, mode, dtype, head_std=1.0)
        pol = SamplingPolicy(mode="greedy")
        for i, prompt in enumerate(oracle_prompts(arts, cfg.max_seq)):
            spec = StyleSpec(i % 4, stats.t_min + i * 86_400) if mode != "none" else None
            want = ref.generate_refeed(prompt, spec, pol, params, cfg, vocab, stats)
            assert generate(prompt, spec, pol, params, cfg, vocab, stats) == want

    @pytest.mark.parametrize("policy", [
        SamplingPolicy(mode="temperature", temperature=0.8, seed=3),
        SamplingPolicy(mode="top_k", k=4, temperature=1.5, seed=4)], ids=["temperature", "top_k"])
    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_seeded_sampling_identical_in_float64(self, oracle_corpus, mode, policy):
        arts, vocab, stats = oracle_corpus
        params, cfg = oracle_model(vocab, mode, np.float64, head_std=0.1)
        spec = StyleSpec(2, stats.t_max) if mode != "none" else None
        for prompt in oracle_prompts(arts, cfg.max_seq)[:2]:
            want = ref.generate_refeed(prompt, spec, policy, params, cfg, vocab, stats)
            assert generate(prompt, spec, policy, params, cfg, vocab, stats) == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ORACLE_MODES)
    def test_logits_match_at_every_position(self, oracle_corpus, mode, dtype):
        arts, vocab, stats = oracle_corpus
        params, cfg = oracle_model(vocab, mode, dtype)
        specs = [StyleSpec(1, stats.t_min), StyleSpec(3, stats.t_max)]
        ids = np.array([text.format_article(a, vocab, cfg.max_seq) for a in arts[:2]])
        want = lm_forward(params, cfg, ids, specs, stats).data.reshape(2, cfg.max_seq, -1)
        for prefill in (1, 17, cfg.max_seq - 1):
            # one sequence, as generate runs it
            cache = KVCache(cfg)
            rows = [lm_forward(params, cfg, ids[0, :prefill], specs[0], stats, cache=cache).data]
            rows += [lm_forward(params, cfg, ids[0, p:p + 1], specs[0], stats, cache=cache).data
                     for p in range(prefill, cfg.max_seq)]
            np.testing.assert_allclose(np.concatenate(rows), want[0], **ORACLE_TOL[dtype])
            # a batch of two
            cache = KVCache(cfg)
            rows = [lm_forward(params, cfg, ids[:, :prefill], specs, stats, cache=cache).data
                    .reshape(2, prefill, -1)]
            rows += [lm_forward(params, cfg, ids[:, p:p + 1], specs, stats, cache=cache).data
                     .reshape(2, 1, -1) for p in range(prefill, cfg.max_seq)]
            np.testing.assert_allclose(np.concatenate(rows, axis=1), want, **ORACLE_TOL[dtype])
            assert cache.length == cfg.max_seq

    def test_prefill_once_then_one_row_per_token(self, oracle_corpus, monkeypatch):
        arts, vocab, stats = oracle_corpus
        params, cfg = oracle_model(vocab, "none", np.float32, head_std=1.0)
        fed = []

        def spy(params, config, ids, *args, **kwargs):
            fed.append(len(ids))
            return lm_forward(params, config, ids, *args, **kwargs)

        monkeypatch.setattr(gen_module, "lm_forward", spy)
        params["head.b"].data[text.EOS] = -1e4  # runs to the limit
        generate("abba", None, SamplingPolicy(mode="greedy"), params, cfg, vocab)
        # [SOS] + 4 prompt ids, then each sampled id but the one that reaches the limit
        assert fed == [5] + [1] * (cfg.max_seq - 6)
