"""The benchmark's traced run still sees the program's layers.

perfbench/run.py wraps module attributes such as train.lm_forward and
model.learned_style; a refactor that stops calling through those names
would silently zero the per-layer metrics. The benchmark's own tests are
not collected by the default test run, so this guard lives here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from stylecast import projection, train
from stylecast.model import ModelConfig, init_params
from stylecast.projection import LayoutPoint, ProjectionResult
from stylecast.text import build_vocab
from tests.conftest import make_regular_articles

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    """Import perfbench/<name>.py by path; dataclasses need it in sys.modules."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_instrumented_layers_record_spans(monkeypatch):
    run, tracing = _load("run", monkeypatch), _load("tracing", monkeypatch)
    arts = make_regular_articles(8, title_words=1, sub_words=1, body_words=1)
    vocab = build_vocab(arts)
    stats = train.corpus_stats(arts, 4)
    small = dict(n_layers=1, n_heads=2, d_model=16, d_ff=16, vocab_size=vocab.size,
                 n_sections=4, dropout_rate=0.0)
    lm_cfg = ModelConfig(max_seq=24, style_mode="learned10", **small)
    clf_cfg = ModelConfig(max_seq=12, head_type="classifier", **small)
    lm_samples = train.lm_samples_from_articles(arts, vocab, 24)
    clf_samples = train.clf_samples_from_articles(arts, vocab, 12)
    clf_params = init_params(clf_cfg, seed=1)
    layout = ProjectionResult(points=[LayoutPoint(float(i), 0.0, i % 4) for i in range(4)],
                              latents=np.random.default_rng(0).standard_normal((4, 16)), k=2)

    tracer = tracing.Tracer()
    run.instrument(tracer)
    try:
        train.evaluate_lm(init_params(lm_cfg, seed=0), lm_cfg, lm_samples[:2], stats)
        train.evaluate_accuracy(clf_params, clf_cfg, clf_samples[:2])
        projection.cast_overlay("abba", clf_params, clf_cfg, vocab, layout)
    finally:
        tracer.restore()

    calls = {name: row["calls"] for (name, _), row in tracer.totals().items()}
    # one forward per evaluation batch
    assert calls["model.lm_forward"] == 1
    assert calls["style.learned_style"] == 1
    assert calls["model.clf_forward"] == 1
    assert calls["model.extract_latent"] == 1
    assert not tracer.failures
    assert not hasattr(train.lm_forward, "__wrapped__")
