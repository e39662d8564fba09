"""Fixed-seed fingerprint of training, eval, generation and checkpoint outputs.

A refactor that claims to keep results bit for bit runs this against the
old and the new source and compares the outputs byte for byte:

    PYTHONPATH=<old checkout>/src python3 tools/fingerprint.py > old.txt
    PYTHONPATH=<new checkout>/src python3 tools/fingerprint.py > new.txt
    cmp old.txt new.txt

It covers train_lm for every style mode with and without early stop and
max_steps, fine_tune_classifier for SGD and AdamW with the backbone frozen
and not, evaluate_lm, batch losses with their gradients and graph sizes,
greedy and sampled generation, error messages, checkpoint bytes, the kNN
graph (on tie-free and on duplicate points), the layout, cast points and
SVG bytes of the projection, the run config's defaults and its message for
a bad value of every key, and the stdout and stderr of the CLI's training,
generation, eval and project commands. Wall times are left out, and
STYLECAST_LOG is unset so the CLI prints none. Takes about 5 s on one core.

BLAS is pinned to one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS are set to 1 before numpy is imported), as in
perfbench/run.py: a multi-threaded BLAS may sum in another order, and
the kNN graph, layout, casts and SVG would then differ in their last bits
from one thread count to another.
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STYLECAST_LOG", None)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.conftest import make_articles, make_regular_articles  # noqa: E402

from stylecast import checkpoint, config, generate, model, projection, train  # noqa: E402
from stylecast.cli import dispatch  # noqa: E402
from stylecast.style import StyleSpec  # noqa: E402
from stylecast.text import build_vocab  # noqa: E402


def h(arrs):
    m = hashlib.sha256()
    for k in sorted(arrs):
        m.update(k.encode())
        m.update(np.ascontiguousarray(arrs[k]).tobytes())
    return m.hexdigest()[:16]


def ph(params):
    return h({k: v.data for k, v in params.items()})


def ckpt_hash(params, cfg, meta):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.ckpt"
        checkpoint.save_checkpoint(params, cfg, path, meta)
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def show_error(tag, fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the message is the output
        print("err", tag, type(exc).__name__, exc)


def rows(log):
    return [(e, s, m, v if m != "wall_time" else None) for e, s, m, v in log.rows]


def nodes(root):
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


def language_model(arts):
    vocab = build_vocab(arts)
    stats = train.corpus_stats(arts, 4)
    for mode in ("learned10", "minmax2", "none"):
        cfg = model.ModelConfig(n_layers=2, n_heads=2, d_model=24, d_ff=32, max_seq=24,
                                vocab_size=vocab.size, n_sections=4, style_mode=mode,
                                dropout_rate=0.1)
        st = stats if mode != "none" else None
        samples = train.lm_samples_from_articles(arts, vocab, 24, styled=mode != "none")
        for opt in ("adamw", "sgd"):
            for patience, lr, epochs, max_steps in ((None, 1e-2, 3, None), (1, 5e-2, 8, None),
                                                    (2, 3e-1, 8, None), (None, 1e-2, 4, 7)):
                tc = train.TrainConfig(optimizer=opt, learning_rate=lr, batch_size=5,
                                       epochs=epochs, seed=3, early_stop_patience=patience)
                params = model.init_params(cfg, seed=1)
                best, log = train.train_lm(samples, params, cfg, tc, st, max_steps=max_steps)
                print("lm", mode, opt, patience, lr, epochs, max_steps, ph(best), ph(params))
                for r in rows(log):
                    print("  ", r)
        params = model.init_params(cfg, seed=2, zero_head=False)
        print("eval", mode, repr(train.evaluate_lm(params, cfg, samples, st)))
        loss = train.lm_batch_loss(params, cfg, samples[:8], st, train=True,
                                   rng=np.random.default_rng(0))
        size = nodes(loss)  # before backward, which unlinks the graph it consumes
        loss.backward()
        print("batch", mode, repr(loss.item()), size,
              h({k: v.grad for k, v in params.items()}))
        spec = StyleSpec(1, arts[3].release_time) if mode != "none" else None
        print("logits", mode, h({"l": model.lm_forward(params, cfg, samples[0].ids, spec,
                                                       st).data}))
        for pol in (generate.SamplingPolicy(mode="greedy"),
                    generate.SamplingPolicy(mode="top_k", k=3, seed=4)):
            print("gen", mode, repr(generate.generate("ab", spec, pol, params, cfg, vocab, st)))
        print("ckpt", mode, ckpt_hash(params, cfg, {"a": 1}))
        for ids in ([], [1] * 30, [1, 6]):
            show_error(mode, model.lm_forward, params, cfg, ids, None, None)


def classifier(arts):
    vocab = build_vocab(arts)
    cfg = model.ModelConfig(n_layers=2, n_heads=2, d_model=24, d_ff=32, max_seq=14,
                            vocab_size=vocab.size, n_sections=4, head_type="classifier",
                            dropout_rate=0.1)
    samples = train.clf_samples_from_articles(arts, vocab, 14)
    for opt in ("sgd", "adamw"):
        for frozen in (False, True):
            for patience, lr, epochs in ((None, 1e-2, 3), (1, 5e-2, 6), (2, 1e-3, 6)):
                tc = train.TrainConfig(optimizer=opt, learning_rate=lr, batch_size=6,
                                       epochs=epochs, seed=5, early_stop_patience=patience)
                params = model.init_params(cfg, seed=1, zero_head=False)
                best, log = train.fine_tune_classifier(samples, params, cfg, tc,
                                                       freeze_backbone=frozen)
                print("clf", opt, frozen, patience, lr, epochs, ph(best), ph(params))
                for r in rows(log):
                    print("  ", r)
    params = model.init_params(cfg, seed=2, zero_head=False)
    acc, conf = train.evaluate_accuracy(params, cfg, samples)
    print("acc", repr(acc), conf.tolist())
    out = model.clf_forward(params, cfg, samples[0].ids)
    print("clf_logits", h({"l": out.data}), nodes(out))
    print("latent", h({"l": model.extract_latent(params, cfg, samples[0].ids).data}))
    loss = train.clf_batch_loss(params, cfg, samples[:6], train=True,
                                rng=np.random.default_rng(1))
    size = nodes(loss)
    loss.backward()
    print("clf_batch", repr(loss.item()), size,
          h({k: v.grad for k, v in params.items()}))
    for ids in ([], [0] * 3, [1] * 20):
        show_error("clf", model.clf_forward, params, cfg, ids)
    print("ckpt clf", ckpt_hash(params, cfg, {"b": 2}))


def clusters(seed, n_per=60, d=16):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, d)) * 6.0
    pts = np.vstack([rng.standard_normal((n_per, d)) + c for c in centers])
    return pts, [c for c in range(3) for _ in range(n_per)]


def projection_records():
    """kNN graphs below and above KNN_BLOCK rows, a layout, casts and the SVG."""
    rng = np.random.default_rng(21)
    base = rng.standard_normal((100, 16))
    cases = (("tie-free", rng.standard_normal((300, 16)), 8),
             ("duplicates", np.vstack([base, base, base[:60], base[:50]]), 5),
             ("small duplicates", np.vstack([base[:30], base[:12]]), 4))
    for name, pts, k in cases:
        g = projection.fuzzy_knn_graph(pts, k)
        print("knn", name, len(pts), k, len(g.sym_edges),
              *(h({"a": a}) for a in (g.neighbors, g.rhos, g.sigmas, g.sym_edges)))
    pts, labels = clusters(22)
    g = projection.fuzzy_knn_graph(pts, 8)
    xy = [(p.x, p.y) for p in projection.optimize_layout(g, epochs=20, seed=4, labels=labels)]
    print("layout", h({"xy": np.array(xy)}))
    result = projection.project_latents(pts, labels, k=8, epochs=20, seed=4)
    probes = [pts[0], pts[70] + 0.05, pts[:3].mean(axis=0), np.zeros(16), pts[179] * 2.0]
    casts = [projection.cast_latent(v, result) for v in probes]
    for c in casts:
        print("cast", repr(c.x), repr(c.y), c.label, c.is_overlay)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.svg"
        projection.emit_scatter_svg(result.points + casts, ["a", "b&c", "d"], path)
        print("svg", hashlib.sha256(path.read_bytes()).hexdigest()[:16])


def config_records():
    """The defaults of an empty config, and the problem list of a config that breaks every key."""
    values = config.validate_config("{}").values
    print("config defaults", values)
    try:
        config.validate_config(json.dumps({key: [[]] for key in values}))
    except config.ConfigValidationError as exc:
        for problem in exc.problems:
            print("config problem", problem)


def command_line(arts):
    """Relative paths keep the config hash, and so the checkpoint bytes, path-independent."""
    lm, clf = "checkpoint=out/lm.ckpt", "checkpoint=out/clf.ckpt"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            Path("c.jsonl").write_text("\n".join(json.dumps(dict(
                main_title=a.main_title, sub_title=a.sub_title, body=a.body, label=a.label,
                author=a.author, release_time=a.release_time, tags=a.tags)) for a in arts))
            Path("run.json").write_text(json.dumps({
                "n_layers": 1, "n_heads": 2, "d_model": 16, "d_ff": 32, "max_seq": 24,
                "title_len": 14, "n_sections": 4, "style_mode": "learned10", "dropout": 0.1,
                "epochs": 3, "batch_size": 8, "learning_rate": 1e-2, "seed": 0, "knn": 3,
                "layout_epochs": 5, "corpus": "c.jsonl", "vocab": "v.tsv", "out_dir": "out"}))
            for argv in (["ingest"], ["train-gen"], ["train-clf"],
                         ["generate", "--prompt", "ab", "--mode", "greedy", "--set", lm],
                         ["generate", "--prompt", "ab", "--mode", "top_k", "--top-k", "3",
                          "--seed", "2", "--temperature", "0.7", "--set", lm],
                         ["generate", "--prompt", "ab", "--temperature", "-1", "--set", lm],
                         ["generate", "--prompt", "ab", "--top-k", "0", "--set", lm],
                         ["eval", "--set", lm], ["eval", "--set", clf]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = dispatch([argv[0], "--config", "run.json"] + argv[1:])
                print("cli", argv[0], code, repr(out.getvalue()), repr(err.getvalue()))
            for name in ("lm.ckpt", "clf.ckpt"):
                print("cli ckpt", name, hashlib.sha256(Path("out", name).read_bytes()).hexdigest())
            for name in ("train-gen-metrics.csv", "train-clf-metrics.csv"):
                print("cli csv", name, [ln for ln in Path("out", name).read_text().splitlines()
                                        if "wall_time" not in ln])
            err = io.StringIO()  # stdout holds the stage times
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = dispatch(["project", "--config", "run.json", "--cast", "ab",
                                 "--cast", "ba ab", "--set", clf])
            print("cli project", code, repr(err.getvalue()),
                  *(hashlib.sha256(Path("out", name).read_bytes()).hexdigest()[:16]
                    for name in ("latents.bin", "scatter.svg")))
        finally:
            os.chdir(here)


if __name__ == "__main__":
    lm_arts = make_regular_articles(24, title_words=1, sub_words=1, body_words=2)
    language_model(lm_arts)
    classifier(make_articles(40))
    projection_records()
    config_records()
    command_line(lm_arts)
