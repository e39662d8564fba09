"""The benchmark's three workloads: train, generate and project.

Each workload is one client in a closed loop: it sends its next job only
after the previous one has finished, so there is never a queue. Every
input is generated from the workload seed; the program sees only those
inputs. Calls go through module attributes (`train.train_lm`, not a
name imported from it), so a `Tracer` that wraps those attributes sees
them.

Why these workloads:
- `train` is the only one that runs backward, gradient clipping and the
  optimizer. It carries the autodiff engine, both model heads, the
  learned style gradients and checkpoint writes; batched ops show here.
- `generate` is the only forward-only, batch-of-one job with a growing
  context; the full refeed per token dominates it, so a KV cache shows
  here and nowhere else. Prefill-heavy requests keep honest a cache that
  only speeds up decoding.
- `project` is dominated by the Python edge loop of the layout, and its
  pad-masked classifier forward uses the model unlike the causal LM path.
  There is no backward pass, so array-code projection shows here.

The CLI is not measured: argument parsing is on no timed path, and the
workloads call the library functions the CLI calls.
"""

from __future__ import annotations

import json
import math
import random
import time
import xml.etree.ElementTree as ET
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stylecast import checkpoint, config, generate, model, projection, tensor, text, train
from stylecast.style import StyleSpec
from graphcount import graph_counts
from stats import summary

N_SECTIONS = 4
# Disjoint per-section alphabets, as in the test corpora: sections are
# separable from their characters alone.
ALPHABETS = ["abcd", "efgh", "ijkl", "mnop"]
T_MIN = 1_500_000_000
T_SPAN = 3 * 365 * 86_400

DESK = {"n_layers": 2, "n_heads": 4, "d_model": 64, "d_ff": 256, "title_len": 50,
        "n_sections": N_SECTIONS, "style_mode": "learned10", "dropout": 0.1}


def _word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def make_corpus(seed: int, n: int) -> bytes:
    """JSONL corpus of n articles; section i % 4 writes in its own alphabet."""
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        label = i % N_SECTIONS
        a = ALPHABETS[label]
        row = {"main_title": " ".join(_word(rng, a, 3, 6) for _ in range(rng.randint(2, 4))),
               "sub_title": " ".join(_word(rng, a, 3, 6) for _ in range(rng.randint(1, 2))),
               "body": " ".join(_word(rng, a, 3, 7) for _ in range(rng.randint(6, 10))),
               "label": label, "author": f"desk-{label}",
               "release_time": T_MIN + rng.randrange(T_SPAN)}
        lines.append(json.dumps(row, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


def fresh(params: dict) -> dict:
    return {k: tensor.Tensor(v.data.copy(), requires_grad=True) for k, v in params.items()}


def all_finite(params: dict) -> bool:
    return all(np.all(np.isfinite(p.data)) for p in params.values())


@dataclass
class Corpus:
    articles: list
    vocab: text.Vocab
    run: config.RunConfig


def load_corpus(workdir: Path, corpus: bytes, seed: int, settings: dict) -> Corpus:
    """Write the corpus, read it back and validate the run config."""
    path = workdir / "corpus.jsonl"
    path.write_bytes(corpus)
    run = config.validate_config(json.dumps({**DESK, **settings, "seed": seed}))
    articles, skipped = text.load_jsonl(path, N_SECTIONS)
    n = corpus.count(b"\n")
    if skipped or len(articles) != n:
        raise RuntimeError(f"corpus read back {len(articles)} of {n} articles: {skipped[:3]}")
    return Corpus(articles, text.build_vocab(articles), run)


@dataclass
class Workload:
    """Shared bookkeeping: operations attempted and failed, timing samples."""

    seed: int
    workdir: Path
    tracer: object = None
    n_articles: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    # Called after each op, outside its timing: the run times set-ups there.
    between: object = None

    def prepare(self) -> None:
        """Generate the inputs; the benchmark's own work, never timed."""
        self.corpus = make_corpus(self.seed, self.n_articles)

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        """Count one operation; a failed output check counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {detail}")

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def checking(self):
        """Context for checks and oracles: never traced."""
        return nullcontext() if self.tracer is None else self.tracer.pause()

    def run_ops(self, ops: list) -> float:
        """Run (name, fn, check) in order, timing each fn; return the timed seconds.

        A raising fn counts as failed, and so does every op after it.
        """
        timed = 0.0
        for i, (what, fn, check) in enumerate(ops):
            t0 = time.perf_counter()
            try:
                with self.span(f"bench.{what}"):
                    out = fn()
            except Exception as exc:  # one failed op must not end the run
                timed += time.perf_counter() - t0
                self.record(what, False, repr(exc))
                for later, _, _ in ops[i + 1:]:
                    self.record(later, False, f"skipped after {what} failed")
                return timed
            dt = time.perf_counter() - t0
            timed += dt
            with self.checking():
                ok, detail = check(out, dt)
            self.record(what, ok, detail)
            if self.between is not None:
                self.between()
        return timed

    def verify(self) -> None:
        """Checks deferred to after the measured loop."""

    def graph_counts(self) -> dict:
        return {}


# -- train ---------------------------------------------------------------------------


@dataclass
class Train(Workload):
    """Train the styled LM, evaluate it, fine-tune the classifier, round-trip a checkpoint."""

    n_articles: int = 224
    max_steps: int = 6

    def setup(self) -> None:
        c = load_corpus(self.workdir, self.corpus, self.seed, {
            "max_seq": 64, "optimizer": "adamw", "learning_rate": 1e-3, "batch_size": 32,
            "epochs": 1, "early_stop_patience": None})
        self.vocab = c.vocab
        self.lm_cfg = c.run.model_config(c.vocab.size, "lm")
        self.clf_cfg = c.run.model_config(c.vocab.size, "classifier")
        self.tcfg = c.run.train_config()
        self.stats = train.corpus_stats(c.articles, N_SECTIONS)
        self.lm_samples = train.lm_samples_from_articles(c.articles, c.vocab, self.lm_cfg.max_seq)
        self.clf_samples = train.clf_samples_from_articles(c.articles, c.vocab,
                                                           self.clf_cfg.max_seq)
        fit, self.held_out = text.split_shuffled(self.lm_samples, self.tcfg.split_ratio,
                                                 self.tcfg.seed)
        if len(fit) < self.max_steps * self.tcfg.batch_size:
            raise RuntimeError("corpus too small for max_steps full batches")
        self.lm_init = model.init_params(self.lm_cfg, self.seed)
        self.clf_init = model.init_params(self.clf_cfg, self.seed + 1)
        self.meta = {"t_min": self.stats.t_min, "t_max": self.stats.t_max}

    def job(self, i: int) -> float:
        lm_params, clf_params = fresh(self.lm_init), fresh(self.clf_init)
        cfg, tcfg, stats = self.lm_cfg, self.tcfg, self.stats
        state: dict = {}
        a = self.workdir / "lm-a.ckpt"
        b = self.workdir / "lm-b.ckpt"

        def train_lm():
            state["lm"], log = train.train_lm(self.lm_samples, lm_params, cfg, tcfg, stats,
                                              max_steps=self.max_steps)
            return log

        def check_train(log, dt):
            losses = log.series("train", "loss") + log.series("val", "loss")
            val = log.series("val", "loss")[-1]
            self.sample("lm_train_tok_s", self.max_steps * tcfg.batch_size * cfg.max_seq / dt)
            self.sample("lm_val_loss", val)
            ok = all(math.isfinite(x) for x in losses) and all_finite(state["lm"])
            # Quality guard: the AdamW steps must beat the uniform guess.
            ok = ok and val < math.log(cfg.vocab_size)
            return ok, f"losses {losses}"

        def evaluate():
            return train.evaluate_lm(state["lm"], cfg, self.held_out, stats)

        def check_eval(out, dt):
            self.sample("lm_eval_tok_s", len(self.held_out) * cfg.max_seq / dt)
            return all(math.isfinite(x) for x in out), f"loss, ppl {out}"

        def fine_tune():
            state["clf"], log = train.fine_tune_classifier(self.clf_samples, clf_params,
                                                           self.clf_cfg, tcfg)
            return log

        def check_clf(log, dt):
            self.sample("clf_train_tok_s", len(self.clf_samples) * self.clf_cfg.max_seq / dt)
            vals = log.series("train", "loss") + log.series("val", "accuracy")
            return (all(math.isfinite(x) for x in vals) and all_finite(state["clf"]),
                    f"loss, accuracy {vals}")

        def round_trip():
            checkpoint.save_checkpoint(state["lm"], cfg, a, self.meta)
            ck = checkpoint.load_checkpoint(a, expect_head="lm")
            checkpoint.save_checkpoint(ck.params, ck.config, b, ck.meta)

        def check_round_trip(_, dt):
            return a.read_bytes() == b.read_bytes(), "save -> load -> save bytes differ"

        timed = self.run_ops([("train_lm", train_lm, check_train),
                              ("evaluate_lm", evaluate, check_eval),
                              ("fine_tune_classifier", fine_tune, check_clf),
                              ("checkpoint_round_trip", round_trip, check_round_trip)])
        self.sample("job_s", timed)
        return timed

    def graph_counts(self) -> dict:
        rng = np.random.default_rng(self.seed)
        batch = self.lm_samples[:self.tcfg.batch_size]
        loss = train.lm_batch_loss(fresh(self.lm_init), self.lm_cfg, batch, self.stats,
                                   train=True, rng=rng)
        g = graph_counts(loss)
        return {"tensor.nodes_per_lm_step": g["nodes"],
                "tensor.matmul_nodes_per_lm_step": g["matmul_nodes"],
                "tensor.slice_concat_nodes_per_lm_step": g["slice_concat_nodes"],
                "tensor.matmul_gflop_per_lm_step": g["matmul_gflop"]}

    def metrics(self) -> dict:
        s = self.samples
        return {"tok_s": _rate(s["lm_train_tok_s"], "tok/s"), "job_s": _timing(s["job_s"], "s"),
                "detail": {"lm_train_tok_s": _rate(s["lm_train_tok_s"], "tok/s"),
                           "lm_eval_tok_s": _rate(s["lm_eval_tok_s"], "tok/s"),
                           "clf_train_tok_s": _rate(s["clf_train_tok_s"], "tok/s"),
                           "lm_val_loss": _rate(s["lm_val_loss"], "nats")}}


# -- generate ------------------------------------------------------------------------


@dataclass
class Request:
    prompt: str
    spec: StyleSpec
    policy: generate.SamplingPolicy
    shape: str


@dataclass
class Generate(Workload):
    """Styled generation with full refeed; every request runs to the token limit."""

    max_seq: int = 256
    prefill_chars: int = 190
    n_articles: int = 200
    greedy: list = field(default_factory=list)

    MODES = ("temperature", "top_k", "greedy")

    def setup(self) -> None:
        c = load_corpus(self.workdir, self.corpus, self.seed, {"max_seq": self.max_seq})
        self.vocab = c.vocab
        cfg = c.run.model_config(c.vocab.size, "lm")
        self.stats = train.corpus_stats(c.articles, N_SECTIONS)
        params = model.init_params(cfg, self.seed, zero_head=False)
        # [EOS] can never be drawn, so output length is fixed by max_seq.
        params["head.b"].data[text.EOS] = -1e4
        path = self.workdir / "gen.ckpt"
        checkpoint.save_checkpoint(params, cfg, path,
                                   {"t_min": self.stats.t_min, "t_max": self.stats.t_max})
        ck = checkpoint.load_checkpoint(path, expect_head="lm")
        self.params, self.cfg = ck.params, ck.config
        self.limit = min(generate.TOKEN_LIMIT, self.cfg.max_seq)

    def request(self, i: int) -> Request:
        """Request i: decode-heavy when i is even, prefill-heavy when odd."""
        rng = random.Random(self.seed * 1_000_003 + i)
        section = (i // 2) % N_SECTIONS
        a = ALPHABETS[section]
        if i % 2 == 0:
            shape, prompt = "decode", _word(rng, a, 1, 4)
        else:
            shape, prompt = "prefill", ""
            while len(prompt) < self.prefill_chars:
                prompt += _word(rng, a, 3, 7) + " "
            prompt = prompt[:self.prefill_chars]
        spec = StyleSpec(section, self.stats.t_min + rng.randrange(
            self.stats.t_max - self.stats.t_min + 1))
        policy = generate.SamplingPolicy(mode=self.MODES[i % 3], temperature=0.8, k=5,
                                         seed=rng.randrange(2 ** 31))
        return Request(prompt, spec, policy, shape)

    def job(self, i: int) -> float:
        timed = 0.0
        tokens = 0
        for r in (2 * i, 2 * i + 1):
            req = self.request(r)
            if self.tracer is not None:
                self.tracer.request = r

            def run(req=req):
                return generate.generate(req.prompt, req.spec, req.policy, self.params,
                                         self.cfg, self.vocab, self.stats)

            def check(out, dt, req=req):
                self.sample("gen_tokens", self.new_tokens(req))
                self.sample("request_s", dt)
                self.sample(f"{req.shape}_request_s", dt)
                if req.policy.mode == "greedy":
                    self.greedy.append((req, out))
                return out.startswith(req.prompt), f"output does not start with {req.prompt!r}"

            timed += self.run_ops([("generate", run, check)])
            tokens += self.new_tokens(req)
        self.sample("job_s", timed)
        self.sample("pair_tok_s", tokens / timed)
        return timed

    def new_tokens(self, req: Request) -> int:
        """Tokens a request generates: [EOS] is never drawn, so it runs to the limit."""
        return self.limit - 1 - len(req.prompt)

    def oracle(self, req: Request) -> str:
        """Greedy decoding by full refeed: model.lm_forward, then argmax of the last row."""
        ids = [text.SOS] + [self.vocab.id_of(c) for c in req.prompt]
        start = len(ids)
        while len(ids) < self.limit:
            logits = model.lm_forward(self.params, self.cfg, ids, req.spec, self.stats).data
            ids.append(int(np.argmax(logits[-1])))
            if ids[-1] == text.EOS:
                break
        tail = ids[start:]
        if tail and tail[-1] == text.EOS:
            tail = tail[:-1]
        return req.prompt + text.decode(tail, self.vocab)

    def verify(self) -> None:
        matches = 0
        with self.checking():
            for req, out in self.greedy:
                ok = self.oracle(req) == out
                matches += ok
                self.record("greedy_oracle", ok, f"greedy output differs for {req.prompt!r}")
        self.samples["greedy_match"] = [matches / len(self.greedy)] if self.greedy else []

    def graph_counts(self) -> dict:
        ids = [text.SOS] * self.cfg.max_seq
        logits = model.lm_forward(self.params, self.cfg, ids, StyleSpec(0, self.stats.t_min),
                                  self.stats)
        return {"tensor.nodes_per_gen_forward": graph_counts(logits)["nodes"]}

    def metrics(self) -> dict:
        s = self.samples
        tok_s = sum(s["gen_tokens"]) / sum(s["request_s"])
        return {"tok_s": _rate(s["pair_tok_s"], "tok/s"), "job_s": _timing(s["job_s"], "s"),
                "detail": {"gen_tok_s": {"value": tok_s, "unit": "tok/s",
                                         "n": len(s["request_s"])},
                           "gen_request_s_p50": _timing(s["request_s"], "s"),
                           "gen_decode_request_s_p50": _timing(s.get("decode_request_s", []),
                                                               "s"),
                           "gen_prefill_request_s_p50": _timing(s.get("prefill_request_s", []),
                                                                "s"),
                           "gen_greedy_match": {"value": (s["greedy_match"] or [None])[0],
                                                "unit": "ratio", "n": len(self.greedy)}}}


# -- project -------------------------------------------------------------------------


@dataclass
class Project(Workload):
    """Classify titles one request at a time, then project n titles to an SVG scatter."""

    n_articles: int = 500
    classify_per_job: int = 250
    knn: int = 15
    epochs: int = 20
    n_casts: int = 3
    purity: list = field(default_factory=list)

    def setup(self) -> None:
        c = load_corpus(self.workdir, self.corpus, self.seed, {
            "knn": self.knn, "layout_epochs": self.epochs, "projection_seed": self.seed})
        self.vocab, self.settings = c.vocab, c.run
        self.titles = [a.main_title for a in c.articles]
        self.labels = [a.label for a in c.articles]
        cfg = c.run.model_config(c.vocab.size, "classifier")
        path = self.workdir / "clf.ckpt"
        checkpoint.save_checkpoint(model.init_params(cfg, self.seed, zero_head=False), cfg, path,
                                   {"section_names": c.run.section_names})
        ck = checkpoint.load_checkpoint(path, expect_head="classifier")
        self.params, self.cfg = ck.params, ck.config

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.seed + 7)
        self.phrases = [" ".join(_word(rng, ALPHABETS[j % N_SECTIONS], 3, 6) for _ in range(3))
                        for j in range(self.n_casts)]

    def classify(self, title: str) -> tuple[int, np.ndarray]:
        ids = text.encode_title(title, self.vocab, self.cfg.max_seq)
        logits = model.clf_forward(self.params, self.cfg, ids).data
        return int(np.argmax(logits)), logits

    def job(self, i: int) -> float:
        timed = 0.0
        n = len(self.titles)
        for r in range(self.classify_per_job):
            title = self.titles[(i * self.classify_per_job + r) % n]
            if self.tracer is not None:
                self.tracer.request = i * self.classify_per_job + r

            def check_classify(out, dt):
                pred, logits = out
                self.sample("classify_s", dt)
                ok = (0 <= pred < N_SECTIONS and logits.shape == (N_SECTIONS,)
                      and bool(np.all(np.isfinite(logits))) and pred == int(np.argmax(logits)))
                return ok, f"answer {pred} for logits {logits}"

            timed += self.run_ops([("classify", lambda t=title: self.classify(t),
                                    check_classify)])
        if self.tracer is not None:
            self.tracer.request = None
        svg = self.workdir / "scatter.svg"

        def project():
            latents = np.stack([
                model.extract_latent(self.params, self.cfg,
                                     text.encode_title(t, self.vocab, self.cfg.max_seq)).data
                for t in self.titles])
            result = projection.project_latents(latents, self.labels, k=self.settings.knn,
                                                epochs=self.settings.layout_epochs,
                                                seed=self.settings.projection_seed)
            points = list(result.points) + [
                projection.cast_overlay(p, self.params, self.cfg, self.vocab, result)
                for p in self.phrases]
            projection.emit_scatter_svg(points, self.settings.section_names, svg)
            return points

        timed += self.run_ops([("project", project,
                                lambda pts, dt: self.check_layout(pts, dt, svg))])
        return timed

    def check_layout(self, points: list, dt: float, svg: Path) -> tuple[bool, str]:
        self.sample("project_s", dt)
        n = len(self.titles)
        xy = np.array([[p.x, p.y] for p in points])
        if len(points) != n + len(self.phrases) or not np.all(np.isfinite(xy)):
            return False, f"{len(points)} points, finite: {bool(np.all(np.isfinite(xy)))}"
        self.purity.append(layout_purity(xy[:n], np.array(self.labels)))
        circles = [e for e in ET.parse(svg).getroot().iter() if e.tag.endswith("circle")]
        want = len(points) + len(self.settings.section_names) + (1 if self.phrases else 0)
        return len(circles) == want, f"svg has {len(circles)} circles, expected {want}"

    def graph_counts(self) -> dict:
        ids = text.encode_title(self.titles[0], self.vocab, self.cfg.max_seq)
        return {"tensor.nodes_per_classify":
                graph_counts(model.clf_forward(self.params, self.cfg, ids))["nodes"]}

    def metrics(self) -> dict:
        s = self.samples
        classify = summary([x * 1e3 for x in s["classify_s"]])
        return {"tok_s": {"value": self.cfg.max_seq / _median(s["classify_s"]), "unit": "tok/s",
                          "n": classify["n"]},
                "job_s": _timing(s["project_s"], "s"),
                "detail": {"classify_ms_p50": {"value": classify["p50"], "unit": "ms",
                                               "n": classify["n"]},
                           "classify_ms_p95": {"value": classify["p95"], "unit": "ms",
                                               "n": classify["n"]},
                           "project_s": _timing(s["project_s"], "s"),
                           "layout_purity": _rate(self.purity, "ratio")}}


def layout_purity(xy: np.ndarray, labels: np.ndarray, k: int = 10) -> float:
    """Mean share of each point's k nearest layout neighbours that share its label."""
    d = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1)
    np.fill_diagonal(d, np.inf)
    near = np.argpartition(d, k, axis=1)[:, :k]
    return float((labels[near] == labels[:, None]).mean())


def _median(values: list[float]) -> float:
    return float(np.median(values))


def _timing(values: list[float], unit: str) -> dict:
    s = summary(values)
    return {"value": s["p50"], "unit": unit, "n": s["n"], "p95": s["p95"]}


def _rate(values: list[float], unit: str) -> dict:
    return {"value": _median(values) if values else None, "unit": unit, "n": len(values)}


WORKLOADS = {"train": Train, "generate": Generate, "project": Project}
