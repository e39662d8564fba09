"""Command-line entry point for the full pipeline.

Subcommands: ingest, train-gen, train-clf, generate, classify, project,
eval. Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 runtime failure. Diagnostics go to stderr, results to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import text
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ConfigValidationError, RunConfig, _is_int, _is_num, load_config, require_paths,
)
from .fileio import atomic_write_text
from .generate import SAMPLE_MODES, GenerationError, generate
from .model import ConfigError, clf_forward, convert_to_classifier, extract_latent, init_params
from .projection import (
    ProjectionError, cast_latent, emit_scatter_svg, project_latents, write_latents,
)
from .style import CorpusStats, StyleError, StyleSpec
from .text import CorpusError, Vocab, build_vocab, load_jsonl
from .train import (
    EVAL_BATCH, TrainError, clf_samples_from_articles, corpus_stats, evaluate_accuracy,
    evaluate_lm, fine_tune_classifier, lm_samples_from_articles, train_lm,
)

DATA_ERRORS = (ConfigValidationError, CorpusError, CheckpointError, TrainError,
               StyleError, ProjectionError, GenerationError, ConfigError,
               FileNotFoundError)


class UsageError(Exception):
    pass


def _verbose() -> bool:
    return os.environ.get("STYLECAST_LOG", "").lower() in ("1", "debug", "info", "verbose")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 instead of argparse's 2
        raise UsageError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    p = _Parser(prog="stylecast", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp):
        sp.add_argument("--config", required=True, help="flat JSON run config")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (value parsed as JSON when possible)")

    common(sub.add_parser("ingest", help="validate a JSONL corpus and write the vocab"))
    common(sub.add_parser("train-gen", help="train the styled char language model"))

    tc = sub.add_parser("train-clf", help="train the section classifier")
    common(tc)

    g = sub.add_parser("generate", help="generate styled text")
    common(g)
    g.add_argument("--prompt", default="", help="start string (opens a main title)")
    g.add_argument("--section", default=None, help="section name or id")
    g.add_argument("--time", default=None, help="ISO-8601 timestamp, e.g. 2005-06-01T00:00:00Z")
    g.add_argument("--mode", choices=SAMPLE_MODES, default=None)
    g.add_argument("--temperature", type=float, default=None)
    g.add_argument("--top-k", dest="top_k", type=int, default=None)
    g.add_argument("--seed", type=int, default=None, help="sampling seed")

    c = sub.add_parser("classify", help="classify a title into a section")
    common(c)
    c.add_argument("--title", required=True)

    pr = sub.add_parser("project", help="project title latents to an SVG scatter")
    common(pr)
    pr.add_argument("--cast", action="append", default=[], metavar="PHRASE",
                    help="overlay a phrase onto the scatter (repeatable)")
    pr.add_argument("--limit", type=int, default=None, help="cap the number of titles")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the validation split")
    common(ev)
    return p


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


def _load(args) -> RunConfig:
    return load_config(args.config, _parse_overrides(args.set))


def _out_dir(cfg: RunConfig) -> Path:
    d = Path(cfg.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _read_corpus(cfg: RunConfig, n_sections: int) -> list:
    require_paths(cfg, "corpus")
    articles, report = load_jsonl(cfg.corpus, n_sections)
    for line in report:
        print(f"skipped: {line}", file=sys.stderr)
    if not articles:
        raise CorpusError(f"no usable articles in {cfg.corpus}")
    return articles


def _vocab_path(cfg: RunConfig) -> Path:
    """The one place a run's vocab lives: the `vocab` key, else `out_dir/vocab.tsv`."""
    return Path(cfg.vocab) if cfg.vocab else Path(cfg.out_dir) / "vocab.tsv"


def _load_or_build_vocab(cfg: RunConfig, articles) -> Vocab:
    path = _vocab_path(cfg)
    if path.exists():
        return Vocab.load(path)
    vocab = build_vocab(articles)
    path.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(path)
    print(f"vocab written: {path} ({vocab.size} ids)", file=sys.stderr)
    return vocab


def _parse_time(value: str) -> int:
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        raise ConfigValidationError(
            [f"--time: expected an ISO-8601 timestamp, got {value!r}"]) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _section_id(value: str, names: list[str], n_sections: int) -> int:
    """The id of a section given by number or name; the model must have a style for it."""
    if value.isdigit() or (value.startswith("-") and value[1:].isdigit()):
        sid = int(value)
    elif value in names:
        sid = names.index(value)
    else:
        raise ConfigValidationError([f"unknown section {value!r}; known: {', '.join(names)}"])
    if not 0 <= sid < n_sections:
        raise ConfigValidationError(
            [f"section {value} is id {sid}, outside the model's sections [0, {n_sections})"])
    return sid


# Run records in checkpoint meta -> (check, expected type).
_META = {
    "t_min": (_is_int, "an integer"),
    "t_max": (_is_int, "an integer"),
    "section_names": (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                      "a list of strings"),
    "split_ratio": (lambda v: _is_num(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
    "split_seed": (_is_int, "an integer"),
    "vocab_sha256": (lambda v: isinstance(v, str), "a string"),
}


def _open_run(cfg: RunConfig, head: str | None, key: str = "checkpoint"):
    """(checkpoint, vocab, section names, style range, split) of the run at config `key`.

    The vocab is only read, never built, and must be the one the run was trained with.
    Names, style range and the (ratio, seed) split come from meta when present.
    """
    vocab_path = _vocab_path(cfg)
    if not vocab_path.exists():
        raise ConfigValidationError([f"vocab: path does not exist: {vocab_path}"])
    vocab = Vocab.load(vocab_path)
    require_paths(cfg, key)
    ckpt = load_checkpoint(cfg.values[key], expect_head=head)
    if ckpt.config.vocab_size != vocab.size:
        raise CheckpointError(
            f"checkpoint vocab size {ckpt.config.vocab_size} != vocab file {vocab.size}")
    meta = ckpt.meta
    for name, (check, expected) in _META.items():
        if name in meta and not check(meta[name]):
            raise CheckpointError(f"{cfg.values[key]}: checkpoint meta {name!r} must be "
                                  f"{expected}, got {meta[name]!r:.80}")
    trained_with = meta.get("vocab_sha256")
    if trained_with is not None and trained_with != vocab.sha256():
        raise CheckpointError(f"{cfg.values[key]} was trained with another vocab than "
                              f"{vocab_path} (sha256 differs)")
    stats = (CorpusStats(ckpt.config.n_sections, meta["t_min"], meta["t_max"])
             if "t_min" in meta and "t_max" in meta else None)
    split = (meta.get("split_ratio", cfg.split_ratio), meta.get("split_seed", cfg.seed))
    return ckpt, vocab, meta.get("section_names", cfg.section_names), stats, split


def _samples(model_cfg, articles, vocab) -> list:
    """The training samples of `articles` for the model's head, in corpus order."""
    if model_cfg.head_type == "lm":
        return lm_samples_from_articles(articles, vocab, model_cfg.max_seq,
                                        styled=model_cfg.style_mode != "none")
    return clf_samples_from_articles(articles, vocab, model_cfg.max_seq)


def _save_run(cfg: RunConfig, command: str, default_ckpt: str, params, model_cfg,
              vocab: Vocab, log, meta: dict) -> None:
    """Checkpoint and metrics CSV of a training subcommand, with their paths printed."""
    if _verbose():
        for epoch, split, metric, value in log.rows:
            print(f"epoch {epoch} {split} {metric}={value:.6g}", file=sys.stderr)
    out = _out_dir(cfg)
    ckpt = Path(cfg.checkpoint) if cfg.checkpoint else out / default_ckpt
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, model_cfg, ckpt, {
        "config_hash": cfg.hash(), **meta, "section_names": cfg.section_names,
        "vocab_sha256": vocab.sha256(), "split_ratio": cfg.split_ratio, "split_seed": cfg.seed})
    metrics = out / f"{command}-metrics.csv"
    atomic_write_text(metrics, log.to_csv(cfg.hash()))
    print(f"checkpoint: {ckpt}")
    print(f"metrics: {metrics}")


# -- subcommands --------------------------------------------------------------------


def _cmd_ingest(args) -> int:
    cfg = _load(args)
    articles = _read_corpus(cfg, cfg.n_sections)
    vocab = build_vocab(articles)
    path = _vocab_path(cfg)
    path.parent.mkdir(parents=True, exist_ok=True)
    vocab.save(path)
    labels = sorted({a.label for a in articles})
    print(f"articles: {len(articles)}")
    print(f"vocab: {path} ({vocab.size} ids)")
    print(f"sections present: {labels}")
    return 0


def _cmd_train_gen(args) -> int:
    cfg = _load(args)
    articles = _read_corpus(cfg, cfg.n_sections)
    vocab = _load_or_build_vocab(cfg, articles)
    stats = corpus_stats(articles, cfg.n_sections)
    model_cfg = cfg.model_config(vocab.size, "lm")
    params = init_params(model_cfg, seed=cfg.seed)
    best, log = train_lm(_samples(model_cfg, articles, vocab), params, model_cfg,
                         cfg.train_config(), stats)
    _save_run(cfg, "train-gen", "lm.ckpt", best, model_cfg, vocab, log,
              {"t_min": stats.t_min, "t_max": stats.t_max})
    val_loss = log.series("val", "loss")[-1]
    val_ppl = log.series("val", "perplexity")[-1]
    print(f"val_loss={val_loss:.4f} val_perplexity={val_ppl:.2f}")
    return 0


def _cmd_train_clf(args) -> int:
    cfg = _load(args)
    articles = _read_corpus(cfg, cfg.n_sections)
    vocab = _load_or_build_vocab(cfg, articles)
    model_cfg = cfg.model_config(vocab.size, "classifier")
    if cfg.init_from:
        base = _open_run(cfg, "lm", key="init_from")[0]
        params, model_cfg = convert_to_classifier(base.params, base.config,
                                                  cfg.n_sections, cfg.title_len)
    else:
        params = init_params(model_cfg, seed=cfg.seed)
    best, log = fine_tune_classifier(_samples(model_cfg, articles, vocab), params, model_cfg,
                                     cfg.train_config(), freeze_backbone=cfg.freeze_backbone)
    _save_run(cfg, "train-clf", "clf.ckpt", best, model_cfg, vocab, log, {})
    print(f"val_accuracy={log.series('val', 'accuracy')[-1]:.4f}")
    return 0


def _cmd_generate(args) -> int:
    flags = {"sample_mode": args.mode, "temperature": args.temperature,
             "top_k": args.top_k, "sample_seed": args.seed}
    cfg = load_config(args.config, {**_parse_overrides(args.set),
                                    **{k: v for k, v in flags.items() if v is not None}})
    ckpt, vocab, names, stats, _ = _open_run(cfg, "lm")
    spec = None
    if ckpt.config.style_mode != "none":
        if stats is None:
            raise CheckpointError("checkpoint lacks the corpus time range needed for style")
        section = (_section_id(args.section, names, ckpt.config.n_sections)
                   if args.section is not None else 0)
        ts = _parse_time(args.time) if args.time else stats.t_max
        spec = StyleSpec(section_id=section, timestamp=ts)
    print(generate(args.prompt, spec, cfg.sampling_policy(), ckpt.params, ckpt.config,
                   vocab, stats))
    return 0


def _cmd_classify(args) -> int:
    cfg = _load(args)
    ckpt, vocab, names, _, _ = _open_run(cfg, "classifier")
    ids = text.encode_title(args.title, vocab, ckpt.config.max_seq)
    logits = clf_forward(ckpt.params, ckpt.config, ids).data
    pred = int(np.argmax(logits))
    name = names[pred] if pred < len(names) else str(pred)
    print(f"{pred}\t{name}")
    return 0


def _cmd_project(args) -> int:
    cfg = _load(args)
    if args.limit is not None and args.limit < 1:
        raise ConfigValidationError([f"--limit: expected an integer >= 1, got {args.limit}"])
    ckpt, vocab, names, _, _ = _open_run(cfg, "classifier")
    articles = _read_corpus(cfg, cfg.n_sections)[:args.limit]
    if len(articles) <= cfg.knn:
        raise ProjectionError(
            f"need more than knn={cfg.knn} titles to project, got {len(articles)}")
    ids = [text.encode_title(t, vocab, ckpt.config.max_seq)
           for t in [a.main_title for a in articles] + args.cast]
    latents, cast_latents = np.split(np.concatenate([
        extract_latent(ckpt.params, ckpt.config, ids[lo:lo + EVAL_BATCH]).data
        for lo in range(0, len(ids), EVAL_BATCH)]), [len(articles)])
    labels = [a.label for a in articles]
    out = _out_dir(cfg)
    write_latents(out / "latents.bin", latents)
    result = project_latents(latents, labels, k=cfg.knn, epochs=cfg.layout_epochs,
                             seed=cfg.projection_seed)
    svg = out / "scatter.svg"
    emit_scatter_svg(result.points + cast_latent(cast_latents, result), names, svg)
    print(f"projection: n={len(result.points)} sym_edges={result.sym_edges} "
          f"knn_s={result.stage_s['knn']:.3f} layout_s={result.stage_s['layout']:.3f}")
    print(f"latents: {out / 'latents.bin'}")
    print(f"scatter: {svg}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load(args)
    ckpt, vocab, _, stats, (ratio, seed) = _open_run(cfg, None)
    samples = _samples(ckpt.config, _read_corpus(cfg, ckpt.config.n_sections), vocab)
    _, val = text.split_shuffled(samples, ratio, seed)
    if ckpt.config.head_type == "lm":
        loss, ppl = evaluate_lm(ckpt.params, ckpt.config, val, stats)
        print(f"val_loss={loss:.6f}")
        print(f"val_perplexity={ppl:.4f}")
    else:
        acc, confusion = evaluate_accuracy(ckpt.params, ckpt.config, val)
        print(f"val_accuracy={acc:.4f}")
        print("confusion:")
        for row_label, row in enumerate(confusion):
            print(f"  {row_label}: " + " ".join(str(int(v)) for v in row))
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train-gen": _cmd_train_gen,
    "train-clf": _cmd_train_clf,
    "generate": _cmd_generate,
    "classify": _cmd_classify,
    "project": _cmd_project,
    "eval": _cmd_eval,
}


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError(parser.format_usage())
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
