"""Char tokenizer with special-token template, corpus ingestion, splitting.

Line template: [SOS] main title [SEP1] sub title [SEP2] body [EOS],
right-padded with [PAD] to a fixed length. Six ids are reserved for
specials; ordinary characters start at id 6.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .fileio import atomic_write_text

PAD, SOS, EOS, SEP1, SEP2, UNK = 0, 1, 2, 3, 4, 5
N_SPECIALS = 6
SPECIAL_MARKERS = {PAD: "[PAD]", SOS: "[SOS]", EOS: "[EOS]",
                   SEP1: "[SEP1]", SEP2: "[SEP2]", UNK: "[UNK]"}

LINE_LEN = 512
TITLE_LEN = 50

_REQUIRED_FIELDS = ("main_title", "sub_title", "body", "label", "author", "release_time")


class CorpusError(ValueError):
    """Unrecoverable corpus-level problem (unreadable file, empty corpus)."""


@dataclass
class Article:
    main_title: str
    sub_title: str
    body: str
    label: int
    author: str
    release_time: int
    tags: list[str] = field(default_factory=list)


@dataclass
class Vocab:
    """Bijective char<->id map; ids 0-5 are the reserved specials."""

    char_to_id: dict[str, int]
    id_to_char: dict[int, str]

    @property
    def size(self) -> int:
        return N_SPECIALS + len(self.char_to_id)

    def id_of(self, ch: str) -> int:
        return self.char_to_id.get(ch, UNK)

    def to_text(self) -> str:
        """The canonical file text: one `id<TAB>codepoint-hex` line per id, ascending."""
        lines = [f"{i}\t{ord(self.id_to_char[i]):x}" for i in sorted(self.id_to_char)]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        char_to_id: dict[str, int] = {}
        id_to_char: dict[int, str] = {}
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError:
            raise CorpusError(f"vocab file {path}: not valid UTF-8") from None
        for ln, raw in enumerate(lines, 1):
            if not raw.strip():
                continue
            ident, _, hexcp = raw.partition("\t")
            try:
                i, ch = int(ident), chr(int(hexcp, 16))
            except (ValueError, OverflowError):
                raise CorpusError(
                    f"vocab file line {ln}: expected id<TAB>codepoint-hex, got {raw!r}") from None
            if i < N_SPECIALS:
                raise CorpusError(f"vocab file line {ln}: id {i} is reserved")
            if i in id_to_char or ch in char_to_id:
                raise CorpusError(f"vocab file line {ln}: id {i} or character {ch!r} repeats")
            char_to_id[ch] = i
            id_to_char[i] = ch
        top = N_SPECIALS + len(id_to_char) - 1  # ids are distinct and >= N_SPECIALS
        if id_to_char and max(id_to_char) != top:
            raise CorpusError(f"vocab file {path}: ids must run {N_SPECIALS}..{top} without gaps")
        return cls(char_to_id, id_to_char)


def load_jsonl(path: str | Path, n_sections: int | None = None) -> tuple[list[Article], list[str]]:
    """Parse one JSON article per line; skipped lines are reported, not fatal.

    Only LF, CR and CRLF end a line, and each line is decoded on its own,
    so a line that is not UTF-8 is skipped like any other bad line.
    Returns (articles in file order, report of skipped lines).
    """
    p = Path(path)
    try:
        raw_lines = p.read_bytes().splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {p}: {exc}") from exc

    articles: list[Article] = []
    report: list[str] = []
    for ln, blob in enumerate(raw_lines, 1):
        try:
            raw = blob.decode("utf-8")
        except UnicodeDecodeError:
            report.append(f"line {ln}: not valid UTF-8")
            continue
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as exc:  # also too-long ints, too-deep nesting
            report.append(f"line {ln}: invalid JSON ({getattr(exc, 'msg', exc)})")
            continue
        if not isinstance(obj, dict):
            report.append(f"line {ln}: not a JSON object")
            continue
        missing = [k for k in _REQUIRED_FIELDS if k not in obj]
        if missing:
            report.append(f"line {ln}: missing field(s) {', '.join(missing)}")
            continue
        label = obj["label"]
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            report.append(f"line {ln}: label must be a nonnegative integer")
            continue
        if n_sections is not None and label >= n_sections:
            report.append(f"line {ln}: label {label} out of range [0, {n_sections})")
            continue
        if not str(obj["main_title"]):
            report.append(f"line {ln}: empty main_title")
            continue
        try:
            release_time = int(obj["release_time"])
        except (TypeError, ValueError, OverflowError):
            report.append(f"line {ln}: release_time must be an integer timestamp")
            continue
        tags = obj.get("tags", [])
        if not isinstance(tags, list):
            report.append(f"line {ln}: tags must be a list")
            continue
        articles.append(Article(
            main_title=str(obj["main_title"]),
            sub_title=str(obj["sub_title"]),
            body=str(obj["body"]),
            label=label,
            author=str(obj["author"]),
            release_time=release_time,
            tags=[str(t) for t in tags],
        ))
    return articles, report


def build_vocab(articles: list[Article]) -> Vocab:
    """Every character seen in any title/sub/body gets an id >= 6.

    Ordering is deterministic: first occurrence across the corpus,
    ties impossible, so identical corpora yield identical vocabs.
    """
    if not articles:
        raise CorpusError("cannot build a vocab from an empty corpus")
    char_to_id: dict[str, int] = {}
    next_id = N_SPECIALS
    for a in articles:
        for ch in a.main_title + a.sub_title + a.body:
            if ch not in char_to_id:
                char_to_id[ch] = next_id
                next_id += 1
    id_to_char = {i: c for c, i in char_to_id.items()}
    return Vocab(char_to_id, id_to_char)


def _frame(ids: list[int], max_len: int) -> list[int]:
    """ids truncated so [EOS] fits, then [EOS], right-padded with [PAD] to exactly max_len."""
    ids = ids[:max_len - 1] + [EOS]
    return ids + [PAD] * (max_len - len(ids))


def format_article(a: Article, vocab: Vocab, max_len: int = LINE_LEN) -> list[int]:
    """Template the article into exactly max_len ids, [EOS] after content.

    Content longer than max_len - 1 tokens is truncated so [EOS] lands
    on the final position; shorter lines are right-padded with [PAD].
    """
    ids = [SOS, *map(vocab.id_of, a.main_title), SEP1, *map(vocab.id_of, a.sub_title), SEP2,
           *map(vocab.id_of, a.body)]
    return _frame(ids, max_len)


def encode(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Chars to ids, unknown chars to [UNK], truncated to max_len."""
    if max_len < 1:
        raise ValueError("encode: max_len must be >= 1")
    return [vocab.id_of(c) for c in text][:max_len]


def encode_title(text: str, vocab: Vocab, max_len: int = TITLE_LEN) -> list[int]:
    """Classifier-path encoding: [SOS] chars [EOS] within the title budget, padded."""
    return _frame([SOS] + [vocab.id_of(c) for c in text], max_len)


def decode(ids: list[int], vocab: Vocab) -> str:
    """Ids back to text; specials render as bracketed markers, [PAD] is dropped."""
    out: list[str] = []
    for i in ids:
        if i == PAD:
            continue
        if i < N_SPECIALS:
            out.append(SPECIAL_MARKERS[i])
        elif i in vocab.id_to_char:
            out.append(vocab.id_to_char[i])
        else:
            raise IndexError(f"decode: id {i} out of range for vocab of size {vocab.size}")
    return "".join(out)


def split_shuffled(items: list, ratio: float = 0.9, seed: int = 0) -> tuple[list, list]:
    """Deterministic shuffle under seed, then exact |train| = round(ratio*N) split.

    Raises CorpusError when either side would be empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    n_train = round(ratio * len(items))
    if not 0 < n_train < len(items):
        side = "training" if n_train == 0 else "validation"
        raise CorpusError(f"cannot split {len(items)} item(s) at ratio {ratio}: "
                          f"the {side} split would be empty")
    order = list(range(len(items)))
    random.Random(seed).shuffle(order)
    train = [items[i] for i in order[:n_train]]
    val = [items[i] for i in order[n_train:]]
    return train, val
