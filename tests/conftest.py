import json
import random

import pytest

from stylecast.text import Article, build_vocab

# Disjoint per-section alphabets for separable synthetic corpora.
SECTION_ALPHABETS = ["abcd", "efgh", "ijkl", "mnop"]

# Fixed per-section word sets for highly regular (memorizable) corpora.
SECTION_WORDS = [
    ["abba", "adda", "caba"],
    ["effe", "ghee", "heff"],
    ["kilj", "lijk", "jill"],
    ["mono", "pomp", "noon"],
]


def make_regular_articles(n: int, n_sections: int = 4,
                          title_words: int = 3, sub_words: int = 2,
                          body_words: int = 5) -> list[Article]:
    """Corpus whose lines cycle fixed per-section words; easy to memorize."""
    arts = []
    for i in range(n):
        label = i % n_sections
        words = SECTION_WORDS[label % len(SECTION_WORDS)]
        pick = lambda k: words[(i + k) % len(words)]  # noqa: E731
        arts.append(Article(
            main_title=" ".join(pick(k) for k in range(title_words)),
            sub_title=" ".join(pick(k) for k in range(sub_words)),
            body=" ".join(pick(k) for k in range(body_words)),
            label=label, author=f"author-{label}",
            release_time=1_000_000_000 + i * 86_400, tags=[]))
    return arts


def make_word(rng: random.Random, alphabet: str, lo: int = 2, hi: int = 5) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def make_articles(n: int, n_sections: int = 4, seed: int = 0,
                  title_words: int = 2, body_words: int = 3) -> list[Article]:
    """Synthetic corpus where each section writes in its own alphabet."""
    rng = random.Random(seed)
    arts = []
    for i in range(n):
        label = i % n_sections
        alpha = SECTION_ALPHABETS[label % len(SECTION_ALPHABETS)]
        title = " ".join(make_word(rng, alpha) for _ in range(title_words))
        sub = make_word(rng, alpha)
        body = " ".join(make_word(rng, alpha) for _ in range(body_words))
        arts.append(Article(
            main_title=title, sub_title=sub, body=body, label=label,
            author=f"author-{label}", release_time=1_000_000_000 + i * 86_400,
            tags=[f"tag{label}"]))
    return arts


def rewrite_header(path, out, model=None, meta=None):
    """Copy the checkpoint at `path` to `out` with header keys replaced, bypassing the writer."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + n])
    raw = json.dumps({"model": {**header["model"], **(model or {})},
                      "meta": {**header["meta"], **(meta or {})}}).encode("utf-8")
    out.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[12 + n:])
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return make_articles(16)


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return build_vocab(small_corpus)
