"""Linguistic, metadata, and network cue extraction from tweet text.

Eleven cues come from the text itself: seven lexicon-count cues (pronoun
classes, abusive, expletive, positive/negative sentiment), a readability
score, and three artifact counts (mentions, URLs, hashtags). Three network
cues (degree centralities) join from graph metrics at aggregation time.
Aggregation is two-level: per post, then per agent, then a corpus mean over
agents, matching a per-post-per-agent sampling unit; a flag switches the
corpus stage to pooled per-post averaging.
"""
from __future__ import annotations

import csv
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import SchemaError, ValidationError, read_text
from .netgraph import GraphMetrics
from .persona import Population

# Canonical cue order; every report and vector follows it.
CUE_NAMES = (
    "first_person_pronouns",
    "second_person_pronouns",
    "third_person_pronouns",
    "reading_difficulty",
    "abusive_terms",
    "expletives",
    "negative_sentiment",
    "positive_sentiment",
    "mentions",
    "urls",
    "hashtags",
    "total_degree",
    "in_degree",
    "out_degree",
)

LEXICON_CATEGORIES = (
    "first_person",
    "second_person",
    "third_person",
    "abusive",
    "expletive",
    "positive",
    "negative",
)

# lexicon category -> cue it feeds
LEXICON_CUE = {
    "first_person": "first_person_pronouns",
    "second_person": "second_person_pronouns",
    "third_person": "third_person_pronouns",
    "abusive": "abusive_terms",
    "expletive": "expletives",
    "positive": "positive_sentiment",
    "negative": "negative_sentiment",
}

_PUNCT = string.punctuation
_URL_PREFIXES = ("http://", "https://")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")


class Tokens(NamedTuple):
    """The tokens of one text in order, and each in the class is_artifact_token gives it."""

    tokens: list[str]
    words: list[str]  # non-artifact tokens, case kept
    mentions: list[str]
    hashtags: list[str]
    urls: list[str]
    prose: list[str]  # raw whitespace tokens other than URLs, for sentence splitting


def _classify_raw(raw: str) -> tuple[str | None, str]:
    """(class, token) of one whitespace token; see tokenize for the rules.

    The class is "words", "mentions", "hashtags" or "urls", or None for a
    token the punctuation strip empties.
    """
    if raw.startswith(_URL_PREFIXES):
        return "urls", raw
    if raw[0] == "@":
        tok = "@" + raw[1:].strip(_PUNCT)
        return ("mentions" if _MENTION_RE.fullmatch(tok) else "words"), tok
    if raw[0] == "#":
        tok = "#" + raw[1:].strip(_PUNCT)
        return ("hashtags" if _HASHTAG_RE.fullmatch(tok) else "words"), tok
    # The strip removes every leading @ and #; what remains may be a URL.
    tok = raw.strip(_PUNCT)
    if not tok:
        return None, tok
    return ("urls" if tok.startswith(_URL_PREFIXES) else "words"), tok


def classify_tokens(text: str) -> Tokens:
    """Tokenize and classify in one pass over text.split(); see tokenize for the rules."""
    tokens, prose = [], []
    by_class: dict[str, list[str]] = {"words": [], "mentions": [], "hashtags": [], "urls": []}
    for raw in text.split():
        cls, tok = _classify_raw(raw)
        if not raw.startswith(_URL_PREFIXES):
            prose.append(raw)
        if cls is not None:
            tokens.append(tok)
            by_class[cls].append(tok)
    return Tokens(tokens, prose=prose, **by_class)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with URL tokens kept whole and edge punctuation stripped.

    A leading `@` or `#` survives the strip (mention/hashtag markers); empty
    results are dropped.
    """
    return classify_tokens(text).tokens


def is_artifact_token(tok: str) -> bool:
    """True for mention, hashtag, and URL tokens (excluded from word-level cues)."""
    return bool(tok.startswith(_URL_PREFIXES) or _MENTION_RE.fullmatch(tok)
                or _HASHTAG_RE.fullmatch(tok))


@dataclass(frozen=True)
class Lexicon:
    """One cue category's term set; terms are lowercase tuples of 1-3 tokens."""

    category: str
    terms: frozenset[tuple[str, ...]]
    max_n: int

    @classmethod
    def from_terms(cls, category: str, terms) -> Lexicon:
        parsed = set()
        for term in terms:
            toks = tuple(term.lower().split())
            if not 1 <= len(toks) <= 3:
                raise SchemaError(f"lexicon[{category}]", "terms must be 1-3 tokens", term)
            parsed.add(toks)
        if not parsed:
            raise SchemaError(f"lexicon[{category}]", "lexicon must be non-empty")
        return cls(category=category, terms=frozenset(parsed), max_n=max(len(t) for t in parsed))


def load_lexicon(path: str | Path, category: str) -> Lexicon:
    """Parse a lexicon file: UTF-8, one term per line, `#` lines are comments."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"missing lexicon file for category {category!r}: {path}")
    terms = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.append(line)
    return Lexicon.from_terms(category, terms)


def default_lexicon_dir() -> Path:
    return Path(__file__).parent / "data" / "lexicons"


def load_lexicons(directory: str | Path | None = None) -> dict[str, Lexicon]:
    """All seven category lexicons from a directory of <category>.txt files."""
    directory = Path(directory) if directory is not None else default_lexicon_dir()
    return {cat: load_lexicon(directory / f"{cat}.txt", cat) for cat in LEXICON_CATEGORIES}


@dataclass(frozen=True)
class LexiconTable:
    """The seven category lexicons merged for one-pass counting.

    A lexicon's longest-match count equals the count of words that are its
    one-word terms unless a word of the post starts one of its multi-word
    terms; only then does that lexicon need the n-gram scan. The table also
    caches each whitespace token text_cues meets; the cached cues depend on
    the lexicons, so the cache lives and dies with the table.
    """

    unigrams: dict[str, tuple[str, ...]]  # word -> cues whose lexicon holds it
    multi: tuple[tuple[str, Lexicon, frozenset[str]], ...]  # (cue, lexicon, first words)
    tokens: dict[str, tuple] = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_lexicons(cls, lexicons: dict[str, Lexicon]) -> LexiconTable:
        unigrams: dict[str, tuple[str, ...]] = {}
        multi = []
        for cat in LEXICON_CATEGORIES:
            lex, cue = lexicons[cat], LEXICON_CUE[cat]
            for term in lex.terms:
                if len(term) == 1:
                    unigrams[term[0]] = unigrams.get(term[0], ()) + (cue,)
            if lex.max_n > 1:
                multi.append((cue, lex, frozenset(term[0] for term in lex.terms if len(term) > 1)))
        return cls(unigrams, tuple(multi))

    def token(self, raw: str) -> tuple[tuple[str, ...], str | None, int, bool]:
        """(cues it counts toward, lowercase word, syllables, in prose) of one whitespace token.

        A word counts toward the cues whose lexicons hold it as a one-word
        term, an artifact toward its own count cue.
        """
        cls, tok = _classify_raw(raw)
        in_prose = not raw.startswith(_URL_PREFIXES)
        if cls != "words":
            return ((cls,) if cls else ()), None, 0, in_prose
        low = tok.lower()
        return self.unigrams.get(low, ()), low, _syllables(low), in_prose


def _count_tokens(word_tokens: list[str], lex: Lexicon) -> int:
    """Longest-match-first, non-overlapping n-gram matches over lowered tokens."""
    count = 0
    i = 0
    n_toks = len(word_tokens)
    while i < n_toks:
        step = 1
        for n in range(min(lex.max_n, n_toks - i), 0, -1):
            if tuple(word_tokens[i : i + n]) in lex.terms:
                count += 1
                step = n
                break
        i += step
    return count


def count_lexicon_terms(text: str, lex: Lexicon) -> int:
    """Matching term occurrences in text; mention/hashtag/URL tokens never match."""
    return _count_tokens([w.lower() for w in classify_tokens(text).words], lex)


def _syllables(word: str) -> int:
    """Contiguous vowel-group count (aeiouy) of a lowercase word, minimum 1.

    A trailing standalone "e" is silent when the word has another vowel group.
    """
    groups = len(_VOWEL_GROUP_RE.findall(word))
    if groups >= 2 and word.endswith("e") and len(word) >= 2 and word[-2] not in "aeiouy":
        groups -= 1
    return max(groups, 1)


def _reading_score(n_words: int, syllables: int, prose: list[str]) -> float:
    if not n_words:
        return 0.0
    # URL tokens carry dots that are not sentence ends; prose leaves them out.
    segments = _SENTENCE_SPLIT_RE.split(" ".join(prose))
    sentences = max(1, sum(1 for seg in segments if seg.strip()))
    grade = 0.39 * (n_words / sentences) + 11.8 * (syllables / n_words) - 15.59
    return min(max(grade / 100.0, 0.0), 1.0)


def reading_difficulty(text: str) -> float:
    """Flesch-Kincaid grade mapped onto [0, 1] by grade/100, clamped.

    grade = 0.39*(words/sentences) + 11.8*(syllables/words) - 15.59, over
    non-mention/hashtag/URL tokens. Empty text scores 0.
    """
    toks = classify_tokens(text)
    syllables = sum(_syllables(w.lower()) for w in toks.words)
    return _reading_score(len(toks.words), syllables, toks.prose)


def metadata_cues(tweet_or_text) -> dict[str, int]:
    """Mention/URL/hashtag token counts for one post (accepts a Tweet or raw text)."""
    text = tweet_or_text if isinstance(tweet_or_text, str) else tweet_or_text.text
    toks = classify_tokens(text)
    return {"mentions": len(toks.mentions), "urls": len(toks.urls), "hashtags": len(toks.hashtags)}


# Cues computed from text alone, in CUE_NAMES order.
TEXT_CUES = tuple(c for c in CUE_NAMES if c not in ("total_degree", "in_degree", "out_degree"))
NETWORK_CUES = ("total_degree", "in_degree", "out_degree")
# The text cues that count tokens: the lexicon cues, then the artifact classes.
_COUNT_CUES = (*LEXICON_CUE.values(), "mentions", "urls", "hashtags")


def text_cues(text: str, lexicons: dict[str, Lexicon] | LexiconTable) -> dict[str, float]:
    """All eleven text-derived cue values for one post, from one tokenizer pass.

    lexicons is the category -> Lexicon dict or its LexiconTable;
    aggregate_cues builds the table once and passes it for every post, so
    each distinct token is classified once per call.
    """
    table = lexicons if isinstance(lexicons, LexiconTable) else LexiconTable.from_lexicons(lexicons)
    cache = table.tokens
    counts = dict.fromkeys(_COUNT_CUES, 0)
    lowered, prose = [], []
    syllables = 0
    for raw in text.split():
        record = cache.get(raw)
        if record is None:
            record = cache[raw] = table.token(raw)
        cues, low, syl, in_prose = record
        for cue in cues:
            counts[cue] += 1
        if low is not None:
            lowered.append(low)
            syllables += syl
        if in_prose:
            prose.append(raw)
    for cue, lex, starts in table.multi:
        if not starts.isdisjoint(lowered):
            counts[cue] = _count_tokens(lowered, lex)
    out = {cue: float(n) for cue, n in counts.items()}
    out["reading_difficulty"] = _reading_score(len(lowered), syllables, prose)
    return out


@dataclass(frozen=True)
class CueVector:
    first_person_pronouns: float
    second_person_pronouns: float
    third_person_pronouns: float
    reading_difficulty: float
    abusive_terms: float
    expletives: float
    negative_sentiment: float
    positive_sentiment: float
    mentions: float
    urls: float
    hashtags: float
    total_degree: float
    in_degree: float
    out_degree: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in CUE_NAMES}

    def violations(self) -> list[str]:
        out = []
        for name in CUE_NAMES:
            if getattr(self, name) < 0:
                out.append(f"{name}: cue values must be non-negative")
        if not 0.0 <= self.reading_difficulty <= 1.0:
            out.append("reading_difficulty: must be in [0, 1]")
        return out


@dataclass
class CueAggregate:
    """Cue vectors per agent and for the corpus, plus the raw sample vectors.

    samples[cue] holds the values the corpus statistics are computed from:
    per-agent means by default, pooled per-post values under per_post
    (network cues always sample per agent).
    """

    per_agent: dict[str, CueVector]
    corpus: CueVector
    samples: dict[str, np.ndarray]
    per_post: bool


def aggregate_cues(
    tweets,
    metrics: GraphMetrics,
    pop: Population,
    lexicons: dict[str, Lexicon] | None = None,
    *,
    per_post: bool = False,
) -> CueAggregate:
    """Post → agent → corpus cue aggregation.

    Agents with zero posts are excluded entirely. Network cue values are the
    corpus-level metrics, copied into every vector.
    """
    if not tweets:
        raise ValidationError("empty corpus: cue aggregation requires at least one tweet")
    table = LexiconTable.from_lexicons(lexicons if lexicons is not None else load_lexicons())

    by_agent: dict[str, list[dict[str, float]]] = {}
    pooled: list[dict[str, float]] = []
    by_text: dict[str, dict[str, float]] = {}  # posts with one text share one cue dict
    for t in tweets:
        if t.author_id not in pop:
            raise ValidationError(f"tweet {t.id}: unknown author {t.author_id!r}")
        tv = by_text.get(t.text)
        if tv is None:
            tv = by_text[t.text] = text_cues(t.text, table)
        by_agent.setdefault(t.author_id, []).append(tv)
        pooled.append(tv)

    network_values = {
        "total_degree": metrics.avg_total_degree_centrality,
        "in_degree": metrics.avg_in_degree_centrality,
        "out_degree": metrics.avg_out_degree_centrality,
    }

    per_agent: dict[str, CueVector] = {}
    agent_means: dict[str, list[float]] = {c: [] for c in TEXT_CUES}
    for pid in pop.ids():
        rows = by_agent.get(pid)
        if not rows:
            continue
        means = {c: float(np.mean([r[c] for r in rows])) for c in TEXT_CUES}
        for c in TEXT_CUES:
            agent_means[c].append(means[c])
        per_agent[pid] = CueVector(**means, **network_values)

    n_agents = len(per_agent)
    samples: dict[str, np.ndarray] = {}
    for c in TEXT_CUES:
        if per_post:
            samples[c] = np.asarray([r[c] for r in pooled], dtype=np.float64)
        else:
            samples[c] = np.asarray(agent_means[c], dtype=np.float64)
    for c in NETWORK_CUES:
        samples[c] = np.full(n_agents, network_values[c], dtype=np.float64)

    corpus = CueVector(
        **{c: float(samples[c].mean()) for c in TEXT_CUES},
        **network_values,
    )
    return CueAggregate(per_agent=per_agent, corpus=corpus, samples=samples, per_post=per_post)


def write_cue_report(agg: CueAggregate, path: str | Path) -> None:
    """Cue report CSV `cue,per_agent_mean,per_agent_std,n_agents` in canonical order.

    Std is the sample standard deviation (n-1 denominator); under per_post the
    sample unit for text cues is the post, column names notwithstanding.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cue", "per_agent_mean", "per_agent_std", "n_agents"])
        for cue in CUE_NAMES:
            vals = agg.samples[cue]
            std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            writer.writerow([cue, repr(float(vals.mean())), repr(std), len(vals)])


def read_cue_report(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse a cue report CSV back into {cue: {mean, std, n}}."""
    out: dict[str, dict[str, float]] = {}
    reader = csv.DictReader(read_text(path).splitlines())
    expected = {"cue", "per_agent_mean", "per_agent_std", "n_agents"}
    if reader.fieldnames is None or set(reader.fieldnames) != expected:
        raise SchemaError(str(path), f"cue report header must be {sorted(expected)}")
    for row in reader:
        cue = row["cue"]
        if cue not in CUE_NAMES:
            raise SchemaError(str(path), f"unknown cue name {cue!r}")
        out[cue] = {
            "mean": float(row["per_agent_mean"]),
            "std": float(row["per_agent_std"]),
            "n": int(row["n_agents"]),
        }
    missing = [c for c in CUE_NAMES if c not in out]
    if missing:
        raise SchemaError(str(path), f"cue report missing cues {missing}")
    return out
