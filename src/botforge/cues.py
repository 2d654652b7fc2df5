"""Linguistic, metadata, and network cue extraction from tweet text.

Eleven cues come from the text itself: seven lexicon-count cues (pronoun
classes, abusive, expletive, positive/negative sentiment), a readability
score, and three artifact counts (mentions, URLs, hashtags). Three network
cues (degree centralities) join from graph metrics at aggregation time.
Aggregation is two-level: per post, then per agent; summarize gives a cue's
corpus statistics over the per-agent means (a flag pools per-post values for
the text cues instead). Each distinct post text is scored once into one row
of a text x cue matrix, and each agent's means are one reduction over that
agent's posts, taken contiguously in corpus order.
"""
from __future__ import annotations

import csv
import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import _URL_PREFIXES, _classify_raw, as_columns
from .errors import SchemaError, ValidationError, read_text
from .netgraph import GraphMetrics
from .persona import Population


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

    def violations(self) -> list[str]:
        out = []
        for name in CUE_NAMES:
            if getattr(self, name) < 0:
                out.append(f"{name}: cue values must be non-negative")
        if not 0.0 <= self.reading_difficulty <= 1.0:
            out.append("reading_difficulty: must be in [0, 1]")
        return out


# Canonical cue order; every report and vector follows it.
CUE_NAMES = tuple(f.name for f in fields(CueVector))

# Cues computed from text alone, in CUE_NAMES order. The network cues come
# last, so a row of text cue values fills CueVector's leading fields.
NETWORK_CUES = ("total_degree", "in_degree", "out_degree")
TEXT_CUES = tuple(c for c in CUE_NAMES if c not in NETWORK_CUES)
# Each text cue's position in a row of cue values.
_CUE_POS = {cue: i for i, cue in enumerate(TEXT_CUES)}
_READING_POS = _CUE_POS["reading_difficulty"]

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
LEXICON_CATEGORIES = tuple(LEXICON_CUE)

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
# Sentence terminators; a sentence is a non-blank stretch of prose between runs of them.
_TERMINATORS = ".!?"
_CONTENT_RUN_RE = re.compile(r"[^.!?]+")
# Texts _cue_matrix maps and sums as one chunk: its id and per-occurrence
# arrays stay near a few hundred kB, whatever the corpus size.
_CHUNK_TEXTS = 512


def classify_tokens(text: str) -> dict[str, list[str]]:
    """The tokens of one text in each class ("words", "mentions", "hashtags", "urls"), in order.

    Words are the non-artifact tokens, case kept; see tokenize for the rules.
    """
    by_class: dict[str, list[str]] = {"words": [], "mentions": [], "hashtags": [], "urls": []}
    for raw in text.split():
        cls, tok = _classify_raw(raw)
        if cls is not None:
            by_class[cls].append(tok)
    return by_class


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with URL tokens kept whole and edge punctuation stripped.

    A leading `@` or `#` survives the strip (mention/hashtag markers); empty
    results are dropped.
    """
    return [tok for cls, tok in map(_classify_raw, text.split()) if cls is not None]


@dataclass(frozen=True)
class Lexicon:
    """One cue category's term set; terms are lowercase tuples of 1-3 tokens."""

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
        return cls(terms=frozenset(parsed), max_n=max(len(t) for t in parsed))


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
    terms; only then does that lexicon need the n-gram scan.
    """

    unigrams: dict[str, tuple[int, ...]]  # word -> positions of the cues whose lexicon holds it
    multi: tuple[tuple[int, Lexicon, frozenset[str]], ...]  # (cue position, lexicon, first words)

    @classmethod
    def from_lexicons(cls, lexicons: dict[str, Lexicon]) -> LexiconTable:
        unigrams: dict[str, tuple[int, ...]] = {}
        multi = []
        for cat in LEXICON_CATEGORIES:
            lex, pos = lexicons[cat], _CUE_POS[LEXICON_CUE[cat]]
            for term in lex.terms:
                if len(term) == 1:
                    unigrams[term[0]] = unigrams.get(term[0], ()) + (pos,)
            if lex.max_n > 1:
                multi.append((pos, lex, frozenset(term[0] for term in lex.terms if len(term) > 1)))
        return cls(unigrams, tuple(multi))

    def token(self, raw: str) -> tuple[tuple[int, ...], str | None, int, bool]:
        """(positions of the cues it counts toward, lowercase word, syllables, in prose).

        A word counts toward the cues whose lexicons hold it as a one-word
        term, an artifact toward its own count cue.
        """
        cls, tok = _classify_raw(raw)
        in_prose = not raw.startswith(_URL_PREFIXES)
        if cls != "words":
            return ((_CUE_POS[cls],) if cls else ()), None, 0, in_prose
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
    return _count_tokens([w.lower() for w in classify_tokens(text)["words"]], lex)


def _syllables(word: str) -> int:
    """Contiguous vowel-group count (aeiouy) of a lowercase word, minimum 1.

    A trailing standalone "e" is silent when the word has another vowel group.
    """
    groups = len(_VOWEL_GROUP_RE.findall(word))
    if groups >= 2 and word.endswith("e") and len(word) >= 2 and word[-2] not in "aeiouy":
        groups -= 1
    return max(groups, 1)


def reading_difficulty(text: str) -> float:
    """Flesch-Kincaid grade mapped onto [0, 1] by grade/100, clamped.

    grade = 0.39*(words/sentences) + 11.8*(syllables/words) - 15.59, over
    non-mention/hashtag/URL tokens. The sentences are the non-blank segments
    between runs of `.`, `!` and `?` in the non-URL tokens joined by spaces,
    at least 1. Empty text scores 0.
    """
    return float(_cue_matrix([text], LexiconTable({}, ()))[0, _READING_POS])


def metadata_cues(text: str) -> dict[str, int]:
    """Mention/URL/hashtag token counts for one post text."""
    row = _cue_matrix([text], LexiconTable({}, ()))[0]
    return {cue: int(row[_CUE_POS[cue]]) for cue in ("mentions", "urls", "hashtags")}


def text_cues(text: str, table: LexiconTable) -> dict[str, float]:
    """All eleven text-derived cue values for one post, in TEXT_CUES order."""
    return dict(zip(TEXT_CUES, _cue_matrix([text], table)[0].tolist()))


def _cue_matrix(texts, table: LexiconTable) -> np.ndarray:
    """The text x cue matrix of an iterable of texts: row i holds the TEXT_CUES values of text i.

    Each text's whitespace tokens are mapped to integer ids as it is split,
    and each distinct token is scored once. Every per-text count is then a
    sum of per-token scores over the text's token ids (np.bincount), which
    is exact: every count is an integer below 2**53. Reading difficulty
    follows from the per-text word, syllable and sentence counts with the
    float operations reading_difficulty states, in its order.
    """
    vocab: defaultdict[str, int] = defaultdict()
    vocab.default_factory = vocab.__len__  # a token met for the first time gets the next id
    # Per chunk of _CHUNK_TEXTS texts, (token ids, bounds): the chunk's text i
    # has the token ids ids[bounds[i]:bounds[i + 1]]. The ids are intp and the
    # bincount weights float64, so numpy casts neither.
    chunks: list[tuple[array, array]] = []
    for k, text in enumerate(texts):
        if not k % _CHUNK_TEXTS:
            chunks.append((array("q"), array("q", [0])))
        ids, bounds = chunks[-1]
        ids.extend(map(vocab.__getitem__, text.split()))
        bounds.append(len(ids))

    # Each distinct token's scores, by id. For sentences, a prose token holds
    # `runs` stretches free of terminators; it opens (closes) on one unless
    # its first (last) character is a terminator. Two adjacent prose tokens of
    # a text, the first not closing and the second not opening on a
    # terminator, join across the space between them: their stretches meet
    # in one sentence.
    first_words = frozenset().union(*(starts for _, _, starts in table.multi))
    lows, hit_tokens, hit_positions, weights, flags = [], [], [], [], []
    for tid, raw in enumerate(vocab):
        positions, low, syllables, in_prose = table.token(raw)
        lows.append(low)
        hit_tokens += [tid] * len(positions)
        hit_positions += positions
        weights.append((low is not None, syllables,
                        len(_CONTENT_RUN_RE.findall(raw)) if in_prose else 0))
        flags.append((in_prose, raw[0] not in _TERMINATORS, raw[-1] not in _TERMINATORS,
                      low in first_words))
    is_word, syllables, runs = np.array(weights, dtype=np.float64).reshape(-1, 3).T
    in_prose, opens, closes, starter = np.array(flags, dtype=bool).reshape(-1, 4).T
    hits = np.zeros((len(lows), len(TEXT_CUES)), dtype=bool)
    hits[hit_tokens, hit_positions] = True
    counts_any = hits.any(axis=1)

    n_cues = len(TEXT_CUES)
    matrix = np.empty((sum(len(bounds) - 1 for _, bounds in chunks), n_cues))
    for first, (ids, bounds) in zip(range(0, len(matrix), _CHUNK_TEXTS), chunks):
        size = len(bounds) - 1
        rows = matrix[first:first + size]
        tok = np.frombuffer(ids, dtype=np.intp)
        text_of = np.repeat(np.arange(size), np.diff(np.frombuffer(bounds, dtype=np.intp)))

        counted = np.flatnonzero(counts_any[tok])
        occurrence, position = np.nonzero(hits[tok[counted]])
        rows[:] = np.bincount(text_of[counted[occurrence]] * n_cues + position,
                              minlength=size * n_cues).reshape(size, n_cues)
        # The n-gram scan, only for texts holding a first word of a multi-word term.
        for i in np.flatnonzero(np.bincount(text_of[starter[tok]], minlength=size)).tolist():
            span = ids[bounds[i]:bounds[i + 1]]
            lowered = [low for low in map(lows.__getitem__, span) if low is not None]
            for pos, lex, starts in table.multi:
                if not starts.isdisjoint(lowered):
                    rows[i, pos] = _count_tokens(lowered, lex)

        prose = np.flatnonzero(in_prose[tok])
        prose_tok, prose_text = tok[prose], text_of[prose]
        joined = closes[prose_tok[:-1]] & opens[prose_tok[1:]] & (prose_text[:-1] == prose_text[1:])
        sentences = np.clip(np.bincount(prose_text, weights=runs[prose_tok], minlength=size)
                            - np.bincount(prose_text[1:][joined], minlength=size), 1.0, np.inf)
        words = np.bincount(text_of, weights=is_word[tok], minlength=size)
        per_word = np.bincount(text_of, weights=syllables[tok], minlength=size) / np.clip(
            words, 1.0, np.inf)
        # A text without words has no syllables either: its grade, -15.59, clamps to 0.
        grade = 0.39 * (words / sentences) + 11.8 * per_word - 15.59
        rows[:, _READING_POS] = np.clip(grade / 100.0, 0.0, 1.0)
    return matrix


@dataclass
class CueAggregate:
    """Cue vectors per agent, plus the sample each cue's statistics come from.

    samples[cue] holds per-agent means by default and pooled per-post values
    under per_post (network cues always sample per agent).
    """

    per_agent: dict[str, CueVector]
    samples: dict[str, np.ndarray]


def aggregate_cues(
    tweets,
    metrics: GraphMetrics,
    pop: Population,
    lexicons: dict[str, Lexicon] | None = None,
    *,
    per_post: bool = False,
) -> CueAggregate:
    """Post → agent cue aggregation, and the sample of each cue.

    tweets is a CorpusColumns or a list of Tweets (see corpus.as_columns).
    Agents with zero posts are excluded entirely. Network cue values are the
    corpus-level metrics, copied into every vector. Every mean is taken as
    np.mean takes it over the values listed in corpus order (one pairwise
    sum over contiguous values), so it is bit for bit that mean.
    """
    cols = as_columns(tweets)
    n = len(cols)
    if not n:
        raise ValidationError("empty corpus: cue aggregation requires at least one tweet")
    table = LexiconTable.from_lexicons(lexicons if lexicons is not None else load_lexicons())

    ids = pop.ids()
    agents = np.fromiter(map(pop.index.get, cols.authors, repeat(-1, n)), dtype=np.intp, count=n)
    unknown = agents < 0
    if unknown.any():
        i = int(unknown.argmax())
        raise ValidationError(f"tweet {cols.ids[i]}: unknown author {cols.authors[i]!r}")
    # Each distinct text's row of the cue matrix, in order of first use.
    text_index = {text: row for row, text in enumerate(dict.fromkeys(cols.texts))}
    rows = np.fromiter(map(text_index.__getitem__, cols.texts), dtype=np.intp, count=n)
    matrix = _cue_matrix(text_index, table)

    # A cue x post array with each cue's values contiguous, in which every
    # agent's posts are one run of columns in corpus order.
    columns = np.ascontiguousarray(np.take(matrix.T, rows[np.argsort(agents, kind="stable")], axis=1))
    n_posts = np.bincount(agents, minlength=len(ids))
    posted = np.flatnonzero(n_posts)
    ends = np.cumsum(n_posts)[posted]
    means = np.array([columns[:, start:end].mean(axis=1)
                      for start, end in zip((ends - n_posts[posted]).tolist(), ends.tolist())])

    network_values = {
        "total_degree": metrics.avg_total_degree_centrality,
        "in_degree": metrics.avg_in_degree_centrality,
        "out_degree": metrics.avg_out_degree_centrality,
    }
    per_agent = {ids[a]: CueVector(*row, **network_values)
                 for a, row in zip(posted.tolist(), means.tolist())}

    # One contiguous sample row per text cue: per-post values or per-agent means.
    text_samples = np.ascontiguousarray(np.take(matrix.T, rows, axis=1) if per_post else means.T)
    samples = dict(zip(TEXT_CUES, text_samples))
    for c in NETWORK_CUES:
        samples[c] = np.full(len(posted), network_values[c], dtype=np.float64)
    return CueAggregate(per_agent=per_agent, samples=samples)


def summarize(values) -> dict[str, float]:
    """{mean, std, n} of one cue sample: numpy's mean and std(ddof=1), std 0.0 for one value.

    Every t-test route summarizes its sample here, so all see the same bits.
    """
    vals = np.asarray(values, dtype=np.float64)
    n = len(vals)
    if not n:
        raise ValidationError("cannot summarize an empty sample")
    return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1)) if n > 1 else 0.0, "n": n}


_REPORT_FIELDS = ("cue", "per_agent_mean", "per_agent_std", "n_agents")


def write_cue_report(agg: CueAggregate, path: str | Path) -> None:
    """Cue report CSV with _REPORT_FIELDS, one summarize(agg.samples[cue]) row per cue.

    Under per_post the sample unit for text cues is the post, column names
    notwithstanding.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REPORT_FIELDS)
        for cue in CUE_NAMES:
            s = summarize(agg.samples[cue])
            writer.writerow([cue, repr(s["mean"]), repr(s["std"]), s["n"]])


def read_cue_report(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse a cue report CSV back into {cue: {mean, std, n}}.

    SchemaError naming path:line for a row without exactly the four fields,
    an unknown or repeated cue, a mean or std that is not a finite number, a
    negative std, or an n_agents that is not a whole number.
    """
    out: dict[str, dict[str, float]] = {}
    reader = csv.DictReader(read_text(path).splitlines())
    if reader.fieldnames is None or set(reader.fieldnames) != set(_REPORT_FIELDS):
        raise SchemaError(str(path), f"cue report header must be {sorted(_REPORT_FIELDS)}")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if len(row) != len(_REPORT_FIELDS) or None in row.values():
            raise SchemaError(where, f"cue report row must have the fields {list(_REPORT_FIELDS)}")
        cue = row["cue"]
        if cue not in CUE_NAMES:
            raise SchemaError(where, f"unknown cue name {cue!r}")
        if cue in out:
            raise SchemaError(where, f"cue {cue!r} is reported twice")
        try:
            mean, std = float(row["per_agent_mean"]), float(row["per_agent_std"])
            n = int(row["n_agents"])
        except ValueError as exc:  # a mean or std that is no number, an n_agents no integer
            raise SchemaError(where, str(exc)) from None
        if not (math.isfinite(mean) and 0.0 <= std < math.inf):
            raise SchemaError(where, "mean must be finite, std finite and >= 0", (mean, std))
        out[cue] = {"mean": mean, "std": std, "n": n}
    missing = [c for c in CUE_NAMES if c not in out]
    if missing:
        raise SchemaError(str(path), f"cue report missing cues {missing}")
    return out
