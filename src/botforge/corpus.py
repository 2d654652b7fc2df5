"""The tweet record, the rule that classifies a post's tokens, and the tweets.jsonl corpus file.

A corpus is one JSON object per line, in commit order. One line reader
parses and fully checks every line; read_corpus_columns streams a file
through it and keeps only what analysis reads (id, author, kind, target
and text), while read_tweets_jsonl and read_corpus_tail build Tweet
records from the same reader. Extending a run needs only the end of a
finished corpus, which read_corpus_tail scans backwards. The extended
corpus is a CorpusView: the finished file, verified against its recorded
digest, and the new tweets. The writer copies that file's bytes (checking
the digest again) and appends only the new tweets, so extending a run
never parses or re-serializes what it already holds.
"""
from __future__ import annotations

import hashlib
import json
import re
import string
from collections.abc import Collection
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product
from operator import attrgetter, itemgetter
from pathlib import Path
from types import NoneType

import orjson

from .errors import ManifestError, SchemaError, _check_types

TWEET_KINDS = ("original", "retweet", "quote", "reply")
TWEET_MAX_CHARS = 280

# Each key's exact value types: no bool passes for an int, as bool is its own type.
_TWEET_TYPES = {
    "id": (int,),
    "author_id": (str,),
    "kind": (str,),
    "slot_kind": (str,),
    "text": (str,),
    "target_tweet_id": (int, NoneType),
    "target_agent_id": (str, NoneType),
    "run_index": (int,),
    "slot_index": (int,),
    "mentions": (list,),
    "hashtags": (list,),
    "urls": (list,),
}
_ARTIFACT_KEYS = ("mentions", "hashtags", "urls")
_PUNCT = string.punctuation
_URL_PREFIXES = ("http://", "https://")
_MENTION_RE = re.compile(r"@\w+")
_HASHTAG_RE = re.compile(r"#\w+")
# Distinct whitespace tokens whose classes are kept: a generated post's
# tokens repeat across posts, while a model's vocabulary has no bound.
_CLASS_CACHE_SIZE = 8192


@lru_cache(maxsize=_CLASS_CACHE_SIZE)
def _classify_raw(raw: str) -> tuple[str | None, str]:
    """(class, token) of one whitespace token; see cues.tokenize for the rules.

    The class is "words", "mentions", "hashtags" or "urls", or None for a
    token the punctuation strip empties. The most recently used
    _CLASS_CACHE_SIZE results are cached.
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


@dataclass(slots=True)
class Tweet:
    """One committed post with its interaction targets and extracted artifacts.

    slot_kind is the drawn slot (retweet/reply/quote) that produced an
    interaction tweet; it differs from kind only when a missing target tweet
    degraded the slot to a mention reply. A plain slots record: it is never
    changed after it is built.
    """

    id: int
    author_id: str
    kind: str
    text: str
    target_tweet_id: int | None
    target_agent_id: str | None
    run_index: int
    slot_index: int
    slot_kind: str = "original"
    mentions: tuple[str, ...] = ()
    hashtags: tuple[str, ...] = ()
    urls: tuple[str, ...] = ()

    def __post_init__(self):
        self.mentions = tuple(self.mentions)
        self.hashtags = tuple(self.hashtags)
        self.urls = tuple(self.urls)

    def violations(self) -> list[str]:
        out = []
        if self.kind not in TWEET_KINDS:
            out.append(f"tweet {self.id}: unknown kind {self.kind!r}")
        if self.slot_kind not in TWEET_KINDS:
            out.append(f"tweet {self.id}: unknown slot_kind {self.slot_kind!r}")
        if len(self.text) > TWEET_MAX_CHARS:
            out.append(f"tweet {self.id}: text exceeds {TWEET_MAX_CHARS} characters")
        if self.kind == "original":
            if self.target_tweet_id is not None or self.target_agent_id is not None:
                out.append(f"tweet {self.id}: original tweets carry no target")
        else:
            if self.target_agent_id is None:
                out.append(f"tweet {self.id}: {self.kind} requires a target agent")
            if self.kind in ("retweet", "quote") and self.target_tweet_id is None:
                out.append(f"tweet {self.id}: {self.kind} requires a target tweet")
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "author_id": self.author_id,
            "kind": self.kind,
            "slot_kind": self.slot_kind,
            "text": self.text,
            "target_tweet_id": self.target_tweet_id,
            "target_agent_id": self.target_agent_id,
            "run_index": self.run_index,
            "slot_index": self.slot_index,
            "mentions": list(self.mentions),
            "hashtags": list(self.hashtags),
            "urls": list(self.urls),
        }


# A tweet document's values in Tweet's field order.
_tweet_args = itemgetter(*(f.name for f in fields(Tweet)))


def tweet_from_dict(obj, path: str = "tweet") -> Tweet:
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object", obj)
    if obj.keys() != _TWEET_TYPES.keys():
        unknown = obj.keys() - _TWEET_TYPES.keys()
        if unknown:
            raise SchemaError(path, f"unknown keys {sorted(unknown)}")
        raise SchemaError(path, f"missing keys {[k for k in _TWEET_TYPES if k not in obj]}")
    _check_types(obj, _TWEET_TYPES, path)
    for key in _ARTIFACT_KEYS:
        for value in obj[key]:
            if type(value) is not str:
                raise SchemaError(f"{path}.{key}", "must be a list of str", obj[key])
    t = Tweet(*_tweet_args(obj))
    problems = t.violations()
    if problems:
        raise SchemaError(path, "; ".join(problems))
    return t


def _accepted_kinds() -> frozenset:
    """(kind, slot_kind, type of target_tweet_id, type of target_agent_id) of
    every Tweet with no violation, its text and artifacts apart."""
    return frozenset(
        (kind, slot_kind, type(target_tweet), type(target_agent))
        for kind, slot_kind in product(TWEET_KINDS, repeat=2)
        for target_tweet, target_agent in product((1, None), ("a", None))
        if not Tweet(1, "a", kind, "", target_tweet, target_agent, 0, 0, slot_kind).violations())


_ACCEPTED = _accepted_kinds()
_STR = frozenset((str,))

# The longest line orjson reads. orjson 3.8.3 overflows the C stack on a valid document nested
# deep enough (2,048 levels on a 128 KiB stack); a line this long nests 1,024 levels at most.
_ORJSON_MAX_BYTES = 2048


def _where(path, lineno: int | None) -> str:
    """path:lineno, or the path alone when the line's number is not known."""
    return str(path) if lineno is None else f"{path}:{lineno}"


def _read_line(line: bytes, path, lineno: int | None = None) -> dict | None:
    """The checked tweet document on one corpus line, or None for a blank line.

    A SchemaError names _where(path, lineno). A line of at most
    _ORJSON_MAX_BYTES bytes whose orjson document has every key of a tweet
    and no other, each value of its type in _TWEET_TYPES, a kind, slot_kind
    and targets in _ACCEPTED, a text that fits and artifacts all str is
    that document. json.loads reads every other line and words every error,
    and its document goes through tweet_from_dict, which accepts or refuses it.
    """
    if len(line) <= _ORJSON_MAX_BYTES:
        try:
            obj = orjson.loads(line)
            (tid, author, kind, text, target_tweet, target_agent, run_index, slot_index,
             slot_kind, mentions, hashtags, urls) = _tweet_args(obj)
            if (len(obj) == len(_TWEET_TYPES) and type(author) is type(text) is str
                    and type(tid) is type(run_index) is type(slot_index) is int
                    and (kind, slot_kind, type(target_tweet), type(target_agent)) in _ACCEPTED
                    and len(text) <= TWEET_MAX_CHARS
                    and type(mentions) is type(hashtags) is type(urls) is list
                    and _STR.issuperset(map(type, mentions + hashtags + urls))):
                return obj
        except (orjson.JSONDecodeError, KeyError, TypeError):
            pass  # no object, a key missing or an unhashable kind: json and tweet_from_dict decide
    try:
        text = line.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise SchemaError(_where(path, lineno), f"not valid UTF-8: {exc}") from exc
    if not text:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(_where(path, lineno), f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(_where(path, lineno), "not valid JSON: nested too deeply") from None
    tweet_from_dict(obj, path=_where(path, lineno))
    return obj


def read_tweets_jsonl(path: str | Path) -> list[Tweet]:
    """Every tweet of a corpus file, read one line at a time; blank lines are skipped."""
    tweets = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            doc = _read_line(line, path, lineno)
            if doc is not None:
                tweets.append(Tweet(*_tweet_args(doc)))
    return tweets


@dataclass(slots=True)
class CorpusColumns:
    """A corpus as five parallel lists, one entry per tweet in corpus order.

    targets holds each tweet's target_agent_id. Analysis reads nothing else
    of a tweet, so this is all it holds of a corpus.
    """

    ids: list[int]
    authors: list[str]
    kinds: list[str]
    targets: list[str | None]
    texts: list[str]

    def __len__(self) -> int:
        return len(self.ids)


_COLUMN_FIELDS = ("id", "author_id", "kind", "target_agent_id", "text")


def as_columns(tweets) -> CorpusColumns:
    """The columns of a corpus: CorpusColumns as they are, any iterable of Tweets by field."""
    if isinstance(tweets, CorpusColumns):
        return tweets
    tweets = list(tweets)
    return CorpusColumns(*(list(map(attrgetter(name), tweets)) for name in _COLUMN_FIELDS))


def read_corpus_columns(path: str | Path) -> CorpusColumns:
    """The columns of every tweet of a corpus file; blank lines are skipped.

    The file is read one line at a time, and each line is checked as
    read_tweets_jsonl checks it; of its document only the five column
    values are kept.
    """
    ids, authors, kinds, targets, texts = [], [], [], [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            doc = _read_line(line, path, lineno)
            if doc is not None:
                ids.append(doc["id"])
                authors.append(doc["author_id"])
                kinds.append(doc["kind"])
                targets.append(doc["target_agent_id"])
                texts.append(doc["text"])
    return CorpusColumns(ids, authors, kinds, targets, texts)


# Bytes read per step of the backward scan.
_TAIL_BLOCK = 1 << 16


def read_corpus_tail(path: str | Path, authors: Collection[str], size: int) -> list[Tweet]:
    """The last tweets of the first size bytes of a corpus file, in file order.

    Scans backwards in fixed-size blocks and stops at the first line from
    which every one of authors has a tweet, or at the start of the file;
    each line read is checked as read_tweets_jsonl checks it, and a bad
    line's SchemaError names its path:lineno. Lines before the stop are
    neither read nor checked.
    """
    wanted = set(authors)
    tail: list[Tweet] = []  # newest first
    rest = b""  # the part read so far of a line that begins in an earlier block
    pos = size
    with open(path, "rb") as fh:
        while wanted and pos > 0:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            lines = (fh.read(step) + rest).split(b"\n")
            end = pos + sum(map(len, lines)) + len(lines)  # where the line after them starts
            rest = lines.pop(0) if pos else b""
            for line in reversed(lines):
                end -= len(line) + 1
                try:
                    doc = _read_line(line, path)
                except SchemaError:
                    # Only an error needs the line's number: count, then fail again with it.
                    fh.seek(0)
                    lineno = 1 + fh.read(end).count(b"\n")
                    _read_line(line, path, lineno)
                    raise
                if doc is None:
                    continue
                t = Tweet(*_tweet_args(doc))
                tail.append(t)
                wanted.discard(t.author_id)
                if not wanted:
                    break
    tail.reverse()
    return tail


@dataclass(frozen=True)
class CorpusPrefix:
    """A finished corpus file whose bytes begin a new corpus.

    sha256 is the digest recorded for the file when it was verified,
    tweet_count the number of tweets it holds and size its length in bytes.
    """

    path: Path
    sha256: str
    tweet_count: int
    size: int

    def chunks(self, digest):
        """The file's first size bytes in pieces, then ManifestError if their
        SHA-256 is not sha256 (the file changed after it was verified). The
        file itself is never written to: an in-place extend copies these
        bytes into .tweets.jsonl.staged, which then replaces the file.

        The pieces are fed to digest, the hashlib.sha256() of the writer
        that copies them, so the copied bytes are hashed once.
        """
        left = self.size
        with open(self.path, "rb") as fh:
            while chunk := fh.read(min(left, 1 << 20)):
                digest.update(chunk)
                left -= len(chunk)
                yield chunk
        actual = digest.copy().hexdigest()
        if actual != self.sha256:
            raise ManifestError(f"{self.path} changed after its hash was verified: "
                                f"recorded {self.sha256}, now {actual}")


class CorpusView:
    """A whole corpus: a finished corpus file's tweets, then new tweets.

    prefix vouches for the file's bytes and its tweet count; the file is
    never parsed here. len() is the whole corpus's tweet count.
    """

    def __init__(self, prefix: CorpusPrefix, new: list[Tweet]):
        self.prefix = prefix
        self.new = new

    def __len__(self) -> int:
        return self.prefix.tweet_count + len(self.new)


_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_tweets_jsonl(tweets: list[Tweet] | CorpusView, path: str | Path) -> str:
    """Write the corpus tweets to path, one JSON object per line, and return
    the SHA-256 hex digest of the bytes written.

    A CorpusView is written as its prefix.chunks(), copied unchanged (and
    so hash-checked), and then its new tweets; its finished part is never
    parsed or serialized. A newline is added before the first appended line
    when the copied bytes do not end with one.
    """
    digest = hashlib.sha256()
    new = tweets
    with open(path, "wb") as fh:
        if isinstance(tweets, CorpusView):
            new, last = tweets.new, b"\n"
            for chunk in tweets.prefix.chunks(digest):
                fh.write(chunk)
                last = chunk[-1:]
            if new and last != b"\n":
                fh.write(b"\n")
                digest.update(b"\n")
        for t in new:
            line = (_encode(t.to_dict()) + "\n").encode("utf-8")
            fh.write(line)
            digest.update(line)
    return digest.hexdigest()
