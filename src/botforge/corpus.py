"""The tweet record and the tweets.jsonl corpus file.

A corpus is one JSON object per line, in commit order. The reader streams
it one line at a time and type-checks every value. Extending a run needs
only the end of a finished corpus, which read_corpus_tail scans backwards;
the whole extended corpus is a CorpusView, whose finished part is read only
when something asks for it, and the writer copies that part's bytes
(verified against their recorded digest) and appends only the new tweets,
so extending a run never parses or re-serializes what it already holds.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Collection, Sequence
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from types import NoneType

from .errors import ManifestError, SchemaError

TWEET_KINDS = ("original", "retweet", "quote", "reply")

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
        if len(self.text) > 280:
            out.append(f"tweet {self.id}: text exceeds 280 characters")
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


def _check_types(doc: dict, types: dict, path: str) -> None:
    """SchemaError for the first value of doc whose type is not one of its exact types."""
    for key, allowed in types.items():
        try:
            value = doc[key]
        except KeyError:  # not a membership test first: this runs for every key of every tweet
            continue
        if type(value) not in allowed:
            name = " | ".join("None" if t is NoneType else t.__name__ for t in allowed)
            raise SchemaError(f"{path}.{key}", f"must be {name}", value)


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


# The C scanner json.loads runs, called without its Python wrappers.
_scan_once = json.JSONDecoder().scan_once


def _parse_line(line: bytes, where: str) -> Tweet | None:
    """The tweet on one corpus line, or None for a blank line."""
    try:
        text = line.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise SchemaError(where, f"not valid UTF-8: {exc}") from exc
    if not text:
        return None
    # The stripped line starts and ends with no JSON whitespace, so json.loads
    # would scan it from 0 and require the scan to end at its end.
    try:
        obj, end = _scan_once(text, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end != len(text):  # json.loads words the error
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(where, f"not valid JSON: {exc}") from exc
    return tweet_from_dict(obj, path=where)


def _read_lines(lines, path) -> list[Tweet]:
    """The tweets of a corpus's lines, as bytes split at b"\\n"; blank lines are skipped."""
    tweets = []
    for lineno, line in enumerate(lines, start=1):
        t = _parse_line(line, f"{path}:{lineno}")
        if t is not None:
            tweets.append(t)
    return tweets


def read_tweets_jsonl(path: str | Path) -> list[Tweet]:
    """Every tweet of a corpus file, read one line at a time; blank lines are skipped."""
    with open(path, "rb") as fh:
        return _read_lines(fh, path)


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
                    t = _parse_line(line, str(path))
                except SchemaError:
                    # Only an error needs the line's number: count, then fail again with it.
                    fh.seek(0)
                    lineno = 1 + fh.read(end).count(b"\n")
                    _parse_line(line, f"{path}:{lineno}")
                    raise
                if t is None:
                    continue
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


class CorpusView(Sequence):
    """A whole corpus: a finished corpus file's tweets, then new tweets.

    len() needs no read. Any other access reads the prefix file's first
    prefix.size bytes once, checks their SHA-256 against prefix.sha256
    and parses them; ManifestError if they changed or do not hold
    prefix.tweet_count tweets, so no other corpus is ever returned.
    Indexing, slicing, iteration and == against a list or another view
    then behave as on the list of every tweet. The prefix file may have
    grown since (an in-place extend appends to it).
    """

    def __init__(self, prefix: CorpusPrefix, new: list[Tweet]):
        self.prefix = prefix
        self.new = new
        self._tweets: list[Tweet] | None = None

    def _all(self) -> list[Tweet]:
        if self._tweets is None:
            p = self.prefix
            with open(p.path, "rb") as fh:
                data = fh.read(p.size)
            digest = hashlib.sha256(data).hexdigest()
            if digest != p.sha256:
                raise ManifestError(f"{p.path} changed after its hash was verified: "
                                    f"recorded {p.sha256}, now {digest}")
            tweets = _read_lines(data.split(b"\n"), p.path)
            if len(tweets) != p.tweet_count:
                raise ManifestError(f"{p.path} holds {len(tweets)} tweets, not the "
                                    f"{p.tweet_count} recorded")
            self._tweets = tweets + self.new
        return self._tweets

    def __len__(self) -> int:
        return self.prefix.tweet_count + len(self.new)

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other):
        if isinstance(other, CorpusView):
            other = other._all()
        return self._all() == other if isinstance(other, list) else NotImplemented


_encode = json.JSONEncoder(ensure_ascii=False).encode


def write_tweets_jsonl(tweets: Sequence[Tweet], path: str | Path) -> None:
    """Write the corpus tweets to path, one JSON object per line.

    A CorpusView is written as its prefix file's bytes, copied unchanged,
    and then its new tweets; its finished part is never parsed or
    serialized. The copy is hashed as it goes, and a digest other than the
    recorded one raises ManifestError (the file changed after it was
    verified). A newline is added before the first appended line when the
    copied bytes do not end with one.
    """
    new = tweets
    with open(path, "wb") as fh:
        if isinstance(tweets, CorpusView):
            prefix, new = tweets.prefix, tweets.new
            digest = hashlib.sha256()
            last = b"\n"
            with open(prefix.path, "rb") as src:
                for chunk in iter(lambda: src.read(1 << 20), b""):
                    digest.update(chunk)
                    fh.write(chunk)
                    last = chunk[-1:]
            if digest.hexdigest() != prefix.sha256:
                raise ManifestError(f"{prefix.path} changed after its hash was verified: "
                                    f"recorded {prefix.sha256}, now {digest.hexdigest()}")
            if new and last != b"\n":
                fh.write(b"\n")
        for t in new:
            fh.write((_encode(t.to_dict()) + "\n").encode("utf-8"))
