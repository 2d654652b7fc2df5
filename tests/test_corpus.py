"""The corpus reader and writer against the line-at-a-time implementation they replace.

_OracleTweet, _oracle_tweet_from_dict and _oracle_read are the reader as it
was before it built slots records through one exact-type check: every value
type-checked with isinstance (_oracle_check_types), then a frozen dataclass,
then its violations. The new reader must return the same tweets for every
file and raise the same SchemaError text for every file it refuses.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import botforge.corpus
from botforge.corpus import (
    TWEET_KINDS,
    CorpusPrefix,
    CorpusView,
    Tweet,
    read_corpus_tail,
    read_tweets_jsonl,
    tweet_from_dict,
    write_tweets_jsonl,
)
from botforge.errors import ManifestError, SchemaError

FIELDS = ("id", "author_id", "kind", "text", "target_tweet_id", "target_agent_id",
          "run_index", "slot_index", "slot_kind", "mentions", "hashtags", "urls")


@dataclass(frozen=True)
class _OracleTweet:
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
        object.__setattr__(self, "mentions", tuple(self.mentions))
        object.__setattr__(self, "hashtags", tuple(self.hashtags))
        object.__setattr__(self, "urls", tuple(self.urls))

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


_ORACLE_TYPES = {
    "id": int,
    "author_id": str,
    "kind": str,
    "slot_kind": str,
    "text": str,
    "target_tweet_id": int | None,
    "target_agent_id": str | None,
    "run_index": int,
    "slot_index": int,
    "mentions": list,
    "hashtags": list,
    "urls": list,
}


def _oracle_check_types(doc, types, path):
    for key, expected in types.items():
        if key not in doc:
            continue
        value = doc[key]
        if not isinstance(value, expected) or (
                (value is True or value is False) and expected is not bool):
            name = getattr(expected, "__name__", str(expected))
            raise SchemaError(f"{path}.{key}", f"must be {name}", value)


def _oracle_tweet_from_dict(obj, path="tweet"):
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object", obj)
    unknown = obj.keys() - _ORACLE_TYPES.keys()
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")
    if len(obj) < len(_ORACLE_TYPES):
        raise SchemaError(path, f"missing keys {[k for k in _ORACLE_TYPES if k not in obj]}")
    _oracle_check_types(obj, _ORACLE_TYPES, path)
    for key in ("mentions", "hashtags", "urls"):
        for value in obj[key]:
            if not isinstance(value, str):
                raise SchemaError(f"{path}.{key}", "must be a list of str", obj[key])
    t = _OracleTweet(**obj)
    problems = t.violations()
    if problems:
        raise SchemaError(path, "; ".join(problems))
    return t


def _oracle_read(path):
    tweets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}", f"not valid JSON: {exc}") from exc
            tweets.append(_oracle_tweet_from_dict(obj, path=f"{path}:{lineno}"))
    return tweets


def _values(tweets):
    return [tuple(getattr(t, name) for name in FIELDS) for t in tweets]


def _outcome(read, path):
    """(field values of every tweet, None) or (None, the SchemaError text)."""
    try:
        return _values(read(path)), None
    except SchemaError as exc:
        return None, str(exc)


def _doc(tid, kind="original", **kw):
    doc = {"id": tid, "author_id": "a_01", "kind": kind, "slot_kind": kind,
           "text": f"Note {tid} before the set.", "target_tweet_id": None,
           "target_agent_id": None, "run_index": 0, "slot_index": 0,
           "mentions": [], "hashtags": [], "urls": []}
    if kind != "original":
        doc.update(target_tweet_id=1, target_agent_id="a_02", mentions=["@a02"],
                   text=f"@a02 reply {tid}")
    doc.update(kw)
    return doc


def _line(doc) -> str:
    return json.dumps(doc, ensure_ascii=False)


# Tweet documents, nearly all valid: a text over 280 characters breaks a rule.
_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=300)
_strs = st.lists(st.text(max_size=8), max_size=3)


@st.composite
def _docs(draw):
    kind = draw(st.sampled_from(TWEET_KINDS))
    doc = _doc(0, kind, text=draw(_texts), run_index=draw(st.integers(0, 5)),
               slot_index=draw(st.integers(0, 30)), slot_kind=draw(st.sampled_from(TWEET_KINDS)),
               mentions=draw(_strs), hashtags=draw(_strs), urls=draw(_strs))
    if kind == "reply":
        doc["target_tweet_id"] = draw(st.one_of(st.none(), st.integers(1, 10**6)))
    return doc


# Damage to one line, as the file is written.
_DAMAGE = (
    "blank", "spaces", "bad json", "two objects", "split list", "indented", "array",
    "bool id", "int text", "nested mention", "extra key", "missing key", "crlf",
    "bom", "truncated", "nbsp",
)


def _damaged(line: str, doc: dict, how: str) -> list[str]:
    if how == "blank":
        return [line, ""]
    if how == "spaces":
        return [line, "   \t"]
    if how == "bad json":
        return ["{nope"]
    if how == "two objects":
        return [line + ", " + line]
    if how == "split list":
        m = dict(doc, mentions=["@a", "@b"])
        head, tail = _line(m).split('"@a", ', 1)
        return [head + '"@a"', tail]
    if how == "indented":
        return ["  " + line + " "]
    if how == "array":
        return ["[1, 2, 3]"]
    if how == "bool id":
        return [_line(dict(doc, id=True))]
    if how == "int text":
        return [_line(dict(doc, text=5))]
    if how == "nested mention":
        return [_line(dict(doc, mentions=[{"x": 1}]))]
    if how == "extra key":
        return [_line(dict(doc, likes=3))]
    if how == "missing key":
        return [_line({k: v for k, v in doc.items() if k != "slot_index"})]
    if how == "bom":  # no JSON value starts with U+FEFF
        return ["\ufeff" + line]
    if how == "truncated":  # the scan fails inside the object
        return ['{"id": 1']
    if how == "nbsp":  # str.strip removes U+00A0; JSON whitespace does not include it
        return ["\u00a0" + line + "\u00a0"]
    return [line + "\r"]  # crlf: the reader's newline handling turns \r\n into \n


@st.composite
def _corpus_lines(draw):
    """The lines of a corpus of up to 150 tweets, a few of them damaged."""
    docs = draw(st.lists(_docs(), min_size=1, max_size=4))
    n = draw(st.integers(0, 150))
    damage = dict(draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                          st.sampled_from(_DAMAGE)), max_size=3)))
    lines = []
    for i in range(n):
        doc = dict(docs[i % len(docs)], id=i + 1)
        lines.extend(_damaged(_line(doc), doc, damage[i]) if i in damage else [_line(doc)])
    return lines


class TestReaderMatchesOracle:
    @given(lines=_corpus_lines(), final_newline=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_generated_corpora(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("corpus") / "tweets.jsonl"
        path.write_text("\n".join(lines) + ("\n" if final_newline and lines else ""),
                        encoding="utf-8", newline="")
        expected = _outcome(_oracle_read, path)
        assert _outcome(read_tweets_jsonl, path) == expected
        count = len(expected[0]) if expected[0] is not None else 0
        assert _outcome(lambda p: list(CorpusView(_prefix(p, count), [])), path) == expected

    @pytest.mark.parametrize("order", ["two alone", "split first", "two first"])
    def test_lines_that_do_not_hold_one_tweet_each(self, tmp_path, order):
        # A tweet split over two lines and a line of two tweets are each
        # refused as invalid JSON, naming the line.
        split = _damaged("", _doc(2), "split list")
        two = _damaged(_line(_doc(3)), _doc(3), "two objects")
        lines = [_line(_doc(1)), *{"two alone": two, "split first": split + two,
                                   "two first": two + split}[order]]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        new = _outcome(read_tweets_jsonl, path)
        assert new == _outcome(_oracle_read, path)
        assert "not valid JSON" in new[1]

    def test_simulated_corpus(self, tmp_path, micro_pop, pools):
        from botforge.simcore import ScenarioConfig, simulate_to_dir

        out = tmp_path / "run"
        simulate_to_dir(ScenarioConfig(seed=3, runs=3, out_dir=str(out)), pop=micro_pop,
                        pools=pools)
        new, old = read_tweets_jsonl(out / "tweets.jsonl"), _oracle_read(out / "tweets.jsonl")
        assert len(new) > 64 and _values(new) == _values(old)
        assert all(type(getattr(t, k)) is tuple for t in new for k in FIELDS[-3:])


# Every malformed document of tests/test_simcore.py::TestTweetSerde.
_MALFORMED = {
    "not an object": [1, 2, 3],
    "unknown key": _doc(7, likes=4),
    "missing key": {k: v for k, v in _doc(7).items() if k != "slot_index"},
    "contract violation": _doc(7, target_tweet_id=5, target_agent_id="a_02"),
    **{f"{key}={value!r}": _doc(7, **{key: value}) for key, value in [
        ("text", 5), ("id", "1"), ("id", True), ("run_index", None), ("slot_index", 1.0),
        ("author_id", 7), ("target_tweet_id", "3"), ("mentions", "@bob"), ("hashtags", None),
        ("urls", [5]),
    ]},
}


class TestSameErrors:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_tweet_from_dict(self, case):
        with pytest.raises(SchemaError) as new:
            tweet_from_dict(_MALFORMED[case])
        with pytest.raises(SchemaError) as old:
            _oracle_tweet_from_dict(_MALFORMED[case])
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("at", [1, 2, 64, 65, 130])
    @pytest.mark.parametrize("case", [*sorted(_MALFORMED), "bad json"])
    def test_reader_names_the_line(self, tmp_path, case, at):
        bad = "{nope" if case == "bad json" else json.dumps(_MALFORMED[case])
        lines = [_line(_doc(i)) for i in range(1, 140)]
        lines[at - 1] = bad
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        new, old = _outcome(read_tweets_jsonl, path), _outcome(_oracle_read, path)
        assert new == old and new[1].startswith(f"{path}:{at}")

    def test_round_trip_and_equality(self):
        t = Tweet(3, "a_01", "reply", "@a02 yes", 1, "a_02", 0, 4, slot_kind="reply",
                  mentions=["@a02"])
        assert t.mentions == ("@a02",)
        assert tweet_from_dict(t.to_dict()) == t
        assert t != Tweet(3, "a_01", "reply", "@a02 yes", 1, "a_02", 0, 5, slot_kind="reply",
                          mentions=["@a02"])


def _tweets(n):
    return [tweet_from_dict(_doc(i)) for i in range(1, n + 1)]


def _lines(tweets) -> bytes:
    return "".join(_line(t.to_dict()) + "\n" for t in tweets).encode()


def _prefix(path, count):
    data = path.read_bytes()
    return CorpusPrefix(path, hashlib.sha256(data).hexdigest(), count, len(data))


class TestWriterPrefix:
    def test_fresh_corpus_is_one_line_per_tweet(self, tmp_path):
        write_tweets_jsonl(_tweets(3), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == _lines(_tweets(3))

    def test_prior_bytes_kept_and_new_tweets_appended(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(b'{"not": "re-serialized"}\n' * 2)
        write_tweets_jsonl(CorpusView(_prefix(prior, 2), _tweets(5)[2:]), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == prior.read_bytes() + _lines(_tweets(5)[2:])

    def test_empty_prior(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(b"")
        write_tweets_jsonl(CorpusView(_prefix(prior, 0), _tweets(2)), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == _lines(_tweets(2))

    def test_newline_inserted_after_prior_without_one(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)).rstrip(b"\n"))
        write_tweets_jsonl(CorpusView(_prefix(prior, 2), _tweets(4)[2:]), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == _lines(_tweets(4))
        assert read_tweets_jsonl(tmp_path / "t.jsonl") == _tweets(4)

    def test_nothing_appended_leaves_prior_bytes_alone(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)).rstrip(b"\n"))
        write_tweets_jsonl(CorpusView(_prefix(prior, 2), []), tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == prior.read_bytes()

    def test_prior_changed_since_verified_is_refused(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)))
        view = CorpusView(_prefix(prior, 2), _tweets(3)[2:])
        prior.write_bytes(_lines(_tweets(2)) + b"\n")
        with pytest.raises(ManifestError, match="changed after its hash was verified"):
            write_tweets_jsonl(view, tmp_path / "t.jsonl")


class TestCorpusView:
    def test_reads_the_prefix_once_on_first_access(self, tmp_path, monkeypatch):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(3)))
        view = CorpusView(_prefix(prior, 3), _tweets(5)[3:])
        reads = []
        parse = botforge.corpus.tweet_from_dict
        monkeypatch.setattr(botforge.corpus, "tweet_from_dict",
                            lambda *a, **kw: reads.append(None) or parse(*a, **kw))
        assert len(view) == 5 and reads == []
        assert view == _tweets(5) and _tweets(5) == view
        assert view[0] == _tweets(1)[0] and view[-1].id == 5 and view[1:3] == _tweets(3)[1:]
        assert [t.id for t in view] == [1, 2, 3, 4, 5]
        assert view == CorpusView(_prefix(prior, 3), _tweets(5)[3:])
        assert view != _tweets(4) and view != tuple(_tweets(5))
        assert len(reads) == 3 + 3  # the prior lines, once per view

    def test_only_the_recorded_bytes_are_read(self, tmp_path):
        # An in-place extend appends to the prefix file after it was verified.
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)).rstrip(b"\n"))
        view = CorpusView(_prefix(prior, 2), _tweets(4)[2:])
        prior.write_bytes(_lines(_tweets(4)))
        assert view == _tweets(4)

    def test_changed_prefix_is_refused(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)))
        view = CorpusView(_prefix(prior, 2), [])
        prior.write_bytes(_lines(_tweets(2)).replace(b"Note 1", b"Note 9"))
        with pytest.raises(ManifestError, match="changed after its hash was verified"):
            view[0]
        assert len(view) == 2

    def test_recorded_count_is_checked(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(3)))
        with pytest.raises(ManifestError, match="holds 3 tweets, not the 2 recorded"):
            list(CorpusView(_prefix(prior, 2), _tweets(4)[3:]))


class TestLineEnds:
    def test_lone_carriage_return_ends_no_line(self, tmp_path):
        # Lines end at b"\n" only, as the writer writes them, so a lone \r
        # leaves two documents on one line: every reader refuses line 2 alike.
        t = _lines(_tweets(3))
        first_end = t.index(b"\n") + 1
        second_end = t.index(b"\n", first_end)
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(t[:second_end] + b"\r" + t[second_end + 1:])
        errors = []
        for read in (read_tweets_jsonl,
                     lambda p: list(CorpusView(_prefix(p, 3), [])),
                     lambda p: read_corpus_tail(p, {"ghost"}, p.stat().st_size)):
            with pytest.raises(SchemaError) as exc:
                read(path)
            errors.append(str(exc.value))
        assert errors[0].startswith(f"{path}:2: not valid JSON: Extra data")
        assert errors == [errors[0]] * 3


def _oracle_tail(path, authors):
    """Tweets from the end of a corpus back to the line where every author has one."""
    with open(path, encoding="utf-8") as fh:
        lines = list(enumerate(fh, start=1))
    wanted, tail = set(authors), []
    for lineno, line in reversed(lines):
        if not wanted:
            break
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}", f"not valid JSON: {exc}") from exc
        tail.append(_oracle_tweet_from_dict(obj, path=f"{path}:{lineno}"))
        wanted.discard(tail[-1].author_id)
    return tail[::-1]


_AUTHORS = ("a_01", "a_02", "b_01", "b_02")


@st.composite
def _authored_lines(draw):
    """Up to 120 tweet lines by a few authors, one of them perhaps damaged."""
    lines = []
    n = draw(st.integers(0, 120))
    damaged = draw(st.one_of(st.none(), st.tuples(st.integers(0, max(n - 1, 0)),
                                                  st.sampled_from(_DAMAGE))))
    for i in range(n):
        doc = _doc(i + 1, author_id=draw(st.sampled_from(_AUTHORS)))
        if damaged and damaged[0] == i:
            lines.extend(_damaged(_line(doc), doc, damaged[1]))
        else:
            lines.append(_line(doc))
    return lines


class TestCorpusTail:
    @given(lines=_authored_lines(), final_newline=st.booleans(),
           authors=st.sets(st.sampled_from(_AUTHORS), min_size=1),
           block=st.sampled_from([1, 7, 150, 1 << 16]))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_backward_line_scan(self, tmp_path_factory, lines, final_newline,
                                          authors, block):
        path = tmp_path_factory.mktemp("corpus") / "tweets.jsonl"
        path.write_text("\n".join(lines) + ("\n" if final_newline and lines else ""),
                        encoding="utf-8", newline="")
        size = path.stat().st_size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(botforge.corpus, "_TAIL_BLOCK", block)
            new = _outcome(lambda p: read_corpus_tail(p, authors, size), path)
        assert new == _outcome(lambda p: _oracle_tail(p, authors), path)

    def test_reads_only_the_first_size_bytes(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(_lines(_tweets(3)) + b"{not read}\n")
        assert read_corpus_tail(path, {"a_01"}, len(_lines(_tweets(3)))) == _tweets(3)[2:]

    def test_unknown_authors_scan_to_the_start(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_bytes(_lines(_tweets(4)))
        assert read_corpus_tail(path, {"a_01", "ghost"}, path.stat().st_size) == _tweets(4)
        assert read_corpus_tail(path, {"a_01"}, 0) == []
