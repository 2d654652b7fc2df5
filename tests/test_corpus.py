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
from itertools import product
from types import NoneType, SimpleNamespace

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import botforge.corpus
from botforge.corpus import (
    _TWEET_TYPES,
    TWEET_KINDS,
    CorpusPrefix,
    CorpusView,
    Tweet,
    read_corpus_columns,
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


_COLUMNS = {"ids": "id", "authors": "author_id", "kinds": "kind", "targets": "target_agent_id",
            "texts": "text"}


def _column_outcome(path):
    """(id, author, kind, target and text of every tweet read as columns, None), or
    (None, the SchemaError text)."""
    try:
        cols = read_corpus_columns(path)
    except SchemaError as exc:
        return None, str(exc)
    return list(zip(*(getattr(cols, name) for name in _COLUMNS))), None


def _as_column_outcome(outcome):
    """An _outcome with each tweet's values cut down to the five column fields."""
    values, error = outcome
    if values is None:
        return outcome
    at = [FIELDS.index(field) for field in _COLUMNS.values()]
    return [tuple(v[i] for i in at) for v in values], error


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
    "bom", "truncated", "nbsp", "reordered keys", "float id", "long text", "number hashtag",
    "retweet without target tweet", "original with target", "repeated key",
    "lone surrogate", "id 2**64", "id -2**63-1", "nan id", "infinite id",
    "vertical tab", "form feed", "file separator", "line separator", "long line",
    "str artifacts", "list kind",
)

# Lines json accepts or reads in another form than orjson, or that orjson is not given.
_JSON_DECIDES = ("lone surrogate", "id 2**64", "id -2**63-1", "nan id", "infinite id",
                 "vertical tab", "form feed", "file separator", "line separator", "long line")
# Characters str.strip removes that JSON does not count as whitespace.
_STRIPPED = {"vertical tab": "\x0b", "form feed": "\x0c", "file separator": "\x1c",
             "line separator": "\u2028"}


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
    if how == "reordered keys":  # valid, though not in the writer's order
        return [_line(dict(reversed(doc.items())))]
    if how == "float id":
        return [_line(dict(doc, id=float(doc["id"])))]
    if how == "long text":
        return [_line(dict(doc, text="x" * 281))]
    if how == "number hashtag":
        return [_line(dict(doc, hashtags=["#a", 5]))]
    if how == "retweet without target tweet":
        return [_line(dict(doc, kind="retweet", target_tweet_id=None, target_agent_id="a_02"))]
    if how == "original with target":
        return [_line(dict(doc, kind="original", target_tweet_id=None, target_agent_id="a_02"))]
    if how == "repeated key":  # JSON keeps the last value, and the key's first place
        return [line[:-1] + ', "author_id": "b_02"}']
    if how == "lone surrogate":  # json reads the escape; orjson refuses it
        return [json.dumps(dict(doc, text="\ud800" + doc["text"][:200]))]
    if how == "id 2**64":  # json reads an int; orjson a float
        return [_line(dict(doc, id=2**64))]
    if how == "id -2**63-1":
        return [_line(dict(doc, id=-2**63 - 1))]
    if how == "nan id":  # json reads NaN and Infinity; orjson refuses them
        return [_line(dict(doc, id=float("nan")))]
    if how == "infinite id":
        return [_line(dict(doc, id=float("inf")))]
    if how in _STRIPPED:
        return [_STRIPPED[how] + line + _STRIPPED[how]]
    if how == "str artifacts":  # refused, though "@a" + "#b" + "c" is a str whose items are str
        return [_line(dict(doc, mentions="@a", hashtags="#b", urls="c"))]
    if how == "list kind":  # unhashable
        return [_line(dict(doc, kind=[doc["kind"]]))]
    if how == "long line":  # valid, and longer than the lines orjson is given
        long_url = "https://example.com/" + "x" * botforge.corpus._ORJSON_MAX_BYTES
        return [_line(dict(doc, urls=[*doc["urls"], long_url]))]
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
        assert _column_outcome(path) == _as_column_outcome(expected)

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

    @pytest.mark.parametrize("kind", ["original", "retweet", "reply"])
    @pytest.mark.parametrize("how", ["reordered keys", "bool id", "float id", "long text",
                                     "number hashtag", "retweet without target tweet",
                                     "original with target", "repeated key", "str artifacts",
                                     "list kind", *_JSON_DECIDES])
    def test_line_cases(self, tmp_path, how, kind):
        # Each line is one whose orjson document, if any, the reader does not
        # accept alone; every reader must give the oracle's outcome for it.
        doc = _doc(2, kind)
        lines = [_line(_doc(1)), *_damaged(_line(doc), doc, how), _line(_doc(3))]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = _outcome(_oracle_read, path)
        accepted = how not in ("bool id", "float id", "long text", "number hashtag",
                               "retweet without target tweet", "original with target",
                               "nan id", "infinite id", "str artifacts", "list kind")
        assert (expected[1] is None) == accepted, expected
        assert _outcome(read_tweets_jsonl, path) == expected
        assert _column_outcome(path) == _as_column_outcome(expected)
        tail = _outcome(lambda p: read_corpus_tail(p, {"ghost"}, p.stat().st_size), path)
        assert tail == expected

    def test_orjson_is_given_only_lines_within_the_gate(self, tmp_path, monkeypatch):
        # Each line is a valid document padded with spaces to the gate's
        # length with its end, or one byte more; every reader reads both.
        gate = botforge.corpus._ORJSON_MAX_BYTES
        lines = [_line(_doc(i)) for i in (1, 2)]
        lines = [line + " " * (gate + i - 1 - len(line.encode())) for i, line in enumerate(lines)]
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        given = []

        def loads(line):
            given.append(len(line))
            return orjson.loads(line)

        monkeypatch.setattr(botforge.corpus, "orjson",
                            SimpleNamespace(loads=loads, JSONDecodeError=orjson.JSONDecodeError))
        assert read_tweets_jsonl(path) == _tweets(2)
        assert read_corpus_columns(path).ids == [1, 2]
        assert given == [gate, gate]
        # The tail scan reads each line without its end, so both fit the gate,
        # after the empty text that follows the last end.
        assert read_corpus_tail(path, {"ghost"}, path.stat().st_size) == _tweets(2)
        assert given[2:] == [0, gate, gate - 1]

    def test_reordered_keys_give_the_same_tweet(self, tmp_path):
        doc = _doc(1, "reply")
        path = tmp_path / "tweets.jsonl"
        path.write_text(_line(doc) + "\n" + _line(dict(reversed(doc.items()))) + "\n",
                        encoding="utf-8")
        first, second = read_tweets_jsonl(path)
        assert first == second == tweet_from_dict(doc)

    def test_accepted_kinds_are_those_tweet_from_dict_accepts(self):
        # The table as it was built before it came from Tweet.violations: the full
        # document check on every combination of value types, kind and slot_kind.
        sample = {int: 1, str: "a", NoneType: None, list: []}
        accepted = set()
        for types in product(*_TWEET_TYPES.values()):
            for kind, slot_kind in product(TWEET_KINDS, repeat=2):
                doc = {key: sample[t] for key, t in zip(_TWEET_TYPES, types)}
                doc.update(kind=kind, slot_kind=slot_kind)
                try:
                    tweet_from_dict(doc)
                except SchemaError:
                    continue
                accepted.add((kind, slot_kind, type(doc["target_tweet_id"]),
                              type(doc["target_agent_id"])))
        assert botforge.corpus._ACCEPTED == accepted
        assert len(accepted) == 20

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
        for changed in (_lines(_tweets(2)).replace(b"Note 1", b"Note 9"), _lines(_tweets(2))[:-1]):
            prior.write_bytes(_lines(_tweets(2)))
            view = CorpusView(_prefix(prior, 2), _tweets(3)[2:])
            prior.write_bytes(changed)
            with pytest.raises(ManifestError, match="changed after its hash was verified"):
                write_tweets_jsonl(view, tmp_path / "t.jsonl")

    def test_only_the_recorded_bytes_are_copied(self, tmp_path):
        # An in-place extend appends to the prefix file after it was verified.
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)).rstrip(b"\n"))
        view = CorpusView(_prefix(prior, 2), _tweets(4)[2:])
        prior.write_bytes(_lines(_tweets(4)))
        write_tweets_jsonl(view, tmp_path / "t.jsonl")
        assert (tmp_path / "t.jsonl").read_bytes() == _lines(_tweets(4))

    def test_in_place_extend_result_can_be_written_again(self, tmp_path, micro_pop, pools):
        from botforge.simcore import ScenarioConfig, resume_or_extend, simulate_to_dir

        out = tmp_path / "run"
        cfg = ScenarioConfig(seed=3, runs=1, out_dir=str(out))
        simulate_to_dir(cfg, pop=micro_pop, pools=pools)
        result = resume_or_extend(out, ScenarioConfig(seed=3, runs=1))
        write_tweets_jsonl(result.tweets, tmp_path / "copy.jsonl")
        assert (tmp_path / "copy.jsonl").read_bytes() == (out / "tweets.jsonl").read_bytes()
        written = read_tweets_jsonl(out / "tweets.jsonl")
        assert len(result.tweets) == len(written)
        assert result.tweets.new == written[result.tweets.prefix.tweet_count:]


class TestWriterDigest:
    """write_tweets_jsonl returns the SHA-256 of the bytes it writes."""

    @staticmethod
    def _written(tmp_path, tweets):
        path = tmp_path / "t.jsonl"
        digest = write_tweets_jsonl(tweets, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        return path.read_bytes()

    def test_list(self, tmp_path):
        assert self._written(tmp_path, _tweets(3)) == _lines(_tweets(3))
        assert self._written(tmp_path, []) == b""

    def test_view_whose_prefix_lacks_a_final_newline(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)).rstrip(b"\n"))
        view = CorpusView(_prefix(prior, 2), _tweets(4)[2:])
        assert self._written(tmp_path, view) == _lines(_tweets(4))

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_view_with_no_new_tweets(self, tmp_path, final_newline):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)) if final_newline else _lines(_tweets(2))[:-1])
        assert self._written(tmp_path, CorpusView(_prefix(prior, 2), [])) == prior.read_bytes()

    def test_prefix_digest_is_checked_on_the_shared_hasher(self, tmp_path):
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(2)))
        prefix = _prefix(prior, 2)
        digest = hashlib.sha256()
        assert b"".join(prefix.chunks(digest)) == prior.read_bytes()
        digest.update(b"more")  # the caller's hasher goes on past the prefix
        assert digest.hexdigest() == hashlib.sha256(prior.read_bytes() + b"more").hexdigest()
        prior.write_bytes(_lines(_tweets(2)).replace(b"Note 1", b"Note 9"))
        with pytest.raises(ManifestError, match="changed after its hash was verified"):
            b"".join(prefix.chunks(hashlib.sha256()))


class TestCorpusView:
    def test_len_reads_nothing(self, tmp_path):
        # len() is the whole corpus's count: the recorded prefix count plus
        # the new tweets, with the prefix file gone.
        prior = tmp_path / "prior.jsonl"
        prior.write_bytes(_lines(_tweets(3)))
        view = CorpusView(_prefix(prior, 3), _tweets(5)[3:])
        prior.unlink()
        assert len(view) == 5 and view.new == _tweets(5)[3:]


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
                     lambda p: read_corpus_tail(p, {"ghost"}, p.stat().st_size)):
            with pytest.raises(SchemaError) as exc:
                read(path)
            errors.append(str(exc.value))
        assert errors[0].startswith(f"{path}:2: not valid JSON: Extra data")
        assert errors == [errors[0]] * 2


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
