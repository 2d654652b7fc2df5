"""Analysis from corpus columns against analysis from a list of Tweets.

load_corpus gives analysis five columns of a corpus (read_corpus_columns);
a library caller may give build_comm_graph and aggregate_cues a list of
Tweets instead, which as_columns turns into the same columns. Both routes
must give equal graphs and byte-equal cue reports on the golden configs,
and a corpus with several faults must be refused for the first of them in
corpus order, with the message the per-tweet graph build gave.
"""
from __future__ import annotations

import json

import pytest

from botforge.corpus import Tweet, as_columns, read_corpus_columns, read_tweets_jsonl
from botforge.cues import aggregate_cues, write_cue_report
from botforge.errors import ValidationError
from botforge.netgraph import EdgeStats, build_comm_graph, graph_metrics
from botforge.simcore import load_corpus, simulate_to_dir

from test_golden import PINNED, _config


@pytest.fixture(scope="module", params=sorted(PINNED), ids="/".join)
def golden_run(request, seed_pop, pools, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "run"
    simulate_to_dir(_config(out, *request.param), pop=seed_pop, pools=pools)
    return out


def test_columns_are_the_tweet_fields(golden_run):
    cols = read_corpus_columns(golden_run / "tweets.jsonl")
    tweets = read_tweets_jsonl(golden_run / "tweets.jsonl")
    assert cols == as_columns(tweets)
    assert cols.ids == [t.id for t in tweets]
    assert cols.authors == [t.author_id for t in tweets]
    assert cols.kinds == [t.kind for t in tweets]
    assert cols.targets == [t.target_agent_id for t in tweets]
    assert cols.texts == [t.text for t in tweets]


@pytest.mark.parametrize("per_post", [False, True], ids=["per agent", "per post"])
def test_both_routes_give_the_same_analysis(golden_run, lexicons, tmp_path, per_post):
    pop, cols = load_corpus(golden_run)
    tweets = read_tweets_jsonl(golden_run / "tweets.jsonl")
    graph = build_comm_graph(cols, pop)
    assert graph == build_comm_graph(tweets, pop)
    assert graph.edges == _oracle_graph(tweets, pop) and graph.nodes == pop.ids()
    metrics = graph_metrics(graph, pop)
    reports = []
    for corpus in (cols, tweets):
        path = tmp_path / f"cues{len(reports)}.csv"
        write_cue_report(aggregate_cues(corpus, metrics, pop, lexicons, per_post=per_post), path)
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]


def _oracle_graph(tweets, pop):
    """The graph build as one loop over Tweets, checking each tweet as it comes."""
    edges = {}
    for t in tweets:
        if t.author_id not in pop:
            raise ValidationError(f"tweet {t.id}: unknown author {t.author_id!r}")
        if t.kind == "original" or t.target_agent_id is None:
            continue
        if t.target_agent_id not in pop:
            raise ValidationError(f"tweet {t.id}: unknown target {t.target_agent_id!r}")
        if t.target_agent_id == t.author_id:
            raise ValidationError(f"tweet {t.id}: self-interaction is not representable")
        stats = edges.setdefault((t.author_id, t.target_agent_id), EdgeStats())
        stats.weight += 1
        if t.kind == "retweet":
            stats.retweets += 1
        elif t.kind == "quote":
            stats.quotes += 1
        elif t.kind == "reply":
            stats.replies += 1
        else:
            raise ValidationError(f"tweet {t.id}: unknown kind {t.kind!r}")
    return edges


def _tweet_doc(tid, author, kind="reply", target="a_02"):
    return {"id": tid, "author_id": author, "kind": kind, "slot_kind": kind,
            "text": f"@x note {tid}", "target_tweet_id": 1 if kind != "original" else None,
            "target_agent_id": target if kind != "original" else None, "run_index": 0,
            "slot_index": tid, "mentions": [], "hashtags": [], "urls": []}


# One faulty tweet document, and the message the graph build refuses it with.
_FAULTS = {
    "unknown author": (lambda tid: _tweet_doc(tid, "ghost_author", target="a_01"),
                       "unknown author 'ghost_author'"),
    "unknown target": (lambda tid: _tweet_doc(tid, "a_01", target="ghost_target"),
                       "unknown target 'ghost_target'"),
    "self-interaction": (lambda tid: _tweet_doc(tid, "b_01", target="b_01"),
                         "self-interaction is not representable"),
}
_PAIRS = [("unknown author", "self-interaction"), ("self-interaction", "unknown author"),
          ("unknown target", "unknown author"), ("unknown author", "unknown target")]


@pytest.mark.parametrize("first,second", _PAIRS, ids=" before ".join)
def test_first_fault_in_corpus_order_is_reported(micro_pop, tmp_path, first, second):
    docs = [_tweet_doc(1, "a_01", "original"), _FAULTS[first][0](2), _tweet_doc(3, "b_02"),
            _FAULTS[second][0](4), _tweet_doc(5, "a_02", target="a_01")]
    path = tmp_path / "tweets.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    message = f"tweet 2: {_FAULTS[first][1]}"
    tweets = read_tweets_jsonl(path)
    with pytest.raises(ValidationError) as oracle:
        _oracle_graph(tweets, micro_pop)
    assert str(oracle.value) == message
    for corpus in (read_corpus_columns(path), tweets):
        with pytest.raises(ValidationError) as exc:
            build_comm_graph(corpus, micro_pop)
        assert str(exc.value) == message


@pytest.mark.parametrize("order", ["ghost first", "ghost second"])
def test_cue_aggregation_reports_the_first_unknown_author(micro_pop, lexicons, tmp_path, order):
    ghosts = ["ghost_one", "ghost_two"] if order == "ghost first" else ["ghost_two", "ghost_one"]
    docs = [_tweet_doc(1, "a_01", "original"), _tweet_doc(2, ghosts[0], "original"),
            _tweet_doc(3, ghosts[1], "original")]
    path = tmp_path / "tweets.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    metrics = graph_metrics(build_comm_graph([], micro_pop), micro_pop)
    for corpus in (read_corpus_columns(path), read_tweets_jsonl(path)):
        with pytest.raises(ValidationError, match=f"^tweet 2: unknown author '{ghosts[0]}'$"):
            aggregate_cues(corpus, metrics, micro_pop, lexicons)


def _boost(tid, target):
    """A hand-built Tweet of an unknown kind; every reader refuses one."""
    return Tweet(**dict(_tweet_doc(tid, "a_01", target=target), kind="boost",
                        target_agent_id=target))


@pytest.mark.parametrize("tweets", [
    [_boost(1, None)],  # without a target it is skipped, as an original is
    [_boost(1, "b_01")],
    [_boost(1, None), _boost(2, "ghost"), _boost(3, "b_01")],  # the target is checked first
], ids=["no target", "a target", "an unknown target"])
def test_unknown_kind_matches_the_oracle(micro_pop, tweets):
    try:
        expected = _oracle_graph(tweets, micro_pop), None
    except ValidationError as exc:
        expected = None, str(exc)
    try:
        got = build_comm_graph(tweets, micro_pop).edges, None
    except ValidationError as exc:
        got = None, str(exc)
    assert got == expected
