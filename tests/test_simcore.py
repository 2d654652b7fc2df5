"""Simulation loop, output directory layout, manifests, and run extension."""

import csv
import hashlib
import json
import re
import shutil
import tempfile
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_persona
from test_netgraph import tiny_population

import botforge.simcore
from botforge.content import TemplateBackend, default_pools_path
import botforge.corpus
from botforge.corpus import (
    CorpusView,
    Tweet,
    _TWEET_TYPES,
    as_columns,
    read_corpus_tail,
    read_tweets_jsonl,
    tweet_from_dict,
    write_tweets_jsonl,
)
from botforge.errors import BackendError, ManifestError, SchemaError, ValidationError
from botforge.netgraph import POLICY_PRESETS, DegreeState, MixingPolicy, read_edges_csv
from botforge.persona import Population, default_population_path, load_seed_personas
from botforge.simcore import (
    MANIFEST_FORMAT,
    ScenarioConfig,
    SimulationAborted,
    _CONFIG_TYPES,
    _parse_mixing,
    config_from_dict,
    load_corpus,
    read_manifest,
    resume_or_extend,
    run_simulation,
    simulate_to_dir,
    verify_manifest_files,
    write_outputs,
)

OUTPUT_FILES = (
    "tweets.jsonl",
    "graph.csv",
    "graph.graphml",
    "metrics.json",
    "run.log",
    "population.json",
    "pools.json",
    "manifest.json",
)


def original(tid, author="a_01", text="Fine day for a rehearsal.", **kw):
    return Tweet(
        id=tid,
        author_id=author,
        kind="original",
        text=text,
        target_tweet_id=None,
        target_agent_id=None,
        run_index=0,
        slot_index=0,
        **kw,
    )


def micro_cfg(**kw):
    base = dict(seed=11, runs=2, backend="template")
    base.update(kw)
    return ScenarioConfig(**base)


class _FailingBackend:
    """Succeeds for a fixed number of completions, then stays down."""

    def __init__(self, fail_after: int):
        self.fail_after = fail_after
        self.calls = 0

    def complete(self, system_text, user_text, params):
        self.calls += 1
        if self.calls > self.fail_after:
            raise BackendError("backend down")
        return f"Planned note number {self.calls} for the schedule."


class TestTweet:
    def test_valid_original(self):
        assert original(1).violations() == []

    def test_artifact_fields_coerced_to_tuples(self):
        t = original(1, text="Go @bob #win", mentions=["@bob"], hashtags=["#win"])
        assert t.mentions == ("@bob",)
        assert t.hashtags == ("#win",)
        assert t.urls == ()

    def test_unknown_kind_flagged(self):
        t = Tweet(1, "a_01", "boost", "x", None, "a_02", 0, 0)
        assert any("unknown kind 'boost'" in v for v in t.violations())

    def test_unknown_slot_kind_flagged(self):
        t = original(1, slot_kind="boost")
        assert any("unknown slot_kind 'boost'" in v for v in t.violations())

    def test_overlong_text_flagged(self):
        assert original(1, text="x" * 281).violations() == [
            "tweet 1: text exceeds 280 characters"
        ]
        assert original(1, text="x" * 280).violations() == []

    def test_original_carries_no_target(self):
        t = Tweet(1, "a_01", "original", "x", 5, "a_02", 0, 0)
        assert t.violations() == ["tweet 1: original tweets carry no target"]

    def test_retweet_requires_target_tweet(self):
        t = Tweet(2, "a_01", "retweet", "RT @a02: x", None, "a_02", 0, 0, slot_kind="retweet")
        assert t.violations() == ["tweet 2: retweet requires a target tweet"]

    def test_quote_requires_target_tweet(self):
        t = Tweet(2, "a_01", "quote", "x", None, "a_02", 0, 0, slot_kind="quote")
        assert t.violations() == ["tweet 2: quote requires a target tweet"]

    def test_interaction_requires_target_agent(self):
        t = Tweet(2, "a_01", "reply", "x", 1, None, 0, 0, slot_kind="reply")
        assert t.violations() == ["tweet 2: reply requires a target agent"]

    def test_degraded_mention_reply_is_valid(self):
        # A reply without a target tweet is the degraded form of a slot whose
        # partner had nothing to point at; slot_kind keeps the drawn kind.
        t = Tweet(2, "a_01", "reply", "@a02 hello", None, "a_02", 0, 1, slot_kind="retweet")
        assert t.violations() == []


class TestTweetSerde:
    def test_round_trip(self):
        t = Tweet(3, "a_01", "reply", "@a02 yes", 1, "a_02", 0, 4,
                  slot_kind="reply", mentions=("@a02",))
        assert tweet_from_dict(t.to_dict()) == t

    def test_dict_key_order_is_fixed(self):
        assert tuple(original(1).to_dict()) == tuple(_TWEET_TYPES)

    def test_not_an_object(self):
        with pytest.raises(SchemaError, match="must be an object"):
            tweet_from_dict([1, 2, 3])

    def test_unknown_key_rejected(self):
        doc = original(1).to_dict()
        doc["likes"] = 4
        with pytest.raises(SchemaError, match=r"unknown keys \['likes'\]"):
            tweet_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = original(1).to_dict()
        del doc["slot_index"]
        with pytest.raises(SchemaError, match=r"missing keys \['slot_index'\]"):
            tweet_from_dict(doc)

    def test_contract_violations_rejected(self):
        doc = Tweet(1, "a_01", "original", "x", 5, "a_02", 0, 0).to_dict()
        with pytest.raises(SchemaError, match="carry no target"):
            tweet_from_dict(doc)

    @pytest.mark.parametrize("key,value", [
        ("text", 5),
        ("id", "1"),
        ("id", True),
        ("run_index", None),
        ("slot_index", 1.0),
        ("author_id", 7),
        ("target_tweet_id", "3"),
        ("mentions", "@bob"),
        ("hashtags", None),
        ("urls", [5]),
    ])
    def test_wrong_value_type_rejected(self, key, value):
        doc = original(1).to_dict()
        doc[key] = value
        with pytest.raises(SchemaError, match=rf"tweet\.{key}: must be"):
            tweet_from_dict(doc)

    def test_jsonl_wrong_type_reports_position(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        doc = original(2).to_dict()
        doc["text"] = 5
        path.write_text(json.dumps(original(1).to_dict()) + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(SchemaError, match=r"tweets\.jsonl:2\.text: must be str"):
            read_tweets_jsonl(path)

    def test_jsonl_round_trip(self, tmp_path):
        tweets = [
            original(1, text="Café notes ☕ before the set."),
            Tweet(2, "a_02", "reply", "@a01 agreed", 1, "a_01", 0, 0,
                  slot_kind="quote", mentions=("@a01",)),
        ]
        path = tmp_path / "tweets.jsonl"
        write_tweets_jsonl(tweets, path)
        assert read_tweets_jsonl(path) == tweets

    def test_jsonl_keeps_unicode_readable(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        write_tweets_jsonl([original(1, text="Café ☕")], path)
        raw = path.read_text(encoding="utf-8")
        assert "Café ☕" in raw and "\\u" not in raw

    def test_jsonl_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        line = json.dumps(original(1).to_dict())
        path.write_text(line + "\n\n" + line.replace('"id": 1', '"id": 2') + "\n")
        assert [t.id for t in read_tweets_jsonl(path)] == [1, 2]

    def test_jsonl_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        path.write_text(json.dumps(original(1).to_dict()) + "\n{nope\n")
        with pytest.raises(SchemaError, match="not valid JSON") as exc:
            read_tweets_jsonl(path)
        assert ":2" in str(exc.value)


class TestScenarioConfig:
    def test_defaults_validate(self):
        cfg = ScenarioConfig()
        cfg.validate()
        assert cfg.mixing == MixingPolicy.pa_only()
        assert cfg.scheme.level == "naive"
        assert cfg.runs == 1

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_64_bits(self, seed):
        with pytest.raises(ValidationError, match="64-bit"):
            ScenarioConfig(seed=seed).validate()

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError, match="temperature"):
            ScenarioConfig(temperature=-0.1).validate()

    def test_runs_must_be_positive(self):
        with pytest.raises(ValidationError, match="runs"):
            ScenarioConfig(runs=0).validate()

    def test_max_in_flight_must_be_positive(self):
        with pytest.raises(ValidationError, match="max_in_flight"):
            ScenarioConfig(max_in_flight=0).validate()

    def test_max_in_flight_capped_at_64(self):
        ScenarioConfig(max_in_flight=64).validate()
        with pytest.raises(ValidationError, match="between 1 and 64"):
            ScenarioConfig(max_in_flight=65).validate()

    def test_max_in_flight_defaults_to_8(self):
        assert ScenarioConfig().max_in_flight == 8

    def test_max_retries_nonnegative(self):
        with pytest.raises(ValidationError, match="max_retries"):
            ScenarioConfig(max_retries=-1).validate()

    def test_backend_params_shape(self):
        cfg = ScenarioConfig(model_name="m", temperature=0.7, max_tokens=99)
        assert cfg.backend_params() == {
            "model_name": "m",
            "temperature": 0.7,
            "max_tokens": 99,
        }

    def test_manifest_echo_round_trips(self):
        cfg = ScenarioConfig(
            seed=42,
            mixing=POLICY_PRESETS["pa+leader+random"],
            backend="template",
            runs=3,
            temperature=0.2,
            require_both_eligibility=True,
        )
        echoed = cfg.to_manifest_dict()
        rebuilt = config_from_dict(echoed)
        assert rebuilt.to_manifest_dict() == echoed

    def test_every_field_echoed_and_type_checked(self):
        names = [f.name for f in fields(ScenarioConfig)]
        assert set(_CONFIG_TYPES) == set(names) - {"mixing", "scheme"}
        assert list(ScenarioConfig().to_manifest_dict()) == names

    def test_unknown_config_key_rejected(self):
        with pytest.raises(SchemaError, match=r"unknown config keys \['speed'\]"):
            config_from_dict({"seed": 1, "speed": 9})

    def test_config_must_be_object(self):
        with pytest.raises(SchemaError, match="must be an object"):
            config_from_dict("seed=1")

    @pytest.mark.parametrize("key,value", [
        (key, value)
        for key in ("runs", "seed", "max_in_flight", "max_retries")
        for value in ("3", 3.0, True)
    ] + [
        (key, value)
        for key in ("backoff_s", "temperature")
        for value in ("0.5", None, False, [1])
    ] + [("max_tokens", "64"), ("base_url", 8080), ("require_both_eligibility", 1)])
    def test_wrong_typed_values_rejected(self, key, value):
        with pytest.raises(SchemaError, match=f"config.{key}: must be"):
            config_from_dict({key: value})

    def test_optional_values_may_be_null(self):
        cfg = config_from_dict({"max_tokens": None, "base_url": None, "temperature": 1})
        assert cfg.max_tokens is None and cfg.temperature == 1

    def test_invalid_values_still_checked(self):
        with pytest.raises(ValidationError, match="runs"):
            config_from_dict({"runs": 0})


class TestParseMixing:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("pa", (1.0, 0.0, 0.0)),
            ("pa+leader", (0.7, 0.3, 0.0)),
            ("pa+leader+random", (0.6, 0.3, 0.1)),
        ],
    )
    def test_presets(self, name, expected):
        policy = _parse_mixing(name)
        assert (policy.p_pa, policy.p_leader, policy.p_random) == expected

    def test_comma_string(self):
        policy = _parse_mixing("0.5, 0.25, 0.25")
        assert (policy.p_pa, policy.p_leader, policy.p_random) == (0.5, 0.25, 0.25)

    def test_sequence(self):
        assert _parse_mixing([1, 0, 0]) == MixingPolicy.pa_only()

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError, match="p_pa,p_leader,p_random"):
            _parse_mixing("0.5,0.5")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError, match="non-numeric"):
            _parse_mixing("a,b,c")

    def test_unusable_value_rejected(self):
        with pytest.raises(ValidationError, match="cannot interpret"):
            _parse_mixing(42)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            _parse_mixing("0.5,0.2,0.1")

    def test_scheme_forms_via_config(self):
        by_string = config_from_dict({"scheme": "guidelines:all"})
        assert by_string.scheme.level == "guidelines"
        assert len(by_string.scheme.targeted_cues) == 5
        by_dict = config_from_dict(
            {"scheme": {"level": "targets", "targeted_cues": ["expletive"]}}
        )
        assert by_dict.scheme.targeted_cues == ("expletive",)
        with pytest.raises(ValidationError, match="cannot interpret scheme"):
            config_from_dict({"scheme": 42})


def _by_turn(tweets):
    """Tweets grouped by (run_index, author_id), in commit order."""
    turns = {}
    for t in tweets:
        turns.setdefault((t.run_index, t.author_id), []).append(t)
    return turns


class TestRunSimulation:
    def test_ids_monotone_from_one(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        assert [t.id for t in result.tweets] == list(range(1, len(result.tweets) + 1))
        assert result.status == "ok"
        assert result.runs_completed == 2

    def test_commit_order_is_run_then_agent_then_slot(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        order = sorted(micro_pop.ids())
        keys = [(t.run_index, order.index(t.author_id), t.slot_index) for t in result.tweets]
        assert keys == sorted(keys)

    def test_turn_shape_and_counts(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        for (run, pid), turn in _by_turn(result.tweets).items():
            p = micro_pop.get(pid)
            kinds = [t.slot_kind for t in turn]
            counts = {k: kinds.count(k) for k in ("original", "retweet", "reply", "quote")}
            # slots commit grouped by kind, posts first
            expected = (
                ["original"] * counts["original"]
                + ["retweet"] * counts["retweet"]
                + ["reply"] * counts["reply"]
                + ["quote"] * counts["quote"]
            )
            assert kinds == expected
            assert [t.slot_index for t in turn] == list(range(len(turn)))
            lo, hi = p.posts_per_run
            assert lo <= counts["original"] <= hi
            lo, hi = p.retweets_per_run
            assert lo <= counts["retweet"] <= hi
            lo, hi = p.replies_per_run
            assert lo <= counts["reply"] <= hi
            lo, hi = p.quotes_per_run
            assert lo <= counts["quote"] <= hi

    def test_prompt_samples_take_the_block_route(self, seed_pop, pools, monkeypatch):
        # Every agent's pool samples come from one draw on its prompt stream, all of a
        # run's agents in one batch.
        batches = []
        batch = botforge.simcore.draw_pool_samples

        def counted_batch(pools, requests):
            batches.append([k for _, k in requests])
            return batch(pools, requests)

        monkeypatch.setattr(botforge.simcore, "draw_pool_samples", counted_batch)
        cfg = config_from_dict({"seed": 1, "runs": 1, "mixing": "pa+leader+random",
                                "scheme": "targets:all"})
        result = run_simulation(cfg, seed_pop, TemplateBackend(seed=1), pools=pools)
        assert len(batches) == 1 and len(batches[0]) == len(seed_pop) == 169
        assert sum(batches[0]) == sum(t.kind != "retweet" for t in result.tweets) > 0

    def test_no_contract_violations(self, micro_pop, backend):
        result = run_simulation(micro_cfg(runs=1), micro_pop, backend)
        for t in result.tweets:
            assert t.violations() == []

    def test_first_turn_interactions_degrade(self, micro_pop, backend):
        # The first agent acts before anyone has tweeted, so every one of its
        # interaction slots degrades to a mention reply at a partner.
        result = run_simulation(micro_cfg(runs=1), micro_pop, backend)
        first = sorted(micro_pop.ids())[0]
        turn = _by_turn(result.tweets)[(0, first)]
        interactions = [t for t in turn if t.slot_kind != "original"]
        assert interactions
        for t in interactions:
            assert t.kind == "reply"
            assert t.target_tweet_id is None
            assert t.slot_kind in ("retweet", "reply", "quote")
            display = micro_pop.get(t.target_agent_id).display_name
            assert f"@{display}" in t.text
        assert any("degraded to mention reply" in line for line in result.log)

    def test_interaction_targets_point_backwards(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        by_id = {t.id: t for t in result.tweets}
        for t in result.tweets:
            if t.kind == "original":
                continue
            assert t.target_agent_id in micro_pop
            assert t.target_agent_id != t.author_id
            if t.target_tweet_id is not None:
                target = by_id[t.target_tweet_id]
                assert target.id < t.id
                assert target.author_id == t.target_agent_id

    def test_retweets_copy_their_source(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        real_retweets = [t for t in result.tweets if t.kind == "retweet"]
        assert real_retweets, "two runs should produce at least one real retweet"
        for t in real_retweets:
            display = micro_pop.get(t.target_agent_id).display_name
            assert t.text.startswith(f"RT @{display}: ")

    def test_graph_reflects_interactions(self, micro_pop, backend):
        result = run_simulation(micro_cfg(), micro_pop, backend)
        n_interactions = sum(1 for t in result.tweets if t.kind != "original")
        assert result.graph.total_weight() == n_interactions
        assert result.graph.n_nodes == 4
        assert result.metrics is not None

    def test_deterministic_repeat(self, micro_pop, backend):
        a = run_simulation(micro_cfg(), micro_pop, backend)
        b = run_simulation(micro_cfg(), micro_pop, backend)
        assert a.tweets == b.tweets
        assert a.log == b.log

    def test_seed_changes_the_corpus(self, micro_pop, backend):
        a = run_simulation(micro_cfg(seed=11), micro_pop, backend)
        b = run_simulation(micro_cfg(seed=12), micro_pop, backend)
        assert a.tweets != b.tweets

    def test_single_agent_skips_interaction_slots(self, backend):
        solo = Population(personas=[make_persona("solo_01", "gamma", leader=True)])
        result = run_simulation(micro_cfg(runs=1), solo, backend)
        assert result.tweets
        assert all(t.kind == "original" for t in result.tweets)
        assert result.metrics is None
        assert any("no other agents" in line for line in result.log)

    def test_empty_population_rejected(self, backend):
        with pytest.raises(ValidationError, match="non-empty"):
            run_simulation(micro_cfg(), Population(personas=[]), backend)

    def test_invalid_config_rejected(self, micro_pop, backend):
        with pytest.raises(ValidationError, match="runs"):
            run_simulation(micro_cfg(runs=0), micro_pop, backend)

    def test_log_brackets_the_run(self, micro_pop, backend):
        result = run_simulation(micro_cfg(runs=1), micro_pop, backend)
        assert result.log[0].startswith("simulation: seed=11 runs=1")
        assert result.log[-1].startswith(f"committed {len(result.tweets)} tweets")


class TestAbort:
    def test_partial_results_attached(self, micro_pop):
        with pytest.raises(SimulationAborted) as exc:
            run_simulation(micro_cfg(runs=1), micro_pop, _FailingBackend(fail_after=10))
        result = exc.value.result
        assert result.status == "aborted"
        assert result.error == "backend down"
        assert result.runs_completed == 0
        assert 0 < len(result.tweets)
        assert any(line.startswith("ABORTED: backend down") for line in result.log)
        for t in result.tweets:
            assert t.violations() == []

    def test_simulate_to_dir_salvages_partial_output(self, micro_pop, tmp_path):
        cfg = micro_cfg(runs=1, out_dir=str(tmp_path / "broken"))
        with pytest.raises(SimulationAborted) as exc:
            simulate_to_dir(cfg, pop=micro_pop, backend=_FailingBackend(fail_after=10))
        out = tmp_path / "broken"
        for name in OUTPUT_FILES:
            assert (out / name).is_file(), name
        manifest = read_manifest(out)
        assert manifest["status"] == "aborted"
        assert manifest["error"] == "backend down"
        assert manifest["runs_completed"] == 0
        assert manifest["tweet_count"] == len(exc.value.result.tweets)
        verify_manifest_files(out, manifest, ("tweets.jsonl", "graph.csv"))

    def test_aborted_run_cannot_be_extended(self, micro_pop, tmp_path):
        cfg = micro_cfg(runs=1, out_dir=str(tmp_path / "broken"))
        with pytest.raises(SimulationAborted):
            simulate_to_dir(cfg, pop=micro_pop, backend=_FailingBackend(fail_after=10))
        with pytest.raises(ManifestError, match="cannot extend a run with status 'aborted'"):
            resume_or_extend(tmp_path / "broken", micro_cfg(runs=1))


class _CallRecorder:
    """Template texts; records the threads its complete calls run on, and the most
    calls it ever had open at once."""

    def __init__(self):
        self.template = TemplateBackend(seed=5)
        self.threads = set()
        self.open = self.peak = 0

    def complete(self, system_text, user_text, params):
        self.threads.add(threading.get_ident())
        self.open += 1
        self.peak = max(self.peak, self.open)
        try:
            time.sleep(0.0005)  # room for a second call to start, were one allowed
            return self.template.complete(system_text, user_text, params)
        finally:
            self.open -= 1


def test_user_backend_is_called_inline(micro_pop, pools):
    """At 8 in flight, a backend of the caller's own gets every complete call on the
    calling thread, one at a time, and the outputs are those of max_in_flight 1."""
    backend = _CallRecorder()
    result = run_simulation(micro_cfg(max_in_flight=8), micro_pop, backend, pools=pools)
    assert backend.threads == {threading.get_ident()}
    assert backend.peak == 1
    reference = run_simulation(micro_cfg(max_in_flight=1), micro_pop, _CallRecorder(),
                               pools=pools)
    assert result.tweets == reference.tweets
    assert result.log == reference.log


@pytest.fixture()
def run_dir(micro_pop, pools, tmp_path):
    """A completed one-run output directory plus its config and result."""
    cfg = micro_cfg(runs=1, out_dir=str(tmp_path / "run"))
    result = simulate_to_dir(cfg, pop=micro_pop, pools=pools)
    return tmp_path / "run", cfg, result


class TestOutputLayout:
    def test_all_files_present(self, run_dir):
        out, _, _ = run_dir
        for name in OUTPUT_FILES:
            assert (out / name).is_file(), name

    def test_no_staging_files_left(self, run_dir):
        out, cfg, _ = run_dir
        resume_or_extend(out, replace(cfg, out_dir=None))
        assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUT_FILES)

    def test_manifest_contents(self, run_dir):
        out, cfg, result = run_dir
        manifest = read_manifest(out)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["status"] == "ok"
        assert manifest["error"] is None
        assert manifest["runs_completed"] == 1
        assert manifest["tweet_count"] == len(result.tweets)
        assert manifest["config"] == cfg.to_manifest_dict()
        assert sorted(manifest["files"]) == sorted(n for n in OUTPUT_FILES if n != "manifest.json")

    def test_recorded_hashes_verify(self, run_dir):
        out, _, _ = run_dir
        manifest = read_manifest(out)
        verify_manifest_files(out, manifest, manifest["files"])

    def test_tampering_detected(self, run_dir):
        out, _, _ = run_dir
        manifest = read_manifest(out)
        with open(out / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        with pytest.raises(ManifestError, match="hash mismatch for tweets.jsonl"):
            verify_manifest_files(out, manifest, ("tweets.jsonl",))

    def test_unrecorded_file_refused(self, run_dir):
        out, _, _ = run_dir
        manifest = read_manifest(out)
        with pytest.raises(ManifestError, match="records no hash for extra.txt"):
            verify_manifest_files(out, manifest, ("extra.txt",))

    def test_tweets_snapshot_round_trips(self, run_dir):
        out, _, result = run_dir
        assert read_tweets_jsonl(out / "tweets.jsonl") == result.tweets

    def test_population_snapshot_round_trips(self, run_dir, micro_pop):
        out, _, _ = run_dir
        loaded = load_seed_personas(out / "population.json")
        assert loaded.ids() == micro_pop.ids()
        assert loaded.leaders == micro_pop.leaders

    def test_metrics_json_shape(self, run_dir):
        out, _, result = run_dir
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["defined"] is True
        assert doc["n_nodes"] == 4
        assert doc["n_interactions"] == result.graph.total_weight()
        assert isinstance(doc["weighted_density"], float)

    def test_graph_csv_header(self, run_dir):
        out, _, _ = run_dir
        header = (out / "graph.csv").read_text().splitlines()[0]
        assert header == "source,target,weight,retweets,quotes,replies"

    def test_read_manifest_missing(self, tmp_path):
        with pytest.raises(ManifestError, match="no manifest.json"):
            read_manifest(tmp_path)

    def test_read_manifest_bad_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            read_manifest(tmp_path)

    def test_read_manifest_wrong_format(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ManifestError, match=f"not a {MANIFEST_FORMAT} manifest"):
            read_manifest(tmp_path)

    @pytest.mark.parametrize("key,value", [
        ("runs_completed", None), ("runs_completed", -1), ("runs_completed", True),
        ("runs_completed", 1.0), ("tweet_count", "12"), ("tweet_count", None),
        ("files", None), ("files", ["tweets.jsonl"]), ("files", {"tweets.jsonl": 5}),
    ])
    def test_read_manifest_checks_counts_and_files(self, run_dir, key, value):
        out, _, _ = run_dir
        manifest = json.loads((out / "manifest.json").read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=f"{key} must be"):
            read_manifest(out)


class TestSimulateToDir:
    def test_requires_out_dir(self, micro_pop):
        with pytest.raises(ValidationError, match="no out_dir"):
            simulate_to_dir(micro_cfg(), pop=micro_pop)

    def test_requires_population_source(self, tmp_path):
        cfg = micro_cfg(out_dir=str(tmp_path / "run"))
        with pytest.raises(ValidationError, match="no population_path"):
            simulate_to_dir(cfg)

    def test_loads_population_from_path(self, micro_pop, tmp_path):
        from botforge.persona import save_personas

        pop_path = tmp_path / "pop.json"
        save_personas(micro_pop, pop_path)
        cfg = micro_cfg(runs=1, out_dir=str(tmp_path / "run"),
                        population_path=str(pop_path))
        result = simulate_to_dir(cfg)
        assert result.status == "ok"
        assert sorted({t.author_id for t in result.tweets}) == sorted(micro_pop.ids())


    def test_out_dir_made_before_the_first_backend_call(self, micro_pop, tmp_path):
        (tmp_path / "file").write_text("")
        backend = _FailingBackend(fail_after=10**6)
        cfg = micro_cfg(runs=1, out_dir=str(tmp_path / "file" / "run"))
        with pytest.raises(OSError):
            simulate_to_dir(cfg, pop=micro_pop, backend=backend)
        assert backend.calls == 0

    @pytest.mark.parametrize("settings, pop, message", [
        ({"runs": 0}, None, "runs must be >= 1"),
        ({"max_in_flight": 0}, None, "max_in_flight must be between"),
        ({}, Population(personas=[]), "non-empty"),
    ], ids=["runs-0", "max-in-flight-0", "empty-population"])
    def test_refused_settings_make_no_directory(self, micro_pop, tmp_path, monkeypatch,
                                                settings, pop, message):
        """Settings run_simulation refuses are refused before cfg's backend is built
        and before out_dir is made."""
        from botforge.persona import save_personas

        save_personas(micro_pop, tmp_path / "pop.json")
        built = []
        monkeypatch.setattr("botforge.simcore.make_backend", lambda *a, **kw: built.append(1))
        cfg = micro_cfg(out_dir=str(tmp_path / "a" / "run"),
                        population_path=str(tmp_path / "pop.json"))
        with pytest.raises(ValidationError, match=message):
            simulate_to_dir(replace(cfg, **settings), pop=pop)
        assert built == []
        assert not (tmp_path / "a").exists()


class TestResumeOrExtend:
    def test_zero_runs_refused_before_the_out_dir_is_made(self, run_dir, monkeypatch):
        out, cfg, _ = run_dir
        built = []
        monkeypatch.setattr("botforge.simcore.make_backend", lambda *a, **kw: built.append(1))
        with pytest.raises(ValidationError, match="runs must be >= 1"):
            resume_or_extend(out, replace(cfg, runs=0, out_dir=str(out.parent / "ext")))
        assert built == []
        assert not (out.parent / "ext").exists()

    def test_extension_matches_fresh_two_run_corpus(self, micro_pop, pools, run_dir):
        out, cfg, first = run_dir
        ext = resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))
        assert {t.run_index for t in ext.tweets.new} == {1}
        assert ext.runs_completed == 2
        written = read_tweets_jsonl(out.parent / "ext" / "tweets.jsonl")
        assert written[: len(first.tweets)] == first.tweets

        fresh = run_simulation(
            micro_cfg(runs=2), micro_pop, TemplateBackend(seed=cfg.seed), pools=pools
        )
        assert written == fresh.tweets
        assert ext.tweets.new == fresh.tweets[len(first.tweets):]
        assert len(ext.tweets) == len(fresh.tweets)

        manifest = read_manifest(out.parent / "ext")
        assert manifest["runs_completed"] == 2
        assert manifest["tweet_count"] == len(ext.tweets)

    def test_extends_in_place_by_default(self, run_dir):
        out, cfg, first = run_dir
        ext = resume_or_extend(out, replace(cfg, out_dir=None))
        manifest = read_manifest(out)
        assert manifest["runs_completed"] == 2
        assert len(read_tweets_jsonl(out / "tweets.jsonl")) == len(ext.tweets)
        assert len(ext.tweets) > len(first.tweets)

    def test_crash_while_extending_in_place_keeps_prior_run(self, run_dir, monkeypatch):
        out, cfg, first = run_dir
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr("botforge.simcore.export_graphml", fail)
        with pytest.raises(OSError, match="disk full"):
            resume_or_extend(out, replace(cfg, out_dir=None))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        manifest = read_manifest(out)
        verify_manifest_files(out, manifest, manifest["files"])
        assert load_corpus(out)[1] == as_columns(first.tweets)

    def test_tampered_run_log_refused(self, run_dir):
        out, cfg, _ = run_dir
        with open(out / "run.log", "a", encoding="utf-8") as fh:
            fh.write("edited\n")
        with pytest.raises(ManifestError, match="hash mismatch for run.log"):
            resume_or_extend(out, cfg)

    def test_run_log_changed_after_check_is_refused(self, run_dir, monkeypatch):
        out, cfg, _ = run_dir
        verify = verify_manifest_files

        def verify_then_append(*args):
            verify(*args)
            with open(out / "run.log", "a", encoding="utf-8") as fh:
                fh.write("injected\n")

        monkeypatch.setattr("botforge.simcore.verify_manifest_files", verify_then_append)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ManifestError, match="hash mismatch for run.log"):
            resume_or_extend(out, replace(cfg, out_dir=None))
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == dict(before, **{"run.log": before["run.log"] + b"injected\n"})

    def test_tampered_corpus_refused(self, run_dir):
        out, cfg, _ = run_dir
        with open(out / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        with pytest.raises(ManifestError, match="hash mismatch for tweets.jsonl"):
            resume_or_extend(out, cfg)


def _new_lines(tweets) -> bytes:
    return "".join(json.dumps(t.to_dict(), ensure_ascii=False) + "\n" for t in tweets).encode()


def _rewrite_corpus(run_dir, data: bytes, tweet_count: int) -> None:
    """Replace a finished run's tweets.jsonl and record its hash, as if it had been written so."""
    (run_dir / "tweets.jsonl").write_bytes(data)
    manifest = read_manifest(run_dir)
    manifest["files"]["tweets.jsonl"] = hashlib.sha256(data).hexdigest()
    manifest["tweet_count"] = tweet_count
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


class TestExtendAppends:
    """Extending keeps the prior tweets.jsonl bytes and appends the new tweets' lines."""

    @pytest.mark.parametrize("in_place", [True, False])
    def test_prior_bytes_then_new_lines(self, run_dir, micro_pop, pools, in_place):
        out, cfg, first = run_dir
        prior = (out / "tweets.jsonl").read_bytes()
        dest = out if in_place else out.parent / "ext"
        ext = resume_or_extend(out, replace(cfg, out_dir=None if in_place else str(dest)))
        assert (dest / "tweets.jsonl").read_bytes() == prior + _new_lines(ext.tweets.new)
        assert read_tweets_jsonl(dest / "tweets.jsonl")[:len(first.tweets)] == first.tweets
        fresh = out.parent / "fresh"
        simulate_to_dir(replace(cfg, runs=2, out_dir=str(fresh)), pop=micro_pop, pools=pools)
        assert (dest / "tweets.jsonl").read_bytes() == (fresh / "tweets.jsonl").read_bytes()
        if not in_place:
            assert (out / "tweets.jsonl").read_bytes() == prior
        manifest = read_manifest(dest)
        verify_manifest_files(dest, manifest, manifest["files"])

    @pytest.mark.parametrize("in_place", [True, False])
    def test_run_log_keeps_prior_lines(self, run_dir, in_place):
        out, cfg, _ = run_dir
        prior = (out / "run.log").read_bytes()
        dest = out if in_place else out.parent / "ext"
        ext = resume_or_extend(out, replace(cfg, out_dir=None if in_place else str(dest)))
        assert ext.log[0].startswith("simulation: seed=")
        assert (dest / "run.log").read_bytes() == prior + ("\n".join(ext.log) + "\n").encode()
        manifest = read_manifest(dest)
        verify_manifest_files(dest, manifest, manifest["files"])

    def test_aborted_extend_appends_what_committed(self, run_dir, monkeypatch):
        out, cfg, first = run_dir
        prior = (out / "tweets.jsonl").read_bytes()
        monkeypatch.setattr("botforge.simcore.make_backend",
                            lambda *a, **kw: _FailingBackend(fail_after=5))
        with pytest.raises(SimulationAborted) as exc:
            resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))
        ext = out.parent / "ext"
        tweets = exc.value.result.tweets
        assert len(first.tweets) < len(tweets)
        assert (ext / "tweets.jsonl").read_bytes() == prior + _new_lines(tweets.new)
        manifest = read_manifest(ext)
        assert manifest["status"] == "aborted"
        assert manifest["tweet_count"] == len(tweets)
        verify_manifest_files(ext, manifest, manifest["files"])

    def test_empty_prior_corpus(self, run_dir):
        out, cfg, _ = run_dir
        _rewrite_corpus(out, b"", 0)
        ext = resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))
        assert ext.tweets.new[0].id == 1 and len(ext.tweets) == len(ext.tweets.new)
        assert (out.parent / "ext" / "tweets.jsonl").read_bytes() == _new_lines(ext.tweets.new)

    def test_newline_inserted_after_prior_without_one(self, run_dir):
        out, cfg, first = run_dir
        whole = resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "whole")))
        prior = (out / "tweets.jsonl").read_bytes()
        _rewrite_corpus(out, prior.rstrip(b"\n"), len(first.tweets))
        ext = resume_or_extend(out, replace(cfg, out_dir=None))
        data = (out / "tweets.jsonl").read_bytes()
        assert data == (out.parent / "whole" / "tweets.jsonl").read_bytes()
        assert data == prior + _new_lines(ext.tweets.new)
        assert ext.tweets.new == whole.tweets.new
        assert len(read_tweets_jsonl(out / "tweets.jsonl")) == len(ext.tweets) == len(whole.tweets)

    @pytest.mark.parametrize("in_place", [True, False])
    def test_prior_changed_after_check_is_refused(self, run_dir, monkeypatch, in_place):
        out, cfg, _ = run_dir
        dest = out if in_place else out.parent / "ext"
        read = read_corpus_tail

        def read_then_change(path, *args):
            tail = read(path, *args)
            with open(path, "r+b") as fh:
                fh.write(b" ")  # over the first verified byte; growth alone is allowed
            return tail

        monkeypatch.setattr("botforge.simcore.read_corpus_tail", read_then_change)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ManifestError, match="changed after its hash was verified"):
            resume_or_extend(out, replace(cfg, out_dir=None if in_place else str(dest)))
        assert not [p.name for p in dest.iterdir() if p.name.endswith(".staged")]
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == dict(before, **{"tweets.jsonl": b" " + before["tweets.jsonl"][1:]})
        if not in_place:
            assert list(dest.iterdir()) == []


def _count_parses(monkeypatch) -> list:
    """A list that grows by one per tweet line read from now on."""
    calls = []
    parse = botforge.corpus._read_line

    def counting(*args):
        doc = parse(*args)
        if doc is not None:
            calls.append(None)
        return doc

    monkeypatch.setattr(botforge.corpus, "_read_line", counting)
    return calls


@pytest.fixture(scope="module")
def paper_run(tmp_path_factory):
    """The 169 shipped personas after 5 runs of the paper's config (never extended in place)."""
    out = tmp_path_factory.mktemp("paper") / "base"
    cfg = config_from_dict({
        "seed": 1, "runs": 5, "mixing": "pa+leader+random", "scheme": "targets:all",
        "population_path": str(default_population_path()),
        "pools_path": str(default_pools_path()), "out_dir": str(out),
    })
    simulate_to_dir(cfg)
    return out, cfg


class TestExtendReadsTail:
    """Extending reads the end of the prior corpus and graph.csv, never the whole corpus."""

    def test_prior_degrees_are_the_per_edge_sums(self, paper_run):
        out, _ = paper_run
        pop = load_seed_personas(out / "population.json")
        edges, degrees = read_edges_csv(out / "graph.csv", pop)
        by_edge = DegreeState(pop)
        for (src, dst), e in edges.items():
            by_edge.out_deg[pop.index[src]] += e.weight
            by_edge.in_deg[pop.index[dst]] += e.weight
        by_tweet = DegreeState(pop)
        for t in read_tweets_jsonl(out / "tweets.jsonl"):
            if t.kind != "original":
                by_tweet.commit(t.author_id, t.target_agent_id)
        for expected in (by_edge, by_tweet):
            assert degrees.out_deg.tolist() == expected.out_deg.tolist()
            assert degrees.in_deg.tolist() == expected.in_deg.tolist()
        assert degrees.violations() == [] and len(edges) > 1000

    def test_parses_about_the_last_run(self, paper_run, monkeypatch, tmp_path):
        base, cfg = paper_run
        prior = read_manifest(base)["tweet_count"]
        calls = _count_parses(monkeypatch)
        ext = resume_or_extend(base, replace(cfg, runs=1, out_dir=str(tmp_path / "ext")))
        parsed = len(calls)
        assert 0 < parsed < prior
        assert parsed < 2 * (len(ext.tweets) - prior)  # about one run of tweets
        assert ext.tweets.new == read_tweets_jsonl(tmp_path / "ext" / "tweets.jsonl")[prior:]

    @pytest.mark.parametrize("in_place", [True, False])
    def test_tweets_are_the_written_corpus(self, run_dir, in_place):
        out, cfg, first = run_dir
        dest = out if in_place else out.parent / "ext"
        ext = resume_or_extend(out, replace(cfg, out_dir=None if in_place else str(dest)))
        written = read_tweets_jsonl(dest / "tweets.jsonl")
        assert isinstance(ext.tweets, CorpusView)
        assert len(ext.tweets) == len(written)
        assert ext.tweets.prefix.tweet_count == len(first.tweets)
        assert ext.tweets.new == written[len(first.tweets):]

    def test_len_reads_nothing(self, run_dir, monkeypatch):
        out, cfg, _ = run_dir
        ext = resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))
        (out / "tweets.jsonl").unlink()
        calls = _count_parses(monkeypatch)
        assert len(ext.tweets) == read_manifest(out.parent / "ext")["tweet_count"]
        assert calls == []

    @pytest.mark.parametrize("drop_last", [True, False])
    def test_last_id_must_be_the_tweet_count(self, run_dir, drop_last):
        out, cfg, first = run_dir
        n = len(first.tweets)
        tweets = first.tweets[:-1] if drop_last else first.tweets
        _rewrite_corpus(out, _new_lines(tweets), n if drop_last else n + 1)
        last, count = (n - 1, n) if drop_last else (n, n + 1)
        with pytest.raises(ManifestError,
                           match=f"last tweet id is {last} but the manifest records {count}"):
            resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))

    @pytest.mark.parametrize("key", ["author_id", "target_agent_id"])
    def test_tail_agent_outside_population_refused(self, run_dir, key):
        out, cfg, first = run_dir
        tweets = list(first.tweets)
        assert tweets[-1].kind != "original"
        tweets[-1] = replace(tweets[-1], **{key: "ghost_agent"})
        _rewrite_corpus(out, _new_lines(tweets), len(tweets))
        with pytest.raises(ManifestError, match="'ghost_agent', who is not in population.json"):
            resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))

    def test_bad_tail_line_names_its_position(self, run_dir):
        out, cfg, first = run_dir
        lines = (out / "tweets.jsonl").read_bytes().splitlines(keepends=True)
        lines[-2] = b'{"id": oops}\n'
        _rewrite_corpus(out, b"".join(lines), len(first.tweets))
        with pytest.raises(SchemaError, match=rf"tweets\.jsonl:{len(lines) - 1}: not valid JSON"):
            resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))


class TestLoadCorpus:
    def test_round_trip(self, run_dir, micro_pop):
        out, _, result = run_dir
        pop, tweets = load_corpus(out)
        assert pop.ids() == micro_pop.ids()
        assert tweets == as_columns(result.tweets)

    def test_missing_tweets_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="tweets.jsonl"):
            load_corpus(tmp_path)

    def test_missing_population_file(self, tmp_path):
        write_tweets_jsonl([original(1)], tmp_path / "tweets.jsonl")
        with pytest.raises(FileNotFoundError, match="population.json"):
            load_corpus(tmp_path)


def _committed_line(run_dir: Path, writes: int) -> tuple[int, int]:
    """(tweets, interactions) of run.log's last `committed N tweets, M interactions` line.

    Each write of the directory (a fresh run, then each extend) adds one.
    """
    lines = re.findall(r"^committed (\d+) tweets, (\d+) interactions$",
                       (run_dir / "run.log").read_text(encoding="utf-8"), re.MULTILINE)
    assert len(lines) == writes, lines
    return int(lines[-1][0]), int(lines[-1][1])


def _graph_weight(run_dir: Path) -> int:
    with open(run_dir / "graph.csv", newline="", encoding="utf-8") as fh:
        return sum(int(row["weight"]) for row in csv.DictReader(fh))


class TestCommittedInteractionCount:
    """run.log's committed interaction count is the sum of graph.csv's weights."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("case", ["fresh", "extended in place", "aborted fresh",
                                      "aborted extend"])
    def test_logged_count_is_graph_weight(self, tmp_path, monkeypatch, case, seed):
        out = tmp_path / "run"
        cfg = config_from_dict({
            "seed": seed, "runs": 1, "mixing": "pa+leader+random",
            "population_path": str(default_population_path()),
            "pools_path": str(default_pools_path()), "out_dir": str(out),
        })
        if case == "aborted fresh":
            with pytest.raises(SimulationAborted):
                simulate_to_dir(cfg, backend=_FailingBackend(fail_after=700))
        else:
            simulate_to_dir(cfg)
        if case == "extended in place":
            resume_or_extend(out, replace(cfg, out_dir=None))
        elif case == "aborted extend":
            monkeypatch.setattr("botforge.simcore.make_backend",
                                lambda *a, **kw: _FailingBackend(fail_after=700))
            with pytest.raises(SimulationAborted):
                resume_or_extend(out, replace(cfg, out_dir=None))
        manifest = read_manifest(out)
        assert manifest["status"] == ("aborted" if case.startswith("aborted") else "ok")
        n_tweets, n_interactions = _committed_line(out, 2 if "extend" in case else 1)
        assert n_tweets == manifest["tweet_count"]
        assert n_interactions == _graph_weight(out) > 0
        kinds = [t.kind for t in read_tweets_jsonl(out / "tweets.jsonl")]
        assert n_interactions == len(kinds) - kinds.count("original")


_SEEDS = st.integers(0, 2**32 - 1)
_MIXING = st.sampled_from(sorted(POLICY_PRESETS)).map(POLICY_PRESETS.__getitem__)


class TestInvariantProperties:
    """The paper's run invariants on small random populations."""

    @given(pop=tiny_population(), seed=_SEEDS, mixing=_MIXING, m=st.integers(1, 2),
           n=st.integers(1, 2))
    @settings(max_examples=12, deadline=None)
    def test_extend_equals_fresh_run(self, pools, pop, seed, mixing, m, n):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = micro_cfg(seed=seed, mixing=mixing, runs=m, out_dir=str(tmp / "base"))
            simulate_to_dir(cfg, pop=pop, pools=pools)
            shutil.copytree(tmp / "base", tmp / "in_place")
            resume_or_extend(tmp / "base", replace(cfg, runs=n, out_dir=str(tmp / "ext")))
            resume_or_extend(tmp / "in_place", replace(cfg, runs=n, out_dir=None))
            simulate_to_dir(replace(cfg, runs=m + n, out_dir=str(tmp / "fresh")),
                            pop=pop, pools=pools)
            # graph.graphml and metrics.json come from graph.csv plus the new tweets.
            for name in ("tweets.jsonl", "graph.csv", "graph.graphml", "metrics.json"):
                fresh = (tmp / "fresh" / name).read_bytes()
                assert (tmp / "ext" / name).read_bytes() == fresh, name
                assert (tmp / "in_place" / name).read_bytes() == fresh, name

    @given(pop=tiny_population(), seed=_SEEDS, mixing=_MIXING, runs=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_run_invariants(self, pools, pop, seed, mixing, runs):
        cfg = micro_cfg(seed=seed, mixing=mixing, runs=runs)
        result = run_simulation(cfg, pop, TemplateBackend(seed=seed), pools=pools)
        interactions = [t for t in result.tweets if t.kind != "original"]

        # Weighted in- and out-degrees each sum to the interaction count.
        committed = re.fullmatch(r"committed (\d+) tweets, (\d+) interactions", result.log[-1])
        assert int(committed.group(2)) == len(interactions)
        out_deg, in_deg = {}, {}
        for (src, dst), edge in result.graph.edges.items():
            out_deg[src] = out_deg.get(src, 0) + edge.weight
            in_deg[dst] = in_deg.get(dst, 0) + edge.weight
        assert sum(out_deg.values()) == sum(in_deg.values()) == len(interactions)

        # Per run, every persona's slot counts stay within its bounds.
        slots = {}
        for t in result.tweets:
            key = (t.run_index, t.author_id, t.slot_kind)
            slots[key] = slots.get(key, 0) + 1
        for run in range(runs):
            for p in pop.personas:
                for kind, (lo, hi) in (("original", p.posts_per_run),
                                       ("retweet", p.retweets_per_run),
                                       ("reply", p.replies_per_run),
                                       ("quote", p.quotes_per_run)):
                    assert lo <= slots.get((run, p.id, kind), 0) <= hi, (run, p.id, kind)

        # Replies and quotes mention their target by display name.
        for t in interactions:
            if t.kind in ("reply", "quote"):
                assert f"@{pop.get(t.target_agent_id).display_name}" in t.text, t
