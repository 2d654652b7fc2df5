"""Simulation loop, output directory layout, manifests, and run extension."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_persona

from botforge.content import TemplateBackend
from botforge.errors import BackendError, ManifestError, SchemaError, ValidationError
from botforge.netgraph import MixingPolicy
from botforge.persona import Population, load_seed_personas
from botforge.simcore import (
    MANIFEST_FORMAT,
    ScenarioConfig,
    SimulationAborted,
    Tweet,
    _TWEET_KEYS,
    _parse_mixing,
    config_from_dict,
    load_corpus,
    read_manifest,
    read_tweets_jsonl,
    resume_or_extend,
    run_simulation,
    simulate_to_dir,
    tweet_from_dict,
    verify_manifest_files,
    write_outputs,
    write_tweets_jsonl,
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
        assert tuple(original(1).to_dict()) == _TWEET_KEYS

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
            mixing=MixingPolicy.pa_leader_random(),
            backend="template",
            runs=3,
            temperature=0.2,
            require_both_eligibility=True,
        )
        echoed = cfg.to_manifest_dict()
        rebuilt = config_from_dict(echoed)
        assert rebuilt.to_manifest_dict() == echoed

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

    def test_policy_passthrough(self):
        policy = MixingPolicy.pa_leader()
        assert _parse_mixing(policy) is policy

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


class TestResumeOrExtend:
    def test_extension_matches_fresh_two_run_corpus(self, micro_pop, pools, run_dir):
        out, cfg, first = run_dir
        ext = resume_or_extend(out, replace(cfg, out_dir=str(out.parent / "ext")))
        assert ext.start_run_index == 1
        assert ext.runs_completed == 2
        assert ext.tweets[: len(first.tweets)] == first.tweets

        fresh = run_simulation(
            micro_cfg(runs=2), micro_pop, TemplateBackend(seed=cfg.seed), pools=pools
        )
        assert ext.tweets == fresh.tweets

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

    def test_tampered_corpus_refused(self, run_dir):
        out, cfg, _ = run_dir
        with open(out / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        with pytest.raises(ManifestError, match="hash mismatch for tweets.jsonl"):
            resume_or_extend(out, cfg)


class TestLoadCorpus:
    def test_round_trip(self, run_dir, micro_pop):
        out, _, result = run_dir
        pop, tweets = load_corpus(out)
        assert pop.ids() == micro_pop.ids()
        assert tweets == result.tweets

    def test_missing_tweets_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="tweets.jsonl"):
            load_corpus(tmp_path)

    def test_missing_population_file(self, tmp_path):
        write_tweets_jsonl([original(1)], tmp_path / "tweets.jsonl")
        with pytest.raises(FileNotFoundError, match="population.json"):
            load_corpus(tmp_path)
