"""Prompt construction, schemes, backends, and post generation."""

from __future__ import annotations

import json
import selectors
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botforge.cli import main
from botforge.content import (
    AUGMENTATIONS,
    POOL_SAMPLE_CAP,
    RETRY_SUFFIX,
    SCHEME_LEVELS,
    TARGETABLE_CUES,
    GenerationTask,
    LlmHttpBackend,
    PromptScheme,
    TemplateBackend,
    augment_prompt,
    augmentation_sentence,
    build_system_prompt,
    build_user_prompt,
    draw_pool_samples,
    generate_post,
    load_pools,
    make_backend,
    parse_scheme,
    post_steps,
    select_narrative,
    truncate_to_limit,
)
from botforge.cues import count_lexicon_terms
from botforge.errors import BackendError, SchemaError, ValidationError
from botforge.persona import default_population_path, load_seed_personas
from botforge.simcore import ScenarioConfig, run_simulation

from conftest import make_persona, ok_payload

NO_POOLS = {"hashtags": [], "urls": []}
SYSTEM = "You are a test persona."


def original_task(tid=1, narrative="Stage lineup changes again #StageWatch"):
    return GenerationTask(kind="original", tweet_id=tid, run_index=0, slot_index=0,
                          narrative=narrative)


def reply_task(tid=2, *, target_text="earlier post text", display="OtherAgent"):
    return GenerationTask(kind="reply", tweet_id=tid, run_index=0, slot_index=3,
                          target_tweet_id=1, target_text=target_text,
                          target_agent_id="o_01", target_display=display)


def quote_task(tid=3, target_text="quoted post text"):
    return GenerationTask(kind="quote", tweet_id=tid, run_index=0, slot_index=5,
                          target_tweet_id=1, target_text=target_text,
                          target_agent_id="o_01", target_display="OtherAgent")


def retweet_task(tid=4, target_text="post worth repeating"):
    return GenerationTask(kind="retweet", tweet_id=tid, run_index=0, slot_index=1,
                          target_tweet_id=1, target_text=target_text,
                          target_agent_id="o_01", target_display="OtherAgent")


class _FixedBackend:
    """Returns scripted texts in order; records every call."""

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.calls = []

    def complete(self, system_text, user_text, params):
        self.calls.append((system_text, user_text))
        return self.outputs.pop(0)


class TestSystemPrompt:
    def test_supportive(self):
        p = make_persona("x_01", "alpha", display="Star01", stance="support",
                         narratives=("N1 #a", "N2"))
        assert build_system_prompt(p) == (
            "You are a Star01, a member of the alpha community who takes a "
            "supportive stance. You will create social media posts on the "
            "following narratives N1 #a; N2."
        )

    def test_opposing(self):
        p = make_persona("x_01", "beta", display="Crit01", stance="oppose",
                         narratives=("Only one line",))
        assert build_system_prompt(p) == (
            "You are a Crit01, a member of the beta community who takes an "
            "opposing stance. You will create social media posts on the "
            "following narratives Only one line."
        )

    def test_neutral(self):
        p = make_persona("x_01", "gamma", display="Desk01", stance="neutral",
                         narratives=("Wire update",))
        assert "who takes a neutral stance" in build_system_prompt(p)


class TestScheme:
    def test_naive(self):
        s = parse_scheme("naive")
        assert s.level == "naive" and s.targeted_cues == ()

    def test_level_all(self):
        s = parse_scheme("guidelines:all")
        assert s.level == "guidelines"
        assert s.targeted_cues == TARGETABLE_CUES

    def test_single_cue(self):
        s = parse_scheme("targets:negative_sentiment")
        assert s == PromptScheme("targets", ("negative_sentiment",))

    def test_cue_order_normalized(self):
        s = PromptScheme("examples", ("positive_sentiment", "abusive"))
        assert s.targeted_cues == ("abusive", "positive_sentiment")

    def test_unknown_level(self):
        with pytest.raises(ValidationError, match="level"):
            parse_scheme("loud:all")

    def test_unknown_cue(self):
        with pytest.raises(ValidationError, match="cue"):
            parse_scheme("targets:sarcasm")

    def test_missing_colon(self):
        with pytest.raises(ValidationError):
            parse_scheme("guidelines")

    def test_non_naive_requires_cues(self):
        with pytest.raises(ValidationError):
            PromptScheme("targets", ())

    def test_augmentation_table_complete(self):
        non_naive = [lv for lv in SCHEME_LEVELS if lv != "naive"]
        assert set(AUGMENTATIONS) == {
            (cue, lv) for cue in TARGETABLE_CUES for lv in non_naive
        }

    def test_augmentation_sentence_lookup(self):
        assert augmentation_sentence("positive_sentiment", "guidelines") == (
            "Use positive terms and language"
        )
        with pytest.raises(ValidationError):
            augmentation_sentence("positive_sentiment", "naive")
        with pytest.raises(ValidationError):
            augmentation_sentence("sarcasm", "targets")


class TestAugmentPrompt:
    def test_naive_is_identity(self):
        assert augment_prompt("Base prompt.", PromptScheme()) == "Base prompt."

    def test_appends_one_sentence(self):
        s = PromptScheme("guidelines", ("negative_sentiment",))
        out = augment_prompt("Base prompt.", s)
        assert out == "Base prompt. " + AUGMENTATIONS[("negative_sentiment", "guidelines")]

    def test_appends_in_canonical_order(self):
        s = PromptScheme("targets", ("positive_sentiment", "reading_difficulty"))
        out = augment_prompt("Base.", s)
        first = AUGMENTATIONS[("reading_difficulty", "targets")]
        second = AUGMENTATIONS[("positive_sentiment", "targets")]
        assert out.index(first) < out.index(second)

    def test_sentence_already_in_a_narrative_is_appended(self, tmp_path, monkeypatch):
        # A persona may post on a narrative that reads like a steering
        # sentence: the population simulates, and the sentence is appended.
        sentence = AUGMENTATIONS[("negative_sentiment", "guidelines")]
        doc = json.loads(default_population_path().read_text(encoding="utf-8"))
        doc[0]["narratives"].append(sentence)
        pop_path = tmp_path / "pop.json"
        pop_path.write_text(json.dumps(doc), encoding="utf-8")
        prompts = set()

        class Recording(TemplateBackend):
            def complete(self, system_text, user_text, params):
                prompts.add(system_text)
                return super().complete(system_text, user_text, params)

        monkeypatch.setattr("botforge.simcore.make_backend",
                            lambda *a, seed, **kw: Recording(seed=seed))
        assert main(["simulate", "--population", str(pop_path), "--runs", "1",
                     "--scheme", "guidelines:negative_sentiment",
                     "--out-dir", str(tmp_path / "run")]) == 0
        persona = load_seed_personas(pop_path).get(doc[0]["id"])
        prompt = build_system_prompt(persona) + " " + sentence
        assert prompt in prompts and prompt.count(sentence) == 2


class TestTruncate:
    def test_short_unchanged(self):
        assert truncate_to_limit("short text") == "short text"

    def test_cuts_on_word_boundary(self):
        text = "word " * 100  # 500 chars
        out = truncate_to_limit(text.strip())
        assert len(out) <= 280
        assert not out.endswith(" ")
        assert out == ("word " * 56).strip()  # 56 words = 279 chars

    def test_single_long_token_hard_cut(self):
        out = truncate_to_limit("x" * 400)
        assert out == "x" * 280

    def test_exact_limit_kept(self):
        text = "a" * 280
        assert truncate_to_limit(text) == text

    @given(st.text(max_size=600), st.integers(10, 300))
    @settings(max_examples=150, deadline=None)
    def test_bounded_and_prefix(self, text, limit):
        out = truncate_to_limit(text, limit)
        assert len(out) <= limit
        assert text.startswith(out) or text.strip().startswith(out)


class TestGenerationTask:
    def test_original_requires_narrative(self):
        t = original_task()
        t.narrative = None
        with pytest.raises(ValidationError, match="narrative"):
            t.validate()

    def test_original_rejects_target(self):
        t = original_task()
        t.target_agent_id = "o_01"
        with pytest.raises(ValidationError, match="target"):
            t.validate()

    def test_reply_requires_target_agent(self):
        t = reply_task()
        t.target_agent_id = None
        with pytest.raises(ValidationError):
            t.validate()

    def test_quote_requires_target_tweet(self):
        t = quote_task()
        t.target_tweet_id = None
        with pytest.raises(ValidationError):
            t.validate()

    def test_slot_kind_defaults_to_kind(self):
        assert reply_task().slot_kind == "reply"

    def test_unknown_slot_kind_rejected(self):
        t = reply_task()
        t.slot_kind = "boost"
        with pytest.raises(ValidationError, match="unknown slot_kind 'boost'"):
            t.validate()

    def test_degraded_reply_valid_without_target_tweet(self):
        t = reply_task(target_text=None)
        t.target_tweet_id = None
        t.slot_kind = "retweet"
        t.validate()


class TestUserPrompt:
    def test_original_embeds_narrative(self):
        out = build_user_prompt(original_task(), NO_POOLS)
        assert '"Stage lineup changes again #StageWatch"' in out
        assert "Hashtag pool: (none). URL pool: (none)" in out

    def test_reply_embeds_target_and_mention_instruction(self):
        out = build_user_prompt(reply_task(), NO_POOLS)
        assert '"earlier post text"' in out
        assert "Mention @OtherAgent." in out

    def test_degraded_reply_uses_mention_form(self):
        out = build_user_prompt(reply_task(target_text=None), NO_POOLS)
        assert "addressed to @OtherAgent" in out
        assert "who posted" not in out

    def test_small_pools_fully_listed(self):
        pools = {"hashtags": ["#a", "#b"], "urls": ["https://u.example/1"]}
        out = build_user_prompt(original_task(), pools)
        assert "Hashtag pool: #a #b." in out
        assert "URL pool: https://u.example/1" in out

    def test_large_pools_sampled_to_cap(self):
        pools = {"hashtags": [f"#t{i}" for i in range(12)], "urls": ["https://u.example/1"]}
        sample = draw_pool_samples(pools, [(np.random.default_rng(0), 1)])[0][0]
        hashtags = sample["hashtags"]
        assert len(hashtags) == POOL_SAMPLE_CAP == len(set(hashtags))
        assert hashtags == [h for h in pools["hashtags"] if h in hashtags]  # pool order kept
        assert sample["urls"] == pools["urls"]  # a small pool is listed whole
        out = build_user_prompt(original_task(), sample)
        assert f"Hashtag pool: {' '.join(hashtags)}." in out


class TestPools:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "pools.json"
        path.write_text(json.dumps({"hashtags": ["#x"], "urls": []}))
        assert load_pools(path) == {"hashtags": ["#x"], "urls": []}

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "pools.json"
        path.write_text(json.dumps({"hashtags": ["#x"]}))
        with pytest.raises(SchemaError):
            load_pools(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "pools.json"
        path.write_text(json.dumps({"hashtags": "#x", "urls": []}))
        with pytest.raises(SchemaError):
            load_pools(path)

    def test_shipped_pools_load(self, pools):
        assert pools["hashtags"] and pools["urls"]
        assert all(h.startswith("#") for h in pools["hashtags"])
        assert all(u.startswith("https://") for u in pools["urls"])


def _choice_samples(pools, rng, k):
    """k slices as Generator.choice draws them: one call per pool above the cap, hashtags first."""

    def one(items):
        if len(items) <= POOL_SAMPLE_CAP:
            return items
        picked = rng.choice(len(items), size=POOL_SAMPLE_CAP, replace=False)
        return [items[i] for i in sorted(picked.tolist())]

    return [{"hashtags": one(pools["hashtags"]), "urls": one(pools["urls"])} for _ in range(k)]


def _sized_pools(n_hashtags, n_urls):
    return {"hashtags": [f"#t{i}" for i in range(n_hashtags)],
            "urls": [f"https://u.example/{i}" for i in range(n_urls)]}


_BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                   np.random.SFC64)


def _rng(seed, buffered=False, bit_generator=np.random.PCG64):
    rng = np.random.Generator(bit_generator(seed))
    if buffered:
        # Draws one 32-bit half and buffers the other; MT19937 makes 32-bit outputs, no halves.
        rng.integers(0, 10, dtype=np.uint32)
        assert rng.bit_generator.state.get("has_uint32", 1) == 1
    return rng


def _state(rng) -> dict:
    """The bit generator's state, every array in it (MT19937's key, Philox's buffer) as a list."""

    def plain(value):
        if isinstance(value, dict):
            return {name: plain(v) for name, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def _assert_same_draws(pools, requests) -> None:
    """draw_pool_samples gives each of requests' generators Generator.choice's slices and end state.

    requests holds (make_rng, k) pairs.
    """
    batch = [(make_rng(), k) for make_rng, k in requests]
    reference = [(make_rng(), k) for make_rng, k in requests]
    drawn = draw_pool_samples(pools, batch)
    assert drawn == [_choice_samples(pools, rng, k) for rng, k in reference]
    assert [_state(rng) for rng, _ in batch] == [_state(rng) for rng, _ in reference]


_pool_size = st.integers(0, 40)
_request = st.builds(lambda seed, buffered, bit_generator, k:
                     ((lambda: _rng(seed, buffered, bit_generator)), k),
                     st.integers(0, 2**64 - 1), st.booleans(), st.sampled_from(_BIT_GENERATORS),
                     st.integers(0, 30))


class TestPoolSampleDraws:
    @settings(max_examples=200, deadline=None)
    @given(n_hashtags=_pool_size, n_urls=_pool_size, requests=st.lists(_request, max_size=4))
    def test_block_equals_sequential_choice(self, n_hashtags, n_urls, requests):
        _assert_same_draws(_sized_pools(n_hashtags, n_urls), requests)

    @settings(max_examples=50, deadline=None)
    @given(n_hashtags=_pool_size, n_urls=_pool_size, seed=st.integers(0, 2**64 - 1),
           buffered=st.booleans(), bit_generator=st.sampled_from(_BIT_GENERATORS))
    def test_one_slice_is_one_choice_call_per_pool(self, n_hashtags, n_urls, seed, buffered,
                                                   bit_generator):
        pools = _sized_pools(n_hashtags, n_urls)
        rng, reference = (_rng(seed, buffered, bit_generator) for _ in range(2))
        assert draw_pool_samples(pools, [(rng, 1)]) == [_choice_samples(pools, reference, 1)]
        assert _state(rng) == _state(reference)

    def test_real_rejection_redraws_as_choice_does(self):
        # A buffered half of 0 is the first draw; on 7 items Floyd's first bound is 3, and
        # Lemire's method redraws 0 * 3, whose low 32 bits are below 2**32 % 3 = 1.
        def rigged():
            rng = np.random.default_rng(5)
            rng.bit_generator.state = dict(rng.bit_generator.state, has_uint32=1, uinteger=0)
            return rng

        plain = (lambda: _rng(9), 3)
        for k in (1, 4):
            _assert_same_draws(_sized_pools(7, 9), [plain, (rigged, k), plain])
        _assert_same_draws(_sized_pools(8, 9), [(rigged, 4)])  # bound 4: no redraw

    def test_pools_past_ten_thousand_items(self):
        # Generator.choice keeps to Floyd's algorithm for 5 of more than 10,000 items too.
        requests = [(lambda: _rng(3), 2), (lambda: _rng(4, True, np.random.MT19937), 1)]
        for n in (10_000, 10_001, 50_000):
            _assert_same_draws(_sized_pools(n, 8), requests)


class TestSelectNarrative:
    def test_draws_from_persona(self):
        p = make_persona("x_01", narratives=("One", "Two", "Three"))
        rng = np.random.default_rng(0)
        seen = {select_narrative(p, rng) for _ in range(60)}
        assert seen == {"One", "Two", "Three"}


class TestTemplateBackend:
    def test_deterministic(self):
        a = TemplateBackend(seed=5).complete("sys", "user", {})
        b = TemplateBackend(seed=5).complete("sys", "user", {})
        assert a == b

    def test_seed_changes_stream(self):
        p = make_persona("x_01")
        sys_text = build_system_prompt(p)
        user = build_user_prompt(original_task(), NO_POOLS)
        outs = {TemplateBackend(seed=s).complete(sys_text, user, {}) for s in range(8)}
        assert len(outs) > 1

    def test_original_embeds_narrative(self, backend):
        user = build_user_prompt(original_task(), NO_POOLS)
        out = backend.complete("sys", user, {})
        assert "Stage lineup changes again #StageWatch" in out

    def test_quote_snippet_mentions_author(self, backend):
        user = build_user_prompt(quote_task(target_text="x" * 200), NO_POOLS)
        out = backend.complete("sys", user, {})
        assert "@OtherAgent" in out

    def test_unrecognized_prompt_still_answers(self, backend):
        out = backend.complete("sys", "free-form request", {})
        assert out.startswith("Scheduled note ")

    def test_pool_items_come_from_prompt(self, backend):
        pools = {"hashtags": ["#OnlyTag"], "urls": ["https://only.example/u"]}
        for tid in range(40):
            task = original_task(tid, narrative="Stage lineup changes again")
            user = build_user_prompt(task, pools)
            out = backend.complete("sys", user, {})
            for tok in out.split():
                if tok.startswith("#"):
                    assert tok == "#OnlyTag"
                if tok.startswith("https://"):
                    assert tok == "https://only.example/u"

    def test_outputs_avoid_loaded_lexicons(self, backend, lexicons):
        texts = []
        for tid in range(30):
            for task in (original_task(tid), reply_task(tid + 100), quote_task(tid + 200)):
                user = build_user_prompt(task, NO_POOLS)
                texts.append(backend.complete("sys", user, {}))
        for cat in ("abusive", "expletive", "positive", "negative"):
            assert sum(count_lexicon_terms(t, lexicons[cat]) for t in texts) == 0

    def test_expansion_batch_is_valid_json(self, backend):
        out = backend.complete(
            "sys", "Generate exactly 4 new agent personas. Example personas: []", {}
        )
        records = json.loads(out)
        assert len(records) == 4
        assert all(r["id"].startswith("gen_") for r in records)


class TestGeneratePost:
    def test_retweet_bypasses_backend(self):
        p = make_persona("x_01", display="Poster01")

        class _Explodes:
            def complete(self, *a):
                raise AssertionError("backend must not be called for retweets")

        t = generate_post(p, retweet_task(), SYSTEM, None, _Explodes())
        assert t.text == "RT @OtherAgent: post worth repeating"
        assert t.kind == "retweet"
        assert t.mentions == ("@OtherAgent",)

    def test_reply_mention_prepended_when_missing(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["no mention in this text"])
        t = generate_post(p, reply_task(), SYSTEM, NO_POOLS, backend)
        assert t.text.startswith("@OtherAgent ")

    def test_reply_mention_not_duplicated(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["@OtherAgent already present"])
        t = generate_post(p, reply_task(), SYSTEM, NO_POOLS, backend)
        assert t.text == "@OtherAgent already present"

    def test_long_reply_keeps_its_mention_after_truncation(self):
        # The target is named only past the 280-character cut.
        text = "word " * 58 + "@EthalFan02"
        assert len(text) == 301 and "@EthalFan02" not in truncate_to_limit(text)
        backend = _FixedBackend([text])
        t = generate_post(make_persona("x_01"), reply_task(display="EthalFan02"), SYSTEM,
                          NO_POOLS, backend)
        assert t.text.startswith("@EthalFan02 word ") and len(t.text) <= 280
        assert t.mentions == ("@EthalFan02",)

    def test_longer_handle_is_not_the_mention(self):
        backend = _FixedBackend(["@EthalFan029 hello"])
        t = generate_post(make_persona("x_01"), reply_task(display="EthalFan02"), SYSTEM,
                          NO_POOLS, backend)
        assert t.text == "@EthalFan02 @EthalFan029 hello"
        assert t.mentions == ("@EthalFan02", "@EthalFan029")

    @pytest.mark.parametrize("text", ["@OtherAgent, fair point.", "@OtherAgent: noted!",
                                      "Thanks @OtherAgent."])
    def test_mention_followed_by_punctuation_counts(self, text):
        for task in (reply_task(), quote_task()):
            t = generate_post(make_persona("x_01"), task, SYSTEM, NO_POOLS,
                              _FixedBackend([text]))
            assert t.text == text
            assert t.mentions == ("@OtherAgent",)

    def test_empty_output_retried_once(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["", "second try text"])
        events = []
        t = generate_post(p, original_task(), SYSTEM, NO_POOLS, backend,
                          on_event=events.append)
        assert t.text == "second try text"
        assert len(backend.calls) == 2
        assert backend.calls[1][1].endswith("Respond with the tweet text only.")
        assert any("retry" in e for e in events)

    def test_double_empty_fails(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["", "   "])
        with pytest.raises(BackendError, match="empty"):
            generate_post(p, original_task(), SYSTEM, NO_POOLS, backend)

    def test_long_output_truncated(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["word " * 100])
        t = generate_post(p, original_task(), SYSTEM, NO_POOLS, backend)
        assert len(t.text) <= 280

    def test_artifacts_recorded(self):
        p = make_persona("x_01")
        backend = _FixedBackend(["Take on #Tag with @Friend at https://u.example/x"])
        t = generate_post(p, original_task(), SYSTEM, NO_POOLS, backend)
        assert t.hashtags == ("#Tag",)
        assert t.mentions == ("@Friend",)
        assert t.urls == ("https://u.example/x",)

    def test_scheme_reaches_system_prompt(self, micro_pop):
        backend = _FixedBackend(["fine"] * 1000)
        scheme = PromptScheme("guidelines", ("positive_sentiment",))
        run_simulation(ScenarioConfig(seed=3, scheme=scheme), micro_pop, backend)
        by_persona = {build_system_prompt(p): p for p in micro_pop.personas}
        assert backend.calls
        for system_text, _ in backend.calls:
            assert system_text.endswith(" Use positive terms and language")
            base = system_text.removesuffix(" Use positive terms and language")
            assert base in by_persona


class TestPostSteps:
    """The one route from a task to its Tweet, driven by hand."""

    def test_wait_passes_through(self):
        sock = object()

        def ask(system_text, user_text):
            yield sock, selectors.EVENT_READ, 1.0
            return "after one wait"

        steps = post_steps(make_persona("x_01"), original_task(), SYSTEM, NO_POOLS, ask)
        wait = next(steps)
        assert wait[0] is sock and wait[1:] == (selectors.EVENT_READ, 1.0)
        with pytest.raises(StopIteration) as done:
            steps.send(None)
        assert done.value.value.text == "after one wait"

    def test_empty_text_asked_again(self):
        asked, events = [], []
        texts = iter([" ", "second try text"])

        def ask(system_text, user_text):
            asked.append((system_text, user_text))
            yield None, 0, 0.0
            return next(texts)

        steps = post_steps(make_persona("x_01"), original_task(), SYSTEM, NO_POOLS, ask,
                           events.append)
        assert next(steps) == steps.send(None) == (None, 0, 0.0)
        with pytest.raises(StopIteration) as done:
            steps.send(None)
        assert done.value.value.text == "second try text"
        assert asked[1] == (SYSTEM, asked[0][1] + RETRY_SUFFIX)
        assert events == ["retry: empty backend output"]

    def test_retweet_asks_nothing(self):
        def ask(system_text, user_text):
            raise AssertionError("a retweet asks for no text")

        with pytest.raises(StopIteration) as done:
            next(post_steps(make_persona("x_01"), retweet_task(), SYSTEM, None, ask))
        assert done.value.value.text == "RT @OtherAgent: post worth repeating"


class TestLlmHttpBackend:
    def test_requires_api_key(self, monkeypatch):
        monkeypatch.delenv("BOTFORGE_API_KEY", raising=False)
        with pytest.raises(BackendError, match="BOTFORGE_API_KEY"):
            LlmHttpBackend("https://api.example/v1/chat")

    @pytest.mark.parametrize("url", ["ftp://api.example/v1", "api.example/v1",
                                     "http://api.example:notaport/v1"])
    def test_rejects_non_http_url(self, monkeypatch, url):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        with pytest.raises(ValidationError, match="http"):
            LlmHttpBackend(url)

    def test_success_extracts_content(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        chat_server.replies.append((200, {}, ok_payload("hello")))
        backend = LlmHttpBackend(chat_server.url)
        out = backend.complete("sys", "user", {"model_name": "m", "temperature": 0.3})
        assert out == "hello"
        path, headers, body = chat_server.requests[0]
        assert path == "/v1/chat/completions"
        assert headers["Authorization"] == "Bearer k-test"
        assert body["model"] == "m"
        assert body["temperature"] == 0.3
        assert body["messages"][0] == {"role": "system", "content": "sys"}

    def test_retries_429_then_succeeds(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        monkeypatch.setattr("botforge.llm_http.time.sleep", lambda s: None)
        chat_server.replies.extend([(429, {}, {}), (503, {}, {}), (200, {}, ok_payload())])
        backend = LlmHttpBackend(chat_server.url, max_retries=3)
        assert backend.complete("s", "u", {}) == "generated text"
        assert len(chat_server.requests) == 3

    def test_retries_408_then_succeeds(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        monkeypatch.setattr("botforge.llm_http.time.sleep", lambda s: None)
        chat_server.replies.extend([(408, {}, {}), (200, {}, ok_payload())])
        backend = LlmHttpBackend(chat_server.url, max_retries=3)
        assert backend.complete("s", "u", {}) == "generated text"
        assert len(chat_server.requests) == 2

    @pytest.mark.parametrize("retry_after", ["0", "Wed, 21 Oct 2015 07:28:00 GMT", "3600"])
    def test_retry_after_replaces_backoff(self, monkeypatch, chat_server, retry_after):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        sleeps = []
        monkeypatch.setattr("botforge.llm_http.time.sleep", sleeps.append)
        chat_server.replies.append((429, {"Retry-After": retry_after}, {}))
        chat_server.replies.append((503, {}, {}))
        chat_server.replies.append((200, {}, ok_payload()))
        backend = LlmHttpBackend(chat_server.url, max_retries=3, backoff_s=30.0)
        assert backend.complete("s", "u", {}) == "generated text"
        wait = 3600.0 if retry_after == "3600" else 0.0  # MAX_RETRY_AFTER_S is still waited for
        assert sleeps == [wait, 60.0]  # the header's wait, then backoff_s * 2

    def test_retry_budget_exhausted(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        monkeypatch.setattr("botforge.llm_http.time.sleep", lambda s: None)
        chat_server.replies.append((500, {}, {}))
        backend = LlmHttpBackend(chat_server.url, max_retries=2)
        with pytest.raises(BackendError, match="3 attempts"):
            backend.complete("s", "u", {})
        assert len(chat_server.requests) == 3

    def test_transport_error_retried(self, monkeypatch):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        monkeypatch.setattr("botforge.llm_http.time.sleep", lambda s: None)
        with socket.create_server(("127.0.0.1", 0)) as sock:
            port = sock.getsockname()[1]  # closed again before the backend connects
        backend = LlmHttpBackend(f"http://127.0.0.1:{port}/v1", max_retries=1)
        with pytest.raises(BackendError, match="2 attempts.*transport error"):
            backend.complete("s", "u", {})

    def test_client_error_not_retried(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        chat_server.replies.append((400, {}, {"error": "bad request"}))
        backend = LlmHttpBackend(chat_server.url, max_retries=3)
        with pytest.raises(BackendError, match="HTTP 400") as exc:
            backend.complete("s", "u", {})
        assert len(chat_server.requests) == 1
        assert "bad request" in exc.value.raw_text

    def test_malformed_payload_rejected(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        chat_server.replies.append((200, {}, {"choices": []}))
        backend = LlmHttpBackend(chat_server.url)
        with pytest.raises(BackendError, match="choices"):
            backend.complete("s", "u", {})

    def test_non_json_payload_rejected(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        chat_server.replies.append((200, {}, b"<html>"))
        backend = LlmHttpBackend(chat_server.url)
        with pytest.raises(BackendError, match="not JSON") as exc:
            backend.complete("s", "u", {})
        assert exc.value.raw_text == "<html>"

    def test_deeply_nested_payload_rejected(self, monkeypatch, chat_server):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
        chat_server.replies.append((200, {}, b"[" * 100_000))
        backend = LlmHttpBackend(chat_server.url)
        with pytest.raises(BackendError, match="not JSON"):
            backend.complete("s", "u", {})


class TestMakeBackend:
    def test_template(self):
        backend = make_backend("template", seed=9)
        assert isinstance(backend, TemplateBackend)
        assert backend.seed == 9

    def test_llm_http_requires_base_url(self):
        # LlmHttpBackend's own check, before any API key is looked up.
        for base_url in (None, ""):
            with pytest.raises(ValidationError, match="requires a base_url"):
                make_backend("llm-http", base_url=base_url)

    def test_unknown_selector(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            make_backend("markov")
