"""Prompt assembly, generation backends, and tweet post-processing.

A generation request is a (system prompt, user prompt) pair: the system
prompt carries the persona and any cue-steering augmentation; the user
prompt carries the task (narrative, or the tweet being responded to) plus
the common hashtag/URL pools. post_steps is the one route from a task to
its Tweet, asking for the text through a generator of waits that
backend_ask picks for the backend. A backend is any object with
complete(system_text, user_text, params): a deterministic template
generator that makes the whole pipeline reproducible offline, or
botforge.llm_http's client for a chat-completion endpoint (re-exported).
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .corpus import TWEET_MAX_CHARS, Tweet
from .cues import classify_tokens
from .errors import BackendError, SchemaError, ValidationError, read_json
from .llm_http import DEFAULT_MODEL_NAME, LlmHttpBackend, wait_out  # noqa: F401  (re-exported)
from .persona import STANCES, Persona

SCHEME_LEVELS = ("naive", "guidelines", "examples", "targets")
# Canonical steering-cue order; augmentation sentences are appended in this order.
TARGETABLE_CUES = (
    "reading_difficulty",
    "abusive",
    "expletive",
    "negative_sentiment",
    "positive_sentiment",
)

# Built-in augmentation sentences, keyed (cue, level). The wording is load-bearing
# for reproduction studies: preserved character-for-character, typos included.
AUGMENTATIONS = {
    ("reading_difficulty", "guidelines"): "use complex conversational sentences",
    ("reading_difficulty", "examples"): (
        "Example tweet: A bittersweet moment of ending #AuraSight"
    ),
    ("reading_difficulty", "targets"): (
        "make the Flesch-Kinacd reading difficulty of the sentence between 0.10 and 0.12"
    ),
    ("abusive", "guidelines"): (
        "use abusive terms to help readers understand how they look like online"
    ),
    ("abusive", "examples"): "Example tweet: All Ethalian fans are better off dead",
    ("abusive", "targets"): (
        "have an average of 0.09-0.13 words in a sentence be abusive terms"
    ),
    ("expletive", "guidelines"): (
        "use expletives to help readers understand how they are used online"
    ),
    ("expletive", "examples"): "Example tweet: F*** Ethalian fans, they are such a**holes",
    ("expletive", "targets"): (
        "have an average of 0.08-0.12 words in a sentence be expletive terms"
    ),
    ("negative_sentiment", "guidelines"): "Use negative terms and language",
    ("negative_sentiment", "examples"): (
        "Example tweet is: Oliver’s voice gets really annoying after a few songs. "
        "Such a lack of variety."
    ),
    ("negative_sentiment", "targets"): (
        "have an average of 1.56-1.59 words in a sentence have negative sentiments"
    ),
    ("positive_sentiment", "guidelines"): "Use positive terms and language",
    ("positive_sentiment", "examples"): (
        "Example tweet is: Oliver is a brilliantly amazing singerr!! I love him so much!!!"
    ),
    ("positive_sentiment", "targets"): (
        "have an average of 2.88-3.10 words in a sentence have positive sentiments"
    ),
}

_STANCE_CLAUSE = {
    "support": "who takes a supportive stance",
    "oppose": "who takes an opposing stance",
    "neutral": "who takes a neutral stance",
}


@dataclass(frozen=True)
class PromptScheme:
    """Cue-steering level plus the cues it targets; naive means no steering."""

    level: str = "naive"
    targeted_cues: tuple[str, ...] = ()

    def __post_init__(self):
        if self.level not in SCHEME_LEVELS:
            raise ValidationError(f"unknown scheme level {self.level!r}")
        for cue in self.targeted_cues:
            if cue not in TARGETABLE_CUES:
                raise ValidationError(f"unknown cue name {cue!r}")
        if self.level != "naive" and not self.targeted_cues:
            raise ValidationError(f"scheme level {self.level!r} requires at least one cue")
        if self.level == "naive" and self.targeted_cues:
            raise ValidationError("scheme level 'naive' takes no cues")
        ordered = tuple(c for c in TARGETABLE_CUES if c in self.targeted_cues)
        object.__setattr__(self, "targeted_cues", ordered)


def parse_scheme(text: str) -> PromptScheme:
    """Parse a scheme spec: `naive`, or `<level>:<cue>[,<cue>...]`, or `<level>:all`."""
    text = text.strip()
    if text == "naive":
        return PromptScheme()
    if ":" not in text:
        raise ValidationError(
            f"scheme {text!r} must be 'naive' or '<level>:<cue,...>' (levels: {SCHEME_LEVELS})"
        )
    level, _, cue_spec = text.partition(":")
    cues = TARGETABLE_CUES if cue_spec.strip() == "all" else tuple(
        c.strip() for c in cue_spec.split(",") if c.strip()
    )
    return PromptScheme(level=level.strip(), targeted_cues=tuple(cues))


def augmentation_sentence(cue: str, level: str) -> str:
    """The built-in steering sentence for one cue at one non-naive level."""
    if cue not in TARGETABLE_CUES:
        raise ValidationError(f"unknown cue name {cue!r}")
    if level not in SCHEME_LEVELS or level == "naive":
        raise ValidationError(f"no augmentation sentences at level {level!r}")
    return AUGMENTATIONS[(cue, level)]


def build_system_prompt(p: Persona) -> str:
    """The persona system prompt, verbatim format.

    `You are a <persona description>. You will create social media posts on
    the following narratives <narrative list>.`
    """
    description = (
        f"{p.display_name}, a member of the {p.community} community "
        f"{_STANCE_CLAUSE[p.stance]}"
    )
    narrative_list = "; ".join(p.narratives)
    return (
        f"You are a {description}. "
        f"You will create social media posts on the following narratives {narrative_list}."
    )


def augment_prompt(base: str, scheme: PromptScheme) -> str:
    """Append the scheme's steering sentences to a prompt, canonical cue order.

    Not idempotent by design: callers apply it exactly once per prompt. The
    base may already hold a steering sentence's words (a persona's narrative,
    say); the sentences are appended all the same.
    """
    if scheme.level == "naive":
        return base
    out = base
    for cue in scheme.targeted_cues:
        out = out + " " + AUGMENTATIONS[(cue, scheme.level)]
    return out


def load_pools(path: str | Path) -> dict[str, list[str]]:
    """Common hashtag/URL pools: JSON {"hashtags": [...], "urls": [...]}."""
    doc = read_json(path)
    if not isinstance(doc, dict) or set(doc) != {"hashtags", "urls"}:
        raise SchemaError(str(path), 'pools file must be {"hashtags": [...], "urls": [...]}')
    for key in ("hashtags", "urls"):
        if not isinstance(doc[key], list) or not all(
            isinstance(v, str) and v for v in doc[key]
        ):
            raise SchemaError(f"{path}:{key}", "must be an array of non-empty strings")
    return {"hashtags": list(doc["hashtags"]), "urls": list(doc["urls"])}


EMPTY_POOLS: dict[str, list[str]] = {"hashtags": [], "urls": []}


def default_pools_path() -> Path:
    """The shipped hashtag/URL pools."""
    return Path(__file__).parent / "data" / "pools" / "aurasight_pools.json"


def select_narrative(p: Persona, rng) -> str:
    """Uniform draw over the persona's narratives."""
    return p.narratives[int(rng.integers(len(p.narratives)))]


def truncate_to_limit(text: str, limit: int = TWEET_MAX_CHARS) -> str:
    """Cap text at limit characters, cutting at a word boundary when possible."""
    if len(text) <= limit:
        return text
    cut = text[:limit]
    if not text[limit].isspace():
        sp = cut.rfind(" ")
        if sp > 0:
            cut = cut[:sp]
    return cut.rstrip()


@dataclass(slots=True)
class GenerationTask:
    """One post to produce: what kind, for which slot, responding to what.

    slot_kind records the drawn slot (retweet/quote/reply) and can differ from
    kind when a missing target tweet degrades the interaction to a mention
    reply; it defaults to kind.
    """

    kind: str
    tweet_id: int
    run_index: int
    slot_index: int
    narrative: str | None = None
    target_tweet_id: int | None = None
    target_text: str | None = None
    target_agent_id: str | None = None
    target_display: str | None = None
    slot_kind: str | None = None

    def __post_init__(self):
        if self.slot_kind is None:
            self.slot_kind = self.kind

    def validate(self) -> None:
        """Tweet.violations' first for the post's fields, then the prompt inputs it needs."""
        problems = Tweet(self.tweet_id, "", self.kind, "", self.target_tweet_id,
                         self.target_agent_id, self.run_index, self.slot_index,
                         self.slot_kind).violations()
        if problems:
            raise ValidationError(problems[0])
        if self.kind == "original" and self.narrative is None:
            raise ValidationError("original task requires a narrative")
        if self.kind != "original" and self.target_display is None:
            raise ValidationError(f"{self.kind} task requires a target display name")
        if self.kind in ("retweet", "quote") and self.target_text is None:
            raise ValidationError(f"{self.kind} task requires a target text")


# --- User-prompt wording -------------------------------------------------
# These constants are this implementation's own phrasing; the template
# backend parses them back, so wording and parser must move together.

ORIGINAL_USER_PROMPT = (
    'Write one tweet about the narrative "{narrative}". Keep it under 280 characters. '
    "Hashtag pool: {hashtags}. URL pool: {urls}"
)
REPLY_USER_PROMPT = (
    'Write one reply tweet to @{display} who posted: "{target_text}". '
    "Mention @{display}. Keep it under 280 characters. "
    "Hashtag pool: {hashtags}. URL pool: {urls}"
)
QUOTE_USER_PROMPT = (
    'Write one quote tweet commenting on @{display} who posted: "{target_text}". '
    "Keep it under 280 characters. Hashtag pool: {hashtags}. URL pool: {urls}"
)
MENTION_USER_PROMPT = (
    "Write one tweet addressed to @{display}. Mention @{display}. "
    "Keep it under 280 characters. Hashtag pool: {hashtags}. URL pool: {urls}"
)
RETRY_SUFFIX = " Respond with the tweet text only."

POOL_SAMPLE_CAP = 5
_EMPTY_POOL_TEXT = "(none)"
_POOL_KEYS = ("hashtags", "urls")


def _draw_bounds(n: int) -> list[int]:
    """The exclusive bound of each draw of Generator.choice(n, POOL_SAMPLE_CAP,
    replace=False), in draw order; none for a pool that is listed whole.

    Floyd's algorithm draws from [0, j] for j = n-cap .. n-1, then the
    shuffle of its result from [0, i] for i = cap-1 .. 1.
    """
    if n <= POOL_SAMPLE_CAP:
        return []
    return [*range(n - POOL_SAMPLE_CAP + 1, n + 1), *range(POOL_SAMPLE_CAP, 1, -1)]


def _floyd_rows(draws: np.ndarray, n: int) -> np.ndarray:
    """Each row's Floyd sample of POOL_SAMPLE_CAP indexes of range(n), sorted.

    A draw that repeats an index already taken in its row takes j instead.
    """
    chosen = draws.copy()
    for c in range(1, POOL_SAMPLE_CAP):
        taken = (chosen[:, :c] == chosen[:, c, None]).any(axis=1)
        chosen[taken, c] = n - POOL_SAMPLE_CAP + c
    chosen.sort(axis=1)
    return chosen


def draw_pool_samples(pools: dict[str, list[str]], requests) -> list[list[dict[str, list[str]]]]:
    """For each (rng, k) of requests, k slices of the common pools drawn from rng in turn.

    A pool of more than POOL_SAMPLE_CAP items gives POOL_SAMPLE_CAP of them,
    kept in pool order: rng.choice(len(pool), POOL_SAMPLE_CAP, replace=False),
    sorted, for each such pool, hashtags first. A smaller pool is listed
    whole and draws nothing. rng ends in the state those choice calls leave.

    Each rng makes all its draws in one rng.integers call over an array of
    exclusive bounds, k rows of _draw_bounds. Given an array, integers draws
    each value with the bounded routine Generator.choice uses for its Floyd
    steps and its shuffle, so the values and the end state are choice's for
    every bit generator. The rows of all requests then pass together
    through Floyd's algorithm and a row sort (the shuffle's draws are taken
    and then sorted away).
    """
    sizes = [len(pools[key]) for key in _POOL_KEYS]
    bounds = [_draw_bounds(n) for n in sizes]
    highs = np.array([b for pool_bounds in bounds for b in pool_bounds], dtype=np.int64)
    draws = np.concatenate([np.empty((0, len(highs)), np.int64)] + [
        rng.integers(0, np.broadcast_to(highs, (k, len(highs)))) for rng, k in requests
    ])
    picked = []  # per pool, its slice for each row
    offset = 0
    for key, n, pool_bounds in zip(_POOL_KEYS, sizes, bounds):
        if pool_bounds:
            rows = _floyd_rows(draws[:, offset:offset + POOL_SAMPLE_CAP], n)
            picked.append(np.array(pools[key], dtype=object)[rows].tolist())
        else:
            picked.append([pools[key]] * len(draws))
        offset += len(pool_bounds)
    slices = [{"hashtags": h, "urls": u} for h, u in zip(*picked)]
    ends = np.cumsum([0] + [k for _, k in requests]).tolist()
    return [slices[a:b] for a, b in zip(ends, ends[1:])]


def _pool_text(items: list[str]) -> str:
    return " ".join(items) if items else _EMPTY_POOL_TEXT


def build_user_prompt(task: GenerationTask, sample: dict[str, list[str]]) -> str:
    """The task-side prompt, listing a draw_pool_samples slice of the common pools."""
    hashtags = _pool_text(sample["hashtags"])
    urls = _pool_text(sample["urls"])
    if task.kind == "original":
        return ORIGINAL_USER_PROMPT.format(
            narrative=task.narrative, hashtags=hashtags, urls=urls
        )
    if task.kind == "reply" and task.target_text is None:
        return MENTION_USER_PROMPT.format(
            display=task.target_display, hashtags=hashtags, urls=urls
        )
    template = REPLY_USER_PROMPT if task.kind == "reply" else QUOTE_USER_PROMPT
    return template.format(
        display=task.target_display,
        target_text=task.target_text,
        hashtags=hashtags,
        urls=urls,
    )


# --- Backends -------------------------------------------------------------


# Canned sentence material for the template backend. Deliberately free of
# sentiment/expletive/abusive lexicon terms so a naive template corpus
# measures near zero on those cues.
_ORIGINAL_LEADS = (
    "Talking about this today:",
    "Seen around the contest:",
    "Latest from the arena:",
    "On the schedule again:",
    "Notes from rehearsal:",
    "Watching the stage tonight:",
)
_REPLY_BANK = (
    "Noted, that matches what the schedule shows.",
    "Understood, the broadcast covered that as well.",
    "That lines up with the rehearsal notes.",
    "The arena feed mentioned that earlier.",
    "Fair point about the running order.",
)
_QUOTE_LEADS = (
    "Adding context to this from",
    "Passing this along from",
    "For the record, via",
    "One more data point, via",
)
_MENTION_BANK = (
    "Checking in ahead of the next rehearsal block.",
    "Any word on the updated running order?",
    "The schedule board just changed again.",
    "Looking for the latest arena notes.",
)
_GEN_COMMUNITIES = (
    "Stage crew watchers",
    "Ballot trackers",
    "Broadcast schedulers",
    "Arena travelers",
)
_GEN_NARRATIVES = (
    "Rehearsal blocks for #AuraSight are posted ahead of the live shows",
    "Stage layouts at the arena change between rounds #AuraSight",
    "Running order updates land before each broadcast #AuraSight",
    "Ticket windows for the arena open on a rolling basis",
    "Jury briefings happen the morning of each show #AuraSight",
    "Camera rehearsals run a full day before the broadcast",
)
_GEN_NAME_STEMS = (
    "SignalWatcher",
    "StageSide",
    "BallotDesk",
    "ArenaNote",
    "GreenRoom",
    "RunOrder",
)

_EXPAND_RE = re.compile(r"Generate exactly (\d+) new agent personas")
_ORIGINAL_RE = re.compile(r'Write one tweet about the narrative "(?P<narrative>.*)"\. Keep')
_REPLY_RE = re.compile(
    r'Write one reply tweet to @(?P<display>\w+) who posted: "(?P<target>.*)"\. Mention'
)
_QUOTE_RE = re.compile(
    r'Write one quote tweet commenting on @(?P<display>\w+) who posted: "(?P<target>.*)"\. Keep'
)
_MENTION_RE = re.compile(r"Write one tweet addressed to @(?P<display>\w+)\.")
_POOLS_RE = re.compile(r"Hashtag pool: (?P<hashtags>.*?)\. URL pool: (?P<urls>.*)\Z", re.DOTALL)


class TemplateBackend:
    """Deterministic offline generator: a pure function of (prompts, seed).

    It recognizes this package's own prompt wording, draws from canned
    neutral sentence banks, and reuses pool items listed in the prompt.
    Stateless per call: the simulator calls it inline, on the calling thread.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def _rng(self, system_text: str, user_text: str) -> tuple[random.Random, str]:
        digest = hashlib.sha256(
            f"{self.seed}\x1f{system_text}\x1f{user_text}".encode("utf-8")
        ).digest()
        return random.Random(int.from_bytes(digest[:8], "big")), digest[:4].hex()

    @staticmethod
    def _pools(user_text: str) -> tuple[list[str], list[str]]:
        m = _POOLS_RE.search(user_text)
        if not m:
            return [], []
        hashtags = [] if m["hashtags"] == _EMPTY_POOL_TEXT else m["hashtags"].split()
        urls = [] if m["urls"] == _EMPTY_POOL_TEXT else m["urls"].split()
        return hashtags, urls

    def complete(self, system_text: str, user_text: str, params: dict) -> str:
        rng, h8 = self._rng(system_text, user_text)
        m = _EXPAND_RE.search(user_text)
        if m:
            return self._expand(int(m.group(1)), rng, h8)
        hashtags, urls = self._pools(user_text)

        m = _ORIGINAL_RE.search(user_text)
        if m:
            text = f"{rng.choice(_ORIGINAL_LEADS)} {m['narrative']}"
            if hashtags and rng.random() < 0.5:
                text += f" {rng.choice(hashtags)}"
            if urls and rng.random() < 0.25:
                text += f" {rng.choice(urls)}"
            return text

        m = _REPLY_RE.search(user_text)
        if m:
            body = rng.choice(_REPLY_BANK)
            # Mention included only sometimes: the forced-mention post-processing
            # path must stay exercised.
            if rng.random() < 0.5:
                return f"@{m['display']} {body}"
            return body

        m = _QUOTE_RE.search(user_text)
        if m:
            snippet = truncate_to_limit(m["target"], 80)
            return f'{rng.choice(_QUOTE_LEADS)} @{m["display"]}: "{snippet}"'

        m = _MENTION_RE.search(user_text)
        if m:
            body = rng.choice(_MENTION_BANK)
            if rng.random() < 0.5:
                return f"@{m['display']} {body}"
            return body

        return f"Scheduled note {h8} for the current cycle."

    def _expand(self, count: int, rng: random.Random, h8: str) -> str:
        records = []
        for i in range(count):
            records.append(
                {
                    "id": f"gen_{h8}_{i:03d}",
                    "display_name": f"{rng.choice(_GEN_NAME_STEMS)}{rng.randrange(10, 100)}",
                    "community": rng.choice(_GEN_COMMUNITIES),
                    "narratives": rng.sample(_GEN_NARRATIVES, k=2),
                    "stance": rng.choice(STANCES),
                    "posts_per_run": [3, 10],
                    "retweets_per_run": [2, 5],
                    "replies_per_run": [1, 5],
                    "quotes_per_run": [0, 2],
                    "is_leader": False,
                }
            )
        return json.dumps(records)


def make_backend(
    selector: str,
    *,
    seed: int = 0,
    base_url: str | None = None,
    max_retries: int = 3,
    backoff_s: float = 0.5,
) -> TemplateBackend | LlmHttpBackend:
    """Construct a backend from its config selector: `template` or `llm-http`."""
    if selector == "template":
        return TemplateBackend(seed=seed)
    if selector == "llm-http":
        return LlmHttpBackend(base_url, max_retries=max_retries, backoff_s=backoff_s)
    raise ValidationError(f"unknown backend selector {selector!r}")


def _extract_artifacts(text: str) -> tuple[list[str], list[str], list[str]]:
    """Mentions, hashtags and URLs of a post, classified as the cue extractor does."""
    toks = classify_tokens(text)
    return toks["mentions"], toks["hashtags"], toks["urls"]


def post_steps(p: Persona, task: GenerationTask, system_text: str,
               sample: dict[str, list[str]] | None, ask, on_event=None):
    """Generator: the finished Tweet of one generation task, its text got through ask.

    system_text is the persona's system prompt with the scheme's steering
    sentences (augment_prompt(build_system_prompt(p), scheme)), the same for
    every post of the persona; sample is the draw_pool_samples slice the user
    prompt lists, None for a retweet. ask(system_text, user_text) is a
    generator of waits, yielded on unchanged, that returns the backend's text.

    The task is validated first. A retweet copies its target verbatim and
    asks nothing. An empty text (blank once stripped) is asked for once
    more, with RETRY_SUFFIX appended and the retry reported through
    on_event; a second one is a BackendError. All texts are capped at 280
    characters on a word boundary. A reply or quote whose capped text has no
    @<display name> of its target among its extracted mentions gets it
    prepended, and is capped again.
    """
    task.validate()
    if task.kind == "retweet":
        text = f"RT @{task.target_display}: {task.target_text}"
    else:
        user_text = build_user_prompt(task, sample)
        if not (text := (yield from ask(system_text, user_text)).strip()):
            if on_event is not None:
                on_event("retry: empty backend output")
            if not (text := (yield from ask(system_text, user_text + RETRY_SUFFIX)).strip()):
                raise BackendError("backend returned empty output twice for one task")
    text = truncate_to_limit(text)
    mentions, hashtags, urls = _extract_artifacts(text)
    if task.kind in ("reply", "quote"):
        mention = f"@{task.target_display}"
        if mention not in mentions:
            text = truncate_to_limit(f"{mention} {text}")
            mentions, hashtags, urls = _extract_artifacts(text)
    return Tweet(
        id=task.tweet_id,
        author_id=p.id,
        kind=task.kind,
        text=text,
        target_tweet_id=task.target_tweet_id,
        target_agent_id=task.target_agent_id,
        run_index=task.run_index,
        slot_index=task.slot_index,
        slot_kind=task.slot_kind,
        mentions=mentions,
        hashtags=hashtags,
        urls=urls,
    )


def backend_ask(backend, params: dict):
    """post_steps' ask for backend: an LlmHttpBackend's _exchange, or for any other
    backend a generator that makes no wait around its blocking complete."""
    if isinstance(backend, LlmHttpBackend):
        return partial(backend._exchange, params=params)

    def ask(system_text: str, user_text: str):
        yield from ()
        return backend.complete(system_text, user_text, params)

    return ask


def generate_post(p: Persona, task: GenerationTask, system_text: str,
                  sample: dict[str, list[str]] | None, backend, *, params: dict | None = None,
                  on_event=None) -> Tweet:
    """Produce the finished Tweet for one generation task: post_steps, asking
    through backend_ask, its waits made on the calling thread by wait_out."""
    ask = backend_ask(backend, dict(params or {}))
    return wait_out(post_steps(p, task, system_text, sample, ask, on_event))
