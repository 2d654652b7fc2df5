"""Prompt assembly, generation backends, and tweet post-processing.

A generation request is a (system prompt, user prompt) pair: the system
prompt carries the persona and any cue-steering augmentation; the user
prompt carries the task (narrative, or the tweet being responded to) plus
the common hashtag/URL pools. Backends are pluggable: an HTTP client for a
chat-completion endpoint, and a deterministic template generator that makes
the whole pipeline reproducible offline.
"""
from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import time
from dataclasses import dataclass
from email.utils import parsedate_to_datetime
from pathlib import Path
from urllib.parse import urlsplit

from .cues import classify_tokens
from .errors import BackendError, SchemaError, ValidationError
from .persona import STANCES, Persona

API_KEY_ENV = "BOTFORGE_API_KEY"
DEFAULT_MODEL_NAME = "gpt-4.1-mini"
TWEET_MAX_CHARS = 280

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

    Not idempotent by design: callers apply it exactly once per prompt. In
    debug builds a sentence already present trips the re-application check.
    """
    if scheme.level == "naive":
        return base
    out = base
    for cue in scheme.targeted_cues:
        sentence = AUGMENTATIONS[(cue, scheme.level)]
        if __debug__ and sentence in out:
            raise ValidationError(
                f"augmentation for {cue!r} already present: augment_prompt applied twice?"
            )
        out = out + " " + sentence
    return out


def load_pools(path: str | Path) -> dict[str, list[str]]:
    """Common hashtag/URL pools: JSON {"hashtags": [...], "urls": [...]}."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"not valid JSON: {exc}") from exc
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


TASK_KINDS = ("original", "retweet", "quote", "reply")


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
        if self.kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.kind!r}")
        if self.kind == "original":
            if self.narrative is None:
                raise ValidationError("original task requires a narrative")
            if self.target_agent_id is not None or self.target_tweet_id is not None:
                raise ValidationError("original task must not carry a target")
            return
        if self.target_agent_id is None or self.target_display is None:
            raise ValidationError(f"{self.kind} task requires a target agent")
        if self.kind in ("retweet", "quote") and (
            self.target_tweet_id is None or self.target_text is None
        ):
            raise ValidationError(f"{self.kind} task requires a target tweet")


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


def _sample(items: list[str], rng) -> list[str]:
    if len(items) <= POOL_SAMPLE_CAP:
        return items
    idx = sorted(rng.choice(len(items), size=POOL_SAMPLE_CAP, replace=False).tolist())
    return [items[i] for i in idx]


def sample_pools(pools: dict[str, list[str]], rng) -> dict[str, list[str]]:
    """The slice of each common pool that one prompt lists, hashtags drawn first.

    A pool of more than POOL_SAMPLE_CAP items gives POOL_SAMPLE_CAP of them,
    drawn without replacement and kept in pool order. A smaller pool is
    listed whole and draws nothing, so a sample passed back in as the pools
    comes out unchanged, whatever the rng.
    """
    return {"hashtags": _sample(pools["hashtags"], rng), "urls": _sample(pools["urls"], rng)}


def _pool_text(items: list[str]) -> str:
    return " ".join(items) if items else _EMPTY_POOL_TEXT


def build_user_prompt(task: GenerationTask, pools: dict[str, list[str]], rng) -> str:
    """The task-side prompt, with an rng-sampled slice of the common pools."""
    sample = sample_pools(pools, rng)
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


class ContentBackend:
    """Interface: complete(system_text, user_text, params) -> generated text.

    Implementations must be safe for concurrent calls. io_bound says a call
    mostly waits on something outside the process, so the simulator keeps
    up to max_in_flight calls outstanding; a backend that computes its text
    in Python sets it False and is called inline, one call at a time. A
    backend without the attribute counts as io_bound.
    """

    io_bound = True

    def complete(self, system_text: str, user_text: str, params: dict) -> str:
        raise NotImplementedError


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


class TemplateBackend(ContentBackend):
    """Deterministic offline generator: a pure function of (prompts, seed).

    It recognizes this package's own prompt wording, draws from canned
    neutral sentence banks, and reuses pool items listed in the prompt.
    Stateless per call, hence trivially thread-safe.
    """

    io_bound = False  # pure CPU: threads would only add overhead

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


# Statuses worth a retry: timeout, rate limit, and every 5xx.
RETRY_STATUSES = frozenset({408, 429})


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks to wait (delta-seconds or HTTP-date), or None."""
    if value is None:
        return None
    try:
        return max(0.0, float(int(value)))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


class LlmHttpBackend(ContentBackend):
    """HTTP client for a chat-completion endpoint.

    POSTs {model, temperature, messages} to the configured URL with a bearer
    token from the environment. Transport errors, 408, 429 and 5xx are
    retried up to the configured cap, after the server's Retry-After when it
    sends one and otherwise after exponential backoff; nothing is retried
    beyond the cap. Each request opens its own connection and closes it
    before returning, so calls from several threads share no state. Proxy
    environment variables are not read.
    """

    def __init__(
        self,
        base_url: str,
        *,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_s: float = 0.5,
        timeout_s: float = 30.0,
    ):
        if not base_url:
            raise ValidationError("llm-http backend requires a base_url")
        url = urlsplit(base_url)
        try:
            port = url.port
        except ValueError:  # a port that is not a number in range
            port = 0
        if url.scheme not in ("http", "https") or not url.hostname or port == 0:
            raise ValidationError(f"base_url {base_url!r} must be an http:// or https:// URL")
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(
                f"no API key: set the {API_KEY_ENV} environment variable"
            )
        self.base_url = base_url
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._host = url.hostname
        self._port = port or (443 if url.scheme == "https" else 80)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._api_key = key
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.timeout_s = float(timeout_s)

    def _post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """One request on a connection of its own: (status, Retry-After, body)."""
        conn = self._connection_class(self._host, self._port, timeout=self.timeout_s)
        try:
            conn.request("POST", self._path, body=body, headers={
                "Authorization": f"Bearer {self._api_key}",
                "Content-Type": "application/json",
                "Connection": "close",
            })
            resp = conn.getresponse()
            return resp.status, resp.getheader("Retry-After"), resp.read()
        finally:
            conn.close()

    def complete(self, system_text: str, user_text: str, params: dict) -> str:
        body = {
            "model": params.get("model_name", DEFAULT_MODEL_NAME),
            "temperature": params.get("temperature", 0.0),
            "messages": [
                {"role": "system", "content": system_text},
                {"role": "user", "content": user_text},
            ],
        }
        if params.get("max_tokens") is not None:
            body["max_tokens"] = params["max_tokens"]
        data = json.dumps(body, allow_nan=False).encode("utf-8")

        last_error = "no attempt made"
        retry_after = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(
                    retry_after if retry_after is not None
                    else self.backoff_s * (2 ** (attempt - 1))
                )
            try:
                status, retry_header, payload = self._post(data)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport error: {exc}"
                retry_after = None
                continue
            if status == 200:
                return self._extract(payload)
            if status in RETRY_STATUSES or status >= 500:
                last_error = f"HTTP {status}"
                retry_after = _retry_after_s(retry_header)
                continue
            raise BackendError(
                f"backend rejected the request: HTTP {status}",
                raw_text=payload.decode("utf-8", "replace"),
            )
        raise BackendError(
            f"backend unreachable after {self.max_retries + 1} attempts ({last_error})"
        )

    @staticmethod
    def _extract(payload: bytes) -> str:
        raw_text = payload.decode("utf-8", "replace")
        try:
            doc = json.loads(payload)
        except ValueError:
            raise BackendError("backend response was not JSON", raw_text=raw_text) from None
        try:
            content = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(
                "backend response missing choices[0].message.content", raw_text=raw_text
            ) from None
        if not isinstance(content, str):
            raise BackendError("backend message content was not text", raw_text=raw_text)
        return content


def make_backend(
    selector: str,
    *,
    seed: int = 0,
    base_url: str | None = None,
    max_retries: int = 3,
    backoff_s: float = 0.5,
    timeout_s: float = 30.0,
) -> ContentBackend:
    """Construct a backend from its config selector: `template` or `llm-http`."""
    if selector == "template":
        return TemplateBackend(seed=seed)
    if selector == "llm-http":
        if not base_url:
            raise ValidationError("llm-http backend requires base_url in the config")
        return LlmHttpBackend(
            base_url, max_retries=max_retries, backoff_s=backoff_s, timeout_s=timeout_s
        )
    raise ValidationError(f"unknown backend selector {selector!r}")


def _extract_artifacts(text: str) -> tuple[list[str], list[str], list[str]]:
    """Mentions, hashtags and URLs of a post, classified as the cue extractor does."""
    toks = classify_tokens(text)
    return toks.mentions, toks.hashtags, toks.urls


def generate_post(
    p: Persona,
    task: GenerationTask,
    scheme: PromptScheme,
    pools: dict[str, list[str]],
    backend: ContentBackend,
    rng,
    *,
    params: dict | None = None,
    on_event=None,
):
    """Produce the finished Tweet for one generation task.

    Prompt pools are sampled with rng as build_user_prompt does; pools that
    are already a sample_pools slice draw nothing, so rng may then be None.
    Retweets are verbatim copies and never call the backend. Replies and
    quotes are guaranteed to mention the target's display name (prepended
    when the backend leaves it out). All texts are capped at 280 characters
    on a word boundary. An empty backend output is regenerated once, with the
    retry reported through on_event.
    """
    from .simcore import Tweet  # deferred: simcore imports this module at top level

    task.validate()
    params = dict(params or {})

    if task.kind == "retweet":
        text = f"RT @{task.target_display}: {task.target_text}"
    else:
        system_text = augment_prompt(build_system_prompt(p), scheme)
        user_text = build_user_prompt(task, pools, rng)
        text = backend.complete(system_text, user_text, params).strip()
        if not text:
            if on_event is not None:
                on_event("retry: empty backend output")
            text = backend.complete(system_text, user_text + RETRY_SUFFIX, params).strip()
        if not text:
            raise BackendError("backend returned empty output twice for one task")
        if task.kind in ("reply", "quote"):
            mention = f"@{task.target_display}"
            if mention not in text:
                text = f"{mention} {text}"

    text = truncate_to_limit(text)
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
