"""Agent personas: loading, validation, and generative expansion.

A persona bundles the identity that conditions everything downstream:
its community, the narratives it posts about, its stance toward the focal
subject, and per-run activity bounds. Seed personas come from a JSON
document; a population can then be expanded to a target size by asking a
content backend for additional persona records, using seed personas as
few-shot context.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import _classify_raw
from .errors import BackendError, SchemaError, ValidationError, _check_types, read_json
from .rng import stream

STANCES = ("support", "oppose", "neutral")

_RANGE_KEYS = ("posts_per_run", "retweets_per_run", "replies_per_run", "quotes_per_run")
# Keys of the persona JSON document, in canonical write order, and each
# one's exact value types: no bool passes for an int, as bool is its own type.
_DOC_TYPES = {
    "id": (str,),
    "display_name": (str,),
    "community": (str,),
    "narratives": (list,),
    "stance": (str,),
    **dict.fromkeys(_RANGE_KEYS, (list, tuple)),
    "is_leader": (bool,),
}
_OPTIONAL_KEYS = frozenset({"quotes_per_run", "is_leader"})

# quotes_per_run default when the document omits it.
DEFAULT_QUOTES_PER_RUN = (0, 2)

EXPANSION_BATCH_SIZE = 10

EXPANSION_SYSTEM_PROMPT = (
    "You construct agent personas for a social media simulation. "
    "You respond with JSON only."
)
EXPANSION_USER_PROMPT = (
    "Generate exactly {count} new agent personas for a social media simulation. "
    "Return a JSON array of {count} objects with exactly these keys: "
    "id, display_name, community, narratives, stance, posts_per_run, "
    "retweets_per_run, replies_per_run, quotes_per_run, is_leader. "
    'stance is one of "support", "oppose", "neutral"; narratives is a non-empty '
    "array of strings; each *_per_run value is a [lo, hi] pair of non-negative "
    "integers with lo <= hi; is_leader must be false. Use fresh ids that do not "
    "appear in the examples. Example personas: {examples}"
)


@dataclass(frozen=True)
class Persona:
    """One agent's identity. Immutable once constructed."""

    id: str
    display_name: str
    community: str
    narratives: tuple[str, ...]
    stance: str
    posts_per_run: tuple[int, int]
    retweets_per_run: tuple[int, int]
    replies_per_run: tuple[int, int]
    quotes_per_run: tuple[int, int] = DEFAULT_QUOTES_PER_RUN
    is_leader: bool = False

    def violations(self, path: str = "persona") -> list[str]:
        """Field-level invariant violations, empty when the persona is valid."""
        return [f"{path}.{name}: {message}" for name, message in self._problems()]

    def _problems(self):
        """(field, message) for each invariant the persona's values break."""
        for name in ("id", "display_name", "community"):
            if not getattr(self, name):
                yield name, "must be non-empty"
        handle = "@" + self.display_name
        if self.display_name and _classify_raw(handle) != ("mentions", handle):
            yield "display_name", f"must be a handle ({handle!r} must read as one mention)"
        if not self.narratives or not all(self.narratives):
            yield "narratives", "must be a non-empty array of non-empty strings"
        if self.stance not in STANCES:
            yield "stance", f"must be one of {STANCES} (got {self.stance!r})"
        for name in _RANGE_KEYS:
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                yield name, f"requires 0 <= lo <= hi (got [{lo}, {hi}])"

    def to_doc(self) -> dict:
        """Persona document object (the JSON wire form)."""
        return {
            "id": self.id,
            "display_name": self.display_name,
            "community": self.community,
            "narratives": list(self.narratives),
            "stance": self.stance,
            "posts_per_run": list(self.posts_per_run),
            "retweets_per_run": list(self.retweets_per_run),
            "replies_per_run": list(self.replies_per_run),
            "quotes_per_run": list(self.quotes_per_run),
            "is_leader": self.is_leader,
        }


@dataclass
class Population:
    """A validated persona list, its id -> index dict and its community -> leader id dict.

    index maps each id to its dense position in personas, stable for the
    population's lifetime. Read-only after construction.
    """

    personas: list[Persona]
    leaders: dict[str, str] = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.index = {p.id: i for i, p in enumerate(self.personas)}
        for p in self.personas:
            if p.is_leader:
                self.leaders[p.community] = p.id

    def __len__(self) -> int:
        return len(self.personas)

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self.index

    def get(self, agent_id: str) -> Persona:
        return self.personas[self.index[agent_id]]

    def ids(self) -> list[str]:
        return [p.id for p in self.personas]


def validate_population(pop: Population) -> list[str]:
    """All invariant violations in a population; empty list means valid.

    Never mutates; violations are data, not errors.
    """
    violations = []
    if not pop.personas:
        violations.append("population: population must be non-empty")
    seen_ids: set[str] = set()
    leaders_seen: dict[str, str] = {}
    for i, p in enumerate(pop.personas):
        path = f"personas[{i}]"
        violations.extend(p.violations(path))
        if p.id in seen_ids:
            violations.append(f"{path}.id: duplicate id {p.id!r}")
        seen_ids.add(p.id)
        if p.is_leader:
            if p.community in leaders_seen:
                violations.append(
                    f"{path}.is_leader: duplicate leader for community {p.community!r} "
                    f"({leaders_seen[p.community]!r} already is one)"
                )
            else:
                leaders_seen[p.community] = p.id
    return violations


def persona_from_doc(obj, path: str = "persona") -> Persona:
    """Build a Persona from one document object, raising SchemaError on any defect.

    The document's keys, shapes and exact types are checked here, every
    value rule by Persona.violations; the error names the first bad field.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, "must be an object", obj)
    unknown = obj.keys() - _DOC_TYPES.keys()
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}")
    for key in _DOC_TYPES:
        if key not in obj and key not in _OPTIONAL_KEYS:
            raise SchemaError(f"{path}.{key}", "missing required key")
    _check_types(obj, _DOC_TYPES, path)
    if any(type(n) is not str for n in obj["narratives"]):
        raise SchemaError(f"{path}.narratives", "must be a list of str", obj["narratives"])
    for key in _RANGE_KEYS:
        value = obj.get(key, DEFAULT_QUOTES_PER_RUN)
        if len(value) != 2 or any(type(v) is not int for v in value):
            raise SchemaError(f"{path}.{key}", "must be a [lo, hi] pair of integers", value)

    # Arrays become tuples; an omitted optional key takes Persona's default.
    p = Persona(**{key: tuple(value) if type(value) in (list, tuple) else value
                   for key, value in obj.items()})
    for name, message in p._problems():
        raise SchemaError(f"{path}.{name}", message)
    return p


def check_population(pop: Population) -> Population:
    """pop, if it has no violation; otherwise a ValidationError naming every one."""
    if violations := validate_population(pop):
        raise ValidationError("; ".join(violations))
    return pop


def default_population_path() -> Path:
    """The shipped 169-persona seed population."""
    return Path(__file__).parent / "data" / "personas" / "aurasight_169.json"


def load_seed_personas(path: str | Path) -> Population:
    """Load and validate a persona document."""
    try:
        doc = read_json(path)
    except OSError as exc:
        raise OSError(f"cannot read persona file {path}: {exc}") from exc
    if not isinstance(doc, list):
        raise SchemaError(str(path), "top level must be an array of persona objects")
    personas = [persona_from_doc(obj, path=f"personas[{i}]") for i, obj in enumerate(doc)]
    return check_population(Population(personas))


def save_personas(pop: Population, path: str | Path) -> None:
    """Write the persona document for a population (round-trips with load)."""
    doc = [p.to_doc() for p in pop.personas]
    Path(path).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _extract_json_array(text: str):
    """The JSON value in backend text, tolerating code fences and prose margins around
    an array; None when there is none to parse."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
        pass
    # From the first "[" to the last "]", in linear time.
    start, end = text.find("["), text.rfind("]")
    if -1 < start < end:
        try:
            return json.loads(text[start:end + 1])
        except (json.JSONDecodeError, RecursionError):
            pass
    return None


def check_expansion(seed: Population, target_count: int, batch_size: int, retry_cap: int) -> None:
    """ValidationError for expand_personas settings it cannot run with."""
    if batch_size < 1 or retry_cap < 0:
        raise ValidationError(f"batch_size must be at least 1 and retry_cap at least 0 "
                              f"(got {batch_size} and {retry_cap})")
    if target_count < len(seed):
        raise ValidationError(
            f"target below seed size: target_count={target_count} < {len(seed)} seeds")


def expand_personas(
    seed: Population,
    target_count: int,
    backend,
    *,
    run_seed: int = 0,
    params: dict | None = None,
    batch_size: int = EXPANSION_BATCH_SIZE,
    retry_cap: int = 5,
) -> Population:
    """Grow a population to target_count by requesting persona batches from a backend.

    Seed personas are returned verbatim and first; the generated ones follow, with
    ids that never collide with seed ids. Each batch prompt embeds a few-shot
    sample of seed personas and demands a structured JSON array. Records that fail
    validation are dropped and regenerated; after retry_cap fruitless batches the
    expansion fails with a summary of what was dropped.
    """
    check_expansion(seed, target_count, batch_size, retry_cap)
    if target_count == len(seed):
        return seed

    params = dict(params or {})
    rng = stream(run_seed, "persona-expand")
    committed: list[Persona] = list(seed.personas)
    taken_ids = {p.id for p in committed}
    leaders_taken = set(seed.leaders)
    drop_log: list[str] = []
    fruitless = 0
    batch_index = 0

    while len(committed) < target_count:
        want = min(batch_size, target_count - len(committed))
        sample_size = min(3, len(seed.personas))
        sample_idx = rng.choice(len(seed.personas), size=sample_size, replace=False)
        examples = json.dumps([seed.personas[i].to_doc() for i in sorted(sample_idx)])
        user_text = EXPANSION_USER_PROMPT.format(count=want, examples=examples)
        raw = backend.complete(EXPANSION_SYSTEM_PROMPT, user_text, params)
        records = _extract_json_array(raw)
        if records is None:
            drop_log.append(f"batch[{batch_index}]: backend did not return a parseable "
                            "JSON array of personas")
            records = []
        elif not isinstance(records, list):
            drop_log.append(f"batch[{batch_index}]: top-level JSON was not an array")
            records = []

        progressed = False
        for j, obj in enumerate(records):
            if len(committed) >= target_count:
                break
            path = f"batch[{batch_index}][{j}]"
            try:
                p = persona_from_doc(obj, path=path)
            except SchemaError as exc:
                drop_log.append(str(exc))
                continue
            if p.id in taken_ids:
                drop_log.append(f"{path}.id: collides with existing id {p.id!r}")
                continue
            if p.is_leader and p.community in leaders_taken:
                drop_log.append(f"{path}.is_leader: community {p.community!r} already has a leader")
                continue
            committed.append(p)
            taken_ids.add(p.id)
            if p.is_leader:
                leaders_taken.add(p.community)
            progressed = True

        if progressed:
            fruitless = 0
        else:
            fruitless += 1
            if fruitless > retry_cap:
                summary = "; ".join(drop_log[-10:]) or "backend produced no usable records"
                raise BackendError(
                    f"persona expansion stalled after {retry_cap} fruitless batches: {summary}",
                    raw_text=raw,
                )
        batch_index += 1

    return check_population(Population(committed))
