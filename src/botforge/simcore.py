"""Simulation orchestration: agents act, tweets commit, the graph grows.

A run iterates agents in id order. Each agent draws its activity counts,
emits its original posts, then works through its retweet/reply/quote slots:
pick a partner, target the partner's most recent tweet, generate content,
commit. Commit order is strictly (run, agent, slot), tweet ids are assigned
in that order, and every random draw comes from a labeled stream of the one
root seed, so a config fully determines the outputs. Runs can later be
extended: the graph and degree state come from the stored graph.csv, each
agent's last tweet from the end of the stored corpus, and new runs append
to the corpus without the prior tweets being parsed.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import NoneType

from .content import (
    DEFAULT_MODEL_NAME,
    EMPTY_POOLS,
    GenerationTask,
    PromptScheme,
    generate_post,
    load_pools,
    make_backend,
    parse_scheme,
    sample_pools,
    select_narrative,
)
from .corpus import (
    CorpusPrefix,
    CorpusView,
    Tweet,
    _check_types,
    read_corpus_tail,
    read_tweets_jsonl,
    write_tweets_jsonl,
)
from .errors import BackendError, BotforgeError, ManifestError, SchemaError, ValidationError, read_json
from .netgraph import (
    CandidateCache,
    CommGraph,
    DegreeState,
    EdgeStats,
    GraphMetrics,
    MixingPolicy,
    POLICY_PRESETS,
    build_comm_graph,
    draw_interaction_counts,
    export_edges_csv,
    export_graphml,
    graph_metrics,
    read_edges_csv,
    select_partner_detail,
    weighted_density,
)
from .persona import Persona, Population, load_seed_personas, save_personas, validate_population
from .rng import stream

# Slot kinds are processed in this order within an agent's turn.
SLOT_ORDER = (("retweet", "retweets"), ("reply", "replies"), ("quote", "quotes"))

MANIFEST_FORMAT = "botforge-run-v1"
# The files of a run directory that its manifest hashes.
_DATA_FILES = ("tweets.jsonl", "graph.csv", "graph.graphml", "metrics.json",
               "run.log", "population.json", "pools.json")
# Backend calls one simulation may keep outstanding, at most; each is a thread.
MAX_IN_FLIGHT_LIMIT = 64

@dataclass
class ScenarioConfig:
    """Everything a simulation run depends on, echoed into the manifest."""

    seed: int = 0
    mixing: MixingPolicy = field(default_factory=MixingPolicy.pa_only)
    scheme: PromptScheme = field(default_factory=PromptScheme)
    backend: str = "template"
    model_name: str = DEFAULT_MODEL_NAME
    temperature: float = 0.0
    max_tokens: int | None = None
    base_url: str | None = None
    runs: int = 1
    population_path: str | None = None
    pools_path: str | None = None
    out_dir: str | None = None
    require_both_eligibility: bool = False
    max_in_flight: int = 8
    max_retries: int = 3
    backoff_s: float = 0.5

    def validate(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be a 64-bit unsigned integer (got {self.seed})")
        # NaN fails every comparison, so these also refuse it.
        if not 0 <= self.temperature < math.inf:
            raise ValidationError(f"temperature must be finite and >= 0 (got {self.temperature})")
        if self.runs < 1:
            raise ValidationError(f"runs must be >= 1 (got {self.runs})")
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT_LIMIT:
            raise ValidationError(f"max_in_flight must be between 1 and {MAX_IN_FLIGHT_LIMIT} "
                                  f"(got {self.max_in_flight})")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0 (got {self.max_retries})")
        if not 0 <= self.backoff_s < math.inf:
            raise ValidationError(f"backoff_s must be finite and >= 0 (got {self.backoff_s})")

    def backend_params(self) -> dict:
        return {
            "model_name": self.model_name,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }

    def to_manifest_dict(self) -> dict:
        # Full config echo; credentials live only in the environment.
        return {
            "seed": self.seed,
            "mixing": [self.mixing.p_pa, self.mixing.p_leader, self.mixing.p_random],
            "scheme": {"level": self.scheme.level, "targeted_cues": list(self.scheme.targeted_cues)},
            "backend": self.backend,
            "model_name": self.model_name,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "base_url": self.base_url,
            "runs": self.runs,
            "population_path": self.population_path,
            "pools_path": self.pools_path,
            "out_dir": self.out_dir,
            "require_both_eligibility": self.require_both_eligibility,
            "max_in_flight": self.max_in_flight,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
        }


_CONFIG_KEYS = set(ScenarioConfig().to_manifest_dict())

# The exact types config values may have in JSON (mixing and scheme are
# parsed on their own). A bool is refused wherever an int is asked.
_CONFIG_TYPES = {
    "seed": (int,),
    "runs": (int,),
    "max_in_flight": (int,),
    "max_retries": (int,),
    "max_tokens": (int, NoneType),
    "temperature": (int, float),
    "backoff_s": (int, float),
    "backend": (str,),
    "model_name": (str,),
    "base_url": (str, NoneType),
    "population_path": (str, NoneType),
    "pools_path": (str, NoneType),
    "out_dir": (str, NoneType),
    "require_both_eligibility": (bool,),
}
_SCHEME_TYPES = {"level": (str,), "targeted_cues": (list,)}


def _parse_mixing(value, path: str = "mixing") -> MixingPolicy:
    if isinstance(value, MixingPolicy):
        return value
    if isinstance(value, str):
        if value in POLICY_PRESETS:
            return POLICY_PRESETS[value]()
        parts = [s.strip() for s in value.split(",")]
        if len(parts) != 3:
            raise ValidationError(
                f"mixing {value!r} must be 'p_pa,p_leader,p_random' or one of {sorted(POLICY_PRESETS)}"
            )
        try:
            nums = [float(s) for s in parts]
        except ValueError:
            raise ValidationError(f"mixing {value!r} has non-numeric components") from None
        return MixingPolicy(*nums)
    if isinstance(value, (list, tuple)):
        if len(value) != 3 or any(type(v) not in (int, float) for v in value):
            raise SchemaError(path, "must be 3 numbers, each an int or a float", value)
        return MixingPolicy(*(float(v) for v in value))
    raise ValidationError(f"cannot interpret mixing policy {value!r}")


def _parse_scheme_value(value, path: str) -> PromptScheme:
    if isinstance(value, PromptScheme):
        return value
    if isinstance(value, str):
        return parse_scheme(value)
    if isinstance(value, dict):
        unknown = value.keys() - _SCHEME_TYPES.keys()
        if unknown:
            raise SchemaError(path, f"unknown scheme keys {sorted(unknown)}")
        _check_types(value, _SCHEME_TYPES, path)
        if any(type(cue) is not str for cue in value.get("targeted_cues", ())):
            raise SchemaError(f"{path}.targeted_cues", "must be a list of str",
                              value["targeted_cues"])
        return PromptScheme(
            level=value.get("level", "naive"),
            targeted_cues=tuple(value.get("targeted_cues", ())),
        )
    raise ValidationError(f"cannot interpret scheme {value!r}")


def config_from_dict(doc: dict, path: str = "config") -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON-shaped dict (config file / manifest echo)."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "must be an object", doc)
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(path, f"unknown config keys {sorted(unknown)}")
    _check_types(doc, _CONFIG_TYPES, path)
    kwargs = dict(doc)
    if "mixing" in kwargs:
        kwargs["mixing"] = _parse_mixing(kwargs["mixing"], f"{path}.mixing")
    if "scheme" in kwargs:
        kwargs["scheme"] = _parse_scheme_value(kwargs["scheme"], f"{path}.scheme")
    cfg = ScenarioConfig(**kwargs)
    cfg.validate()
    return cfg


class SimulationAborted(BotforgeError):
    """A run stopped early; partial results are attached for salvage output."""

    def __init__(self, message: str, result: "SimResult"):
        super().__init__(message)
        self.result = result


@dataclass
class SimResult:
    """What run_simulation committed.

    tweets is the whole corpus: a list for a fresh run, and for an extend a
    read-only CorpusView whose prior part is read only when accessed (len()
    reads nothing). graph and metrics cover the whole corpus too.
    """

    tweets: Sequence[Tweet]
    graph: CommGraph
    metrics: GraphMetrics | None
    log: list[str]
    start_run_index: int
    runs_completed: int  # total runs reflected in tweets (prior + new)
    status: str = "ok"
    error: str | None = None


@dataclass
class PriorRun:
    """What extending a finished run needs of it, read without parsing its whole corpus.

    prefix is its verified tweets.jsonl (tweet_count tweets, ids 1 to
    tweet_count), last_by_agent each agent's latest tweet in it, and edges
    and degrees its graph, as read from graph.csv. run_simulation commits
    the new interactions to degrees.
    """

    prefix: CorpusPrefix
    last_by_agent: dict[str, Tweet]
    edges: dict[tuple[str, str], EdgeStats]
    degrees: DegreeState


@dataclass(slots=True)
class _PlannedPost:
    """One post of a run's plan: everything about it but its text.

    target is the plan index of the tweet it responds to when that tweet is
    planned in the same run (its text is filled in once rendered); a target
    from an earlier run has its text set at planning. log_end counts the
    plan's log lines that come before the post's commit, and interactions
    the interactions committed before it.
    """

    persona: Persona
    task: GenerationTask
    pool_sample: dict[str, list[str]] | None  # None for a retweet, which has no prompt
    target: int | None
    log_end: int
    interactions: int
    events: list[str] = field(default_factory=list)


def _plan_run(cfg, pop, pools, run_index, first_id, degrees, cache, last_by_agent):
    """Every structural decision of one run, in commit order, with no backend call.

    Draws counts, narratives, partners and prompt pool samples from their
    streams in the order the posts commit, and commits each interaction to
    degrees as it is planned. Returns the planned posts and the run's log
    lines; last_by_agent (tweets of earlier runs) is read, not changed.
    """
    plan: list[_PlannedPost] = []
    log: list[str] = []
    planned_last: dict[str, int] = {}  # agent id -> plan index of its latest post

    for pid in sorted(pop.ids()):
        p = pop.get(pid)
        counts = draw_interaction_counts(p, stream(cfg.seed, "counts", str(run_index), pid))
        log.append(f"[run {run_index}] agent {pid}: "
                   + " ".join(f"{k}={v}" for k, v in counts.items()))
        rng_narrative = stream(cfg.seed, "narrative", str(run_index), pid)
        rng_partner = stream(cfg.seed, "partner", str(run_index), pid)
        rng_prompt = stream(cfg.seed, "prompt", str(run_index), pid)
        slot = 0

        def add(task: GenerationTask, target: int | None = None) -> None:
            sample = None if task.kind == "retweet" else sample_pools(pools, rng_prompt)
            plan.append(_PlannedPost(p, task, sample, target, len(log), degrees.n_interactions))
            planned_last[pid] = len(plan) - 1

        for _ in range(counts["posts"]):
            add(GenerationTask(kind="original", tweet_id=first_id + len(plan),
                               run_index=run_index, slot_index=slot,
                               narrative=select_narrative(p, rng_narrative)))
            slot += 1

        for slot_kind, count_key in SLOT_ORDER:
            for _ in range(counts[count_key]):
                here = f"[run {run_index}] agent {pid} slot {slot}"
                if len(pop) < 2:
                    log.append(f"{here}: no other agents; {slot_kind} slot skipped")
                    slot += 1
                    continue
                choice = select_partner_detail(p, pop, cfg.mixing, degrees, rng_partner,
                                               cache=cache)
                log.extend(f"{here}: fallback {fb}" for fb in choice.fallbacks)
                partner = choice.partner_id
                task = GenerationTask(kind=slot_kind, tweet_id=first_id + len(plan),
                                      run_index=run_index, slot_index=slot,
                                      target_agent_id=partner,
                                      target_display=pop.get(partner).display_name,
                                      slot_kind=slot_kind)
                target = planned_last.get(partner)
                if target is not None:
                    task.target_tweet_id = plan[target].task.tweet_id
                elif partner in last_by_agent:
                    task.target_tweet_id = last_by_agent[partner].id
                    task.target_text = last_by_agent[partner].text
                else:
                    log.append(f"{here}: partner {partner} has no tweets; "
                               f"{slot_kind} degraded to mention reply")
                    task.kind = "reply"
                add(task, target)
                degrees.commit(pid, partner)
                slot += 1
    return plan, log


def _render_in_order(plan, render, executor, limit):
    """Render a run's plan, yielding (post, Tweet or exception) in plan order.

    A post is started once the tweet it responds to has rendered, lowest
    plan index first. Retweets and every post without an executor render
    inline; with one, up to limit backend posts are outstanding at a time,
    and no worker ever waits on another. Iteration ends after the first
    failure in plan order: posts before it are still rendered and yielded,
    posts after it are not started.
    """
    outcomes: list = [None] * len(plan)
    dependents: dict[int, list[int]] = {}
    ready: list[int] = []  # a heap of plan indices whose target text exists
    for i, post in enumerate(plan):
        if post.target is None:
            ready.append(i)
        else:
            dependents.setdefault(post.target, []).append(i)
    running: dict = {}  # future -> plan index
    stop = len(plan)  # plan index of the first failure so far

    def finish(i, outcome):
        nonlocal stop
        outcomes[i] = outcome
        if isinstance(outcome, BaseException):
            stop = min(stop, i)
        else:
            for k in dependents.pop(i, ()):
                heapq.heappush(ready, k)

    def render_inline(post):
        try:
            return render(post)
        except Exception as exc:  # delivered in plan order, like a worker's failure
            return exc

    committed = 0
    while committed < len(plan):
        while ready and ready[0] < stop:
            post = plan[ready[0]]
            inline = executor is None or post.task.kind == "retweet"
            if not inline and len(running) >= limit:
                break
            i = heapq.heappop(ready)
            if post.target is not None:
                post.task.target_text = outcomes[post.target].text
            if inline:
                finish(i, render_inline(post))
            else:
                running[executor.submit(render, post)] = i
        while committed < len(plan) and outcomes[committed] is not None:
            yield plan[committed], outcomes[committed]
            if isinstance(outcomes[committed], BaseException):
                return
            committed += 1
        if running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                finish(running.pop(future), future.exception() or future.result())


def run_simulation(
    cfg: ScenarioConfig,
    pop: Population,
    backend,
    *,
    pools: dict[str, list[str]] | None = None,
    start_run_index: int = 0,
    prior: PriorRun | None = None,
) -> SimResult:
    """Execute cfg.runs simulation runs and return the full committed corpus.

    With prior, the runs continue a finished run: ids go on from its
    tweet count, partners respond to its agents' last tweets, attachment
    starts from its degrees, and the graph is its edges plus the new
    tweets'. Only the new tweets are held; SimResult.tweets is then a
    CorpusView over the prior file and them.

    Each run is planned first, with no backend call, then rendered: up to
    cfg.max_in_flight backend calls are outstanding when the backend is
    io_bound, and tweets commit strictly in (run, agent, slot) order, so the
    output does not depend on max_in_flight. Backend failure aborts with
    partial results attached (SimulationAborted): everything committed before
    the first failing post in commit order stays valid, and the interactions
    planned past it are not counted. The degree state then already holds the
    aborted run's whole plan.
    """
    cfg.validate()
    violations = validate_population(pop)
    if violations:
        raise ValidationError("; ".join(violations))
    if pools is None:
        pools = load_pools(cfg.pools_path) if cfg.pools_path else EMPTY_POOLS

    degrees = prior.degrees if prior else DegreeState(pop)
    cache = CandidateCache(pop, require_both=cfg.require_both_eligibility)
    tweets: list[Tweet] = []  # this call's tweets
    corpus = CorpusView(prior.prefix, tweets) if prior else tweets
    last_by_agent: dict[str, Tweet] = dict(prior.last_by_agent) if prior else {}
    next_id = prior.prefix.tweet_count + 1 if prior else 1
    params = cfg.backend_params()

    def render(post: _PlannedPost) -> Tweet:
        return generate_post(post.persona, post.task, cfg.scheme, post.pool_sample, backend, None,
                             params=params, on_event=post.events.append)

    log = [
        f"simulation: seed={cfg.seed} runs={cfg.runs} start_run={start_run_index} "
        f"agents={len(pop)} backend={cfg.backend} scheme={cfg.scheme.level} "
        f"mixing=({cfg.mixing.p_pa},{cfg.mixing.p_leader},{cfg.mixing.p_random})"
    ]
    status, error = "ok", None
    runs_done = start_run_index
    interactions = None  # committed interactions, when a failure leaves planned ones behind
    overlap = cfg.max_in_flight > 1 and getattr(backend, "io_bound", True)

    with ThreadPoolExecutor(cfg.max_in_flight) if overlap else nullcontext() as executor:
        try:
            for run_index in range(start_run_index, start_run_index + cfg.runs):
                first_id = next_id + len(tweets)
                plan, plan_log = _plan_run(cfg, pop, pools, run_index, first_id, degrees, cache,
                                           last_by_agent)
                logged = 0
                for post, outcome in _render_in_order(plan, render, executor, cfg.max_in_flight):
                    log.extend(plan_log[logged:post.log_end])
                    logged = post.log_end
                    here = f"[run {run_index}] agent {post.persona.id} slot {post.task.slot_index}"
                    log.extend(f"{here}: {msg}" for msg in post.events)
                    if isinstance(outcome, BaseException):
                        interactions = post.interactions
                        raise outcome
                    tweets.append(outcome)
                    last_by_agent[outcome.author_id] = outcome
                log.extend(plan_log[logged:])
                runs_done = run_index + 1
        except BackendError as exc:
            status, error = "aborted", str(exc)
            log.append(f"ABORTED: {error}")

    if interactions is None:
        interactions = degrees.n_interactions
    log.append(f"committed {len(corpus)} tweets, {interactions} interactions")
    graph = build_comm_graph(tweets, pop, prior.edges if prior else None)
    metrics = graph_metrics(graph, pop) if len(pop) >= 2 else None
    result = SimResult(
        tweets=corpus,
        graph=graph,
        metrics=metrics,
        log=log,
        start_run_index=start_run_index,
        runs_completed=runs_done,
        status=status,
        error=error,
    )
    if status != "ok":
        raise SimulationAborted(error, result)
    return result


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_outputs(
    result: SimResult,
    cfg: ScenarioConfig,
    pop: Population,
    pools: dict[str, list[str]],
    out_dir: str | Path,
) -> Path:
    """Write the full output directory layout, staged so a failure keeps a prior run.

    Every file is first written under a staging name in out_dir and hashed
    there; the data files then replace their namesakes, the manifest last.
    A failure while staging leaves the directory as it was and removes the
    staged files. When result extends a finished run, its tweets.jsonl is
    that run's verified file's bytes with the new tweets appended.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged = {name: out / f".{name}.staged" for name in (*_DATA_FILES, "manifest.json")}
    try:
        write_tweets_jsonl(result.tweets, staged["tweets.jsonl"])
        export_edges_csv(result.graph, staged["graph.csv"])
        export_graphml(result.graph, pop, staged["graph.graphml"])

        if result.metrics is not None:
            metrics_doc = dict(result.metrics.to_dict())
            metrics_doc["weighted_density"] = weighted_density(result.graph)
            metrics_doc["defined"] = True
        else:
            metrics_doc = {"defined": False, "reason": "fewer than 2 agents"}
        metrics_doc["n_nodes"] = result.graph.n_nodes
        metrics_doc["n_edges"] = result.graph.n_edges
        metrics_doc["n_interactions"] = result.graph.total_weight()
        staged["metrics.json"].write_text(
            json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        staged["run.log"].write_text("\n".join(result.log) + "\n", encoding="utf-8")
        save_personas(pop, staged["population.json"])
        staged["pools.json"].write_text(
            json.dumps(pools, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        manifest = {
            "format": MANIFEST_FORMAT,
            "status": result.status,
            "error": result.error,
            "config": cfg.to_manifest_dict(),
            "runs_completed": result.runs_completed,
            "tweet_count": len(result.tweets),
            "files": {name: _sha256_file(staged[name]) for name in _DATA_FILES},
        }
        staged["manifest.json"].write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        for name, path in staged.items():
            os.replace(path, out / name)
    finally:
        for path in staged.values():
            path.unlink(missing_ok=True)
    return out


def simulate_to_dir(
    cfg: ScenarioConfig,
    *,
    pop: Population | None = None,
    pools: dict[str, list[str]] | None = None,
    backend=None,
) -> SimResult:
    """Load inputs, run the simulation, and write the output directory.

    On a mid-run backend failure the partial outputs (with an aborted
    manifest) are still written before the error propagates.
    """
    if not cfg.out_dir:
        raise ValidationError("config has no out_dir")
    if pop is None:
        if not cfg.population_path:
            raise ValidationError("config has no population_path")
        pop = load_seed_personas(cfg.population_path)
    if pools is None:
        pools = load_pools(cfg.pools_path) if cfg.pools_path else EMPTY_POOLS
    return _run_and_write(cfg, pop, pools, backend)


def _run_and_write(cfg: ScenarioConfig, pop: Population, pools: dict[str, list[str]], backend,
                   start_run_index: int = 0, prior: PriorRun | None = None) -> SimResult:
    """run_simulation, then write_outputs to cfg.out_dir, also for an aborted run.

    backend None means cfg's backend. Both functions are looked up in this
    module's namespace at call time, so wrappers set there see every call.
    """
    if backend is None:
        backend = make_backend(
            cfg.backend,
            seed=cfg.seed,
            base_url=cfg.base_url,
            max_retries=cfg.max_retries,
            backoff_s=cfg.backoff_s,
        )
    try:
        result = run_simulation(cfg, pop, backend, pools=pools, start_run_index=start_run_index,
                                prior=prior)
    except SimulationAborted as exc:
        write_outputs(exc.result, cfg, pop, pools, cfg.out_dir)
        raise
    write_outputs(result, cfg, pop, pools, cfg.out_dir)
    return result


def read_manifest(run_dir: str | Path) -> dict:
    path = Path(run_dir) / "manifest.json"
    if not path.is_file():
        raise ManifestError(f"no manifest.json in {run_dir}")
    try:
        manifest = read_json(path)
    except SchemaError as exc:
        raise ManifestError(str(exc)) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ManifestError(f"manifest.json in {run_dir} is not a {MANIFEST_FORMAT} manifest")
    for key in ("runs_completed", "tweet_count"):
        value = manifest.get(key)
        if type(value) is not int or value < 0:
            raise ManifestError(f"manifest.json in {run_dir}: {key} must be a non-negative "
                                f"integer (got {value!r})")
    files = manifest.get("files")
    if not isinstance(files, dict) or not all(isinstance(v, str) for v in files.values()):
        raise ManifestError(f"manifest.json in {run_dir}: files must be an object of file "
                            f"names to hash strings (got {files!r})")
    return manifest


def verify_manifest_files(run_dir: str | Path, manifest: dict, names) -> None:
    """Check stored hashes for the named files; any mismatch is a refusal."""
    run_dir = Path(run_dir)
    for name in names:
        recorded = manifest["files"].get(name)
        if recorded is None:
            raise ManifestError(f"manifest records no hash for {name}")
        actual = _sha256_file(run_dir / name)
        if actual != recorded:
            raise ManifestError(
                f"hash mismatch for {name}: manifest records {recorded}, file is {actual}"
            )


def _read_prior(prev_dir: Path, manifest: dict, pop: Population) -> PriorRun:
    """The prior state of a verified run directory, from the end of its corpus and graph.csv.

    ManifestError when the corpus's last tweet id is not the manifest's
    tweet_count, or a tweet of the scanned tail names an agent outside pop.
    """
    path = prev_dir / "tweets.jsonl"
    count = manifest["tweet_count"]
    prefix = CorpusPrefix(path, manifest["files"]["tweets.jsonl"], count, path.stat().st_size)
    tail = read_corpus_tail(path, pop.ids(), prefix.size)
    last_id = tail[-1].id if tail else 0
    if last_id != count:
        raise ManifestError(f"{path}: last tweet id is {last_id} but the manifest records "
                            f"{count} tweets")
    for t in tail:
        for agent in (t.author_id, t.target_agent_id):
            if agent is not None and agent not in pop:
                raise ManifestError(f"{path}: tweet {t.id} names {agent!r}, who is not in "
                                    f"population.json")
    edges, degrees = read_edges_csv(prev_dir / "graph.csv", pop)
    return PriorRun(prefix, {t.author_id: t for t in tail}, edges, degrees)


def resume_or_extend(prev_dir: str | Path, cfg: ScenarioConfig) -> SimResult:
    """Append cfg.runs further runs on top of a finished run directory.

    The directory's tweets.jsonl, graph.csv, population.json and pools.json
    are verified against the manifest hashes. The prior corpus is then
    trusted and not parsed: each agent's last tweet comes from a backward
    scan of its end (about one run), the next id from the manifest's
    tweet_count, and the graph and degree state, so that attachment
    continues from the prior structure, from graph.csv. Output goes to
    cfg.out_dir (defaulting to prev_dir); its tweets.jsonl is the prior
    file's bytes with the new tweets appended. The result's tweets are the
    whole corpus as a CorpusView, which parses the prior tweets only if
    they are accessed, after checking their hash again.
    """
    prev_dir = Path(prev_dir)
    manifest = read_manifest(prev_dir)
    if manifest.get("status") != "ok":
        raise ManifestError(f"cannot extend a run with status {manifest.get('status')!r}")
    verify_manifest_files(
        prev_dir, manifest, ("tweets.jsonl", "graph.csv", "population.json", "pools.json")
    )

    pop = load_seed_personas(prev_dir / "population.json")
    pools = load_pools(prev_dir / "pools.json")
    prior = _read_prior(prev_dir, manifest, pop)
    start = manifest["runs_completed"]

    cfg = replace(cfg, out_dir=cfg.out_dir or str(prev_dir),
                  population_path=str(prev_dir / "population.json"),
                  pools_path=str(prev_dir / "pools.json"))
    return _run_and_write(cfg, pop, pools, None, start, prior)


def load_corpus(run_dir: str | Path) -> tuple[Population, list[Tweet]]:
    """The population snapshot and tweet corpus of a run directory."""
    run_dir = Path(run_dir)
    tweets_path = run_dir / "tweets.jsonl"
    pop_path = run_dir / "population.json"
    if not tweets_path.is_file():
        raise FileNotFoundError(f"no tweets.jsonl in {run_dir}")
    if not pop_path.is_file():
        raise FileNotFoundError(f"no population.json in {run_dir}")
    return load_seed_personas(pop_path), read_tweets_jsonl(tweets_path)
