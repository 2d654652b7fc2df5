"""Correctness checks on a chain iteration's outputs.

Each check recomputes a property from the run directory's files with its own
code (json, csv, hashlib, scipy), never from a stored copy of earlier output,
and raises CheckFailed when the property does not hold. run.py counts every
check as one operation.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import string
from collections import Counter, defaultdict
from pathlib import Path

RUN_FILES = ("tweets.jsonl", "graph.csv", "graph.graphml", "metrics.json",
             "run.log", "population.json", "pools.json")
BOUNDS = (("original", "posts_per_run"), ("retweet", "retweets_per_run"),
          ("reply", "replies_per_run"), ("quote", "quotes_per_run"))
INTERACTIONS = ("retweet", "quote", "reply")
NETWORK_CUES = {"total_degree": "total", "in_degree": "in", "out_degree": "out"}
P_TOLERANCE = 1e-9
ZERO_VAR_ATOL = 1e-9  # the documented degenerate rule of the program's t-test


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class RunOutputs:
    """The files of one run directory, parsed once for all checks."""

    def __init__(self, run_dir: Path, population: list[dict]):
        self.dir = run_dir
        self.population = population
        self.manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        with open(run_dir / "tweets.jsonl", encoding="utf-8") as fh:
            self.tweets = [json.loads(line) for line in fh if line.strip()]
        with open(run_dir / "graph.csv", newline="", encoding="utf-8") as fh:
            self.edges = list(csv.DictReader(fh))
        with open(run_dir / "cues.csv", newline="", encoding="utf-8") as fh:
            self.report = {
                row["cue"]: (float(row["per_agent_mean"]), float(row["per_agent_std"]),
                             int(row["n_agents"]))
                for row in csv.DictReader(fh)
            }
        self.rows = json.loads((run_dir / "compare.json").read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_hashes(out: RunOutputs) -> None:
    files = out.manifest["files"]
    expect(sorted(files) == sorted(RUN_FILES), f"manifest lists {sorted(files)}")
    for name, recorded in files.items():
        expect(sha256_file(out.dir / name) == recorded, f"{name} does not match its manifest hash")


def ids_contiguous(out: RunOutputs) -> None:
    ids = [t["id"] for t in out.tweets]
    expect(ids == list(range(1, len(ids) + 1)), "tweet ids are not 1..N in file order")
    expect(len(ids) == out.manifest["tweet_count"], "tweet_count differs from the corpus")


def mentions_present(out: RunOutputs) -> None:
    display = {p["id"]: p["display_name"] for p in out.population}
    for t in out.tweets:
        if t["kind"] in ("reply", "quote"):
            expect(f"@{display[t['target_agent_id']]}" in t["text"],
                   f"tweet {t['id']} lacks @{display[t['target_agent_id']]}")


def activity_bounds(out: RunOutputs) -> None:
    """Per agent per run, each slot kind's count lies within the persona's bounds."""
    counts = Counter()
    for t in out.tweets:
        slot = "original" if t["kind"] == "original" else t["slot_kind"]
        counts[(t["run_index"], t["author_id"], slot)] += 1
    for run in range(out.manifest["runs_completed"]):
        for p in out.population:
            for slot, key in BOUNDS:
                lo, hi = p.get(key, (0, 2))
                n = counts[(run, p["id"], slot)]
                expect(lo <= n <= hi, f"run {run} agent {p['id']}: {n} {slot} outside [{lo}, {hi}]")


def graph_weights(out: RunOutputs) -> None:
    """graph.csv weights sum to the interaction tweets; per-edge kind counts match them."""
    expected = defaultdict(Counter)
    for t in out.tweets:
        if t["kind"] != "original":
            expected[(t["author_id"], t["target_agent_id"])][t["kind"]] += 1
    total = sum(int(e["weight"]) for e in out.edges)
    expect(total == sum(sum(c.values()) for c in expected.values()),
           f"graph.csv weights sum to {total}")
    seen = set()
    for e in out.edges:
        key = (e["source"], e["target"])
        kinds = {"retweet": int(e["retweets"]), "quote": int(e["quotes"]), "reply": int(e["replies"])}
        expect(int(e["weight"]) == sum(kinds.values()), f"edge {key}: weight != kind counts")
        expect(all(expected[key][k] == kinds[k] for k in INTERACTIONS), f"edge {key}: kind counts")
        seen.add(key)
    expect(seen == set(expected), "graph.csv edges differ from the interacting pairs")


def network_cues(out: RunOutputs) -> None:
    """The report's degree cues equal mean centralities recomputed from graph.csv."""
    n = len(out.population)
    indeg, outdeg = Counter(), Counter()
    for e in out.edges:
        outdeg[e["source"]] += 1
        indeg[e["target"]] += 1
    ids = [p["id"] for p in out.population]
    cent = {
        "in": math.fsum(indeg[i] / (n - 1) for i in ids) / n,
        "out": math.fsum(outdeg[i] / (n - 1) for i in ids) / n,
        "total": math.fsum((indeg[i] + outdeg[i]) / (2 * (n - 1)) for i in ids) / n,
    }
    for cue, which in NETWORK_CUES.items():
        got = out.report[cue][0]
        expect(math.isclose(got, cent[which], rel_tol=1e-12), f"{cue}: {got} != {cent[which]}")


_PUNCT = string.punctuation
_MENTION = re.compile(r"@\w+")
_HASHTAG = re.compile(r"#\w+")


def artifact_counts(text: str) -> tuple[int, int, int]:
    """(mentions, urls, hashtags) by the documented tokenization rule.

    Tokens are whitespace-separated; a token starting with http:// or https://
    is a URL and kept whole; others lose edge punctuation except a leading @
    or #; a token that is then exactly @word or #word is a mention or hashtag.
    """
    mentions = urls = hashtags = 0
    for raw in text.split():
        if raw.startswith(("http://", "https://")):
            urls += 1
            continue
        tok = raw[0] + raw[1:].strip(_PUNCT) if raw[0] in "@#" else raw.strip(_PUNCT)
        if _MENTION.fullmatch(tok):
            mentions += 1
        elif _HASHTAG.fullmatch(tok):
            hashtags += 1
    return mentions, urls, hashtags


def metadata_cues(out: RunOutputs) -> None:
    """Mention/URL/hashtag cue means equal per-agent means of recounted artifacts."""
    per_agent = defaultdict(list)
    for t in out.tweets:
        per_agent[t["author_id"]].append(artifact_counts(t["text"]))
    for k, cue in enumerate(("mentions", "urls", "hashtags")):
        agent_means = [math.fsum(c[k] for c in rows) / len(rows) for rows in per_agent.values()]
        want = math.fsum(agent_means) / len(agent_means)
        got, _, n = out.report[cue]
        expect(n == len(per_agent), f"{cue}: n_agents {n} != {len(per_agent)} authors")
        expect(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), f"{cue}: {got} != {want}")


def compare_pvalues(out: RunOutputs, baselines: dict[str, tuple[float, float]]) -> None:
    """compare's p-values equal scipy's Student-t tails from the report's mean/std/n."""
    from scipy import stats

    expect([r["cue"] for r in out.rows] == list(out.report), "compare rows not in report order")
    for r in out.rows:
        mean, std, n = out.report[r["cue"]]
        expect((r["mean"], r["std"], r["n"]) == (mean, std, n), f"{r['cue']}: row != report")
        for side, mu in zip(("bot", "human"), baselines[r["cue"]]):
            if std > 0:
                t = (mean - mu) / (std / math.sqrt(n))
                want = float(2.0 * stats.t.sf(abs(t), n - 1))
            else:
                want = 0.0 if abs(mean - mu) > ZERO_VAR_ATOL else 1.0
            got = r[f"p_{side}"]
            expect(abs(got - want) <= P_TOLERANCE, f"{r['cue']} p_{side}: {got} != {want}")


def same_bytes(run_dir: Path, reference: Path) -> None:
    """tweets.jsonl and graph.csv equal the reference run's, byte for byte."""
    for name in ("tweets.jsonl", "graph.csv"):
        expect((run_dir / name).read_bytes() == (reference / name).read_bytes(),
               f"{name} differs from {reference / name}")


def same_as_first(run_dir: Path, first: Path) -> None:
    """A later iteration wrote what the first, fully checked, one wrote.

    Every iteration of a run simulates the same config, so every file equals
    the first iteration's byte for byte; the manifest may differ only in the
    config's out_dir and base_url (each iteration has its own stub path).
    """
    names = sorted(path.name for path in first.iterdir())
    expect(sorted(path.name for path in run_dir.iterdir()) == names, "run files differ")
    for name in names:
        if name == "manifest.json":
            mine, theirs = (json.loads((d / name).read_text(encoding="utf-8"))
                            for d in (run_dir, first))
            for doc in (mine, theirs):
                del doc["config"]["out_dir"], doc["config"]["base_url"]
            expect(mine == theirs, "manifest differs from the first iteration's")
        else:
            expect((run_dir / name).read_bytes() == (first / name).read_bytes(),
                   f"{name} differs from the first iteration's")


def stub_requests(out: RunOutputs, requests: int, injected: int) -> None:
    """The stub saw one request per backend call (one per non-retweet) plus each injected failure."""
    calls = sum(1 for t in out.tweets if t["kind"] != "retweet")
    expect(requests == calls + injected,
           f"stub saw {requests} requests for {calls} backend calls and {injected} failures")


def population_loads(path: Path, persona) -> None:
    """The generated population loads through the package's own persona loader."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    pop = persona.load_seed_personas(path)
    expect(pop.ids() == [p["id"] for p in doc], "loaded personas differ from the document")


GENERIC = (manifest_hashes, ids_contiguous, mentions_present, activity_bounds,
           graph_weights, network_cues, metadata_cues)
