"""Workload definitions and seeded input generation for the perfbench harness.

Every input a workload uses is a pure function of the workload name and the
`--seed` given to run.py: the simulation seed, the expanded population and
(through the prompts) the HTTP stub's failure schedule.

BENCHMARK.json lists http-stub-169 and extend-169. aurasight-169x5 and
expanded-4k run the same way but are left out of it: on a shared 2-vCPU
machine the time budget of the benchmark's runs allows runs long enough to
hold steady for two workloads only (see README.md).
"""
from __future__ import annotations

import json
import random
from pathlib import Path

SHIPPED_POPULATION = Path("src/botforge/data/personas/aurasight_169.json")
SHIPPED_POOLS = Path("src/botforge/data/pools/aurasight_pools.json")

# The paper's own setting: every partner mode and every steering sentence.
PAPER_CONFIG = {"mixing": "pa+leader+random", "scheme": "targets:all"}

# analyze_passes: how many times each iteration of an untraced run analyzes
# a run directory; the iteration's analyze time is the mean pass.
# http-stub-169's analyze stage is about half a second beside a simulate
# stage of about 25 s, so one pass would sample the machine over a far
# shorter stretch of time; its 24 passes are split around the simulate stage
# (see chain.py).
WORKLOADS = {
    "aurasight-169x5": {"runs": 5, "analyze_passes": 1, **PAPER_CONFIG},
    "expanded-4k": {"runs": 1, "analyze_passes": 1, "population": "expanded",
                    "mixing": "pa", "scheme": "naive"},
    "http-stub-169": {"runs": 1, "analyze_passes": 24, "backend": "llm-http", **PAPER_CONFIG},
    # A finished 5-run directory, prepared untimed, is extended by one run.
    "extend-169": {"base_runs": 5, "runs": 1, "analyze_passes": 1, **PAPER_CONFIG},
}

# Stub schedule for http-stub-169. The client backs off backoff_s after an
# injected failure; its retry carries the same body and is always answered.
# At 8 ms, waiting on the backend is most of simulate_s (see README.md).
STUB_LATENCY_S = 0.008
STUB_FAIL_PERMILLE = 20
HTTP_BACKOFF_S = 0.01

# The expanded population: the 169 shipped personas plus generated ones with
# the shape the template expander produces (a few communities, two narratives
# each from a small shared pool, the expander's activity bounds, no leaders).
# It is generated here, not by expand_personas, so an expander change cannot
# change this input.
EXPANDED_SIZE = 4000
GEN_COMMUNITIES = (
    "Rehearsal watchers",
    "Ballot counters",
    "Broadcast planners",
    "Arena regulars",
)
GEN_NARRATIVES = (
    "Rehearsal blocks are posted ahead of the live shows #AuraSight",
    "Stage layouts at the arena change between rounds",
    "Running order updates land before each broadcast #AuraSight",
    "Ticket windows for the arena open on a rolling basis",
    "Jury briefings happen the morning of each show",
    "Camera rehearsals run a full day before the broadcast #AuraSight",
)
GEN_NAME_STEMS = ("StageNote", "BallotDesk", "ArenaSide", "RunOrder", "GreenRoom", "CueSheet")
GEN_STANCES = ("support", "oppose", "neutral")
GEN_BOUNDS = {
    "posts_per_run": [3, 10],
    "retweets_per_run": [2, 5],
    "replies_per_run": [1, 5],
    "quotes_per_run": [0, 2],
}


def expanded_population(seed: int) -> list[dict]:
    """The 4k persona document for one seed (shipped personas first, verbatim)."""
    rng = random.Random(seed)
    doc = json.loads(SHIPPED_POPULATION.read_text(encoding="utf-8"))
    for i in range(EXPANDED_SIZE - len(doc)):
        doc.append(
            {
                "id": f"gen_{i:05d}",
                "display_name": f"{rng.choice(GEN_NAME_STEMS)}{i:05d}",
                "community": rng.choice(GEN_COMMUNITIES),
                "narratives": rng.sample(GEN_NARRATIVES, k=2),
                "stance": rng.choice(GEN_STANCES),
                **{key: list(bounds) for key, bounds in GEN_BOUNDS.items()},
                "is_leader": False,
            }
        )
    return doc


def scenario(workload: str, seed: int, work: Path) -> dict:
    """The config dict (config_from_dict form) one iteration's simulate stage uses.

    out_dir is filled in per iteration by the chain worker.
    """
    spec = WORKLOADS[workload]
    expanded = spec.get("population") == "expanded"
    cfg = {
        "seed": seed,
        "runs": spec["runs"],
        "mixing": spec["mixing"],
        "scheme": spec["scheme"],
        "backend": spec.get("backend", "template"),
        "population_path": str(work / "population.json" if expanded else SHIPPED_POPULATION),
        "pools_path": str(SHIPPED_POOLS),
    }
    if cfg["backend"] == "llm-http":
        cfg["backoff_s"] = HTTP_BACKOFF_S
    return cfg
