"""One fresh-interpreter set-up, as a user's process pays it before any simulation.

Usage: python3 perfbench/setup_probe.py JOB.json, with src/ on PYTHONPATH.
Imports the CLI (and so every botforge module) plus networkx, which GraphML
export loads, then loads the workload's population, pools and lexicons and
constructs its backend. Prints the time of each phase as one JSON line; run.py
times the whole process from outside as setup_s.
"""
from time import perf_counter

t_start = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import botforge.cli  # noqa: E402,F401
import networkx  # noqa: E402,F401

t_import = perf_counter()

from botforge import content, cues, persona  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    job = json.load(fh)
config = job["config"]
t0 = perf_counter()
persona.load_seed_personas(config["population_path"])
t1 = perf_counter()
cues.load_lexicons()
t2 = perf_counter()
content.load_pools(config["pools_path"])
content.make_backend(config["backend"], seed=config["seed"], base_url=job.get("base_url"))
t3 = perf_counter()
print(json.dumps({
    "import_s": t_import - t_start,
    "persona_load_s": t1 - t0,
    "lexicons_s": t2 - t1,
    "pools_backend_s": t3 - t2,
}))
