"""botforge benchmark: simulate -> analyze -> compare on one workload.

Usage, from the root of a botforge checkout:

    python3 perfbench/run.py --workload extend-169 --seed 1 --seconds 30 --trace 0

It makes the workload's inputs from --seed, times set-up in fresh
interpreters before and after the chain, runs the chain in a worker process
for --seconds (whole iterations), checks every iteration's outputs, and
prints one JSON object as the last line of standard output: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1. Work files go under .perfbench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
from stub import StubServer
from workloads import (
    STUB_FAIL_PERMILLE,
    STUB_LATENCY_S,
    WORKLOADS,
    expanded_population,
    scenario,
)

HERE = Path(__file__).resolve().parent
# Fresh-interpreter set-ups per run: SETUP_BEFORE before the chain worker,
# the rest after it, so setup_s samples the machine at both ends of the run.
SETUP_REPEATS = 7
SETUP_BEFORE = 4
WORKER_TIMEOUT_S = 150


class CheckRunner:
    """Runs checks as operations and counts them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception:  # a check that cannot complete is a failed operation
            self.failed += 1
            print(f"perfbench: check {name} failed:", file=sys.stderr)
            traceback.print_exc()


def python(script: str, job_path: Path, env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), str(job_path)],
        env=env, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True,
    )


def dir_mb(run_dir: Path) -> float:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    names = list(manifest["files"]) + ["manifest.json"]
    return sum((run_dir / name).stat().st_size for name in names) / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "botforge" / "__init__.py").is_file():
        print("perfbench: no src/botforge here; run from the root of a botforge checkout",
              file=sys.stderr)
        return 2
    # The metrics printed, and their units, are the ones BENCHMARK.json lists.
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(root / "src"))
    from botforge import benchmark, content, persona, simcore

    spec = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, BOTFORGE_API_KEY="perfbench-dummy-key")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    runner = CheckRunner()
    config = scenario(args.workload, args.seed, work)
    job = {"config": config, "work": str(work), "seconds": args.seconds, "trace": args.trace,
           "analyze_passes": spec["analyze_passes"], "result": str(work / "worker.json")}

    # Inputs, untimed.
    if spec.get("population") == "expanded":
        pop_path = Path(config["population_path"])
        pop_path.write_text(json.dumps(expanded_population(args.seed)), encoding="utf-8")
        runner.run("population_loads", checks.population_loads, pop_path, persona)
    population = json.loads(Path(config["population_path"]).read_text(encoding="utf-8"))
    if "base_runs" in spec:
        base = work / "base"
        simcore.simulate_to_dir(simcore.config_from_dict(
            dict(config, runs=spec["base_runs"], out_dir=str(base))))
        job["base_dir"] = str(base)
    # The reference run directory: a template-backend run of the same config
    # (http-stub-169), or a fresh simulation of base + new runs (extend-169).
    # Its tweets.jsonl and graph.csv must equal each iteration's.
    reference = None
    if config["backend"] == "llm-http":
        reference = work / "reference"
        simcore.simulate_to_dir(simcore.config_from_dict(
            dict(config, backend="template", out_dir=str(reference))))
    elif "base_runs" in spec:
        reference = work / "reference"
        simcore.simulate_to_dir(simcore.config_from_dict(
            dict(config, runs=spec["base_runs"] + spec["runs"], out_dir=str(reference))))
    if reference is not None:
        job["reference_dir"] = str(reference)

    with contextlib.ExitStack() as stack:
        stub = None
        if config["backend"] == "llm-http":
            stub = stack.enter_context(StubServer(
                content.TemplateBackend(args.seed), STUB_LATENCY_S, STUB_FAIL_PERMILLE))
            job["base_url"] = stub.url
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")

        setup_walls, probes = [], []

        def probe_setup(count: int) -> None:
            for _ in range(count):
                t0 = perf_counter()
                done = python("setup_probe.py", job_path, env, timeout=60)
                setup_walls.append(perf_counter() - t0)
                probes.append(json.loads(done.stdout.strip().splitlines()[-1]))

        probe_setup(SETUP_BEFORE)
        python("chain.py", job_path, env, timeout=WORKER_TIMEOUT_S)
        stub_counts = (dict(stub.requests), dict(stub.injected)) if stub else None
        probe_setup(SETUP_REPEATS - SETUP_BEFORE)

    worker = json.loads((work / "worker.json").read_text(encoding="utf-8"))
    iterations = worker["iterations"]

    # Checks, untimed. Every iteration simulates the same config, so the
    # first iteration's outputs get every property check and each later
    # iteration's are checked to equal them byte for byte.
    table = benchmark.baseline_table()
    baselines = {cue: (table.lookup(cue).wild_bot, table.lookup(cue).wild_human)
                 for cue in table.cues()}
    first = Path(iterations[0]["dir"])
    out = checks.RunOutputs(first, population)
    for check in checks.GENERIC:
        runner.run(check.__name__, check, out)
    runner.run("compare_pvalues", checks.compare_pvalues, out, baselines)
    for it in iterations:
        run_dir = Path(it["dir"])
        if run_dir != first:
            runner.run("same_as_first", checks.same_as_first, run_dir, first)
        if reference is not None:
            runner.run("same_bytes", checks.same_bytes, run_dir, reference)
        if stub_counts is not None:
            path = f"/{run_dir.name}/v1/chat/completions"
            it["requests"] = stub_counts[0].get(path, 0)
            runner.run("stub_requests", checks.stub_requests, out,
                       it["requests"], stub_counts[1].get(path, 0))

    if args.trace:
        metrics = {
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "persona.load_s": statistics.median(p["persona_load_s"] for p in probes),
            "cues.load_lexicons_s": statistics.median(p["lexicons_s"] for p in probes),
            "simcore.tweets": statistics.median(it["new_tweets"] for it in iterations),
            "simcore.output_mb": statistics.median(dir_mb(Path(it["dir"])) for it in iterations),
            "cues.tokenize_per_tweet": statistics.median(
                it["layers"]["cues.tokenize_calls"] / it["analyzed_tweets"] for it in iterations),
            "content.http_retries": statistics.median(
                it["requests"] - it["layers"]["content.backend_calls"] if stub_counts else 0
                for it in iterations),
        }
        for name in iterations[0]["layers"]:
            metrics[name] = statistics.median(it["layers"][name] for it in iterations)
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "simulate_s": statistics.median(it["simulate_s"] for it in iterations),
            "analyze_s": statistics.median(it["analyze_s"] for it in iterations),
            "pipeline_s": statistics.median(it["pipeline_s"] for it in iterations),
            "pipeline_cpu_s": statistics.median(it["pipeline_cpu_s"] for it in iterations),
            "tweets_per_s": statistics.median(it["new_tweets"] / it["simulate_s"] for it in iterations),
            "peak_rss_mb": worker["peak_rss_mb"],
        }

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(iterations)}", file=sys.stderr)
    (work / "result.json").write_text(
        json.dumps(dict(result, iterations=iterations, setup_s=setup_walls, probes=probes), indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
