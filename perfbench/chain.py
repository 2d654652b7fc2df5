"""Chain worker: runs simulate -> analyze -> compare in-process, iteration after iteration.

Usage: python3 perfbench/chain.py JOB.json (run.py writes the job and starts
this worker with src/ on PYTHONPATH). Set-up (imports, population, pools,
lexicons) happens before the first timed iteration. Each iteration writes a
fresh run directory and times its three stages one by one; only package calls
are timed, and the comparison rows are saved afterwards, untimed, for run.py's
checks. The worker stops after the first iteration that ends past the job's
seconds.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import networkx  # noqa: F401  (export_graphml imports it lazily; load it before timing)

from botforge import benchmark, content, cues, netgraph, persona, simcore
from tracing import Tracer, layer_metrics


def timed(fn, *args, **kwargs):
    """(fn's value, wall seconds, CPU seconds) of one call, after collecting garbage.

    Collecting first gives each stage the clean heap it has when the CLI runs
    it in a process of its own, and keeps one stage's garbage out of the next.
    """
    gc.collect()
    cpu0, t0 = process_time(), perf_counter()
    value = fn(*args, **kwargs)
    return value, perf_counter() - t0, process_time() - cpu0


def analyze(run_dir: Path, lexicons) -> int:
    """The analyze stage; returns the number of tweets analyzed."""
    pop, tweets = simcore.load_corpus(run_dir)
    graph = netgraph.build_comm_graph(tweets, pop)
    metrics = netgraph.graph_metrics(graph, pop)
    agg = cues.aggregate_cues(tweets, metrics, pop, lexicons)
    cues.write_cue_report(agg, run_dir / "cues.csv")
    return len(tweets)


def compare(run_dir: Path):
    """The compare stage; returns the comparison rows and the rendered report."""
    rows = benchmark.compare_from_report(cues.read_cue_report(run_dir / "cues.csv"))
    return rows, benchmark.render_report(rows)


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    work = Path(job["work"])
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install(
            {
                "simcore": simcore,
                "netgraph": netgraph,
                "cues": cues,
                "benchmark": benchmark,
                "TemplateBackend": content.TemplateBackend,
                "LlmHttpBackend": content.LlmHttpBackend,
            }
        )

    pop = persona.load_seed_personas(job["config"]["population_path"])
    pools = content.load_pools(job["config"]["pools_path"])
    lexicons = cues.load_lexicons()
    base_dir = job.get("base_dir")
    prior_tweets = simcore.read_manifest(base_dir)["tweet_count"] if base_dir else 0

    # The analyze stage runs the workload's fixed number of passes, and the
    # iteration's analyze time is their mean: the stage's total time divided
    # by its passes, as timeit reports a repeat of several calls. Where the
    # workload has a reference directory, whose tweets and graph the checks
    # require to equal the iteration's byte for byte, half of the passes
    # analyze it before the simulate stage, and the rest analyze the
    # iteration's own directory after it; the passes so sample the machine at
    # both ends of a long simulate stage. The traced run analyzes its own
    # directory once, so its per-layer figures count one chain.
    passes_after = 1 if tracer else job["analyze_passes"]
    reference = job.get("reference_dir")
    passes_before = passes_after // 2 if reference else 0
    passes_after -= passes_before
    iterations = []
    traces = []
    started = perf_counter()
    while True:
        out = work / f"iter{len(iterations)}"
        doc = dict(job["config"], out_dir=str(out))
        if job.get("base_url"):
            doc["base_url"] = f"{job['base_url']}/{out.name}/v1/chat/completions"
        cfg = simcore.config_from_dict(doc)
        backend = content.make_backend(
            cfg.backend, seed=cfg.seed, base_url=cfg.base_url,
            max_retries=cfg.max_retries, backoff_s=cfg.backoff_s,
        )
        passes = []
        for _ in range(passes_before):
            _, wall, cpu = timed(analyze, Path(reference), lexicons)
            passes.append((wall, cpu))
        if base_dir:
            result, simulate_s, simulate_cpu = timed(simcore.resume_or_extend, base_dir, cfg)
        else:
            result, simulate_s, simulate_cpu = timed(
                simcore.simulate_to_dir, cfg, pop=pop, pools=pools, backend=backend)
        new_tweets = len(result.tweets) - prior_tweets
        del result
        for _ in range(passes_after):
            analyzed, wall, cpu = timed(analyze, out, lexicons)
            passes.append((wall, cpu))
        analyze_s = statistics.fmean(wall for wall, _ in passes)
        analyze_cpu = statistics.fmean(cpu for _, cpu in passes)
        (rows, report), compare_s, compare_cpu = timed(compare, out)

        (out / "compare.md").write_text(report, encoding="utf-8")
        (out / "compare.json").write_text(
            json.dumps([dataclasses.asdict(r) for r in rows]), encoding="utf-8"
        )
        record = {
            "dir": str(out),
            "simulate_s": simulate_s,
            "analyze_s": analyze_s,
            "pipeline_s": simulate_s + analyze_s + compare_s,
            "pipeline_cpu_s": simulate_cpu + analyze_cpu + compare_cpu,
            "new_tweets": new_tweets,
            "analyzed_tweets": analyzed,
            "analyze_pass_s": [wall for wall, _ in passes],
        }
        if tracer is not None:
            spans, counts = tracer.take()
            record["layers"] = layer_metrics(spans, counts)
            traces.append(spans)
        iterations.append(record)
        if perf_counter() - started >= job["seconds"]:
            break

    if traces:
        with open(work / "spans.tsv", "w", encoding="utf-8") as fh:
            fh.write("iteration\tname\tstart\tend\tparent\n")
            for k, spans in enumerate(traces):
                for name, start, end, parent in spans:
                    fh.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(
        json.dumps({"iterations": iterations, "peak_rss_mb": peak_mb}), encoding="utf-8"
    )


if __name__ == "__main__":
    main(sys.argv[1])
