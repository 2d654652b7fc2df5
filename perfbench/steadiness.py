"""Run the benchmark over several seeds and summarise how steady each metric is.

Usage, from the root of a botforge checkout:

    python3 perfbench/steadiness.py --workload http-stub-169 --seeds 1-10 --label a

For every end-to-end metric it prints the median and quartiles of the runs
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the bound from
BENCHMARK.json, marking spreads above a third of their bound. Results go to
.perfbench_work/steadiness-<label>.json; a second set with other seeds is
compared against a first with --against.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", default=None, help="label of an earlier set to compare with")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out_path = Path(".perfbench_work") / f"steadiness-{args.label}.json"
    results = {}
    for workload in args.workload:
        runs = []
        for seed in seed_range(args.seeds):
            t0 = perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": perf_counter() - t0, "attempted": line["attempted"],
                         "failed": line["failed"], "correct": line["correct"],
                         "metrics": {k: v["value"] for k, v in line["metrics"].items()},
                         "detail": json.loads(
                             (Path(".perfbench_work") / workload / "result.json").read_text())})
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s wall, "
                  f"failed {line['failed']}/{line['attempted']}", file=sys.stderr)
        stats = {name: summary([r["metrics"][name] for r in runs]) for name in bounds}
        results[workload] = {"runs": runs, "stats": stats}
        print(f"\n{workload} ({len(runs)} runs, {summary([r['wall_s'] for r in runs])['median']:.1f} s "
              f"median wall per run)")
        for name, s in stats.items():
            flag = "  <-- above bound/3" if s["spread"] > bounds[name] / 3 else ""
            print(f"  {name:15s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} bound {bounds[name]}{flag}")
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1), encoding="utf-8")

    if args.against:
        earlier = json.loads((out_path.parent / f"steadiness-{args.against}.json").read_text())
        for workload, res in results.items():
            if workload not in earlier:
                continue
            print(f"\n{workload}: median against {args.against} (worse > 0)")
            for name, s in res["stats"].items():
                before = earlier[workload]["stats"][name]["median"]
                worse = (s["median"] - before) / before * (1 if better[name] == "lower" else -1)
                flag = "  <-- above bound" if worse > bounds[name] else ""
                print(f"  {name:15s} {before:<12.6g} -> {s['median']:<12.6g} worse {worse:+.4f}"
                      f" bound {bounds[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
