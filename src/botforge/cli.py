"""Command-line interface: personas, simulate, analyze, compare, export.

Config precedence is flags > config file > defaults (and when extending a
run, the previous manifest's config echo sits below the config file; the
settings its tweets depend on, such as the seed, must equal the echo's). The
API credential is read only from the environment, never from flags or
files. Exit codes: 0 success, 1 validation, 2 I/O, 3 backend.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import click

from .benchmark import compare_from_report, render_report
from .content import DEFAULT_MODEL_NAME, make_backend
from .cues import aggregate_cues, load_lexicons, read_cue_report, write_cue_report
from .errors import (BackendError, BotforgeError, ManifestError, SchemaError, ValidationError,
                     read_json)
from .netgraph import build_comm_graph, graph_metrics
from .persona import check_expansion, expand_personas, load_seed_personas, save_personas
from .simcore import (
    SimulationAborted,
    config_from_dict,
    load_corpus,
    read_manifest,
    resume_or_extend,
    simulate_to_dir,
    verify_manifest_files,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_BACKEND = 3


@click.group()
def cli():
    """Simulate bot social networks and benchmark their linguistic realism."""


@cli.group()
def personas():
    """Persona population commands."""


@personas.command("expand")
@click.option("--seed-file", required=True, help="Seed persona JSON document.")
@click.option("--target", type=int, required=True, help="Total population size to reach.")
@click.option("--backend", "backend_name", default="template", show_default=True,
              help="Generation backend: template or llm-http.")
@click.option("--out", required=True, help="Where to write the expanded persona document.")
@click.option("--seed", type=int, default=0, show_default=True, help="Root random seed.")
@click.option("--base-url", default=None, help="Chat-completion endpoint (llm-http).")
@click.option("--model", "model_name", default=DEFAULT_MODEL_NAME, show_default=True)
@click.option("--temperature", type=float, default=0.0, show_default=True)
@click.option("--batch-size", type=int, default=10, show_default=True,
              help="Personas requested per backend call.")
@click.option("--retry-cap", type=int, default=5, show_default=True,
              help="Fruitless batches tolerated before giving up.")
def personas_expand(seed_file, target, backend_name, out, seed, base_url, model_name,
                    temperature, batch_size, retry_cap):
    """Grow a seed population to a target size with generated personas."""
    cfg = config_from_dict({"backend": backend_name, "seed": seed, "base_url": base_url,
                            "model_name": model_name, "temperature": temperature})
    seed_pop = load_seed_personas(seed_file)
    check_expansion(seed_pop, target, batch_size, retry_cap)
    if Path(out).is_dir():
        raise ValidationError(f"--out {out} is a directory; name the file to write")
    backend = make_backend(cfg.backend, seed=cfg.seed, base_url=cfg.base_url,
                           max_retries=cfg.max_retries, backoff_s=cfg.backoff_s)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    pop = expand_personas(seed_pop, target, backend, run_seed=cfg.seed,
                          params=cfg.backend_params(), batch_size=batch_size,
                          retry_cap=retry_cap)
    save_personas(pop, out)
    click.echo(f"wrote {len(pop)} personas to {out}")


def _load_config_file(path: str) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(path, "config file must be a JSON object")
    return doc


@cli.command()
@click.option("--config", "config_path", default=None, help="JSON config file.")
@click.option("--extend-from", default=None,
              help="Existing run directory to append further runs to.")
# Every option below is named after the config key it sets; None means unset.
@click.option("--population", "population_path", default=None, help="Persona JSON document.")
@click.option("--pools", "pools_path", default=None, help="Hashtag/URL pools JSON file.")
@click.option("--backend", default=None, help="template or llm-http.")
@click.option("--mixing", default=None,
              help="Partner-mode split 'p_pa,p_leader,p_random' or a preset name.")
@click.option("--scheme", default=None,
              help="Prompt scheme: naive, or <level>:<cue,...> (e.g. targets:negative_sentiment).")
@click.option("--seed", type=int, default=None, help="Root random seed.")
@click.option("--runs", type=int, default=None, help="Number of runs to simulate.")
@click.option("--temperature", type=float, default=None)
@click.option("--model", "model_name", default=None)
@click.option("--max-tokens", type=int, default=None)
@click.option("--base-url", default=None)
@click.option("--out-dir", default=None, help="Output directory.")
@click.option("--require-both-eligibility", is_flag=True, default=None,
              help="Partner candidates must share community AND a narrative (default: OR).")
def simulate(config_path, extend_from, **flags):
    """Run the simulation and write the output directory."""
    merged: dict = {}
    if extend_from:
        merged.update(read_manifest(extend_from).get("config", {}))
        merged.pop("out_dir", None)
    if config_path:
        merged.update(_load_config_file(config_path))
    merged.update({k: v for k, v in flags.items() if v is not None})
    cfg = config_from_dict(merged)

    if extend_from:
        result = resume_or_extend(extend_from, cfg)
        where = cfg.out_dir or extend_from
    else:
        result = simulate_to_dir(cfg)
        where = cfg.out_dir
    click.echo(
        f"run complete: {len(result.tweets)} tweets, "
        f"{result.graph.n_edges} edges -> {where}"
    )


@cli.command()
@click.option("--corpus-dir", required=True, help="A simulate output directory.")
@click.option("--lexicon-dir", default=None,
              help="Directory of <category>.txt lexicon files (default: shipped lexicons).")
@click.option("--out", required=True, help="Cue report CSV path.")
@click.option("--per-post", is_flag=True, default=False,
              help="Pool per-post values instead of per-agent means.")
def analyze(corpus_dir, lexicon_dir, out, per_post):
    """Extract the cue report from a simulated corpus."""
    manifest = read_manifest(corpus_dir)
    verify_manifest_files(corpus_dir, manifest, ("tweets.jsonl", "population.json"))
    if manifest.get("status") == "aborted":
        click.echo(f"note: {corpus_dir} is an aborted run ({manifest.get('error')}); "
                   "analyzing the tweets it committed", err=True)
    pop, tweets = load_corpus(corpus_dir)
    lexicons = load_lexicons(lexicon_dir)
    graph = build_comm_graph(tweets, pop)
    metrics = graph_metrics(graph, pop)
    agg = aggregate_cues(tweets, metrics, pop, lexicons, per_post=per_post)
    write_cue_report(agg, out)
    click.echo(f"wrote cue report over {len(agg.per_agent)} agents to {out}")


@cli.command()
@click.option("--cues", "cues_path", required=True, help="Cue report CSV from analyze.")
@click.option("--out", default=None, help="Report file (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["markdown", "csv"]), default="markdown",
              show_default=True)
def compare(cues_path, out, fmt):
    """Compare a cue report against the wild bot/human baselines."""
    report = read_cue_report(cues_path)
    rows = compare_from_report(report)
    text = render_report(rows, fmt)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {fmt} report to {out}")
    else:
        click.echo(text, nl=False)


@cli.command()
@click.option("--run-dir", required=True, help="A simulate output directory.")
@click.option("--format", "fmt", type=click.Choice(["csv", "graphml", "both"]),
              default="both", show_default=True)
@click.option("--out-dir", default=None,
              help="Destination, never another run directory (default: none; only verify).")
def export(run_dir, fmt, out_dir):
    """Copy the communication graph files of a run directory, once they verify."""
    names = ["graph.csv", "graph.graphml"] if fmt == "both" else [f"graph.{fmt}"]
    manifest = read_manifest(run_dir)
    verify_manifest_files(run_dir, manifest, ("tweets.jsonl", "population.json", *names))
    run = Path(run_dir)
    dest = Path(out_dir) if out_dir else run
    if dest.is_dir() and dest.samefile(run):
        click.echo(f"{', '.join(names)} in {dest} verified; nothing written")
        return
    if (dest / "manifest.json").exists():
        raise ManifestError(f"{dest} is another run directory; its graph files stay as they are")
    dest.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(run / name, dest / name)
    click.echo(f"wrote {', '.join(names)} to {dest}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return EXIT_VALIDATION
    except click.ClickException as exc:
        exc.show()
        return EXIT_VALIDATION
    except SimulationAborted as exc:
        click.echo(f"error: {exc} (partial outputs written)", err=True)
        return EXIT_BACKEND
    except BackendError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_BACKEND
    except BotforgeError as exc:  # ValidationError, SchemaError, ManifestError and the rest
        click.echo(f"error: {exc}", err=True)
        return EXIT_VALIDATION
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
