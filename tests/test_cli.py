"""End-to-end command-line coverage: every subcommand plus the exit-code map."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from botforge.cli import main
from botforge.cues import default_lexicon_dir
from botforge.errors import BackendError
from botforge.persona import load_seed_personas, save_personas
from botforge.simcore import SimulationAborted, config_from_dict, read_manifest, simulate_to_dir


@pytest.fixture()
def pop_file(micro_pop, tmp_path):
    path = tmp_path / "pop.json"
    save_personas(micro_pop, path)
    return str(path)


@pytest.fixture()
def cli_run_dir(pop_file, tmp_path, capsys):
    """A run directory produced through the CLI itself."""
    out = tmp_path / "run"
    code = main([
        "simulate",
        "--population", pop_file,
        "--out-dir", str(out),
        "--seed", "5",
        "--runs", "1",
    ])
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
    return out


def test_cli_and_graphml_export_do_not_load_networkx(tmp_path):
    # networkx is a test-only oracle for the GraphML writer, not a runtime dependency.
    code = (
        "import sys, botforge.cli\n"
        "assert 'networkx' not in sys.modules, 'import'\n"
        "from botforge.netgraph import build_comm_graph, export_graphml\n"
        "from botforge.persona import load_seed_personas, default_population_path\n"
        "pop = load_seed_personas(default_population_path())\n"
        "export_graphml(build_comm_graph([], pop), pop, sys.argv[1])\n"
        "assert 'networkx' not in sys.modules, 'export'\n"
    )
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "g.graphml")],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_subcommand_is_validation_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_option(capsys):
    assert main(["analyze"]) == 1


class TestSimulate:
    def test_happy_path(self, cli_run_dir, capsys):
        manifest = read_manifest(cli_run_dir)
        assert manifest["status"] == "ok"
        assert manifest["config"]["seed"] == 5

    def test_reports_summary_line(self, pop_file, tmp_path, capsys):
        out = tmp_path / "run2"
        assert main(["simulate", "--population", pop_file,
                     "--out-dir", str(out), "--runs", "1"]) == 0
        assert "run complete:" in capsys.readouterr().out

    def test_missing_population_file_is_io_error(self, tmp_path, capsys):
        code = main(["simulate", "--population", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read persona file")

    def test_bad_mixing_flag(self, pop_file, tmp_path, capsys):
        code = main(["simulate", "--population", pop_file,
                     "--out-dir", str(tmp_path / "run"), "--mixing", "bogus"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_bad_scheme_flag(self, pop_file, tmp_path, capsys):
        code = main(["simulate", "--population", pop_file,
                     "--out-dir", str(tmp_path / "run"), "--scheme", "bogus"])
        assert code == 1

    def test_llm_http_requires_base_url(self, pop_file, tmp_path, capsys):
        code = main(["simulate", "--population", pop_file,
                     "--out-dir", str(tmp_path / "run"), "--backend", "llm-http"])
        assert code == 1
        assert "base_url" in capsys.readouterr().err

    def test_out_dir_required(self, pop_file, capsys):
        assert main(["simulate", "--population", pop_file]) == 1
        assert "--out-dir" in capsys.readouterr().err

    def test_population_required(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path / "run")]) == 1
        assert "--population" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, pop_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 5,
            "runs": 1,
            "population_path": pop_file,
            "out_dir": str(tmp_path / "run3"),
        }))
        assert main(["simulate", "--config", str(cfg_path), "--seed", "7"]) == 0
        # flags outrank the config file
        assert read_manifest(tmp_path / "run3")["config"]["seed"] == 7

    def test_wrong_typed_config_value_is_validation_error(self, pop_file, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"runs": "3"}))
        assert main(["simulate", "--config", str(cfg_path), "--population", pop_file,
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert "config.runs: must be int" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"backoff_s": -1}, "backoff_s must be finite and >= 0 (got -1)"),
        ({"backoff_s": float("inf")}, "backoff_s must be finite and >= 0 (got inf)"),
        ({"temperature": float("nan")}, "temperature must be finite and >= 0 (got nan)"),
        ({"temperature": float("-inf")}, "temperature must be finite and >= 0 (got -inf)"),
    ], ids=["negative backoff", "infinite backoff", "NaN temperature", "-inf temperature"])
    def test_out_of_range_config_value_is_validation_error(self, pop_file, tmp_path, capsys,
                                                           doc, message):
        # Python's json reads NaN and Infinity, so a config file can hold them.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path), "--population", pop_file,
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc,message", [
        ({"mixing": [0.5, 0.5, "x"]}, "config.mixing: must be 3 numbers"),
        ({"mixing": [True, False, False]}, "config.mixing: must be 3 numbers"),
        ({"mixing": ["1", "0", "0"]}, "config.mixing: must be 3 numbers"),
        ({"mixing": [0.5, 0.5]}, "config.mixing: must be 3 numbers"),
        ({"scheme": {"level": "targets", "targeted_cues": 5}},
         "config.scheme.targeted_cues: must be list"),
        ({"scheme": {"level": "targets", "targeted_cues": ["expletive", 5]}},
         "config.scheme.targeted_cues: must be a list of str"),
        ({"scheme": {"level": 2}}, "config.scheme.level: must be str"),
        ({"scheme": {"levels": "targets"}}, "config.scheme: unknown scheme keys ['levels']"),
    ], ids=["mixing str", "mixing bools", "mixing numeric strs", "mixing of 2", "cues int",
            "cues of int", "level int", "unknown scheme key"])
    def test_wrong_typed_mixing_or_scheme_is_schema_error(self, pop_file, tmp_path, capsys,
                                                          doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path), "--population", pop_file,
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()

    def test_config_file_must_be_json(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{nope")
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_extend_from_previous_run(self, cli_run_dir, capsys):
        assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "1"]) == 0
        assert read_manifest(cli_run_dir)["runs_completed"] == 2

    @pytest.mark.parametrize("key,value", [("runs_completed", None), ("runs_completed", True),
                                           ("tweet_count", -1), ("files", [])])
    def test_extend_from_malformed_manifest(self, cli_run_dir, capsys, key, value):
        path = cli_run_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in cli_run_dir.iterdir()}
        assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "1"]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in cli_run_dir.iterdir()} == before


def _forge_graph_csv(run_dir, edit) -> None:
    """Rewrite run_dir's graph.csv rows with edit and record the new file's hash."""
    path = run_dir / "graph.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(f"{row}\r\n" for row in edit(rows)), encoding="utf-8", newline="")
    manifest = read_manifest(run_dir)
    manifest["files"]["graph.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def _set_field(rows, index, value):
    first = rows[1].split(",")
    first[index] = value(first)
    return [rows[0], ",".join(first), *rows[2:]]


# A forged graph.csv, and the line its refusal names.
_BAD_GRAPHS = {
    "header": (lambda rows: ["src,dst,weight,retweets,quotes,replies", *rows[1:]], 1),
    "unknown agent": (lambda rows: _set_field(rows, 0, lambda _: "ghost_agent"), 2),
    "self-loop": (lambda rows: _set_field(rows, 1, lambda row: row[0]), 2),
    "duplicate edge": (lambda rows: [*rows[:2], rows[1], *rows[2:]], 3),
    "non-integer weight": (lambda rows: _set_field(rows, 2, lambda _: "x"), 2),
    "negative count": (lambda rows: _set_field(rows, 3, lambda _: "-1"), 2),
    "weight not the sum": (lambda rows: _set_field(rows, 2, lambda row: str(int(row[2]) + 1)), 2),
}


@pytest.mark.parametrize("case", sorted(_BAD_GRAPHS))
def test_extend_refuses_bad_graph_csv(cli_run_dir, capsys, case):
    edit, line = _BAD_GRAPHS[case]
    _forge_graph_csv(cli_run_dir, edit)
    before = {p.name: p.read_bytes() for p in cli_run_dir.iterdir()}
    assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "1"]) == 1
    assert f"graph.csv:{line}: " in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in cli_run_dir.iterdir()} == before


def _put_byte_ff(path, at=10) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def _non_utf8_input(kind, run_dir, pop_file, tmp_path):
    """(argv, the input file of that kind, holding one byte that is not UTF-8)."""
    run = ["simulate", "--population", pop_file, "--out-dir", str(tmp_path / "new")]
    if kind == "population":
        return run, Path(pop_file)
    if kind == "pools":
        path = tmp_path / "pools.json"
        path.write_text('{"hashtags": ["#x"], "urls": []}')
        return [*run, "--pools", str(path)], path
    if kind == "config":
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 1}')
        return [*run, "--config", str(path)], path
    analyze = ["analyze", "--corpus-dir", str(run_dir), "--out", str(tmp_path / "cues.csv")]
    if kind == "manifest":
        return analyze, run_dir / "manifest.json"
    if kind == "lexicon":
        lexicons = tmp_path / "lexicons"
        shutil.copytree(default_lexicon_dir(), lexicons)
        return [*analyze, "--lexicon-dir", str(lexicons)], lexicons / "abusive.txt"
    assert main(analyze) == 0
    return ["compare", "--cues", str(tmp_path / "cues.csv")], tmp_path / "cues.csv"


@pytest.mark.parametrize("kind", ["population", "pools", "config", "manifest", "lexicon",
                                  "cue report"])
def test_non_utf8_input_file_is_refused(cli_run_dir, pop_file, tmp_path, capsys, kind):
    argv, path = _non_utf8_input(kind, cli_run_dir, pop_file, tmp_path)
    _put_byte_ff(path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid UTF-8")


class TestAnalyzeCompareExport:
    def test_analyze_writes_report(self, cli_run_dir, tmp_path, capsys):
        cues = tmp_path / "cues.csv"
        assert main(["analyze", "--corpus-dir", str(cli_run_dir), "--out", str(cues)]) == 0
        assert "over 4 agents" in capsys.readouterr().out
        header = cues.read_text().splitlines()[0]
        assert header == "cue,per_agent_mean,per_agent_std,n_agents"

    def test_analyze_refuses_tampered_corpus(self, cli_run_dir, tmp_path, capsys):
        path = cli_run_dir / "tweets.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        tweet = json.loads(lines[0])
        tweet["text"] += " edited"
        lines[0] = json.dumps(tweet) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        cues = tmp_path / "cues.csv"
        assert main(["analyze", "--corpus-dir", str(cli_run_dir), "--out", str(cues)]) == 1
        assert "hash mismatch for tweets.jsonl" in capsys.readouterr().err
        assert not cues.exists()

    def test_analyze_notes_aborted_run(self, micro_pop, tmp_path, capsys):
        class _DownAfterFive:
            def __init__(self):
                self.calls = 0
                self.lock = threading.Lock()

            def complete(self, system_text, user_text, params):
                with self.lock:
                    self.calls += 1
                    if self.calls > 5:
                        raise BackendError("backend down")
                return "A planned note for the schedule."

        out = tmp_path / "aborted"
        cfg = config_from_dict({"seed": 5, "out_dir": str(out)})
        with pytest.raises(SimulationAborted):
            simulate_to_dir(cfg, pop=micro_pop, backend=_DownAfterFive())
        cues = tmp_path / "cues.csv"
        assert main(["analyze", "--corpus-dir", str(out), "--out", str(cues)]) == 0
        assert "aborted run (backend down)" in capsys.readouterr().err
        assert cues.is_file()

    def test_compare_to_stdout(self, cli_run_dir, tmp_path, capsys):
        cues = tmp_path / "cues.csv"
        assert main(["analyze", "--corpus-dir", str(cli_run_dir), "--out", str(cues)]) == 0
        capsys.readouterr()
        assert main(["compare", "--cues", str(cues)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| cue |")
        assert "first_person_pronouns" in out

    def test_compare_to_csv_file(self, cli_run_dir, tmp_path, capsys):
        cues = tmp_path / "cues.csv"
        report = tmp_path / "report.csv"
        assert main(["analyze", "--corpus-dir", str(cli_run_dir), "--out", str(cues)]) == 0
        assert main(["compare", "--cues", str(cues),
                     "--out", str(report), "--format", "csv"]) == 0
        assert report.read_text().splitlines()[0].startswith("cue,mean,std,n,")

    def test_compare_rejects_unknown_format(self, tmp_path, capsys):
        assert main(["compare", "--cues", "x.csv", "--format", "pdf"]) == 1

    def test_export_both_formats(self, cli_run_dir, tmp_path, capsys):
        dest = tmp_path / "exported"
        assert main(["export", "--run-dir", str(cli_run_dir),
                     "--out-dir", str(dest)]) == 0
        assert (dest / "graph.csv").is_file()
        assert (dest / "graph.graphml").is_file()

    def test_export_refuses_tampered_corpus(self, cli_run_dir, capsys):
        with open(cli_run_dir / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["export", "--run-dir", str(cli_run_dir)]) == 1
        assert "hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze", "--corpus-dir", "{run}", "--out", "{out}"],
                                         ["export", "--run-dir", "{run}", "--out-dir", "{out}"]])
    def test_non_utf8_corpus_line_is_refused(self, cli_run_dir, tmp_path, capsys, command):
        # The manifest records the damaged file's hash, so only the reader can refuse it.
        path = cli_run_dir / "tweets.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b'"text": "', b'"text": "\xff', 1)
        path.write_bytes(b"\n".join(lines))
        manifest = read_manifest(cli_run_dir)
        manifest["files"]["tweets.jsonl"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (cli_run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        argv = [arg.format(run=cli_run_dir, out=tmp_path / "out") for arg in command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not valid UTF-8")


class TestPersonasExpand:
    def test_expand_happy_path(self, pop_file, tmp_path, capsys):
        out = tmp_path / "expanded.json"
        code = main([
            "personas", "expand",
            "--seed-file", pop_file,
            "--target", "6",
            "--out", str(out),
        ])
        assert code == 0
        assert "wrote 6 personas" in capsys.readouterr().out
        expanded = load_seed_personas(out)
        assert len(expanded) == 6
        assert {"a_01", "a_02", "b_01", "b_02"} <= set(expanded.ids())

    def test_expand_target_below_seed(self, pop_file, tmp_path, capsys):
        code = main([
            "personas", "expand",
            "--seed-file", pop_file,
            "--target", "2",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "target below seed size" in capsys.readouterr().err
