"""End-to-end command-line coverage: every subcommand plus the exit-code map."""

import builtins
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from botforge.cli import main
from botforge.content import TemplateBackend
from botforge.cues import default_lexicon_dir
from botforge.errors import BackendError
from botforge.netgraph import build_comm_graph, export_edges_csv, export_graphml
from botforge.persona import default_population_path, load_seed_personas, save_personas
from botforge.simcore import (
    SimulationAborted,
    config_from_dict,
    load_corpus,
    read_manifest,
    simulate_to_dir,
)


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


# The refusal of a simulate call that lacks an input: it names the flag and the config key.
_MISSING = {
    "out_dir": "error: config has no out_dir: pass --out-dir or set out_dir in the config\n",
    "population_path": "error: config has no population_path: pass --population or set "
                       "population_path in the config\n",
}


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

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_naive_scheme_with_cues_is_refused(self, pop_file, tmp_path, capsys, form):
        argv = ["simulate", "--population", pop_file, "--out-dir", str(tmp_path / "run")]
        if form == "flag":
            argv += ["--scheme", "naive:abusive"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                {"scheme": {"level": "naive", "targeted_cues": ["abusive"]}}))
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: scheme level 'naive' takes no cues\n"
        assert not (tmp_path / "run").exists()

    def test_llm_http_requires_base_url(self, pop_file, tmp_path, capsys):
        code = main(["simulate", "--population", pop_file,
                     "--out-dir", str(tmp_path / "run"), "--backend", "llm-http"])
        assert code == 1
        assert "base_url" in capsys.readouterr().err

    def test_out_dir_required(self, pop_file, tmp_path, capsys):
        before = sorted(tmp_path.iterdir())
        assert main(["simulate", "--population", pop_file]) == 1
        assert capsys.readouterr().err == _MISSING["out_dir"]
        assert sorted(tmp_path.iterdir()) == before

    def test_population_required(self, tmp_path, capsys):
        assert main(["simulate", "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == _MISSING["population_path"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("missing", sorted(_MISSING))
    def test_config_file_without_an_input(self, pop_file, tmp_path, capsys, missing):
        doc = {"population_path": pop_file, "out_dir": str(tmp_path / "run")}
        del doc[missing]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        before = sorted(tmp_path.iterdir())
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == _MISSING[missing]
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize("in_config,flag,expected", [
        (True, False, True), (False, True, True), (None, True, True), (None, False, False),
    ], ids=["config only", "flag over config", "flag only", "neither"])
    def test_require_both_eligibility_precedence(self, pop_file, tmp_path, capsys, in_config,
                                                 flag, expected):
        doc = {"population_path": pop_file, "out_dir": str(tmp_path / "run")}
        if in_config is not None:
            doc["require_both_eligibility"] = in_config
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(cfg_path)]
        assert main(argv + ["--require-both-eligibility"] * flag) == 0
        config = read_manifest(tmp_path / "run")["config"]
        assert config["require_both_eligibility"] is expected

    def test_input_flags_set_their_config_keys(self, pop_file, tmp_path, capsys):
        # --population and --pools set population_path and pools_path, over the config file.
        pools = tmp_path / "pools.json"
        pools.write_text(json.dumps({"hashtags": ["#x"], "urls": []}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"population_path": str(tmp_path / "missing.json"),
                                        "pools_path": str(tmp_path / "missing_pools.json")}))
        assert main(["simulate", "--config", str(cfg_path), "--population", pop_file,
                     "--pools", str(pools), "--out-dir", str(tmp_path / "run")]) == 0
        config = read_manifest(tmp_path / "run")["config"]
        assert (config["population_path"], config["pools_path"]) == (pop_file, str(pools))

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
        ({"max_tokens": 0}, "max_tokens must be >= 1 (got 0)"),
        ({"max_tokens": -5}, "max_tokens must be >= 1 (got -5)"),
    ], ids=["negative backoff", "infinite backoff", "NaN temperature", "-inf temperature",
            "zero max_tokens", "negative max_tokens"])
    def test_out_of_range_config_value_is_validation_error(self, pop_file, tmp_path, capsys,
                                                           doc, message):
        # Python's json reads NaN and Infinity, so a config file can hold them.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path), "--population", pop_file,
                     "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()

    def test_zero_max_tokens_flag_is_validation_error(self, pop_file, tmp_path, capsys):
        assert main(["simulate", "--population", pop_file, "--out-dir", str(tmp_path / "run"),
                     "--max-tokens", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: max_tokens must be >= 1 (got 0)")
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

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "8"], "seed 8: the run was made with seed 5"),
        (["--mixing", "pa+leader"], "mixing [0.7, 0.3, 0.0]: the run was made with mixing "
                                    "[1.0, 0.0, 0.0]"),
        (["--scheme", "targets:all"], "the run was made with scheme {'level': 'naive', "
                                      "'targeted_cues': []}"),
        (["--temperature", "0.5"], "temperature 0.5: the run was made with temperature 0.0"),
        (["--require-both-eligibility"], "require_both_eligibility True: the run was made with "
                                         "require_both_eligibility False"),
    ], ids=["seed", "mixing", "scheme", "temperature", "require-both"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["out-dir", "in-place"])
    def test_extend_refuses_other_settings(self, cli_run_dir, tmp_path, capsys, flags, message,
                                           in_place):
        before = {p.name: p.read_bytes() for p in cli_run_dir.iterdir()}
        out = [] if in_place else ["--out-dir", str(tmp_path / "ext")]
        assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "1", *flags,
                     *out]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ext").exists()
        assert {p.name: p.read_bytes() for p in cli_run_dir.iterdir()} == before

    def test_extend_takes_other_runs_and_out_dir(self, cli_run_dir, tmp_path, capsys):
        out = tmp_path / "ext"
        assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "2",
                     "--out-dir", str(out)]) == 0
        assert read_manifest(out)["runs_completed"] == 3

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


# A 14-cue report with one row altered, the line its refusal names, and a
# piece of the message. The first cue is on line 2, the last on line 15.
_BAD_CUE_REPORTS = {
    "mean not a number": (lambda rows: _set_field(rows, 1, lambda _: "abc"), 2,
                          "could not convert string to float: 'abc'"),
    "no n_agents field": (lambda rows: [rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]], 2,
                          "row must have the fields"),
    "extra field": (lambda rows: [rows[0], rows[1] + ",7", *rows[2:]], 2,
                    "row must have the fields"),
    "fractional n": (lambda rows: _set_field(rows, 3, lambda _: "1.5"), 2,
                     "invalid literal for int()"),
    "NaN mean": (lambda rows: _set_field(rows, 1, lambda _: "nan"), 2,
                 "mean must be finite, std finite and >= 0 (got (nan, "),
    "infinite mean": (lambda rows: _set_field(rows, 1, lambda _: "-inf"), 2, "(got (-inf, "),
    "negative std": (lambda rows: _set_field(rows, 2, lambda _: "-1"), 2, ", -1.0))"),
    "infinite std": (lambda rows: _set_field(rows, 2, lambda _: "inf"), 2, ", inf))"),
    "repeated cue": (lambda rows: [*rows, rows[1]], 16,
                     "cue 'first_person_pronouns' is reported twice"),
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


def _record_hash(run_dir, name) -> None:
    """Record the current hash of run_dir/name in its manifest."""
    manifest = read_manifest(run_dir)
    manifest["files"][name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


# Text that nests deeper than any JSON reader can follow.
_TOO_DEEP = {"arrays": "[" * 100_000, "objects": '{"a":' * 100_000}


def _nested_input(kind, run_dir, pop_file, tmp_path, deep):
    """(argv, the named input file with deep in it, the position its refusal names)."""
    analyze = ["analyze", "--corpus-dir", str(run_dir), "--out", str(tmp_path / "cues.csv")]
    extend = ["simulate", "--extend-from", str(run_dir), "--runs", "1",
              "--out-dir", str(tmp_path / "ext")]
    if kind == "config":
        path = tmp_path / "cfg.json"
        path.write_text(deep)
        return ["simulate", "--population", pop_file, "--out-dir", str(tmp_path / "new"),
                "--config", str(path)], str(path)
    if kind == "manifest":
        path = run_dir / "manifest.json"
        path.write_text(deep)
        return analyze, str(path)
    if kind in ("population", "pools"):
        path = run_dir / f"{kind}.json"
        path.write_text(deep)
        _record_hash(run_dir, path.name)
        return extend, str(path)
    path = run_dir / "tweets.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    at = len(lines) if kind == "corpus tail" else 3
    lines[at - 1] = deep
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    _record_hash(run_dir, path.name)
    if kind == "corpus tail":
        return extend, f"{path}:{at}"
    return analyze, f"{path}:{at}"


@pytest.mark.parametrize("deep", sorted(_TOO_DEEP))
@pytest.mark.parametrize("kind", ["corpus (analyze)", "corpus tail", "population", "pools",
                                  "config", "manifest"])
def test_deeply_nested_json_is_refused(cli_run_dir, pop_file, tmp_path, capsys, kind, deep):
    argv, where = _nested_input(kind, cli_run_dir, pop_file, tmp_path, _TOO_DEEP[deep])
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {where}: not valid JSON: nested too deeply\n"


# Valid JSON nested deep enough to overflow the stack of a decoder that follows it.
_DEEP_VALID = {"arrays": "[" * 300_000 + "]" * 300_000,
               "objects": '{"a":' * 300_000 + "1" + "}" * 300_000}


@pytest.mark.parametrize("deep", sorted(_DEEP_VALID))
@pytest.mark.parametrize("kind", ["corpus (analyze)", "corpus tail"])
def test_deeply_nested_valid_line_is_refused(cli_run_dir, pop_file, tmp_path, kind, deep):
    """botforge in a process of its own: a crash there fails this test, and pytest goes on."""
    argv, where = _nested_input(kind, cli_run_dir, pop_file, tmp_path, _DEEP_VALID[deep])
    done = subprocess.run([sys.executable, "-m", "botforge.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (
        1, f"error: {where}: not valid JSON: nested too deeply\n")


class _DownAfter:
    """A backend whose calls after the first n fail."""

    def __init__(self, n):
        self.n = n
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, system_text, user_text, params):
        with self.lock:
            self.calls += 1
            if self.calls > self.n:
                raise BackendError("backend down")
        return "A planned note for the schedule."


_GRAPH_FILES = ("graph.csv", "graph.graphml")


def _shipped_run(tmp_path, monkeypatch, case) -> Path:
    """A run directory of the shipped personas, seed 3, made through the CLI.

    case is a mixing preset (one run), "extended in place" (one
    pa+leader+random run, then two more appended in place) or "aborted"
    (the backend fails after 200 calls of the first run).
    """
    run = tmp_path / "run"
    argv = ["simulate", "--population", str(default_population_path()), "--seed", "3",
            "--runs", "1", "--out-dir", str(run),
            "--mixing", case if case in ("pa", "pa+leader") else "pa+leader+random"]
    if case == "aborted":
        monkeypatch.setattr("botforge.simcore.make_backend", lambda *a, **kw: _DownAfter(200))
        assert main(argv) == 3
    else:
        assert main(argv) == 0
    if case == "extended in place":
        assert main(["simulate", "--extend-from", str(run), "--runs", "2"]) == 0
    return run


def _rebuilt_graph(run_dir, dest) -> dict[str, bytes]:
    """The graph files as rebuilt from run_dir's corpus, written into dest: export's oracle."""
    pop, tweets = load_corpus(run_dir)
    graph = build_comm_graph(tweets, pop)
    dest.mkdir()
    export_edges_csv(graph, dest / "graph.csv")
    export_graphml(graph, pop, dest / "graph.graphml")
    return {name: (dest / name).read_bytes() for name in _GRAPH_FILES}


def _refuse_writes(mp) -> None:
    """Make every file write, copy, directory creation and rename raise OSError."""
    def refuse(*args, **kwargs):
        raise OSError("write refused")

    def reading_only(real_open):
        def opener(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                refuse()
            return real_open(file, mode, *args, **kwargs)
        return opener

    mp.setattr(builtins, "open", reading_only(builtins.open))
    mp.setattr(io, "open", reading_only(io.open))
    for name in ("copyfile", "copy", "copy2", "copyfileobj"):
        mp.setattr(shutil, name, refuse)
    for name in ("mkdir", "makedirs", "replace", "rename"):
        mp.setattr(os, name, refuse)


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
        out = tmp_path / "aborted"
        cfg = config_from_dict({"seed": 5, "out_dir": str(out)})
        with pytest.raises(SimulationAborted):
            simulate_to_dir(cfg, pop=micro_pop, backend=_DownAfter(5))
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

    @pytest.mark.parametrize("case", sorted(_BAD_CUE_REPORTS))
    def test_compare_refuses_malformed_cue_report(self, cli_run_dir, tmp_path, capsys, case):
        edit, line, message = _BAD_CUE_REPORTS[case]
        cues = tmp_path / "cues.csv"
        assert main(["analyze", "--corpus-dir", str(cli_run_dir), "--out", str(cues)]) == 0
        capsys.readouterr()
        cues.write_text("".join(f"{row}\n" for row in edit(cues.read_text().splitlines())))
        assert main(["compare", "--cues", str(cues)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cues}:{line}: ") and message in err, err

    def test_compare_rejects_unknown_format(self, tmp_path, capsys):
        assert main(["compare", "--cues", "x.csv", "--format", "pdf"]) == 1

    def test_export_both_formats(self, cli_run_dir, tmp_path, capsys):
        # A plain directory, with no manifest.json, takes the copies beside what it holds.
        dest = tmp_path / "exported"
        dest.mkdir()
        (dest / "notes.txt").write_text("kept")
        assert main(["export", "--run-dir", str(cli_run_dir),
                     "--out-dir", str(dest)]) == 0
        assert sorted(path.name for path in dest.iterdir()) == [*_GRAPH_FILES, "notes.txt"]
        for name in _GRAPH_FILES:
            assert (dest / name).read_bytes() == (cli_run_dir / name).read_bytes()

    def test_export_refuses_another_run_directory(self, cli_run_dir, pop_file, tmp_path,
                                                 capsys):
        other = tmp_path / "other"
        assert main(["simulate", "--population", pop_file, "--out-dir", str(other),
                     "--seed", "6", "--runs", "1"]) == 0
        before = {path.name: path.read_bytes() for path in other.iterdir()}
        assert any(before[name] != (cli_run_dir / name).read_bytes() for name in _GRAPH_FILES)
        capsys.readouterr()
        assert main(["export", "--run-dir", str(cli_run_dir), "--out-dir", str(other)]) == 1
        assert "is another run directory" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in other.iterdir()} == before
        assert main(["simulate", "--extend-from", str(other), "--runs", "1"]) == 0

    @pytest.mark.parametrize("case", ["pa", "pa+leader", "pa+leader+random",
                                      "extended in place", "aborted"])
    def test_export_copies_what_a_rebuild_writes(self, tmp_path, monkeypatch, capsys, case):
        run = _shipped_run(tmp_path, monkeypatch, case)
        expected = _rebuilt_graph(run, tmp_path / "rebuilt")
        dest = tmp_path / "exported"
        assert main(["export", "--run-dir", str(run), "--out-dir", str(dest)]) == 0
        assert {path.name: path.read_bytes() for path in dest.iterdir()} == expected

    @pytest.mark.parametrize("fmt,name", [("csv", "graph.csv"), ("graphml", "graph.graphml")])
    def test_export_one_format(self, cli_run_dir, tmp_path, capsys, fmt, name):
        dest = tmp_path / "exported"
        assert main(["export", "--run-dir", str(cli_run_dir), "--format", fmt,
                     "--out-dir", str(dest)]) == 0
        assert [path.name for path in dest.iterdir()] == [name]
        assert (dest / name).read_bytes() == (cli_run_dir / name).read_bytes()

    @pytest.mark.parametrize("out_dir", [None, "{run}", "{run}/../{name}"])
    def test_export_into_its_run_directory_writes_nothing(self, cli_run_dir, tmp_path,
                                                          monkeypatch, capsys, out_dir):
        before = {path.name: path.read_bytes() for path in cli_run_dir.iterdir()}
        argv = ["export", "--run-dir", str(cli_run_dir)]
        if out_dir:
            argv += ["--out-dir", out_dir.format(run=cli_run_dir, name=cli_run_dir.name)]
        with monkeypatch.context() as mp:
            _refuse_writes(mp)
            assert main(argv) == 0
        assert "nothing written" in capsys.readouterr().out
        assert {path.name: path.read_bytes() for path in cli_run_dir.iterdir()} == before
        assert main(["simulate", "--extend-from", str(cli_run_dir), "--runs", "1"]) == 0
        assert main(["analyze", "--corpus-dir", str(cli_run_dir),
                     "--out", str(tmp_path / "cues.csv")]) == 0

    @pytest.mark.parametrize("out_dir", [None, "exported"])
    @pytest.mark.parametrize("name", _GRAPH_FILES)
    def test_export_refuses_tampered_graph(self, cli_run_dir, tmp_path, capsys, name, out_dir):
        with open(cli_run_dir / name, "a", encoding="utf-8") as fh:
            fh.write("\n")
        argv = ["export", "--run-dir", str(cli_run_dir)]
        if out_dir:
            argv += ["--out-dir", str(tmp_path / out_dir)]
        assert main(argv) == 1
        assert f"hash mismatch for {name}" in capsys.readouterr().err
        assert not (tmp_path / "exported").exists()

    def test_export_refuses_tampered_corpus(self, cli_run_dir, capsys):
        with open(cli_run_dir / "tweets.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["export", "--run-dir", str(cli_run_dir)]) == 1
        assert "hash mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze", "--corpus-dir", "{run}", "--out", "{out}"]])
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

    @pytest.mark.parametrize("flag, value", [("--batch-size", "0"), ("--batch-size", "-2"),
                                             ("--retry-cap", "-3")])
    def test_bad_batch_flags_refused_before_any_backend_call(self, pop_file, tmp_path, capsys,
                                                              monkeypatch, flag, value):
        calls = []

        class Counting(TemplateBackend):
            def complete(self, system_text, user_text, params):
                calls.append(user_text)
                return super().complete(system_text, user_text, params)

        monkeypatch.setattr("botforge.cli.make_backend", lambda *a, **kw: Counting())
        code = main(["personas", "expand", "--seed-file", pop_file, "--target", "6",
                     "--out", str(tmp_path / "x.json"), flag, value])
        assert code == 1 and calls == []
        assert "batch_size must be at least 1 and retry_cap at least 0" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("parent, code", [("a-file", 2), ("missing/deeper", 0)])
    def test_out_directory_made_before_any_backend_call(self, pop_file, tmp_path, capsys,
                                                        monkeypatch, parent, code):
        calls = []

        class Counting(TemplateBackend):
            def complete(self, system_text, user_text, params):
                calls.append(user_text)
                return super().complete(system_text, user_text, params)

        (tmp_path / "a-file").write_text("")
        monkeypatch.setattr("botforge.cli.make_backend", lambda *a, **kw: Counting())
        out = tmp_path / parent / "expanded.json"
        assert main(["personas", "expand", "--seed-file", pop_file, "--target", "6",
                     "--out", str(out)]) == code
        if code:
            assert calls == []
        else:
            assert calls and len(load_seed_personas(out)) == 6

    def test_out_naming_a_directory_refused_before_any_backend_call(self, pop_file, tmp_path,
                                                                     capsys, monkeypatch):
        calls = []

        class Counting(TemplateBackend):
            def complete(self, system_text, user_text, params):
                calls.append(user_text)
                return super().complete(system_text, user_text, params)

        out = tmp_path / "personas"
        out.mkdir()
        (out / "expanded.json").write_text("kept")
        monkeypatch.setattr("botforge.cli.make_backend", lambda *a, **kw: Counting())
        code = main(["personas", "expand", "--seed-file", pop_file, "--target", "6",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and calls == []
        assert err.startswith(f"error: --out {out} is a directory") and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["expanded.json"]
        assert (out / "expanded.json").read_text() == "kept"

    @pytest.mark.parametrize("backend, flag, value, message", [
        ("llm-http", "--temperature", "nan", "temperature must be finite"),
        ("template", "--temperature", "-3", "temperature must be finite"),
        ("template", "--seed", "-1", "seed must be a 64-bit unsigned integer"),
    ])
    def test_backend_settings_checked_as_simulate_checks_them(
            self, pop_file, tmp_path, capsys, monkeypatch, backend, flag, value, message):
        monkeypatch.setenv("BOTFORGE_API_KEY", "k")
        code = main(["personas", "expand", "--seed-file", pop_file, "--target", "6",
                     "--out", str(tmp_path / "x.json"), "--backend", backend,
                     "--base-url", "http://127.0.0.1:9/v1", flag, value])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--target", "6", "--batch-size", "0"], "batch_size must be at least 1"),
        (["--target", "6", "--retry-cap", "-1"], "retry_cap at least 0"),
        (["--target", "3"], "target below seed size"),
    ], ids=["batch-size-0", "retry-cap-minus-1", "target-below-seeds"])
    def test_bad_settings_make_no_directory(self, pop_file, tmp_path, capsys, monkeypatch,
                                            flags, message):
        """The four micro personas cannot be expanded so: exit 1 before --out's parent
        is made, and before any backend is built or called."""
        calls = []

        class Counting(TemplateBackend):
            def complete(self, system_text, user_text, params):
                calls.append(user_text)
                return super().complete(system_text, user_text, params)

        def counting_backend(*args, **kwargs):
            calls.append("built")
            return Counting()

        monkeypatch.setattr("botforge.cli.make_backend", counting_backend)
        code = main(["personas", "expand", "--seed-file", pop_file,
                     "--out", str(tmp_path / "a" / "p.json"), *flags])
        assert code == 1 and calls == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_expand_target_below_seed(self, pop_file, tmp_path, capsys):
        code = main([
            "personas", "expand",
            "--seed-file", pop_file,
            "--target", "2",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "target below seed size" in capsys.readouterr().err
