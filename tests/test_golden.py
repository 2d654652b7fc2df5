"""Golden digests and output independence from max_in_flight.

The pinned SHA-256 values were computed with the sequential simulator that
predates the plan/render split, and the per-post cue report's with the cue
extractor that tokenized each post three times; a change that moves any of
them changes what the simulator produces and must say so and re-pin on
purpose. The remaining
tests run one config through a thread-safe fake LLM whose calls finish out of
order, and require the same bytes at 1 and at 8 requests in flight, for a
finished run and for one that a backend failure aborts.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time

import pytest

from botforge.content import RETRY_SUFFIX, TemplateBackend
from botforge.cues import aggregate_cues, write_cue_report
from botforge.errors import BackendError
from botforge.netgraph import build_comm_graph, graph_metrics
from botforge.persona import Population
from botforge.simcore import SimulationAborted, config_from_dict, load_corpus, simulate_to_dir

from conftest import ok_payload

GOLDEN_SEED = 20250801
GOLDEN_RUNS = 2
PINNED_FILES = ("tweets.jsonl", "graph.csv", "cues.csv", "run.log")
ABORT_FILES = ("tweets.jsonl", "graph.csv", "run.log")

PINNED = {
    ("pa", "naive"): {
        "tweets.jsonl": "c49849e9c2dbf0ff6b2a20c650456857d8b75e8f9c59f2382a4d18e74b091ec5",
        "graph.csv": "18287ffc948416d5523163bda2503c88426a5bac194af21e2f1eb53cd58817ee",
        "cues.csv": "80ce138d67666667e005e5bf3c9a5adc4abad2eb48d1ce593072a8db29de61e8",
        "run.log": "2732bc93405bf7b64f81aed42a27eb6eb8b895bb384f3fdebe43162291e35d1b",
    },
    ("pa", "targets:all"): {
        "tweets.jsonl": "72a2b1dd6104cc2ce8ba8f0bb29fc67e927aec8f3abcaf850d6a612c0e7f1ef9",
        "graph.csv": "18287ffc948416d5523163bda2503c88426a5bac194af21e2f1eb53cd58817ee",
        "cues.csv": "76f4941e0666b965fef53686fde6daaa49cda92f83d59c8209762a0d25107c08",
        "run.log": "12ac8938734e44c7a7d91195484604193cb2652bc53a8724fbcb53dfff3f0a25",
    },
    ("pa+leader", "naive"): {
        "tweets.jsonl": "853d7626a94f24aa33a301e2196fc71130aeacab816614f63abedb94a87d6811",
        "graph.csv": "ac6be180da9d4728f9692a229bed0adf8060a8412ea53da92d9b86cf11008e2c",
        "cues.csv": "3d0762f6a2e34c5a8c714ac33d3b18bed694ecd95a339d17f1a766b0434c3874",
        "run.log": "9df31351de2bd48d060a57736405e3cc13baf58c6fc9ae801b02e3577fb67702",
    },
    ("pa+leader", "targets:all"): {
        "tweets.jsonl": "789a44826dec04c5f08723ac3a7ee59ddd4b58e5794393c35853b201e4a16b50",
        "graph.csv": "ac6be180da9d4728f9692a229bed0adf8060a8412ea53da92d9b86cf11008e2c",
        "cues.csv": "6edf4a1d371f53897c1c25fc500f39ba6f520ff6ef12b9af4e43f60710e4b4fb",
        "run.log": "c8f42935faf8f1bb707c2d80574ab81b8ec5df3d0bf8d9ac89a4e9dd1ea76b94",
    },
    ("pa+leader+random", "naive"): {
        "tweets.jsonl": "2aa9b07cfcbe4e644f39b69f276c1dfbe6d96a9dd6621aff0d936a529f77d398",
        "graph.csv": "4bdcbabf90358f89785f3449ca51a8fdcbba0dcdf9e8edd7c904fb54f8e4b70e",
        "cues.csv": "18532baea3b4cd6629aeec3fa2c155b8cd71eac729081b4799b1edf7bd235c10",
        "run.log": "51f043c302b1c3c45926593f9dee7505f5eaab468805503e46cac32f676f7c68",
    },
    ("pa+leader+random", "targets:all"): {
        "tweets.jsonl": "d72582f5a2c1b8116472c032988acca029ebcc188ad5479bd6a9559370f1d8ca",
        "graph.csv": "4bdcbabf90358f89785f3449ca51a8fdcbba0dcdf9e8edd7c904fb54f8e4b70e",
        "cues.csv": "134391f96943ca3c900338ffcebb91549bb14c5c2409e05d592ba63844fbe143",
        "run.log": "3cb875c0dd9391a20e5311c8fe78617f3ca56c601b88156383d049c67db52cf8",
    },
}
# cues.csv under per_post for ("pa+leader+random", "targets:all").
PINNED_PER_POST_CUES = "b132280a4777a63d45e866c8a9b9cc92c637dbd80b4ba9819ae3811d9689245e"
# The paper's config, aborted by a backend failure on its ABORT_CALL-th call
# (counted in commit order, inside the second run).
ABORT_CALL = 2500
PINNED_ABORTED = {
    "tweets.jsonl": "e06da182f7321dd713fbee6e77cb52285f00d89a990e39680cbf0d1976496fd8",
    "graph.csv": "f84755e61a118e35faa9b9ee619b0a02d39cd6e588ab8f4ee0181aa0831f7374",
    "run.log": "23840db65ea1eebce0edcaa660318522947c3e5ad9f6cd3004b5821487f02a48",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(out_dir, mixing="pa+leader+random", scheme="targets:all", **extra):
    return config_from_dict({"seed": GOLDEN_SEED, "runs": GOLDEN_RUNS, "mixing": mixing,
                             "scheme": scheme, "backend": "template", "out_dir": str(out_dir),
                             **extra})


def _analyze(run_dir, lexicons, per_post=False) -> None:
    pop, tweets = load_corpus(run_dir)
    metrics = graph_metrics(build_comm_graph(tweets, pop), pop)
    write_cue_report(aggregate_cues(tweets, metrics, pop, lexicons, per_post=per_post),
                     run_dir / "cues.csv")


def _run_files(run_dir) -> dict[str, bytes]:
    """Every file of a run directory; the manifest without its out_dir and max_in_flight."""
    files = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["config"]["out_dir"], manifest["config"]["max_in_flight"]
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    return files


class _Recorder:
    """The template backend, recording every prompt pair in call order."""

    def __init__(self, seed: int):
        self.template = TemplateBackend(seed)
        self.prompts = []

    def complete(self, system_text, user_text, params):
        self.prompts.append((system_text, user_text))
        return self.template.complete(system_text, user_text, params)


class _SlowFake:
    """A thread-safe fake LLM whose calls take a random 0.5-3 ms each.

    Its text is the template backend's, except that a fixed share of first
    attempts come back empty (so regenerations and their log lines happen),
    and the prompt pair fail_on raises BackendError. The failure is tied to
    a prompt, not to an arrival order, so it hits the same post whatever
    finishes first.
    """

    def __init__(self, seed: int, fail_on=None):
        self.template = TemplateBackend(seed)
        self.fail_on = fail_on
        self.prompts = []  # in call order
        self.in_flight = 0
        self.peak_in_flight = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, system_text, user_text, params):
        with self._lock:
            self.prompts.append((system_text, user_text))
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            delay = self._rng.uniform(0.0005, 0.003)
        try:
            time.sleep(delay)
            if (system_text, user_text) == self.fail_on:
                raise BackendError("backend down")
            if not user_text.endswith(RETRY_SUFFIX) and hashlib.sha256(
                    user_text.encode()).digest()[0] < 16:
                return ""
            return self.template.complete(system_text, user_text, params)
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.mark.parametrize("mixing,scheme", sorted(PINNED))
def test_template_outputs_match_pinned_digests(mixing, scheme, seed_pop, pools, lexicons,
                                               tmp_path):
    out = tmp_path / "run"
    simulate_to_dir(_config(out, mixing, scheme), pop=seed_pop, pools=pools)
    _analyze(out, lexicons)
    assert {name: _sha256(out / name) for name in PINNED_FILES} == PINNED[(mixing, scheme)]


def test_per_post_cue_report_matches_pinned_digest(seed_pop, pools, lexicons, tmp_path):
    out = tmp_path / "run"
    simulate_to_dir(_config(out), pop=seed_pop, pools=pools)
    _analyze(out, lexicons, per_post=True)
    assert _sha256(out / "cues.csv") == PINNED_PER_POST_CUES


def _kth_prompt(seed_pop, pools, tmp_path, k):
    recorder = _Recorder(GOLDEN_SEED)
    simulate_to_dir(_config(tmp_path / "recorded", max_in_flight=1), pop=seed_pop, pools=pools,
                    backend=recorder)
    return recorder.prompts[k - 1]


def test_aborted_output_matches_pinned_digests(seed_pop, pools, tmp_path):
    fail_on = _kth_prompt(seed_pop, pools, tmp_path, ABORT_CALL)

    class _FailsOnce(TemplateBackend):
        def complete(self, system_text, user_text, params):
            if (system_text, user_text) == fail_on:
                raise BackendError("backend down")
            return super().complete(system_text, user_text, params)

    out = tmp_path / "aborted"
    with pytest.raises(SimulationAborted) as exc:
        simulate_to_dir(_config(out), pop=seed_pop, pools=pools,
                        backend=_FailsOnce(GOLDEN_SEED))
    assert exc.value.result.runs_completed == 1
    assert {name: _sha256(out / name) for name in ABORT_FILES} == PINNED_ABORTED


@pytest.fixture(scope="module")
def small_pop(seed_pop):
    """Every sixth shipped persona: several communities, a few hundred calls per run."""
    return Population(personas=list(seed_pop.personas[::6]))


def test_output_independent_of_max_in_flight(small_pop, pools, tmp_path):
    files, fakes = {}, {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
    try:
        for limit in (1, 8):
            fakes[limit] = _SlowFake(GOLDEN_SEED)
            out = tmp_path / f"limit{limit}"
            simulate_to_dir(_config(out, max_in_flight=limit), pop=small_pop, pools=pools,
                            backend=fakes[limit])
            files[limit] = _run_files(out)
    finally:
        sys.setswitchinterval(switch)
    assert files[1] == files[8]
    assert len(fakes[1].prompts) == len(fakes[8].prompts)
    assert fakes[1].peak_in_flight == 1
    assert fakes[8].peak_in_flight > 1
    assert b"retry: empty backend output" in files[1]["run.log"]


def test_aborted_output_independent_of_max_in_flight(small_pop, pools, tmp_path):
    recorder = _SlowFake(GOLDEN_SEED)
    simulate_to_dir(_config(tmp_path / "recorded", max_in_flight=1), pop=small_pop,
                    pools=pools, backend=recorder)
    k = len(recorder.prompts) * 3 // 4  # a call in the second run
    fail_on = recorder.prompts[k - 1]
    files, fakes = {}, {}
    for limit in (1, 8):
        fakes[limit] = _SlowFake(GOLDEN_SEED, fail_on=fail_on)
        out = tmp_path / f"limit{limit}"
        with pytest.raises(SimulationAborted) as exc:
            simulate_to_dir(_config(out, max_in_flight=limit), pop=small_pop, pools=pools,
                            backend=fakes[limit])
        assert exc.value.result.status == "aborted"
        files[limit] = _run_files(out)
    assert len(fakes[1].prompts) == k
    assert files[1] == files[8]
    log = files[8]["run.log"].decode().splitlines()
    assert log[-2] == "ABORTED: backend down"
    manifest = json.loads(files[8]["manifest.json"])
    assert log[-1].startswith(f"committed {manifest['tweet_count']} tweets,")


def test_http_backend_output_equals_template(small_pop, pools, tmp_path, chat_server,
                                             monkeypatch):
    """The stdlib HTTP client at 4 in flight, with injected 503s, writes the template's corpus."""
    monkeypatch.setenv("BOTFORGE_API_KEY", "k-test")
    template = TemplateBackend(GOLDEN_SEED)
    seen, injected, lock = set(), [], threading.Lock()

    def answer(body):
        system_text, user_text = (m["content"] for m in body["messages"])
        with lock:
            first = (system_text, user_text) not in seen
            seen.add((system_text, user_text))
            if first and hashlib.sha256(user_text.encode()).digest()[0] < 16:
                injected.append(user_text)
                return 503, {"Retry-After": "0"}, {}
        return 200, {}, ok_payload(template.complete(system_text, user_text, {}))

    chat_server.answer = answer
    simulate_to_dir(_config(tmp_path / "template"), pop=small_pop, pools=pools)
    out = tmp_path / "http"
    simulate_to_dir(_config(out, backend="llm-http", base_url=chat_server.url, max_in_flight=4),
                    pop=small_pop, pools=pools)
    for name in ("tweets.jsonl", "graph.csv"):
        assert (out / name).read_bytes() == (tmp_path / "template" / name).read_bytes()
    calls = sum(1 for line in (out / "tweets.jsonl").read_text().splitlines()
                if json.loads(line)["kind"] != "retweet")
    assert injected
    assert len(chat_server.requests) == calls + len(injected)
