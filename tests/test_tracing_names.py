"""Every function the benchmark's tracer wraps exists in the package.

perfbench/tracing.py replaces (namespace, attribute) pairs by name. A name
that is renamed or deleted breaks only the traced benchmark run, so this
checks each one against the namespaces perfbench/chain.py installs it on.
"""
import importlib.util
from pathlib import Path

import pytest

from botforge import benchmark, content, cues, netgraph, simcore

# The namespaces perfbench/chain.py passes to Tracer.install.
NAMESPACES = {
    "simcore": simcore,
    "netgraph": netgraph,
    "cues": cues,
    "benchmark": benchmark,
    "TemplateBackend": content.TemplateBackend,
    "LlmHttpBackend": content.LlmHttpBackend,
}


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _load_tracing()


@pytest.mark.parametrize("owner,attr", sorted({(owner, attr) for owner, attr, _ in
                                               (*_TRACING.SPANS, *_TRACING.COUNTS)}))
def test_traced_name_exists(owner, attr):
    assert callable(getattr(NAMESPACES[owner], attr, None)), f"{owner}.{attr}"
