"""Agent-based social bot simulation with a linguistic realism benchmark.

Pipeline: persona populations (seeded, optionally LLM-expanded) drive a
multi-run tweet simulation with preferential-attachment interactions; the
resulting corpus is scored on fourteen linguistic/metadata/network cues and
compared against embedded wild-bot and wild-human baselines.
"""
from .benchmark import baseline_table, compare, one_sample_t, render_report
from .content import (
    LlmHttpBackend,
    PromptScheme,
    TemplateBackend,
    augment_prompt,
    build_system_prompt,
    generate_post,
    make_backend,
    parse_scheme,
)
from .corpus import Tweet
from .cues import CUE_NAMES, aggregate_cues, load_lexicons, reading_difficulty, tokenize
from .errors import (
    BackendError,
    BotforgeError,
    ManifestError,
    SchemaError,
    ValidationError,
)
from .netgraph import (
    CommGraph,
    DegreeState,
    GraphMetrics,
    MixingPolicy,
    build_comm_graph,
    graph_metrics,
    pa_select,
)
from .persona import Persona, Population, expand_personas, load_seed_personas, save_personas
from .simcore import (
    ScenarioConfig,
    SimResult,
    resume_or_extend,
    run_simulation,
    simulate_to_dir,
)

__version__ = "0.1.0"

__all__ = [
    "BackendError",
    "BotforgeError",
    "CUE_NAMES",
    "CommGraph",
    "DegreeState",
    "GraphMetrics",
    "LlmHttpBackend",
    "ManifestError",
    "MixingPolicy",
    "Persona",
    "Population",
    "PromptScheme",
    "ScenarioConfig",
    "SchemaError",
    "SimResult",
    "TemplateBackend",
    "Tweet",
    "ValidationError",
    "aggregate_cues",
    "augment_prompt",
    "baseline_table",
    "build_comm_graph",
    "build_system_prompt",
    "compare",
    "expand_personas",
    "generate_post",
    "graph_metrics",
    "load_lexicons",
    "load_seed_personas",
    "make_backend",
    "one_sample_t",
    "pa_select",
    "parse_scheme",
    "reading_difficulty",
    "render_report",
    "resume_or_extend",
    "run_simulation",
    "save_personas",
    "simulate_to_dir",
    "tokenize",
    "__version__",
]
