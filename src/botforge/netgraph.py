"""Partner selection, the all-communication graph, and network metrics.

Partner selection mixes three modes: weighted preferential attachment over
an agent's eligible candidates, the agent's community leader, and a uniform
random agent. Every committed interaction (retweet, quote, reply) updates a
degree state incrementally, so attachment weights see the edges formed
earlier in the same run. After a run, the interactions collapse into a
directed weighted graph over all agents, from which density and degree
centralities are computed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .corpus import as_columns
from .errors import SchemaError, ValidationError
from .persona import Persona, Population


@dataclass(frozen=True)
class MixingPolicy:
    """Probability split across partner-selection modes."""

    p_pa: float = 1.0
    p_leader: float = 0.0
    p_random: float = 0.0

    def __post_init__(self):
        for name in ("p_pa", "p_leader", "p_random"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"MixingPolicy.{name} must be in [0, 1] (got {v})")
        total = self.p_pa + self.p_leader + self.p_random
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"MixingPolicy probabilities must sum to 1 (got {total})")

    @classmethod
    def pa_only(cls) -> MixingPolicy:
        return cls(1.0, 0.0, 0.0)


# Named presets accepted wherever a policy can be configured.
POLICY_PRESETS = {
    "pa": MixingPolicy(1.0, 0.0, 0.0),
    "pa+leader": MixingPolicy(0.7, 0.3, 0.0),
    "pa+leader+random": MixingPolicy(0.6, 0.3, 0.1),
}


class DegreeState:
    """Incremental per-agent degree counters, indexed by population order.

    Single-writer during a run: commit order is part of the deterministic
    selection contract.
    """

    def __init__(self, pop: Population):
        self._pop = pop
        n = len(pop)
        self.in_deg = np.zeros(n, dtype=np.int64)
        self.out_deg = np.zeros(n, dtype=np.int64)

    def commit(self, source_id: str, target_id: str) -> None:
        """Record one committed interaction edge source → target."""
        self.out_deg[self._pop.index[source_id]] += 1
        self.in_deg[self._pop.index[target_id]] += 1

    def violations(self) -> list[str]:
        out = []
        if (self.in_deg < 0).any() or (self.out_deg < 0).any():
            out.append("degree counters must be non-negative")
        ins, outs = int(self.in_deg.sum()), int(self.out_deg.sum())
        if ins != outs:
            out.append(f"in-degree sum {ins} != out-degree sum {outs}")
        return out


def _eligible(agent: Persona, other: Persona, require_both: bool) -> bool:
    """Whether other shares agent's community or one of its narratives (both with require_both)."""
    same_comm = other.community == agent.community
    shared_narr = not set(agent.narratives).isdisjoint(other.narratives)
    return (same_comm and shared_narr) if require_both else (same_comm or shared_narr)


class CandidateCache:
    """Each agent's class array: the agents _eligible for its (community, narrative set) class.

    Eligibility depends only on the class, so its array is computed once and
    its members share it; the array holds the agent too unless require_both
    and no narrative leave it out. Arrays are int64 and sorted by population
    index, which fixes the sampling order; they are reusable across runs.
    """

    def __init__(self, pop: Population, *, require_both: bool = False):
        by_class: dict[tuple[str, frozenset[str]], np.ndarray] = {}
        self._by_agent: dict[str, np.ndarray] = {}
        for agent in pop.personas:
            key = (agent.community, frozenset(agent.narratives))
            if key not in by_class:
                by_class[key] = np.array([j for j, p in enumerate(pop.personas)
                                          if _eligible(agent, p, require_both)], dtype=np.int64)
            self._by_agent[agent.id] = by_class[key]

    def indexes(self, agent_id: str) -> np.ndarray:
        return self._by_agent[agent_id]


def _pa_select_idx(cand_idx: np.ndarray, degrees: DegreeState, rng: np.random.Generator,
                   self_idx: int = -1) -> int | None:
    """An entry of the sorted cand_idx other than self_idx, drawn proportional to degree + 1.

    None, with no draw made, when there is none. The integer weights sum
    exactly, so self_idx's weight 0 only repeats a cumsum value, which
    searchsorted never picks: the draw is the one over cand_idx without it.
    """
    weights = (degrees.in_deg[cand_idx] + degrees.out_deg[cand_idx] + 1).astype(np.float64)
    k = cand_idx.searchsorted(self_idx)
    if k < len(cand_idx) and cand_idx[k] == self_idx:
        weights[k] = 0.0
    cum = weights.cumsum()
    total = float(cum[-1]) if len(cum) else 0.0
    if not total:
        return None
    return int(cand_idx[cum.searchsorted(rng.random() * total, side="right")])


def pa_select(candidates, degrees: DegreeState, rng: np.random.Generator) -> str:
    """Sample one candidate id with probability proportional to total degree + 1.

    The +1 smoothing keeps zero-degree agents selectable. Candidates are
    ordered by population index before sampling so the draw is reproducible
    regardless of how the candidate collection iterates.
    """
    if not len(candidates):
        raise ValidationError("pa_select requires a non-empty candidate set")
    pop = degrees._pop
    cand_idx = np.sort(np.asarray([pop.index[c] for c in candidates], dtype=np.int64))
    return pop.personas[_pa_select_idx(cand_idx, degrees, rng)].id


@dataclass(frozen=True)
class PartnerChoice:
    partner_id: str
    mode: str  # mode actually used, after any fallback
    requested_mode: str
    fallbacks: tuple[str, ...] = ()  # e.g. ("leader->pa",)


def select_partner_detail(
    agent: Persona,
    pop: Population,
    policy: MixingPolicy,
    degrees: DegreeState,
    rng: np.random.Generator,
    *,
    cache: CandidateCache,
) -> PartnerChoice:
    """Partner selection with full fallback provenance.

    Mode is drawn from the policy; fallbacks keep the operation total for any
    population of at least 2 agents: a missing/self leader degrades to pa, and
    pa with no candidate but the agent itself degrades to random.
    """
    n = len(pop)
    if n < 2:
        raise ValidationError("partner selection requires a population of at least 2 agents")

    u = rng.random()
    if u < policy.p_pa:
        requested = "pa"
    elif u < policy.p_pa + policy.p_leader:
        requested = "leader"
    else:
        requested = "random"

    mode = requested
    fallbacks: list[str] = []

    if mode == "leader":
        leader_id = pop.leaders.get(agent.community)
        if leader_id is None or leader_id == agent.id:
            fallbacks.append("leader->pa")
            mode = "pa"
        else:
            return PartnerChoice(leader_id, "leader", requested)

    self_idx = pop.index[agent.id]
    if mode == "pa":
        j = _pa_select_idx(cache.indexes(agent.id), degrees, rng, self_idx)
        if j is None:
            fallbacks.append("pa->random")
        else:
            return PartnerChoice(pop.personas[j].id, "pa", requested, tuple(fallbacks))

    j = int(rng.integers(n - 1))  # any index but self_idx
    return PartnerChoice(pop.personas[j + (j >= self_idx)].id, "random", requested,
                         tuple(fallbacks))


def draw_interaction_counts(p: Persona, rng: np.random.Generator) -> dict[str, int]:
    """Uniform-integer draws over the persona's per-run activity ranges.

    Draw order (posts, retweets, replies, quotes) is fixed: it is part of the
    deterministic stream contract.
    """
    out = {}
    for key, (lo, hi) in (
        ("posts", p.posts_per_run),
        ("retweets", p.retweets_per_run),
        ("replies", p.replies_per_run),
        ("quotes", p.quotes_per_run),
    ):
        out[key] = int(rng.integers(lo, hi + 1))
    return out


@dataclass
class EdgeStats:
    weight: int = 0
    retweets: int = 0
    quotes: int = 0
    replies: int = 0


@dataclass
class CommGraph:
    """Directed all-communication graph: one edge per interacting agent pair."""

    nodes: list[str]
    edges: dict[tuple[str, str], EdgeStats]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> int:
        return sum(e.weight for e in self.edges.values())

    def degree_arrays(self, pop: Population) -> tuple[np.ndarray, np.ndarray]:
        """(in_degree, out_degree) over distinct collapsed edges, population order."""
        n = len(self.edges)
        ends = np.fromiter(map(pop.index.__getitem__, chain.from_iterable(self.edges)),
                           dtype=np.intp, count=2 * n).reshape(n, 2)
        return (np.bincount(ends[:, 1], minlength=len(pop)),
                np.bincount(ends[:, 0], minlength=len(pop)))


@dataclass(frozen=True)
class GraphMetrics:
    density: float
    avg_total_degree_centrality: float
    avg_in_degree_centrality: float
    avg_out_degree_centrality: float


# Edge kinds in EdgeStats's count order; a kind's code is its position.
_EDGE_KINDS = ("retweet", "quote", "reply")
_KIND_CODES = {**{kind: code for code, kind in enumerate(_EDGE_KINDS)}, "original": -1}
_UNKNOWN_KIND = len(_EDGE_KINDS)


def build_comm_graph(tweets, pop: Population,
                     edges: dict[tuple[str, str], EdgeStats] | None = None) -> CommGraph:
    """Collapse retweets/quotes/replies into directed author → target edges.

    tweets is a CorpusColumns or a list of Tweets (see corpus.as_columns).
    Original posts contribute no edges; agents without interactions remain as
    isolate nodes. Any tweet referencing an agent outside the population, or
    targeting its own author, is a contract violation, reported for the
    first such tweet in corpus order. Given edges (say, an earlier graph's,
    from read_edges_csv), the tweets add to a copy of them.
    """
    cols = as_columns(tweets)
    ids = pop.ids()
    n = len(cols)
    src = np.fromiter(map(pop.index.get, cols.authors, repeat(-1, n)), dtype=np.intp, count=n)
    dst_index = {**pop.index, None: -2}  # -2: no target
    dst = np.fromiter(map(dst_index.get, cols.targets, repeat(-1, n)), dtype=np.intp, count=n)
    kind = np.fromiter(map(_KIND_CODES.get, cols.kinds, repeat(_UNKNOWN_KIND, n)),
                       dtype=np.intp, count=n)
    interacting = (kind >= 0) & (dst != -2)
    bad = (src < 0) | interacting & ((dst == -1) | (dst == src) | (kind == _UNKNOWN_KIND))
    if bad.any():
        i = int(bad.argmax())
        tid, author, target = cols.ids[i], cols.authors[i], cols.targets[i]
        if src[i] < 0:
            raise ValidationError(f"tweet {tid}: unknown author {author!r}")
        if dst[i] < 0:
            raise ValidationError(f"tweet {tid}: unknown target {target!r}")
        if dst[i] == src[i]:
            raise ValidationError(f"tweet {tid}: self-interaction is not representable")
        raise ValidationError(f"tweet {tid}: unknown kind {cols.kinds[i]!r}")

    edges = {pair: EdgeStats(e.weight, e.retweets, e.quotes, e.replies)
             for pair, e in (edges or {}).items()}
    codes, counts = np.unique((src[interacting] * len(ids) + dst[interacting])
                              * len(_EDGE_KINDS) + kind[interacting], return_counts=True)
    pairs, kinds = np.divmod(codes, len(_EDGE_KINDS))
    sources, targets = np.divmod(pairs, len(ids))
    for s, d, k, c in zip(sources.tolist(), targets.tolist(), kinds.tolist(), counts.tolist()):
        stats = edges.setdefault((ids[s], ids[d]), EdgeStats())
        stats.weight += c
        if k == 0:
            stats.retweets += c
        elif k == 1:
            stats.quotes += c
        else:
            stats.replies += c
    return CommGraph(nodes=ids, edges=edges)


def per_agent_centralities(g: CommGraph, pop: Population) -> dict[str, np.ndarray]:
    """Per-agent centralities in population order, (n-1)-normalized.

    total uses 2(n-1) so a node adjacent to everyone in both directions scores 1.
    """
    n = g.n_nodes
    if n < 2:
        raise ValidationError("graph metrics require at least 2 nodes")
    in_deg, out_deg = g.degree_arrays(pop)
    return {
        "in": in_deg / (n - 1),
        "out": out_deg / (n - 1),
        "total": (in_deg + out_deg) / (2 * (n - 1)),
    }


def graph_metrics(g: CommGraph, pop: Population) -> GraphMetrics:
    """Density over distinct directed edges plus mean degree centralities."""
    n = g.n_nodes
    if n < 2:
        raise ValidationError("graph metrics require at least 2 nodes")
    cents = per_agent_centralities(g, pop)
    return GraphMetrics(
        density=g.n_edges / (n * (n - 1)),
        avg_total_degree_centrality=float(cents["total"].mean()),
        avg_in_degree_centrality=float(cents["in"].mean()),
        avg_out_degree_centrality=float(cents["out"].mean()),
    )


def weighted_density(g: CommGraph) -> float:
    """Interaction count over possible directed pairs; not bounded by 1."""
    n = g.n_nodes
    if n < 2:
        raise ValidationError("weighted density requires at least 2 nodes")
    return g.total_weight() / (n * (n - 1))


EDGES_CSV_HEADER = ["source", "target", "weight", "retweets", "quotes", "replies"]


def export_edges_csv(g: CommGraph, path: str | Path) -> None:
    """Edge list CSV `source,target,weight,retweets,quotes,replies`, sorted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGES_CSV_HEADER)
        for (src, dst) in sorted(g.edges):
            e = g.edges[(src, dst)]
            writer.writerow([src, dst, e.weight, e.retweets, e.quotes, e.replies])


# read_edges_csv sums degrees in float64, exact while the total weight stays below this.
_EXACT_WEIGHT_TOTAL = 1 << 53


def read_edges_csv(
    path: str | Path, pop: Population
) -> tuple[dict[tuple[str, str], EdgeStats], DegreeState]:
    """The edges of an export_edges_csv file, and the degree state they sum to.

    Each edge's weight counts once toward its source's out-degree and its
    target's in-degree; the degrees are one np.bincount over the edges'
    endpoints. A wrong header, a row naming an agent outside pop, a
    self-loop, a repeated edge, a count that is not a non-negative integer,
    a weight other than retweets + quotes + replies, a weight of 0, or a
    total weight of 2**53 or more is a SchemaError naming path:line.
    """
    edges: dict[tuple[str, str], EdgeStats] = {}
    index = pop.index
    n = len(index)
    ends: list[int] = []  # per edge, its source's index, then n + its target's index
    weights: list[int] = []  # per edge, its weight twice, one for each end
    total = 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != EDGES_CSV_HEADER:
            raise SchemaError(f"{path}:1", f"header must be {','.join(EDGES_CSV_HEADER)}")
        for row in rows:
            where = f"{path}:{rows.line_num}"
            if len(row) != len(EDGES_CSV_HEADER):
                raise SchemaError(where, f"must have {len(EDGES_CSV_HEADER)} fields", row)
            src, dst, *counts = row
            s, d = index.get(src), index.get(dst)
            if s is None or d is None:
                raise SchemaError(where, f"unknown agent {(src if s is None else dst)!r}")
            if s == d:
                raise SchemaError(where, f"self-loop on {src!r}")
            if (src, dst) in edges:
                raise SchemaError(where, f"duplicate edge {src} -> {dst}")
            for name, value in zip(EDGES_CSV_HEADER[2:], counts):
                if not (value.isascii() and value.isdigit()):
                    raise SchemaError(where, f"{name} must be a non-negative integer", value)
            e = EdgeStats(*map(int, counts))
            if e.weight != e.retweets + e.quotes + e.replies:
                raise SchemaError(where, f"weight {e.weight} is not retweets + quotes + "
                                  f"replies ({e.retweets} + {e.quotes} + {e.replies})")
            if e.weight == 0:
                raise SchemaError(where, "weight must be 1 or more")
            total += e.weight
            if total >= _EXACT_WEIGHT_TOTAL:
                raise SchemaError(where, "the weights sum to 2**53 or more")
            edges[(src, dst)] = e
            ends += (s, n + d)
            weights += (e.weight, e.weight)
    degrees = DegreeState(pop)
    sums = np.bincount(ends, weights, minlength=2 * n).astype(np.int64)
    degrees.out_deg, degrees.in_deg = sums[:n], sums[n:]
    return edges, degrees


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>\n"
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"'
    ' xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance"'
    ' xsi:schemaLocation="http://graphml.graphdrawing.org/xmlns'
    ' http://graphml.graphdrawing.org/xmlns/1.0/graphml.xsd">\n'
)
# XML escapes as xml.etree.ElementTree writes them, for text and for attribute values.
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                               "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def export_graphml(g: CommGraph, pop: Population, path: str | Path) -> None:
    """GraphML export with node attribute `community` and edge attribute `weight`.

    Nodes come in population order, each node's out-edges in sorted target
    order. The bytes are those networkx's ElementTree writer
    (networkx.write_graphml_xml) writes for a DiGraph built in that order;
    its lxml writer orders the keys differently. GraphML's structural layer
    only.
    """
    out = [_GRAPHML_HEAD]
    if g.edges:
        out.append('  <key id="d1" for="edge" attr.name="weight" attr.type="long" />\n')
    if g.nodes:
        out.append('  <key id="d0" for="node" attr.name="community" attr.type="string" />\n'
                   '  <graph edgedefault="directed">\n')
        by_source: dict[str, list[str]] = {}
        for src, dst in sorted(g.edges):
            by_source.setdefault(src, []).append(dst)
        for pid in g.nodes:
            community = pop.get(pid).community.translate(_TEXT_ESCAPES)
            out.append(f'    <node id="{pid.translate(_ATTR_ESCAPES)}">\n'
                       f'      <data key="d0">{community}</data>\n    </node>\n')
        for src in g.nodes:
            for dst in by_source.get(src, ()):
                out.append(f'    <edge source="{src.translate(_ATTR_ESCAPES)}"'
                           f' target="{dst.translate(_ATTR_ESCAPES)}">\n'
                           f'      <data key="d1">{g.edges[(src, dst)].weight}</data>\n'
                           '    </edge>\n')
        out.append("  </graph>\n")
    else:
        out.append('  <graph edgedefault="directed" />\n')
    out.append("</graphml>\n")
    with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace", newline="\n") as fh:
        fh.write("".join(out))
