"""Partner selection, degree tracking, and all-communication graph metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botforge.errors import SchemaError, ValidationError
from botforge.netgraph import (
    POLICY_PRESETS,
    CandidateCache,
    CommGraph,
    DegreeState,
    EdgeStats,
    MixingPolicy,
    PartnerChoice,
    build_comm_graph,
    draw_interaction_counts,
    export_edges_csv,
    export_graphml,
    graph_metrics,
    pa_select,
    per_agent_centralities,
    read_edges_csv,
    select_partner_detail,
    weighted_density,
)
from botforge.persona import Population
from botforge.corpus import Tweet

from conftest import make_persona


def interaction(tid, src, dst, kind="reply", target_tweet=1):
    return Tweet(
        id=tid,
        author_id=src,
        kind=kind,
        text=f"@x placeholder {tid}",
        target_tweet_id=target_tweet,
        target_agent_id=dst,
        run_index=0,
        slot_index=tid,
        slot_kind=kind,
    )


class TestMixingPolicy:
    def test_presets(self):
        assert set(POLICY_PRESETS) == {"pa", "pa+leader", "pa+leader+random"}
        assert POLICY_PRESETS["pa"] == MixingPolicy(1.0, 0.0, 0.0) == MixingPolicy.pa_only()
        assert POLICY_PRESETS["pa+leader"] == MixingPolicy(0.7, 0.3, 0.0)
        assert POLICY_PRESETS["pa+leader+random"] == MixingPolicy(0.6, 0.3, 0.1)

    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            MixingPolicy(0.5, 0.3, 0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            MixingPolicy(1.2, -0.2, 0.0)

    def test_tolerates_float_rounding(self):
        MixingPolicy(0.1 + 0.2, 0.7, 0.0)  # 0.30000000000000004


class TestDegreeState:
    def test_commit_updates_both_ends(self, micro_pop):
        d = DegreeState(micro_pop)
        d.commit("a_01", "b_02")
        d.commit("a_01", "b_02")
        d.commit("b_02", "a_01")
        assert micro_pop.ids() == ["a_01", "a_02", "b_01", "b_02"]
        np.testing.assert_array_equal(d.out_deg, [2, 0, 0, 1])
        np.testing.assert_array_equal(d.in_deg, [1, 0, 0, 2])
        assert int(d.in_deg.sum()) == 3
        assert d.violations() == []

    def test_unequal_degree_sums_are_a_violation(self, micro_pop):
        d = DegreeState(micro_pop)
        d.commit("a_01", "b_02")
        d.in_deg[0] += 1
        assert d.violations() == ["in-degree sum 2 != out-degree sum 1"]

    def test_unknown_agent_rejected(self, micro_pop):
        d = DegreeState(micro_pop)
        with pytest.raises(KeyError):
            d.commit("ghost", "a_01")


def eligible_candidates(agent, pop, *, require_both=False) -> set[str]:
    """Agent ids sharing the agent's community or a narrative string (never self).

    require_both=True switches the clause join from OR to AND. The set-based
    reference that CandidateCache's class arrays, less the agent, must equal.
    """
    if agent.id not in pop:
        raise ValidationError(f"agent {agent.id!r} not in population")
    own_narratives = set(agent.narratives)
    out = set()
    for p in pop.personas:
        if p.id == agent.id:
            continue
        same_comm = p.community == agent.community
        shared_narr = bool(own_narratives.intersection(p.narratives))
        ok = (same_comm and shared_narr) if require_both else (same_comm or shared_narr)
        if ok:
            out.add(p.id)
    return out


def others_in_class(cache, agent, pop, *, require_both=False) -> set[str]:
    """The ids in the agent's class array less the agent, after checking the array's form.

    The array is int64 and sorted, and it holds the agent unless the agent
    has no narrative under require_both.
    """
    got = cache.indexes(agent.id)
    i = pop.index[agent.id]
    assert got.dtype == np.int64 and list(got) == sorted(got)
    assert (i in got) == (bool(agent.narratives) or not require_both)
    return {pop.personas[j].id for j in got if j != i}


def eligible(agent, pop, *, require_both=False) -> set[str]:
    """The oracle's set, after checking that CandidateCache's class array less the agent is it."""
    expected = eligible_candidates(agent, pop, require_both=require_both)
    cache = CandidateCache(pop, require_both=require_both)
    assert others_in_class(cache, agent, pop, require_both=require_both) == expected
    return expected


@st.composite
def eligibility_population(draw, leaders=False):
    """Up to 12 agents over a few communities; narratives shared, repeated or absent.

    With leaders, any agent may be a leader, and a community may have
    several (an unvalidated Population keeps the last).
    """
    narrative = st.sampled_from(["Line A", "Line B", "Line C", "Line D"])
    return Population(personas=[
        make_persona(f"p_{i:02d}", draw(st.sampled_from(["alpha", "beta", "gamma"])),
                     narratives=draw(st.lists(narrative, max_size=3)),
                     leader=draw(st.booleans()) if leaders else False)
        for i in range(draw(st.integers(1, 12)))
    ])


class TestEligibility:
    def test_or_join(self, micro_pop):
        # a_01 shares a community with a_02 only; narratives differ per community
        assert eligible(micro_pop.get("a_01"), micro_pop) == {"a_02"}

    def test_shared_narrative_counts(self):
        pop = Population(
            personas=[
                make_persona("x_01", "alpha", narratives=("Line A", "Line B")),
                make_persona("y_01", "beta", narratives=("Line B",)),
                make_persona("z_01", "gamma", narratives=("Line C",)),
            ]
        )
        assert eligible(pop.get("x_01"), pop) == {"y_01"}

    def test_require_both(self):
        pop = Population(
            personas=[
                make_persona("x_01", "alpha", narratives=("Line A",)),
                make_persona("x_02", "alpha", narratives=("Line A",)),
                make_persona("x_03", "alpha", narratives=("Line Z",)),
            ]
        )
        agent = pop.get("x_01")
        assert eligible(agent, pop) == {"x_02", "x_03"}
        assert eligible(agent, pop, require_both=True) == {"x_02"}

    def test_never_self(self, seed_pop):
        agent = seed_pop.personas[0]
        assert agent.id not in eligible(agent, seed_pop)

    def test_unknown_agent_rejected(self, micro_pop):
        with pytest.raises(ValidationError):
            eligible_candidates(make_persona("ghost"), micro_pop)
        with pytest.raises(KeyError):
            CandidateCache(micro_pop).indexes("ghost")

    def test_cache_matches_direct_computation(self, seed_pop):
        cache = CandidateCache(seed_pop)
        for agent in seed_pop.personas[::40]:
            assert others_in_class(cache, agent, seed_pop) == eligible_candidates(agent, seed_pop)

    def test_one_array_per_class(self, seed_pop):
        cache = CandidateCache(seed_pop)
        classes = {(p.community, frozenset(p.narratives)) for p in seed_pop.personas}
        arrays = {id(cache.indexes(p.id)) for p in seed_pop.personas}
        assert len(classes) == len(arrays) == 8

    @given(pop=eligibility_population(), require_both=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_cache_matches_oracle_for_every_agent(self, pop, require_both):
        # One cache serves every agent, so a class array computed for one
        # member is reused for the others.
        cache = CandidateCache(pop, require_both=require_both)
        for agent in pop.personas:
            assert (others_in_class(cache, agent, pop, require_both=require_both)
                    == eligible_candidates(agent, pop, require_both=require_both))


class TestPaSelect:
    def test_empty_candidates_rejected(self, micro_pop):
        with pytest.raises(ValidationError):
            pa_select([], DegreeState(micro_pop), np.random.default_rng(0))

    def test_only_candidates_returned(self, micro_pop):
        d = DegreeState(micro_pop)
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert pa_select(["a_02", "b_01"], d, rng) in {"a_02", "b_01"}

    def test_deterministic_for_fixed_seed(self, micro_pop):
        d = DegreeState(micro_pop)
        picks_a = [pa_select(["a_02", "b_01", "b_02"], d, np.random.default_rng(42))
                   for _ in range(10)]
        picks_b = [pa_select(["a_02", "b_01", "b_02"], d, np.random.default_rng(42))
                   for _ in range(10)]
        assert picks_a == picks_b

    def test_iteration_order_does_not_matter(self, micro_pop):
        d = DegreeState(micro_pop)
        cands = ["a_02", "b_01", "b_02"]
        a = pa_select(cands, d, np.random.default_rng(5))
        b = pa_select(list(reversed(cands)), d, np.random.default_rng(5))
        assert a == b

    def test_degree_weighting_shifts_mass(self, micro_pop):
        d = DegreeState(micro_pop)
        for _ in range(9):  # b_01 total degree 9 -> weight 10 vs 1
            d.commit("a_01", "b_01")
        rng = np.random.default_rng(3)
        picks = [pa_select(["a_02", "b_01"], d, rng) for _ in range(2000)]
        frac_b = picks.count("b_01") / len(picks)
        assert abs(frac_b - 10 / 11) < 0.03


class TestSelectPartner:
    def test_pure_pa_mode(self, micro_pop):
        rng = np.random.default_rng(0)
        d, cache = DegreeState(micro_pop), CandidateCache(micro_pop)
        for _ in range(20):
            choice = select_partner_detail(
                micro_pop.get("a_02"), micro_pop, MixingPolicy.pa_only(), d, rng, cache=cache
            )
            assert choice.mode == "pa"
            assert choice.partner_id == "a_01"  # only eligible candidate for a_02

    def test_leader_mode_returns_community_leader(self, micro_pop):
        rng = np.random.default_rng(0)
        d = DegreeState(micro_pop)
        choice = select_partner_detail(
            micro_pop.get("a_02"), micro_pop, MixingPolicy(0.0, 1.0, 0.0), d, rng,
            cache=CandidateCache(micro_pop),
        )
        assert choice.partner_id == "a_01"
        assert choice.mode == "leader"
        assert choice.requested_mode == "leader"
        assert choice.fallbacks == ()

    def test_leader_self_falls_back_to_pa(self, micro_pop):
        rng = np.random.default_rng(0)
        d = DegreeState(micro_pop)
        choice = select_partner_detail(
            micro_pop.get("a_01"), micro_pop, MixingPolicy(0.0, 1.0, 0.0), d, rng,
            cache=CandidateCache(micro_pop),
        )
        assert choice.mode == "pa"
        assert choice.requested_mode == "leader"
        assert "leader->pa" in choice.fallbacks
        assert choice.partner_id == "a_02"

    def test_missing_leader_falls_back_to_pa(self):
        pop = Population(
            personas=[make_persona("x_01", "alpha"), make_persona("x_02", "alpha")]
        )
        choice = select_partner_detail(
            pop.get("x_01"), pop, MixingPolicy(0.0, 1.0, 0.0), DegreeState(pop),
            np.random.default_rng(0), cache=CandidateCache(pop),
        )
        assert choice.mode == "pa"
        assert "leader->pa" in choice.fallbacks

    def test_no_candidates_falls_back_to_random(self):
        pop = Population(
            personas=[
                make_persona("x_01", "alpha", narratives=("Line A",)),
                make_persona("y_01", "beta", narratives=("Line B",)),
            ]
        )
        choice = select_partner_detail(
            pop.get("x_01"), pop, MixingPolicy.pa_only(), DegreeState(pop),
            np.random.default_rng(0), cache=CandidateCache(pop),
        )
        assert choice.mode == "random"
        assert choice.requested_mode == "pa"
        assert "pa->random" in choice.fallbacks
        assert choice.partner_id == "y_01"

    def test_random_mode_never_self(self, micro_pop):
        rng = np.random.default_rng(0)
        d, cache = DegreeState(micro_pop), CandidateCache(micro_pop)
        for _ in range(200):
            choice = select_partner_detail(
                micro_pop.get("a_01"), micro_pop, MixingPolicy(0.0, 0.0, 1.0), d, rng,
                cache=cache,
            )
            assert choice.mode == "random"
            assert choice.partner_id != "a_01"

    def test_single_agent_population_rejected(self):
        pop = Population(personas=[make_persona("x_01")])
        with pytest.raises(ValidationError):
            select_partner_detail(
                pop.get("x_01"), pop, MixingPolicy.pa_only(), DegreeState(pop),
                np.random.default_rng(0), cache=CandidateCache(pop),
            )


def reference_select(agent, pop, policy, degrees, rng, *, require_both):
    """select_partner_detail as drawn over a per-agent candidate copy.

    The copy is the agent's eligible candidates in population order, that is
    its class array cls less the agent (cls[cls != i]), and the pa draw is a
    searchsorted into the cumsum of the copy's degree + 1 weights.
    """
    if len(pop) < 2:
        raise ValidationError("partner selection requires a population of at least 2 agents")
    u = rng.random()
    requested = ("pa" if u < policy.p_pa else
                 "leader" if u < policy.p_pa + policy.p_leader else "random")
    mode, fallbacks = requested, []
    if mode == "leader":
        leader_id = pop.leaders.get(agent.community)
        if leader_id is None or leader_id == agent.id:
            fallbacks.append("leader->pa")
            mode = "pa"
        else:
            return PartnerChoice(leader_id, "leader", requested)
    if mode == "pa":
        copy = np.array(sorted(map(pop.index.__getitem__, eligible_candidates(
            agent, pop, require_both=require_both))), dtype=np.int64)
        if len(copy) == 0:
            fallbacks.append("pa->random")
            mode = "random"
        else:
            cum = np.cumsum((degrees.in_deg[copy] + degrees.out_deg[copy] + 1).astype(np.float64))
            j = int(copy[np.searchsorted(cum, rng.random() * cum[-1], side="right")])
            return PartnerChoice(pop.personas[j].id, "pa", requested, tuple(fallbacks))
    i = pop.index[agent.id]
    j = int(rng.integers(len(pop) - 1))
    return PartnerChoice(pop.personas[j + (j >= i)].id, "random", requested, tuple(fallbacks))


@st.composite
def partner_case(draw):
    """A population with leaders, prior commits, a policy over all three modes, a rule and a seed."""
    pop = draw(eligibility_population(leaders=True))
    n = len(pop)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    commits = draw(st.lists(pairs, max_size=20)) if n > 1 else []
    shares = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(any))
    policy = MixingPolicy(*(s / sum(shares) for s in shares))
    return pop, commits, policy, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestSharedClassArrays:
    @given(case=partner_case())
    @settings(max_examples=300, deadline=None)
    def test_draw_equals_per_agent_copy_draw(self, case):
        # Every agent draws three times from one seed, committing each pick,
        # so later draws see the degrees the earlier ones left.
        pop, commits, policy, require_both, seed = case
        degrees = DegreeState(pop)
        for s, d in commits:
            degrees.commit(pop.personas[s].id, pop.personas[d].id)
        cache = CandidateCache(pop, require_both=require_both)
        for agent in pop.personas:
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            if len(pop) < 2:
                with pytest.raises(ValidationError):
                    select_partner_detail(agent, pop, policy, degrees, got_rng, cache=cache)
                continue
            for _ in range(3):
                got = select_partner_detail(agent, pop, policy, degrees, got_rng, cache=cache)
                want = reference_select(agent, pop, policy, degrees, want_rng,
                                        require_both=require_both)
                assert got == want
                assert got.partner_id != agent.id
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                degrees.commit(agent.id, got.partner_id)


class TestInteractionCounts:
    def test_within_bounds(self):
        p = make_persona("x_01", posts=(3, 10), retweets=(2, 5), replies=(1, 5), quotes=(0, 2))
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = draw_interaction_counts(p, rng)
            assert 3 <= c["posts"] <= 10
            assert 2 <= c["retweets"] <= 5
            assert 1 <= c["replies"] <= 5
            assert 0 <= c["quotes"] <= 2

    def test_bounds_inclusive(self):
        p = make_persona("x_01", posts=(4, 4), retweets=(0, 0), replies=(2, 2), quotes=(1, 1))
        c = draw_interaction_counts(p, np.random.default_rng(0))
        assert c == {"posts": 4, "retweets": 0, "replies": 2, "quotes": 1}

    def test_draw_order_fixed(self):
        p = make_persona("x_01", posts=(0, 9), retweets=(0, 9), replies=(0, 9), quotes=(0, 9))
        a = draw_interaction_counts(p, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        expected = {k: int(rng.integers(0, 10)) for k in ("posts", "retweets", "replies", "quotes")}
        assert a == expected


@pytest.fixture()
def star_pop():
    """Four leaves all pointing at one center: every metric comes out 0.2."""
    return Population(
        personas=[make_persona(f"s_{i:02d}", "star") for i in range(5)]
    )


@pytest.fixture()
def star_graph(star_pop):
    tweets = [interaction(i + 1, f"s_{i:02d}", "s_04") for i in range(4)]
    return build_comm_graph(tweets, star_pop)


class TestCommGraph:
    def test_star_counts(self, star_graph):
        assert star_graph.n_nodes == 5
        assert star_graph.n_edges == 4
        assert star_graph.total_weight() == 4

    def test_population_index_left_unchanged(self, micro_pop):
        before = dict(micro_pop.index)
        tweets = [interaction(1, "a_01", "b_02"),
                  interaction(2, "a_02", None, kind="original", target_tweet=None)]
        build_comm_graph(tweets, micro_pop)
        assert micro_pop.index == before == {"a_01": 0, "a_02": 1, "b_01": 2, "b_02": 3}

    def test_parallel_interactions_collapse(self, micro_pop):
        tweets = [
            interaction(1, "a_01", "b_01", "reply"),
            interaction(2, "a_01", "b_01", "quote"),
            interaction(3, "a_01", "b_01", "retweet"),
        ]
        g = build_comm_graph(tweets, micro_pop)
        assert g.n_edges == 1
        e = g.edges[("a_01", "b_01")]
        assert (e.weight, e.retweets, e.quotes, e.replies) == (3, 1, 1, 1)

    def test_originals_contribute_no_edges(self, micro_pop):
        t = Tweet(id=1, author_id="a_01", kind="original", text="plain",
                  target_tweet_id=None, target_agent_id=None, run_index=0, slot_index=0)
        g = build_comm_graph([t], micro_pop)
        assert g.n_edges == 0
        assert g.n_nodes == len(micro_pop)  # isolates retained

    def test_unknown_author_rejected(self, micro_pop):
        with pytest.raises(ValidationError, match="unknown author"):
            build_comm_graph([interaction(1, "ghost", "a_01")], micro_pop)

    def test_unknown_target_rejected(self, micro_pop):
        with pytest.raises(ValidationError, match="unknown target"):
            build_comm_graph([interaction(1, "a_01", "ghost")], micro_pop)

    def test_self_interaction_rejected(self, micro_pop):
        with pytest.raises(ValidationError, match="self-interaction"):
            build_comm_graph([interaction(1, "a_01", "a_01")], micro_pop)


class TestGraphMetrics:
    def test_star_all_metrics_point_two(self, star_pop, star_graph):
        m = graph_metrics(star_graph, star_pop)
        assert m.density == pytest.approx(4 / 20)
        assert m.avg_in_degree_centrality == pytest.approx(0.2)
        assert m.avg_out_degree_centrality == pytest.approx(0.2)
        assert m.avg_total_degree_centrality == pytest.approx(0.2)

    def test_star_per_agent_centralities(self, star_pop, star_graph):
        c = per_agent_centralities(star_graph, star_pop)
        np.testing.assert_allclose(c["in"], [0, 0, 0, 0, 1.0])
        np.testing.assert_allclose(c["out"], [0.25] * 4 + [0.0])
        np.testing.assert_allclose(c["total"], [0.125] * 4 + [0.5])

    def test_complete_graph_density_one(self):
        pop = Population(personas=[make_persona(f"k_{i}", "k") for i in range(3)])
        tweets = []
        tid = 0
        for a in pop.ids():
            for b in pop.ids():
                if a != b:
                    tid += 1
                    tweets.append(interaction(tid, a, b))
        m = graph_metrics(build_comm_graph(tweets, pop), pop)
        assert m.density == pytest.approx(1.0)
        assert m.avg_total_degree_centrality == pytest.approx(1.0)

    def test_weighted_density_counts_multiplicity(self, micro_pop):
        tweets = [interaction(i, "a_01", "b_01") for i in range(1, 7)]
        g = build_comm_graph(tweets, micro_pop)
        assert g.n_edges == 1
        assert weighted_density(g) == pytest.approx(6 / 12)

    def test_single_node_rejected(self):
        pop = Population(personas=[make_persona("x_01")])
        g = build_comm_graph([], pop)
        with pytest.raises(ValidationError):
            graph_metrics(g, pop)


_CSV_HEADER = "source,target,weight,retweets,quotes,replies"


class TestGraphFromEdges:
    """A graph continued from stored edges equals the graph of the whole corpus."""

    TWEETS = [
        interaction(1, "b_02", "a_01", "reply"),
        interaction(2, "a_01", "b_01", "quote"),
        interaction(3, "a_01", "b_01", "retweet"),
        interaction(4, "b_01", "a_02", "reply"),
        interaction(5, "a_01", "b_01", "reply"),
        interaction(6, "b_02", "a_02", "quote"),
    ]

    @pytest.mark.parametrize("split", [0, 1, 3, 6])
    def test_prior_edges_plus_new_tweets(self, micro_pop, tmp_path, split):
        path = tmp_path / "graph.csv"
        export_edges_csv(build_comm_graph(self.TWEETS[:split], micro_pop), path)
        edges, degrees = read_edges_csv(path, micro_pop)
        whole = build_comm_graph(self.TWEETS, micro_pop)
        assert build_comm_graph(self.TWEETS[split:], micro_pop, edges) == whole
        assert edges == build_comm_graph(self.TWEETS[:split], micro_pop).edges  # not changed

        committed = DegreeState(micro_pop)
        for t in self.TWEETS[:split]:
            committed.commit(t.author_id, t.target_agent_id)
        assert degrees.in_deg.tolist() == committed.in_deg.tolist()
        assert degrees.out_deg.tolist() == committed.out_deg.tolist()
        assert int(degrees.in_deg.sum()) == split

    @pytest.mark.parametrize("split", [0, 1, 3, 6])
    def test_degree_arrays_count_each_edge_once(self, micro_pop, tmp_path, split):
        path = tmp_path / "graph.csv"
        export_edges_csv(build_comm_graph(self.TWEETS[:split], micro_pop), path)
        edges, _ = read_edges_csv(path, micro_pop)
        for g in (build_comm_graph([], micro_pop), build_comm_graph(self.TWEETS, micro_pop),
                  build_comm_graph(self.TWEETS[split:], micro_pop, edges)):
            expected_in, expected_out = [0] * len(micro_pop), [0] * len(micro_pop)
            for src, dst in g.edges:
                expected_out[micro_pop.index[src]] += 1
                expected_in[micro_pop.index[dst]] += 1
            in_deg, out_deg = g.degree_arrays(micro_pop)
            assert (in_deg.tolist(), out_deg.tolist()) == (expected_in, expected_out)

    @pytest.mark.parametrize("lines,line,message", [
        (["source,target,weight,retweets,quotes"], 1, "header must be"),
        ([], 1, "header must be"),
        ([_CSV_HEADER, "a_01,b_01,1,0,0"], 2, "must have 6 fields"),
        ([_CSV_HEADER, "a_01,ghost_agent,1,0,0,1"], 2, "unknown agent 'ghost_agent'"),
        ([_CSV_HEADER, "a_01,b_01,1,0,0,1", "a_01,a_01,1,0,0,1"], 3, "self-loop on 'a_01'"),
        ([_CSV_HEADER, "a_01,b_01,1,0,0,1", "a_01,b_01,1,0,0,1"], 3,
         "duplicate edge a_01 -> b_01"),
        ([_CSV_HEADER, "a_01,b_01,x,0,0,1"], 2, "weight must be a non-negative integer"),
        ([_CSV_HEADER, "a_01,b_01,1,-1,1,1"], 2, "retweets must be a non-negative integer"),
        ([_CSV_HEADER, "a_01,b_01,1,0,1.0,0"], 2, "quotes must be a non-negative integer"),
        ([_CSV_HEADER, "a_01,b_01,1,0,0, 1"], 2, "replies must be a non-negative integer"),
        ([_CSV_HEADER, "a_01,b_01,2,0,0,1"], 2, r"weight 2 is not retweets \+ quotes \+ replies"),
        ([_CSV_HEADER, "a_01,b_01,1,0,0,1", "b_01,a_01,0,0,0,0"], 3, "weight must be 1 or more"),
    ])
    def test_bad_rows_name_their_line(self, micro_pop, tmp_path, lines, line, message):
        path = tmp_path / "graph.csv"
        path.write_text("".join(f"{text}\r\n" for text in lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"graph.csv:{line}: {message}"):
            read_edges_csv(path, micro_pop)

    # Good rows, then a bad row of each kind; the first bad row is named, not a later one.
    GOOD_ROWS = ["a_01,a_02,3,1,1,1", "a_01,b_01,1,0,0,1", "b_01,a_01,2,2,0,0",
                 "b_02,a_02,1,0,1,0"]

    @pytest.mark.parametrize("bad,message", [
        ("ghost_agent,a_01,1,0,0,1", "unknown agent 'ghost_agent'"),
        ("a_02,ghost_agent,1,0,0,1", "unknown agent 'ghost_agent'"),
        ("b_02,b_02,1,0,0,1", "self-loop on 'b_02'"),
        ("a_01,b_01,1,0,0,1", "duplicate edge a_01 -> b_01"),
        ("a_02,b_01,1,0,0,one", "replies must be a non-negative integer"),
        ("a_02,b_01,3,1,1,0", r"weight 3 is not retweets \+ quotes \+ replies"),
        ("a_02,b_01,0,0,0,0", "weight must be 1 or more"),
        (f"a_02,b_01,{2**53 - 7},{2**53 - 7},0,0", r"the weights sum to 2\*\*53 or more"),
    ])
    def test_first_bad_row_after_good_ones_is_named(self, micro_pop, tmp_path, bad, message):
        later_bad = "a_02,a_02,1,0,0,1"  # a self-loop
        lines = [_CSV_HEADER, *self.GOOD_ROWS, bad, "b_02,a_01,1,1,0,0", later_bad]
        path = tmp_path / "graph.csv"
        path.write_text("".join(f"{text}\r\n" for text in lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"graph.csv:{len(self.GOOD_ROWS) + 2}: {message}"):
            read_edges_csv(path, micro_pop)

    def test_degrees_are_the_per_edge_sums(self, micro_pop, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("".join(f"{text}\n" for text in [_CSV_HEADER, *self.GOOD_ROWS]),
                        encoding="utf-8")
        edges, degrees = read_edges_csv(path, micro_pop)
        assert list(edges) == [tuple(row.split(",")[:2]) for row in self.GOOD_ROWS]
        # a_01, a_02, b_01, b_02 in population order
        assert degrees.out_deg.tolist() == [4, 0, 2, 1]
        assert degrees.in_deg.tolist() == [2, 4, 1, 0]
        assert int(degrees.in_deg.sum()) == 7
        assert degrees.out_deg.dtype == degrees.in_deg.dtype == np.int64
        assert degrees.violations() == []

    def test_degrees_stay_exact_up_to_the_weight_limit(self, micro_pop, tmp_path):
        big = 2**53 - 8  # the good rows add 7, so the total is 2**53 - 1
        path = tmp_path / "graph.csv"
        path.write_text("".join(f"{text}\n" for text in [_CSV_HEADER, *self.GOOD_ROWS,
                                                         f"a_02,b_01,{big},{big},0,0"]),
                        encoding="utf-8")
        _, degrees = read_edges_csv(path, micro_pop)
        assert degrees.out_deg.tolist() == [4, big, 2, 1]
        assert degrees.in_deg.tolist() == [2, 4, 1 + big, 0]
        assert int(degrees.in_deg.sum()) == int(degrees.out_deg.sum()) == 2**53 - 1


class TestExports:
    def test_csv_sorted_with_header(self, micro_pop, tmp_path):
        tweets = [
            interaction(1, "b_02", "a_01", "reply"),
            interaction(2, "a_01", "b_01", "quote"),
            interaction(3, "a_01", "b_01", "quote"),
        ]
        g = build_comm_graph(tweets, micro_pop)
        path = tmp_path / "graph.csv"
        export_edges_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "source,target,weight,retweets,quotes,replies"
        assert lines[1] == "a_01,b_01,2,0,2,0"
        assert lines[2] == "b_02,a_01,1,0,0,1"

    def test_graphml_round_trip(self, micro_pop, tmp_path):
        import networkx as nx

        tweets = [interaction(1, "a_01", "b_01"), interaction(2, "b_01", "a_02")]
        g = build_comm_graph(tweets, micro_pop)
        path = tmp_path / "graph.graphml"
        export_graphml(g, micro_pop, path)
        back = nx.read_graphml(path)
        assert set(back.nodes) == set(micro_pop.ids())
        assert back.nodes["a_01"]["community"] == "alpha"
        assert back.edges["a_01", "b_01"]["weight"] == 1

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_graphml_bytes_equal_networkx(self, tmp_path_factory, data):
        pop = data.draw(_xml_population())
        ids = pop.ids()
        pairs = [(s, t) for s in ids for t in ids if s != t]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        edges = {pair: EdgeStats(weight=data.draw(st.integers(1, 10**6))) for pair in chosen}
        g = CommGraph(nodes=ids, edges=edges)
        tmp = tmp_path_factory.mktemp("graphml")
        export_graphml(g, pop, tmp / "ours.graphml")
        _networkx_graphml(g, pop, tmp / "networkx.graphml")
        assert (tmp / "ours.graphml").read_bytes() == (tmp / "networkx.graphml").read_bytes()

    def test_graphml_single_node_and_no_edges(self, micro_pop, tmp_path):
        for pop in (Population(personas=micro_pop.personas[:1]), micro_pop):
            g = build_comm_graph([], pop)
            export_graphml(g, pop, tmp_path / "ours.graphml")
            _networkx_graphml(g, pop, tmp_path / "networkx.graphml")
            ours = (tmp_path / "ours.graphml").read_bytes()
            assert ours == (tmp_path / "networkx.graphml").read_bytes()
            assert b'for="edge"' not in ours


def _networkx_graphml(g: CommGraph, pop: Population, path) -> None:
    """The networkx export that export_graphml replaced: the oracle for its bytes.

    write_graphml_xml, not write_graphml: the latter picks the lxml writer
    when lxml is installed, which writes the two keys in the other order.
    """
    import networkx as nx

    dg = nx.DiGraph()
    for pid in g.nodes:
        dg.add_node(pid, community=pop.get(pid).community)
    for (src, dst) in sorted(g.edges):
        dg.add_edge(src, dst, weight=g.edges[(src, dst)].weight)
    nx.write_graphml_xml(dg, str(path))


# Names that need escaping in XML text or attributes, with whitespace and non-ASCII.
_xml_text = st.text(st.one_of(st.sampled_from("&<>\"' \t\n\r"),
                              st.characters(blacklist_categories=("Cs",))),
                    min_size=1, max_size=12)


@st.composite
def _xml_population(draw):
    ids = draw(st.lists(_xml_text, min_size=1, max_size=6, unique=True))
    return Population(personas=[make_persona(pid, draw(_xml_text)) for pid in ids])


@st.composite
def tiny_population(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    communities = ["alpha", "beta"]
    personas = [
        make_persona(
            f"h_{i:02d}",
            draw(st.sampled_from(communities)),
            narratives=(draw(st.sampled_from(["Line A", "Line B"])),),
        )
        for i in range(n)
    ]
    return Population(personas=personas)


class TestProperties:
    @given(pop=tiny_population(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partner_is_valid_and_never_self(self, pop, seed):
        rng = np.random.default_rng(seed)
        agent = pop.personas[0]
        choice = select_partner_detail(
            agent, pop, POLICY_PRESETS["pa+leader+random"], DegreeState(pop), rng,
            cache=CandidateCache(pop),
        )
        assert choice.partner_id in pop
        assert choice.partner_id != agent.id
        assert choice.mode in {"pa", "leader", "random"}

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pa_select_respects_candidate_set(self, seed):
        pop = Population(personas=[make_persona(f"c_{i}", "c") for i in range(6)])
        d = DegreeState(pop)
        d.commit("c_0", "c_1")
        cands = ["c_2", "c_3", "c_4"]
        assert pa_select(cands, d, np.random.default_rng(seed)) in cands

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_policy_validation_total(self, a, b):
        s = a + b
        if s > 1:
            return
        c = 1.0 - s
        p = MixingPolicy(a, b, c)
        assert math.isclose(p.p_pa + p.p_leader + p.p_random, 1.0, abs_tol=1e-9)
