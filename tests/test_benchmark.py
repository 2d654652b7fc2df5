"""Reference baselines, t statistics, and comparison report rendering.

The frozen constants below were computed once with scipy (ttest_1samp,
stats.t.sf, special.betainc) and pinned; the property tests additionally
compare the package's route against live scipy as an independent oracle.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scipy.special
import scipy.stats

from botforge.benchmark import (
    SIGNIFICANCE_LEVEL,
    ComparisonRow,
    baseline_table,
    compare,
    compare_from_report,
    one_sample_t,
    one_sample_t_from_stats,
    regularized_incomplete_beta,
    render_report,
    student_t_two_sided_p,
)
from botforge.cues import (
    CUE_NAMES,
    CueVector,
    aggregate_cues,
    read_cue_report,
    summarize,
    write_cue_report,
)
from botforge.errors import ValidationError
from botforge.netgraph import build_comm_graph, graph_metrics
from botforge.persona import Population
from botforge.simcore import config_from_dict, load_corpus, simulate_to_dir

# scipy.stats.ttest_1samp([0.9, 1.0, 1.1, 1.0], 0.5)
ORACLE_SAMPLE = [0.9, 1.0, 1.1, 1.0]
ORACLE_MU = 0.5
ORACLE_T = 12.247448713915887
ORACLE_P = 0.0011722164447168875

# (df, t, two-sided p) with p = 2 * scipy.stats.t.sf(t, df)
T_TABLE = [
    (1, 12.706, 0.05000080235813317),
    (4, 2.776, 0.0500227783199764),
    (10, 2.228, 0.050011771817111327),
    (30, 2.042, 0.050028670656197885),
    (100, 1.984, 0.04999677379616732),
    (3, 12.25, 0.0011714956842900587),
]

# (a, b, x, scipy.special.betainc(a, b, x))
BETAINC_TABLE = [
    (0.5, 0.5, 0.25, 0.33333333333333337),  # analytic: (2/pi)*asin(sqrt(x)) = 1/3
    (2.0, 3.0, 0.4, 0.5248),                 # analytic polynomial value
    (5.0, 0.5, 0.9, 0.3166429150200122),
    (1.5, 1.5, 0.5, 0.4999999999999998),     # symmetry point
]


class TestBaselines:
    def test_covers_canonical_cues(self):
        table = baseline_table()
        assert table.cues() == CUE_NAMES

    def test_reference_values(self):
        table = baseline_table()
        assert table.lookup("first_person_pronouns").wild_bot == 0.71
        assert table.lookup("first_person_pronouns").wild_human == 0.73
        assert table.lookup("positive_sentiment").wild_bot == 2.88
        assert table.lookup("positive_sentiment").wild_human == 3.10
        assert table.lookup("negative_sentiment").wild_bot == 1.56
        assert table.lookup("hashtags").wild_human == 0.49
        assert table.lookup("out_degree").wild_bot == 8e-4
        assert table.lookup("out_degree").wild_human == 1.6e-3

    def test_unknown_cue_rejected(self):
        with pytest.raises(ValidationError, match="unknown cue"):
            baseline_table().lookup("sarcasm")


class TestIncompleteBeta:
    def test_frozen_reference_values(self):
        for a, b, x, expected in BETAINC_TABLE:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                expected, abs=1e-10
            )

    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    @given(
        a=st.floats(0.1, 50.0),
        b=st.floats(0.1, 50.0),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, a, b, x):
        ours = regularized_incomplete_beta(a, b, x)
        ref = float(scipy.special.betainc(a, b, x))
        assert ours == pytest.approx(ref, abs=1e-9)

    @given(
        a=st.floats(0.2, 20.0),
        b=st.floats(0.2, 20.0),
        # keep x away from the endpoints: the float expression 1-x collapses
        # tiny x to 0 and would test representation, not the implementation
        x=st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_reflection_identity(self, a, b, x):
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestStudentP:
    def test_frozen_t_table(self):
        for df, t, p_ref in T_TABLE:
            assert student_t_two_sided_p(t, df) == pytest.approx(p_ref, abs=1e-10)
            assert student_t_two_sided_p(-t, df) == pytest.approx(p_ref, abs=1e-10)

    def test_t_zero_gives_one(self):
        assert student_t_two_sided_p(0.0, 7) == pytest.approx(1.0)

    def test_infinite_t_gives_zero(self):
        assert student_t_two_sided_p(math.inf, 7) == 0.0
        assert student_t_two_sided_p(-math.inf, 7) == 0.0

    def test_df_must_be_positive(self):
        with pytest.raises(ValidationError):
            student_t_two_sided_p(1.0, 0)

    @given(t=st.floats(-40.0, 40.0), df=st.integers(1, 500))
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_sf(self, t, df):
        # atol 1e-7: for |t| ~ 3e-8 the beta argument sits within one ulp of 1
        # and the continued fraction loses a few digits of absolute accuracy
        ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
        assert student_t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-7)


class TestOneSampleT:
    def test_frozen_sample_oracle(self):
        res = one_sample_t(ORACLE_SAMPLE, ORACLE_MU)
        assert res.t == pytest.approx(ORACLE_T, abs=1e-9)
        assert res.p == pytest.approx(ORACLE_P, abs=1e-12)

    def test_stats_route_matches_sample_route(self, simulated_report):
        # Each cue's raw sample against the row the cue report keeps of it.
        agg, report = simulated_report
        for cue in CUE_NAMES:
            r = report[cue]
            for mu in (0.0, 0.2, 2.2):
                assert one_sample_t(agg.samples[cue], mu) == one_sample_t_from_stats(
                    r["mean"], r["std"], r["n"], mu), (cue, mu)

    def test_zero_variance_at_mu(self):
        res = one_sample_t([1.0, 1.0, 1.0], 1.0)
        assert res.t == 0.0
        assert res.p == 1.0

    def test_zero_variance_away_from_mu(self):
        res = one_sample_t([1.0, 1.0, 1.0], 2.0)
        assert res.t == -math.inf
        assert res.p == 0.0
        res = one_sample_t([3.0, 3.0], 2.0)
        assert res.t == math.inf
        assert res.p == 0.0

    @pytest.mark.parametrize("mean,std", [
        (0.028951817413355882, 3.479757366814375e-18),  # pa+leader+random, total_degree
        (0.035538179768949005, 6.95951473362875e-18),  # pa, all three degree rows
        (-0.035538179768949005, 6.95951473362875e-18),
    ])
    def test_rounding_noise_std_is_zero_variance(self, mean, std):
        # What float rounding leaves of the std of a constant sample of 169
        # degree centralities (seed 1, one run of the shipped personas).
        res = one_sample_t_from_stats(mean, std, 169, 0.5)
        assert res.t == -math.inf and res.p == 0.0
        assert one_sample_t_from_stats(mean, std, 169, mean) == one_sample_t_from_stats(
            mean, 0.0, 169, mean)

    def test_small_but_real_std_is_tested(self):
        res = one_sample_t_from_stats(0.03, 1e-15, 169, 0.5)
        assert math.isfinite(res.t) and res.t < 0

    def test_constant_sample_of_4k_values_is_zero_variance(self):
        # np.std leaves this constant sample a std just over 4 ulps of its mean.
        s = summarize(np.full(3999, 0.0018647786946736685))
        assert s["std"] > 4 * math.ulp(s["mean"])
        res = one_sample_t_from_stats(s["mean"], s["std"], s["n"], 0.5)
        assert res.t == -math.inf and res.p == 0.0

    @given(n=st.integers(2, 10**5),
           # Up to 1e150: the square of a deviation of a few ulps stays finite.
           v=st.floats(sys.float_info.min, 1e150),
           mu=st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_constant_sample_is_never_t_tested(self, n, v, mu):
        s = summarize(np.full(n, v))
        assert one_sample_t_from_stats(s["mean"], s["std"], s["n"], mu).t in (
            -math.inf, 0.0, math.inf)

    @given(n=st.integers(2, 10**5),
           v=st.floats(1e-100, 1e100),
           mu=st.floats(-1e3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_relative_spread_of_1e_9_is_t_tested(self, n, v, mu):
        # Alternating v(1 - 1e-9), v(1 + 1e-9): a std about 1e-9 of the mean.
        sample = np.full(n, v) * np.where(np.arange(n) % 2, 1 + 1e-9, 1 - 1e-9)
        s = summarize(sample)
        assert math.isfinite(one_sample_t_from_stats(s["mean"], s["std"], s["n"], mu).t)

    def test_too_small_sample(self):
        with pytest.raises(ValidationError):
            one_sample_t([1.0], 0.0)
        with pytest.raises(ValidationError):
            one_sample_t_from_stats(1.0, 0.5, 1, 0.0)

    @given(
        sample=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        mu=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_ttest(self, sample, mu):
        # stay out of the catastrophic-cancellation zone where both routes
        # degenerate (scipy warns and emits nan/inf, we apply the documented
        # zero-variance convention)
        mean = sum(sample) / len(sample)
        spread = math.sqrt(sum((v - mean) ** 2 for v in sample) / (len(sample) - 1))
        assume(spread > 1e-6 * max(1.0, max(abs(v) for v in sample)))
        ours = one_sample_t(sample, mu)
        ref = scipy.stats.ttest_1samp(sample, mu)
        assert ours.t == pytest.approx(float(ref.statistic), rel=1e-9, abs=1e-9)
        assert ours.p == pytest.approx(float(ref.pvalue), abs=1e-9)

    @given(
        sample=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20),
        mu=st.floats(-100.0, 100.0),
        c=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, sample, mu, c):
        mean = sum(sample) / len(sample)
        spread = math.sqrt(sum((v - mean) ** 2 for v in sample) / (len(sample) - 1))
        assume(spread > 1e-6 * max(1.0, max(abs(v) for v in sample)))
        base = one_sample_t(sample, mu)
        scaled = one_sample_t([c * v for v in sample], c * mu)
        assert scaled.t == pytest.approx(base.t, rel=1e-6, abs=1e-9)
        assert scaled.p == pytest.approx(base.p, rel=1e-6, abs=1e-9)

    @given(
        sample=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=20),
        mu=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, sample, mu):
        pos = one_sample_t(sample, mu)
        neg = one_sample_t([-v for v in sample], -mu)
        assert neg.t == pytest.approx(-pos.t, rel=1e-9, abs=1e-12) or (
            math.isinf(pos.t) and neg.t == -pos.t
        )
        assert neg.p == pytest.approx(pos.p, abs=1e-12)

    @given(
        t1=st.floats(0.0, 30.0),
        t2=st.floats(0.0, 30.0),
        df=st.integers(1, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_p_monotone_in_abs_t(self, t1, t2, df):
        lo, hi = sorted((t1, t2))
        assert student_t_two_sided_p(hi, df) <= student_t_two_sided_p(lo, df) + 1e-12


def _simulated_report(pop, pools, lexicons, tmp_path, **config):
    """(aggregate, cue report read back) of a template simulation, 1 run unless config says."""
    out = tmp_path / "run"
    simulate_to_dir(config_from_dict({"runs": 1, "out_dir": str(out), **config}),
                    pop=pop, pools=pools)
    pop, tweets = load_corpus(out)
    agg = aggregate_cues(tweets, graph_metrics(build_comm_graph(tweets, pop), pop), pop, lexicons)
    write_cue_report(agg, out / "cues.csv")
    return agg, read_cue_report(out / "cues.csv")


@pytest.fixture()
def simulated_report(seed_pop, pools, lexicons, tmp_path):
    """A 2-run simulation of every fourth shipped persona, mixed partner modes."""
    return _simulated_report(Population(personas=seed_pop.personas[::4]), pools, lexicons,
                             tmp_path, seed=7, runs=2, mixing="pa+leader+random")


def _vector(**overrides) -> CueVector:
    values = {name: 0.0 for name in CUE_NAMES}
    values.update(overrides)
    return CueVector(**values)


class TestCompare:
    def test_flags_and_direction(self):
        per_agent = {
            f"a_{i:02d}": _vector(first_person_pronouns=v)
            for i, v in enumerate([0.9, 1.0, 1.1])
        }
        rows = {r.cue: r for r in compare(per_agent)}
        fp = rows["first_person_pronouns"]
        # mean 1.0, std 0.1, n 3 vs bot 0.71: t = 0.29 / (0.1/sqrt(3))
        assert fp.t_bot == pytest.approx(0.29 / (0.1 / math.sqrt(3)), rel=1e-9)
        assert fp.sig_bot and fp.sig_human

    def test_zero_variance_at_baseline(self):
        # two identical values keep the float mean exactly on the baseline
        per_agent = {
            f"a_{i:02d}": _vector(positive_sentiment=2.88) for i in range(2)
        }
        ps = {r.cue: r for r in compare(per_agent)}["positive_sentiment"]
        assert (ps.t_bot, ps.p_bot, ps.sig_bot) == (0.0, 1.0, False)
        # but infinitely far from the human mean of 3.10
        assert ps.t_human == -math.inf and ps.p_human == 0.0 and ps.sig_human

    def test_constant_degree_rows_of_4k_agents_are_zero_variance(self, tmp_path):
        # The cue report of a 4,000-persona run (pa, naive, template backend):
        # every degree row is a constant whose std np.std left at 3-5 ulps.
        path = tmp_path / "cues.csv"
        path.write_text(
            "cue,per_agent_mean,per_agent_std,n_agents\n"
            + "".join(f"{cue},0.0,0.0,4000\n" for cue in CUE_NAMES[:-3])
            + "total_degree,0.0018647786946736676,6.506026339040092e-19,4000\n"
            "in_degree,0.0018647786946736696,8.67470178538679e-19,4000\n"
            "out_degree,0.0018647786946736696,1.0843377231733487e-18,4000\n")
        rows = {r.cue: r for r in compare_from_report(read_cue_report(path))}
        for cue in ("total_degree", "in_degree", "out_degree"):
            r = rows[cue]
            assert math.isinf(r.t_bot) and math.isinf(r.t_human) and r.p_bot == r.p_human == 0.0

    def test_rows_in_canonical_order(self):
        per_agent = {f"a_{i}": _vector() for i in range(3)}
        rows = compare(per_agent)
        assert [r.cue for r in rows] == list(CUE_NAMES)

    def test_needs_two_agents(self):
        for per_agent in ({}, {"a_01": _vector()}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # and no numpy warning on the way
                with pytest.raises(ValidationError, match=">= 2 agents"):
                    compare(per_agent)

    def test_from_report_matches_direct(self, simulated_report):
        agg, report = simulated_report
        assert compare(agg.per_agent) == compare_from_report(report)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("mixing", ["pa", "pa+leader", "pa+leader+random"])
    def test_library_and_cli_routes_agree_on_shipped_personas(self, seed_pop, pools, lexicons,
                                                              tmp_path, mixing, seed):
        # Each agent's degree rows hold the corpus-level centrality, so that
        # sample is constant: both routes must see the std rounding leaves of
        # it as zero variance, and agree on every other row to the bit.
        agg, report = _simulated_report(seed_pop, pools, lexicons, tmp_path, seed=seed,
                                        mixing=mixing, scheme="targets:all")
        library, cli = compare(agg.per_agent), compare_from_report(report)
        assert library == cli
        for row in (*library[-3:], *cli[-3:]):
            assert row.cue in ("total_degree", "in_degree", "out_degree")
            assert math.isinf(row.t_bot) and math.isinf(row.t_human), row
            assert row.p_bot == row.p_human == 0.0

    def test_from_report_missing_cue(self):
        with pytest.raises(ValidationError, match="missing"):
            compare_from_report({"mentions": {"mean": 0, "std": 0, "n": 3}})

    def test_significance_level_pinned(self):
        assert SIGNIFICANCE_LEVEL == 0.05


class TestRenderReport:
    @pytest.fixture()
    def rows(self):
        per_agent = {
            f"a_{i:02d}": _vector(first_person_pronouns=v)
            for i, v in enumerate([0.9, 1.0, 1.1])
        }
        return compare(per_agent)

    def test_markdown_shape_and_markers(self, rows):
        text = render_report(rows, "markdown")
        lines = text.splitlines()
        assert len(lines) == 2 + len(CUE_NAMES)
        assert lines[0].startswith("| cue | mean |")
        fp_line = next(ln for ln in lines if "first_person_pronouns" in ln)
        assert "| 1*# |" in fp_line  # significant against both baselines
        # zero-valued cue still significantly differs from nonzero baselines
        urls_line = next(ln for ln in lines if "| urls |" in ln)
        assert "0*#" in urls_line

    def test_csv_shape(self, rows):
        text = render_report(rows, "csv")
        lines = text.splitlines()
        assert lines[0] == "cue,mean,std,n,t_bot,p_bot,sig_bot,t_human,p_human,sig_human"
        assert len(lines) == 1 + len(CUE_NAMES)
        fp = next(ln for ln in lines[1:] if ln.startswith("first_person_pronouns,"))
        fields = fp.split(",")
        assert fields[6] in ("true", "false")
        assert float(fields[1]) == pytest.approx(1.0)

    def test_rows_reordered_to_canonical(self, rows):
        text = render_report(list(reversed(rows)), "csv")
        body = [ln.split(",")[0] for ln in text.splitlines()[1:]]
        assert body == list(CUE_NAMES)

    def test_infinite_t_rendered(self, rows):
        text = render_report(rows, "csv")
        assert "inf" in text  # zero-variance cues against nonzero baselines

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            render_report([], "markdown")

    def test_unknown_cue_rejected(self, rows):
        bad = ComparisonRow("sarcasm", 0, 0, 3, 0, 1, False, 0, 1, False)
        with pytest.raises(ValidationError, match="sarcasm"):
            render_report([*rows, bad], "markdown")

    def test_unknown_format_rejected(self, rows):
        with pytest.raises(ValidationError, match="format"):
            render_report(rows, "yaml")
