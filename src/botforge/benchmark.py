"""Baseline cue statistics, one-sample t-tests, and comparison reports.

The embedded baseline table holds the published mean cue values for two
reference populations of real accounts, automated ("wild bot") and human
("wild human"). Only the means are published, so the comparison runs a
one-sample t-test of the generated sample against each reference mean; the
Student-t CDF is evaluated with a regularized-incomplete-beta continued
fraction, keeping the statistics dependency-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cues import CUE_NAMES, CueVector, summarize
from .errors import ValidationError

SIGNIFICANCE_LEVEL = 0.05


@dataclass(frozen=True)
class BaselineRow:
    cue: str
    wild_bot: float
    wild_human: float


class BaselineStats:
    """Immutable per-cue reference means for the two wild populations."""

    def __init__(self, rows: dict[str, BaselineRow]):
        if tuple(rows) != CUE_NAMES:
            raise ValidationError("baseline table must cover exactly the canonical cues")
        self._rows = dict(rows)

    def lookup(self, cue: str) -> BaselineRow:
        if cue not in self._rows:
            raise ValidationError(f"unknown cue name {cue!r}")
        return self._rows[cue]

    def cues(self) -> tuple[str, ...]:
        return CUE_NAMES


_BASELINE_VALUES = {
    # cue: (wild_bot, wild_human)
    "first_person_pronouns": (0.71, 0.73),
    "second_person_pronouns": (0.20, 0.18),
    "third_person_pronouns": (0.47, 0.50),
    "reading_difficulty": (0.12, 0.10),
    "abusive_terms": (0.13, 0.09),
    "expletives": (0.12, 0.08),
    "negative_sentiment": (1.56, 1.59),
    "positive_sentiment": (2.88, 3.10),
    "mentions": (1.18, 1.10),
    "urls": (0.18, 0.20),
    "hashtags": (0.54, 0.49),
    "total_degree": (0.15, 0.16),
    "in_degree": (0.05, 0.02),
    "out_degree": (8e-4, 1.6e-3),
}

_BASELINES = BaselineStats(
    {cue: BaselineRow(cue, bot, human) for cue, (bot, human) in _BASELINE_VALUES.items()}
)


def baseline_table() -> BaselineStats:
    """The embedded reference-mean table."""
    return _BASELINES


# --- Student-t CDF via the regularized incomplete beta function -----------

_BETA_EPS = 3e-12
_BETA_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given both x and y = 1 - x.

    A caller that knows 1 - x to more digits than the float expression 1 - x
    passes it as y: near x = 1 the float x rounds to 1.0 and would lose them.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(y)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only for x below the split point
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-10."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1] (got {x})")
    return _incomplete_beta(a, b, x, 1.0 - x)


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1 (got {df})")
    if math.isinf(t):
        return 0.0
    # 1 - x = t^2 / (df + t^2) is formed directly: for small |t| the float
    # df / (df + t^2) rounds to 1.0 and the tail mass near p = 1 is lost
    t2 = t * t
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float


_ZERO_VAR_ATOL = 1e-9
# A std at most this fraction of |mean| is rounding noise of a constant sample:
# np.std leaves a constant sample a std of a few ulps of its mean (5 at 10**6
# values), and 1e-14 of |mean| is 45 or more ulps.
_ZERO_VAR_REL = 1e-14


def one_sample_t_from_stats(mean: float, std: float, n: int, mu: float) -> TTestResult:
    """One-sample two-sided t-test from summary statistics (std uses n-1).

    A zero-variance sample is degenerate: p = 0 when the mean differs from mu
    (beyond 1e-9), else p = 1. A std of at most 1e-14 * |mean| counts as
    zero: it is what float rounding leaves of a constant sample.
    """
    if n < 2:
        raise ValidationError(f"need >= 2 observations for a t-test (got {n})")
    if std <= _ZERO_VAR_REL * abs(mean):
        if abs(mean - mu) > _ZERO_VAR_ATOL:
            return TTestResult(t=math.copysign(math.inf, mean - mu), p=0.0)
        return TTestResult(t=0.0, p=1.0)
    t = (mean - mu) / (std / math.sqrt(n))
    return TTestResult(t=t, p=student_t_two_sided_p(t, n - 1))


def one_sample_t(sample, mu: float) -> TTestResult:
    """One-sample two-sided t-test of a raw sample (any iterable) against a reference mean."""
    s = summarize(list(sample))
    return one_sample_t_from_stats(s["mean"], s["std"], s["n"], mu)


@dataclass(frozen=True)
class ComparisonRow:
    cue: str
    mean: float
    std: float
    n: int
    t_bot: float
    p_bot: float
    sig_bot: bool
    t_human: float
    p_human: float
    sig_human: bool


def _compare_one(cue: str, mean: float, std: float, n: int) -> ComparisonRow:
    row = _BASELINES.lookup(cue)
    bot = one_sample_t_from_stats(mean, std, n, row.wild_bot)
    human = one_sample_t_from_stats(mean, std, n, row.wild_human)
    return ComparisonRow(
        cue=cue,
        mean=mean,
        std=std,
        n=n,
        t_bot=bot.t,
        p_bot=bot.p,
        sig_bot=bot.p < SIGNIFICANCE_LEVEL,
        t_human=human.t,
        p_human=human.p,
        sig_human=human.p < SIGNIFICANCE_LEVEL,
    )


def compare(per_agent: dict[str, CueVector]) -> list[ComparisonRow]:
    """One row per cue, canonical order: compare_from_report over summarize() of each cue."""
    if len(per_agent) < 2:
        raise ValidationError(f"need >= 2 agents to compare (got {len(per_agent)})")
    return compare_from_report({cue: summarize([getattr(v, cue) for v in per_agent.values()])
                                for cue in CUE_NAMES})


def compare_from_report(report: dict[str, dict[str, float]]) -> list[ComparisonRow]:
    """Comparison rows from a cue report's summary statistics ({cue: {mean, std, n}})."""
    rows = []
    for cue in CUE_NAMES:
        if cue not in report:
            raise ValidationError(f"cue report is missing {cue!r}")
        r = report[cue]
        n = int(r["n"])
        if n < 2:
            raise ValidationError(f"need >= 2 agents to compare (cue {cue!r} has n={n})")
        rows.append(_compare_one(cue, float(r["mean"]), float(r["std"]), n))
    return rows


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.4g}"


def render_report(rows: list[ComparisonRow], format: str = "markdown") -> str:
    """Significance-annotated report text.

    markdown: one table row per cue, mean value suffixed `*` when
    significantly different from the wild-bot mean and `#` for wild-human
    (p < 0.05). csv: fixed header with explicit flag columns. Rows are
    emitted in canonical cue order.
    """
    if not rows:
        raise ValidationError("cannot render an empty report")
    order = {cue: i for i, cue in enumerate(CUE_NAMES)}
    for row in rows:
        if row.cue not in order:
            raise ValidationError(f"unknown cue name {row.cue!r}")
    rows = sorted(rows, key=lambda r: order[r.cue])

    if format == "csv":
        lines = ["cue,mean,std,n,t_bot,p_bot,sig_bot,t_human,p_human,sig_human"]
        for r in rows:
            lines.append(
                f"{r.cue},{r.mean!r},{r.std!r},{r.n},"
                f"{r.t_bot!r},{r.p_bot!r},{str(r.sig_bot).lower()},"
                f"{r.t_human!r},{r.p_human!r},{str(r.sig_human).lower()}"
            )
        return "\n".join(lines) + "\n"

    if format == "markdown":
        lines = [
            "| cue | mean | std | n | t (bot) | p (bot) | t (human) | p (human) |",
            "| --- | ---- | --- | - | ------- | ------- | --------- | --------- |",
        ]
        for r in rows:
            marks = ("*" if r.sig_bot else "") + ("#" if r.sig_human else "")
            lines.append(
                f"| {r.cue} | {_fmt(r.mean)}{marks} | {_fmt(r.std)} | {r.n} "
                f"| {_fmt(r.t_bot)} | {_fmt(r.p_bot)} | {_fmt(r.t_human)} | {_fmt(r.p_human)} |"
            )
        return "\n".join(lines) + "\n"

    raise ValidationError(f"unknown report format {format!r}")
