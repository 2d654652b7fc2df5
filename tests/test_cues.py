"""Tokenization, lexicon matching, readability, and cue aggregation."""

from __future__ import annotations

import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botforge.content import _extract_artifacts
from botforge.cues import (
    _CHUNK_TEXTS,
    CUE_NAMES,
    LEXICON_CATEGORIES,
    LEXICON_CUE,
    TEXT_CUES,
    CueVector,
    Lexicon,
    LexiconTable,
    aggregate_cues,
    classify_tokens,
    count_lexicon_terms,
    load_lexicon,
    load_lexicons,
    metadata_cues,
    read_cue_report,
    reading_difficulty,
    summarize,
    text_cues,
    tokenize,
    write_cue_report,
)
from botforge.errors import SchemaError, ValidationError
from botforge.netgraph import GraphMetrics, build_comm_graph, graph_metrics
from botforge.persona import Population
from botforge.corpus import Tweet

from conftest import make_persona

FLAT_METRICS = GraphMetrics(0.0, 0.0, 0.0, 0.0)


def _report(agg, tmp_path) -> dict[str, dict[str, float]]:
    """The cue report of agg, written to a file and read back."""
    path = tmp_path / "cues.csv"
    write_cue_report(agg, path)
    return read_cue_report(path)


def post(tid, author, text, run=0, slot=0):
    mentions, hashtags, urls = _extract_artifacts(text)
    return Tweet(id=tid, author_id=author, kind="original", text=text,
                 target_tweet_id=None, target_agent_id=None, run_index=run,
                 slot_index=slot, mentions=mentions, hashtags=hashtags, urls=urls)


class TestTokenize:
    def test_mixed_artifacts(self):
        assert tokenize("Go @bob! #win #win http://t.co/x") == [
            "Go", "@bob", "#win", "#win", "http://t.co/x",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_inner_punctuation_kept_edges_stripped(self):
        assert tokenize("I love it, I do.") == ["I", "love", "it", "I", "do"]

    def test_url_kept_whole(self):
        assert tokenize("see https://a.example/x?y=1.") == ["see", "https://a.example/x?y=1."]

    def test_pure_punctuation_dropped(self):
        assert tokenize("!!! ... ???") == []

    def test_leading_marker_kept_trailing_stripped(self):
        assert tokenize("@bob, #tag!") == ["@bob", "#tag"]

    def test_artifact_classifier(self):
        assert classify_tokens("@bob #win http://t.co/x plain @") == {
            "words": ["plain", "@"],  # a lone @ needs at least one word char to mention
            "mentions": ["@bob"],
            "hashtags": ["#win"],
            "urls": ["http://t.co/x"],
        }


class TestLexicon:
    def test_from_terms_normalizes_case(self):
        lex = Lexicon.from_terms("positive", ["Great", "WELL done"])
        assert count_lexicon_terms("great great well done", lex) == 3

    def test_term_length_cap(self):
        with pytest.raises(SchemaError):
            Lexicon.from_terms("positive", ["one two three four"])

    def test_empty_term_rejected(self):
        with pytest.raises(SchemaError):
            Lexicon.from_terms("positive", ["  "])

    def test_spec_first_person_example(self):
        lex = Lexicon.from_terms("first_person", ["i", "me", "my", "mine", "we", "us", "our"])
        assert count_lexicon_terms("I love it, I do.", lex) == 2

    def test_spec_second_person_example(self):
        lex = Lexicon.from_terms("second_person", ["you", "your"])
        assert count_lexicon_terms("You and you and YOU", lex) == 3

    def test_empty_text(self, lexicons):
        assert all(count_lexicon_terms("", lex) == 0 for lex in lexicons.values())

    def test_longest_match_first(self):
        lex = Lexicon.from_terms("negative", ["lack", "lack of variety"])
        assert count_lexicon_terms("such a lack of variety", lex) == 1
        assert count_lexicon_terms("a lack of effort", lex) == 1  # falls back to unigram

    def test_matches_do_not_overlap(self):
        lex = Lexicon.from_terms("negative", ["a b", "b c"])
        assert count_lexicon_terms("a b c", lex) == 1

    def test_artifact_tokens_never_match(self):
        lex = Lexicon.from_terms("positive", ["love", "win"])
        assert count_lexicon_terms("#love @love http://love.example love", lex) == 1

    def test_unigram_inside_longer_term(self):
        lex = Lexicon.from_terms("positive", ["good", "great good"])
        assert count_lexicon_terms("great good and good", lex) == 2

    def test_shipped_categories_complete(self, lexicons):
        assert set(lexicons) == set(LEXICON_CATEGORIES)
        assert all(lex.terms for lex in lexicons.values())

    def test_missing_file_names_category(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="abusive"):
            load_lexicon(tmp_path / "abusive.txt", "abusive")

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "positive.txt"
        path.write_text("# comment line\n\ngood\nwell done\n")
        lex = load_lexicon(path, "positive")
        assert count_lexicon_terms("good, well done", lex) == 2


class TestReadingDifficulty:
    def test_spec_example_clamps_to_zero(self):
        assert reading_difficulty("The cat sat.") == 0.0

    def test_spec_example_watermelon(self):
        assert round(reading_difficulty("I like watermelon."), 4) == 0.0918

    def test_empty_text(self):
        assert reading_difficulty("") == 0.0

    def test_artifacts_excluded(self):
        base = reading_difficulty("I like watermelon.")
        assert reading_difficulty("@bob #snack http://x.example I like watermelon.") == base

    def test_multi_sentence_splits(self):
        # 6 words / 2 sentences = 3 words per sentence, same syllable ratio
        one = reading_difficulty("I like watermelon. I like watermelon.")
        assert one == pytest.approx(reading_difficulty("I like watermelon."))

    def test_score_bounded(self):
        hard = "Incomprehensibility " * 40
        assert 0.0 <= reading_difficulty(hard) <= 1.0


class TestMetadataCues:
    def test_spec_example(self):
        assert metadata_cues("Go @bob! #win #win http://t.co/x") == {
            "mentions": 1, "urls": 1, "hashtags": 2,
        }

    def test_plain(self):
        assert metadata_cues("plain text") == {"mentions": 0, "urls": 0, "hashtags": 0}

    def test_mentions_only(self):
        assert metadata_cues("@a @b @c") == {"mentions": 3, "urls": 0, "hashtags": 0}


class TestTextCues:
    def test_hand_counted_vector(self, lexicons):
        vals = text_cues("I hate that you love my work.", LexiconTable.from_lexicons(lexicons))
        assert vals["first_person_pronouns"] == 2  # I, my
        assert vals["second_person_pronouns"] == 1  # you
        assert vals["negative_sentiment"] == 1  # hate
        assert vals["positive_sentiment"] == 1  # love
        assert vals["abusive_terms"] == 0
        assert vals["expletives"] == 0


class TestCueVector:
    def test_canonical_order(self):
        assert len(CUE_NAMES) == 14
        assert CUE_NAMES[0] == "first_person_pronouns"
        assert CUE_NAMES[-3:] == ("total_degree", "in_degree", "out_degree")

    def test_violations(self):
        vec = CueVector(**{name: 0.0 for name in CUE_NAMES})
        assert vec.violations() == []
        bad = CueVector(**{**{n: 0.0 for n in CUE_NAMES}, "mentions": -1.0,
                           "reading_difficulty": 2.0})
        msgs = bad.violations()
        assert any("mentions" in m for m in msgs)
        assert any("reading_difficulty" in m for m in msgs)


class TestAggregate:
    @pytest.fixture()
    def tiny(self):
        pop = Population(personas=[
            make_persona("a_01", "alpha"),
            make_persona("a_02", "alpha"),
            make_persona("a_03", "alpha"),
        ])
        tweets = [
            post(1, "a_01", "I win #go"),
            post(2, "a_01", "I am sure I do"),
            post(3, "a_02", "plain words here"),
        ]
        return pop, tweets

    def test_two_level_mean(self, tiny, lexicons, tmp_path):
        pop, tweets = tiny
        agg = aggregate_cues(tweets, FLAT_METRICS, pop, lexicons)
        # a_01 first person: (1 + 2) / 2 = 1.5 ; a_02: 0.0 ; corpus mean 0.75
        assert agg.per_agent["a_01"].first_person_pronouns == pytest.approx(1.5)
        assert agg.per_agent["a_02"].first_person_pronouns == 0.0
        report = _report(agg, tmp_path)
        assert report["first_person_pronouns"]["mean"] == pytest.approx(0.75)
        # hashtags: a_01 mean 0.5, a_02 mean 0 -> corpus 0.25
        assert report["hashtags"]["mean"] == pytest.approx(0.25)

    def test_zero_post_agents_excluded(self, tiny, lexicons):
        pop, tweets = tiny
        agg = aggregate_cues(tweets, FLAT_METRICS, pop, lexicons)
        assert set(agg.per_agent) == {"a_01", "a_02"}
        assert len(agg.samples["first_person_pronouns"]) == 2

    def test_per_post_pools_posts(self, tiny, lexicons, tmp_path):
        pop, tweets = tiny
        agg = aggregate_cues(tweets, FLAT_METRICS, pop, lexicons, per_post=True)
        np.testing.assert_allclose(
            sorted(agg.samples["first_person_pronouns"]), [0.0, 1.0, 2.0]
        )
        # corpus statistics follow the pooled sample unit; network cues stay per agent
        report = _report(agg, tmp_path)
        assert report["first_person_pronouns"]["mean"] == pytest.approx(1.0)
        assert report["first_person_pronouns"]["n"] == 3
        assert report["total_degree"]["n"] == 2

    def test_network_cues_copied_from_metrics(self, tiny, lexicons, tmp_path):
        pop, tweets = tiny
        metrics = GraphMetrics(0.125, 0.25, 0.5, 0.75)
        agg = aggregate_cues(tweets, metrics, pop, lexicons)
        means = {cue: r["mean"] for cue, r in _report(agg, tmp_path).items()}
        for vec in [*agg.per_agent.values(), CueVector(**means)]:
            assert vec.total_degree == 0.25
            assert vec.in_degree == 0.5
            assert vec.out_degree == 0.75

    def test_empty_corpus_rejected(self, tiny, lexicons):
        pop, _ = tiny
        with pytest.raises(ValidationError, match="empty"):
            aggregate_cues([], FLAT_METRICS, pop, lexicons)

    def test_unknown_author_rejected(self, tiny, lexicons):
        pop, _ = tiny
        with pytest.raises(ValidationError):
            aggregate_cues([post(1, "ghost", "hi")], FLAT_METRICS, pop, lexicons)

    def test_corpus_mean_within_agent_range(self, tiny, lexicons, tmp_path):
        pop, tweets = tiny
        agg = aggregate_cues(tweets, FLAT_METRICS, pop, lexicons)
        report = _report(agg, tmp_path)
        for cue in CUE_NAMES:
            vals = [getattr(v, cue) for v in agg.per_agent.values()]
            assert min(vals) - 1e-12 <= report[cue]["mean"] <= max(vals) + 1e-12


class TestReportIO:
    def test_round_trip(self, tiny_report):
        path, agg = tiny_report
        back = read_cue_report(path)
        assert set(back) == set(CUE_NAMES)
        for cue in CUE_NAMES:
            assert back[cue]["mean"] == pytest.approx(float(agg.samples[cue].mean()))
            assert back[cue]["n"] == len(agg.samples[cue])

    @pytest.fixture()
    def tiny_report(self, tmp_path, lexicons):
        pop = Population(personas=[make_persona("a_01"), make_persona("a_02")])
        tweets = [post(1, "a_01", "I win"), post(2, "a_02", "you there")]
        agg = aggregate_cues(tweets, FLAT_METRICS, pop, lexicons)
        path = tmp_path / "cues.csv"
        write_cue_report(agg, path)
        return path, agg

    def test_summarize_one_value_and_empty(self):
        assert summarize([2.5]) == {"mean": 2.5, "std": 0.0, "n": 1}
        with pytest.raises(ValidationError, match="empty sample"):
            summarize([])

    def test_header_order_canonical(self, tiny_report):
        path, _ = tiny_report
        lines = path.read_text().splitlines()
        assert lines[0] == "cue,per_agent_mean,per_agent_std,n_agents"
        assert [ln.split(",")[0] for ln in lines[1:]] == list(CUE_NAMES)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cues.csv"
        path.write_text("cue,mean,std,n\nfirst_person_pronouns,0,0,1\n")
        with pytest.raises(SchemaError):
            read_cue_report(path)

    def test_unknown_cue_rejected(self, tiny_report, tmp_path):
        path, _ = tiny_report
        text = path.read_text().replace("first_person_pronouns", "zeroth_person")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(SchemaError, match="zeroth_person"):
            read_cue_report(bad)

    def test_missing_cue_rejected(self, tiny_report, tmp_path):
        path, _ = tiny_report
        lines = path.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:-1]) + "\n")  # drop the last cue row
        with pytest.raises(SchemaError, match="missing"):
            read_cue_report(bad)


SAFE_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200
)


class TestProperties:
    @given(SAFE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_nonempty_and_unspaced(self, text):
        for tok in tokenize(text):
            assert tok
            assert not any(ch.isspace() for ch in tok)

    @given(SAFE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_reading_difficulty_in_unit_interval(self, text):
        assert 0.0 <= reading_difficulty(text) <= 1.0

    @given(SAFE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_counts_bounded_by_tokens(self, text):
        lex = Lexicon.from_terms("positive", ["good", "great", "well done"])
        assert 0 <= count_lexicon_terms(text, lex) <= len(tokenize(text))

    @given(SAFE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_case_insensitive(self, text):
        lex = Lexicon.from_terms("positive", ["good", "well done"])
        assert count_lexicon_terms(text, lex) == count_lexicon_terms(text.upper(), lex)

    @given(SAFE_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_metadata_counts_match_tokenizer(self, text):
        counts = metadata_cues(text)
        toks = tokenize(text)
        assert counts["mentions"] <= len(toks)
        assert counts["hashtags"] <= len(toks)
        assert counts["urls"] == sum(t.startswith(("http://", "https://")) for t in toks)


# The three-tokenize text_cues that predates the one-pass scan, copied here
# unchanged as an oracle: tokenize three times per post and scan every
# lexicon separately.
_ORACLE_PUNCT = string.punctuation
_ORACLE_MENTION_RE = re.compile(r"@\w+")
_ORACLE_HASHTAG_RE = re.compile(r"#\w+")
_ORACLE_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_ORACLE_SENTENCE_SPLIT_RE = re.compile(r"[.!?]+")


def _oracle_is_url(raw):
    return raw.startswith("http://") or raw.startswith("https://")


def _oracle_tokenize(text):
    out = []
    for raw in text.split():
        if _oracle_is_url(raw):
            out.append(raw)
            continue
        if raw[0] in "@#":
            tok = raw[0] + raw[1:].strip(_ORACLE_PUNCT)
        else:
            tok = raw.strip(_ORACLE_PUNCT)
        if tok:
            out.append(tok)
    return out


def _oracle_is_artifact(tok):
    return bool(_oracle_is_url(tok) or _ORACLE_MENTION_RE.fullmatch(tok)
                or _ORACLE_HASHTAG_RE.fullmatch(tok))


def _oracle_count_tokens(word_tokens, lex):
    count = 0
    i = 0
    n_toks = len(word_tokens)
    while i < n_toks:
        step = 1
        for n in range(min(lex.max_n, n_toks - i), 0, -1):
            if tuple(word_tokens[i : i + n]) in lex.terms:
                count += 1
                step = n
                break
        i += step
    return count


def _oracle_syllables(word):
    w = word.lower()
    groups = len(_ORACLE_VOWEL_GROUP_RE.findall(w))
    if groups >= 2 and w.endswith("e") and len(w) >= 2 and w[-2] not in "aeiouy":
        groups -= 1
    return max(groups, 1)


def _oracle_reading_difficulty(text):
    words = [t for t in _oracle_tokenize(text) if not _oracle_is_artifact(t)]
    if not words:
        return 0.0
    prose = " ".join(raw for raw in text.split() if not _oracle_is_url(raw))
    sentences = max(1, sum(1 for seg in _ORACLE_SENTENCE_SPLIT_RE.split(prose) if seg.strip()))
    syllables = sum(_oracle_syllables(w) for w in words)
    grade = 0.39 * (len(words) / sentences) + 11.8 * (syllables / len(words)) - 15.59
    return min(max(grade / 100.0, 0.0), 1.0)


def _oracle_metadata_cues(text):
    mentions = urls = hashtags = 0
    for tok in _oracle_tokenize(text):
        if _oracle_is_url(tok):
            urls += 1
        elif _ORACLE_MENTION_RE.fullmatch(tok):
            mentions += 1
        elif _ORACLE_HASHTAG_RE.fullmatch(tok):
            hashtags += 1
    return {"mentions": mentions, "urls": urls, "hashtags": hashtags}


def _oracle_text_cues(text, lexicons):
    words = [t.lower() for t in _oracle_tokenize(text) if not _oracle_is_artifact(t)]
    out = {}
    for cat in LEXICON_CATEGORIES:
        out[LEXICON_CUE[cat]] = float(_oracle_count_tokens(words, lexicons[cat]))
    out["reading_difficulty"] = _oracle_reading_difficulty(text)
    meta = _oracle_metadata_cues(text)
    out["mentions"] = float(meta["mentions"])
    out["urls"] = float(meta["urls"])
    out["hashtags"] = float(meta["hashtags"])
    return out


def _oracle_artifacts(text):
    """Mentions, hashtags and URLs in token order, as post generation records them."""
    toks = _oracle_tokenize(text)
    return ([t for t in toks if t.startswith("@") and _oracle_is_artifact(t)],
            [t for t in toks if t.startswith("#") and _oracle_is_artifact(t)],
            [t for t in toks if _oracle_is_url(t)])


SHIPPED_LEXICONS = load_lexicons()
SHIPPED_TABLE = LexiconTable.from_lexicons(SHIPPED_LEXICONS)
# Every word of every shipped term (so the multi-word terms and their
# prefixes occur), plus filler words no lexicon holds.
_SHIPPED_WORDS = sorted({w for lex in SHIPPED_LEXICONS.values() for term in lex.terms
                         for w in term} | {"the", "cat", "watermelon", "sat", "café"})
_EDGE = st.sampled_from(["", "", "", "(", ")", ",", ".", "!", "?!", "'", '"', "...", "'s"])
_MARKERS = st.sampled_from([
    "@", "#", "#!", "@!", "@bob", "@bob's", "#win", "#win!", "@_x_", "(@bob)", "##x",
    "http://a.example/x.y", "https://t.co/a.b.", "(http://p.q/r)", "http:", "...", "!?",
])
_CASE = st.sampled_from([str.lower, str.upper, str.title, str.capitalize])
_SEP = st.sampled_from([" ", " ", " ", "  ", "\n", "\t"])


def _texts(words):
    word = st.tuples(_EDGE, st.sampled_from(words), _CASE, _EDGE).map(
        lambda p: p[0] + p[2](p[1]) + p[3])
    piece = st.one_of(word, word, word, _MARKERS)
    return st.lists(st.tuples(piece, _SEP), max_size=30).map(
        lambda parts: "".join(p + s for p, s in parts))


# Custom lexicon sets over a small vocabulary: a term often sits in several
# categories, and 1-, 2- and 3-grams overlap.
_SMALL_VOCAB = ("a", "b", "c", "shut", "up")
_TERMS = st.lists(st.lists(st.sampled_from(_SMALL_VOCAB), min_size=1, max_size=3).map(" ".join),
                  min_size=1, max_size=8)
_LEXICON_SETS = st.fixed_dictionaries({cat: _TERMS for cat in LEXICON_CATEGORIES}).map(
    lambda d: {cat: Lexicon.from_terms(cat, terms) for cat, terms in d.items()})


_AUTHORS = Population(personas=[make_persona(f"a_{i:02d}") for i in range(6)])
# The first and last agents of the population never post.
_POSTERS = _AUTHORS.ids()[1:5]
_NETWORK = {"total_degree": FLAT_METRICS.avg_total_degree_centrality,
            "in_degree": FLAT_METRICS.avg_in_degree_centrality,
            "out_degree": FLAT_METRICS.avg_out_degree_centrality}


def _assert_aggregate_matches_oracle(tweets, lexicons, per_post):
    """aggregate_cues equals np.mean over the oracle's cues of every post, in corpus order."""
    rows = [(t.author_id, _oracle_text_cues(t.text, lexicons)) for t in tweets]
    by_agent = {pid: [cv for author, cv in rows if author == pid] for pid in _AUTHORS.ids()}
    means = {pid: {c: float(np.mean([cv[c] for cv in agent_rows])) for c in TEXT_CUES}
             for pid, agent_rows in by_agent.items() if agent_rows}
    if per_post:
        expected = {c: [cv[c] for _, cv in rows] for c in TEXT_CUES}
    else:
        expected = {c: [m[c] for m in means.values()] for c in TEXT_CUES}
    agg = aggregate_cues(tweets, FLAT_METRICS, _AUTHORS, lexicons, per_post=per_post)
    assert {c: agg.samples[c].tolist() for c in TEXT_CUES} == expected
    assert list(agg.per_agent.items()) == [(pid, CueVector(**m, **_NETWORK))
                                           for pid, m in means.items()]
    # The report's means: np.mean over each cue's sample, network cues per agent.
    assert {c: summarize(agg.samples[c])["mean"] for c in CUE_NAMES} == {
        **{c: float(np.mean(expected[c])) for c in TEXT_CUES},
        **{c: float(np.mean([v] * len(means))) for c, v in _NETWORK.items()}}


@st.composite
def _corpora(draw, texts, lexicons=None):
    """(lexicons, tweets): a few texts, each posted any number of times by any poster.

    One poster may also hold a run of posts around the sizes at which numpy's
    pairwise sum changes shape (8 and 128 values), interleaved with the rest.
    """
    lexicons = draw(_LEXICON_SETS) if lexicons is None else lexicons
    pool = draw(st.lists(texts, min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_POSTERS)),
                          min_size=1, max_size=25))
    n_heavy = draw(st.sampled_from([0, 0, 7, 8, 9, 127, 128, 129, 200]))
    heavy = draw(st.sampled_from(_POSTERS))
    picks += [(text, heavy) for text in draw(st.lists(st.sampled_from(pool), min_size=n_heavy,
                                                      max_size=n_heavy))]
    picks = draw(st.permutations(picks))
    return lexicons, [post(i, author, text) for i, (text, author) in enumerate(picks, start=1)]


class TestOnePassMatchesOracle:
    @given(_texts(_SHIPPED_WORDS))
    @settings(max_examples=400, deadline=None)
    def test_shipped_lexicons(self, text):
        assert text_cues(text, SHIPPED_TABLE) == _oracle_text_cues(text, SHIPPED_LEXICONS)

    @given(SAFE_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        assert text_cues(text, SHIPPED_TABLE) == _oracle_text_cues(text, SHIPPED_LEXICONS)

    @given(_LEXICON_SETS, _texts(_SMALL_VOCAB))
    @settings(max_examples=300, deadline=None)
    def test_custom_lexicon_sets(self, lexicons, text):
        assert text_cues(text, LexiconTable.from_lexicons(lexicons)) == _oracle_text_cues(
            text, lexicons)
        for cat in LEXICON_CATEGORIES:
            words = [t.lower() for t in _oracle_tokenize(text) if not _oracle_is_artifact(t)]
            assert count_lexicon_terms(text, lexicons[cat]) == _oracle_count_tokens(
                words, lexicons[cat])

    @given(st.one_of(_texts(_SHIPPED_WORDS), SAFE_TEXT))
    @settings(max_examples=300, deadline=None)
    def test_public_helpers_and_artifacts(self, text):
        assert tokenize(text) == _oracle_tokenize(text)
        assert reading_difficulty(text) == _oracle_reading_difficulty(text)
        assert metadata_cues(text) == _oracle_metadata_cues(text)
        assert _extract_artifacts(text) == _oracle_artifacts(text)

    def test_marker_edge_cases(self):
        text = "@ #! @bob's shut up, well done done (http://a.b/c.d) Lack OF #x"
        assert text_cues(text, SHIPPED_TABLE) == _oracle_text_cues(text, SHIPPED_LEXICONS)
        assert _extract_artifacts(text) == ([], ["#x"], ["http://a.b/c.d"])

    @given(st.one_of(_corpora(_texts(_SHIPPED_WORDS), SHIPPED_LEXICONS),
                     _corpora(_texts(_SMALL_VOCAB))),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_aggregate_with_repeated_texts(self, corpus, per_post):
        lexicons, tweets = corpus
        _assert_aggregate_matches_oracle(tweets, lexicons, per_post)

    @pytest.mark.parametrize("per_post", [False, True])
    def test_aggregate_shared_tokens_in_different_positions(self, per_post):
        lexicons = {cat: Lexicon.from_terms(cat, ["shut up", "up"]) for cat in LEXICON_CATEGORIES}
        lexicons["abusive"] = Lexicon.from_terms("abusive", ["shut", "up shut up"])
        texts = ["shut up", "up shut up.", "Shut! up shut", "@up #shut up", "shut",
                 "up", "http://up.shut/x up shut up", "shut up"]
        tweets = [post(i, _AUTHORS.ids()[i % 3], text) for i, text in enumerate(texts, start=1)]
        _assert_aggregate_matches_oracle(tweets, lexicons, per_post)

    def test_each_call_counts_with_its_own_lexicons(self):
        # One word in a different category per lexicon set: a token cache that
        # outlived one call would carry that call's categories into the next.
        base = {cat: Lexicon.from_terms(cat, ["zzz"]) for cat in LEXICON_CATEGORIES}
        sets = [{**base, cat: Lexicon.from_terms(cat, ["shut", "shut up"])}
                for cat in ("abusive", "positive", "first_person")]
        tweets = [post(1, "a_00", "Shut up, shut it."), post(2, "a_01", "shut"),
                  post(3, "a_00", "Shut up, shut it.")]
        for lexicons in [*sets, sets[0]]:
            for per_post in (False, True):
                _assert_aggregate_matches_oracle(tweets, lexicons, per_post)


def _boundary_text(i):
    """Text i of a corpus whose neighbouring texts would change a cue if they leaked into each other."""
    return [f"w{i} I said shut",  # ends on the first word of "shut up" ...
            f"up w{i} you",  # ... which this one starts with the rest of
            f"w{i} no end",  # ends mid-sentence, and the next opens on a word
            f"start w{i}. Again",
            f"http://u.example/{i}",  # a URL alone: no prose at all
            "." * (i // 6 + 1) if i % 12 == 5 else ""][i % 6]  # terminators alone, or empty


@pytest.mark.parametrize("per_post", [False, True])
def test_aggregate_texts_do_not_leak_across_batches(per_post):
    lexicons = {cat: Lexicon.from_terms(cat, ["shut up", "up", "you"]) for cat in LEXICON_CATEGORIES}
    lexicons["abusive"] = Lexicon.from_terms("abusive", ["shut", "up shut up"])
    texts = [_boundary_text(i) for i in range(3 * _CHUNK_TEXTS + 7)]
    tweets = [post(i, _POSTERS[i % len(_POSTERS)], text) for i, text in enumerate(texts, start=1)]
    assert len(set(texts)) > 2 * _CHUNK_TEXTS
    _assert_aggregate_matches_oracle(tweets, lexicons, per_post)
