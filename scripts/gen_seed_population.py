#!/usr/bin/env python3
"""Generate the shipped 169-persona seed population.

Eight communities around a fictional song contest (AuraSight, held in Ethal,
with Oliver competing for Odria), one designated leader per community, shared
activity bounds, and a narrative deliberately shared across the two news-desk
communities so cross-community narrative eligibility is exercised.

Narratives are kept free of sentiment/expletive/abusive lexicon terms so a
template-backend corpus measures near zero on those cues; this script checks
that property against the shipped lexicons before writing anything.
"""
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from botforge.cues import count_lexicon_terms, load_lexicons  # noqa: E402
from botforge.persona import load_seed_personas, validate_population  # noqa: E402

OUT = REPO / "src" / "botforge" / "data" / "personas" / "aurasight_169.json"

SHARED_NEWS_NARRATIVE = "Broadcast schedule for the #AuraSight final airs this week"

COMMUNITIES = [
    # (community, id prefix, display stem, stance, size, narratives)
    (
        "Ethal fans",
        "ethal_fan",
        "EthalFan",
        "oppose",
        22,
        [
            "Ethal has no Ethalian-born representative this year #SpeakForEthal",
            "The selection committee passed over every Ethalian-born singer #SpeakForEthal",
            "Local venues want an Ethalian voice on the #AuraSight stage",
        ],
    ),
    (
        "Odrian fans",
        "odrian_fan",
        "OdrianFan",
        "support",
        22,
        [
            "Oliver carries an Odrian sound to the #AuraSight stage",
            "Odria sends a record delegation to the arena this year #OdrianWave",
            "The Odrian jury briefing airs before the final #OdrianWave",
        ],
    ),
    (
        "Oliver fan club",
        "oliver_fc",
        "OliverFC",
        "support",
        21,
        [
            "Oliver rehearses a new arrangement for the final #TeamOliver",
            "Oliver's vocal coach posts training clips every week #TeamOliver",
            "Fan voting windows for Oliver open after each show #TeamOliver",
        ],
    ),
    (
        "Oliver critics",
        "oliver_critic",
        "OliverCritic",
        "oppose",
        21,
        [
            "Oliver was selected over three Ethalian-born finalists #SpeakForEthal",
            "The jury scoring rules changed the month Oliver entered",
            "Televote weighting shifted again this season",
        ],
    ),
    (
        "Ethal news desk",
        "ethal_news",
        "EthalNews",
        "neutral",
        21,
        [
            SHARED_NEWS_NARRATIVE,
            "Ethal arena seating map updates before the jury show #EthalArena",
            "Press passes for the Ethal arena go out on Friday",
        ],
    ),
    (
        "Odrian news desk",
        "odrian_news",
        "OdrianNews",
        "neutral",
        21,
        [
            SHARED_NEWS_NARRATIVE,
            "Odrian delegation holds a press briefing at noon",
            "Camera blocking for the Odrian entry wraps today",
        ],
    ),
    (
        "Contest historians",
        "contest_hist",
        "ContestHist",
        "neutral",
        21,
        [
            "The contest returns to Ethal for the first time in a decade #ContestWeek",
            "Archive footage of past #AuraSight finals streams this month",
            "Voting rule changes across #AuraSight history, a running thread",
        ],
    ),
    (
        "Songwriter guild",
        "song_guild",
        "SongGuild",
        "oppose",
        20,
        [
            "Session writers get no credit line on the official tracklist",
            "The entry deadline moved up three weeks this season",
            "Royalty splits for contest entries stay unpublished",
        ],
    ),
]

# Every persona shares the same per-run activity bounds.
BOUNDS = {
    "posts_per_run": [3, 10],
    "retweets_per_run": [2, 5],
    "replies_per_run": [1, 5],
    "quotes_per_run": [0, 2],
}

NEUTRALITY_CATEGORIES = ("positive", "negative", "expletive", "abusive")


def build() -> list[dict]:
    personas = []
    for community, prefix, stem, stance, size, narratives in COMMUNITIES:
        for i in range(1, size + 1):
            personas.append(
                {
                    "id": f"{prefix}_{i:03d}",
                    "display_name": f"{stem}{i:02d}",
                    "community": community,
                    "narratives": narratives,
                    "stance": stance,
                    **BOUNDS,
                    "is_leader": i == 1,
                }
            )
    return personas


def main() -> None:
    personas = build()
    assert len(personas) == 169, len(personas)

    lexicons = load_lexicons()
    for p in personas:
        for narrative in p["narratives"]:
            for cat in NEUTRALITY_CATEGORIES:
                hits = count_lexicon_terms(narrative, lexicons[cat])
                assert hits == 0, f"{p['id']}: narrative matches {cat} lexicon: {narrative!r}"

    OUT.write_text(json.dumps(personas, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")

    pop = load_seed_personas(OUT)
    problems = validate_population(pop)
    assert not problems, problems
    communities = {p.community for p in pop.personas}
    assert len(pop) == 169
    assert len(communities) == 8
    assert len(pop.leaders) == 8
    print(f"wrote {len(pop)} personas in {len(communities)} communities to {OUT}")


if __name__ == "__main__":
    main()
