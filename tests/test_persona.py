"""Persona schema, population indexes, and backend-driven expansion."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from botforge.content import TemplateBackend
from botforge.errors import BackendError, SchemaError, ValidationError
from botforge.persona import (
    EXPANSION_BATCH_SIZE,
    Population,
    expand_personas,
    load_seed_personas,
    persona_from_doc,
    save_personas,
    validate_population,
)

from conftest import make_persona


NOT_HANDLES = ("Aura Fan", "Aura_", "_Aura", "Aura-Fan")


class TestPersonaInvariants:
    def test_valid_persona_has_no_violations(self):
        assert make_persona("x_01").violations() == []

    def test_bad_stance_reported(self):
        p = make_persona("x_01", stance="angry")
        assert any("stance" in v for v in p.violations())

    def test_inverted_range_reported(self):
        p = make_persona("x_01", posts=(5, 3))
        assert any("posts_per_run" in v for v in p.violations())

    def test_negative_range_reported(self):
        p = make_persona("x_01", quotes=(-1, 2))
        assert any("quotes_per_run" in v for v in p.violations())

    def test_empty_id_and_narratives_reported(self):
        p = make_persona("", narratives=())
        msgs = p.violations()
        assert any(".id" in v for v in msgs)
        assert any("narratives" in v for v in msgs)

    def test_empty_display_name_and_narrative_reported(self):
        p = replace(make_persona("x_01"), display_name="", narratives=("One", ""))
        assert p.violations("personas[3]") == [
            "personas[3].display_name: must be non-empty",
            "personas[3].narratives: must be a non-empty array of non-empty strings",
        ]

    @pytest.mark.parametrize("name", NOT_HANDLES)
    def test_display_name_must_be_a_handle(self, name):
        # "@Aura_" tokenizes as the mention "@Aura", so a reply to Aura_ would never
        # find its target's mention and would get a second, equally wrong one.
        p = replace(make_persona("x_01"), display_name=name)
        assert validate_population(Population([p])) == [
            f"personas[0].display_name: must be a handle ('@{name}' must read as one mention)"
        ]

    def test_violation_messages_carry_path(self):
        p = make_persona("x_01", stance="angry")
        assert p.violations(path="personas[3]")[0].startswith("personas[3].")


_MISSING = object()

# One defect in an otherwise good document: (key, the value it gets or
# _MISSING to delete it, the field the SchemaError names or None for the record).
REFUSALS = [
    pytest.param("community", _MISSING, "community", id="missing-key"),
    pytest.param("bogus", 1, None, id="unknown-key"),
    *(pytest.param(key, value, key, id=f"{key}={value!r}")
      for key in ("id", "display_name", "community") for value in ("", 7)),
    *(pytest.param("narratives", value, "narratives", id=f"narratives={value!r}")
      for value in ([], [""], [1], "x")),
    *(pytest.param("display_name", name, "display_name", id=f"display_name={name!r}")
      for name in NOT_HANDLES),
    pytest.param("stance", "angry", "stance", id="stance=angry"),
    pytest.param("is_leader", 1, "is_leader", id="is_leader=1"),
    *(pytest.param(key, value, key, id=f"{key}={value!r}")
      for key in ("posts_per_run", "quotes_per_run")
      for value in ([1], [1, 2, 3], [True, 1], [2, 1], [-1, 1])),
]


def _with_defect(doc: dict, key: str, value) -> dict:
    if value is _MISSING:
        del doc[key]
    else:
        doc[key] = value
    return doc


class TestPersonaDoc:
    def test_round_trip(self):
        p = make_persona("x_01", stance="oppose", quotes=(1, 3))
        assert persona_from_doc(p.to_doc()) == p

    def test_missing_key_names_path(self):
        doc = make_persona("x_01").to_doc()
        del doc["community"]
        with pytest.raises(SchemaError, match="community"):
            persona_from_doc(doc, path="personas[0]")

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            persona_from_doc(["not", "a", "dict"])

    def test_bad_range_shape_rejected(self):
        doc = make_persona("x_01").to_doc()
        doc["posts_per_run"] = [1, 2, 3]
        with pytest.raises(SchemaError, match="posts_per_run"):
            persona_from_doc(doc)

    def test_invariant_violation_rejected(self):
        doc = make_persona("x_01").to_doc()
        doc["stance"] = "angry"
        with pytest.raises(SchemaError, match="stance"):
            persona_from_doc(doc)

    @pytest.mark.parametrize("key, value, field", REFUSALS)
    def test_single_defect_refused(self, key, value, field):
        with pytest.raises(SchemaError) as info:
            persona_from_doc(_with_defect(make_persona("x_01").to_doc(), key, value),
                             path="personas[3]")
        where = "personas[3]" if field is None else f"personas[3].{field}"
        assert info.value.path == where
        assert str(info.value).count(where) == 1
        assert key in str(info.value)

    def test_good_documents_load(self):
        p = make_persona("x_01", narratives=("One", "Two"), quotes=(1, 3), leader=True)
        doc = p.to_doc()
        assert persona_from_doc(doc) == p
        ranges = ("posts_per_run", "retweets_per_run", "replies_per_run", "quotes_per_run")
        assert persona_from_doc({**doc, **{k: tuple(doc[k]) for k in ranges}}) == p
        bare = {k: v for k, v in doc.items() if k not in ("quotes_per_run", "is_leader")}
        assert persona_from_doc(bare) == make_persona("x_01", narratives=("One", "Two"))


class TestPopulation:
    def test_indexes(self, micro_pop):
        assert len(micro_pop) == 4
        assert micro_pop.index == {"a_01": 0, "a_02": 1, "b_01": 2, "b_02": 3}
        assert micro_pop.get("b_01").is_leader
        assert micro_pop.leaders == {"alpha": "a_01", "beta": "b_01"}
        assert "a_01" in micro_pop and "zzz" not in micro_pop

    def test_validate_clean(self, micro_pop):
        assert validate_population(micro_pop) == []

    def test_duplicate_ids_flagged(self):
        pop = Population(personas=[make_persona("x_01"), make_persona("x_01")])
        assert any("duplicate" in v for v in validate_population(pop))

    def test_two_leaders_flagged(self):
        pop = Population(
            personas=[
                make_persona("x_01", leader=True),
                make_persona("x_02", leader=True),
            ]
        )
        assert any("leader" in v for v in validate_population(pop))

    def test_member_violations_surface(self):
        pop = Population(personas=[make_persona("x_01", stance="angry")])
        assert any("stance" in v for v in validate_population(pop))


class TestSeedFile:
    def test_shipped_population_loads_clean(self, seed_pop):
        assert len(seed_pop) == 169
        assert validate_population(seed_pop) == []
        # every community has exactly one leader
        communities: dict[str, list[str]] = {}
        for p in seed_pop.personas:
            communities.setdefault(p.community, []).append(p.id)
        assert len(communities) == 8
        for community, members in communities.items():
            leaders = [m for m in members if seed_pop.get(m).is_leader]
            assert len(leaders) == 1, community
            assert seed_pop.leaders[community] == leaders[0]

    def test_save_load_round_trip(self, micro_pop, tmp_path):
        path = tmp_path / "pop.json"
        save_personas(micro_pop, path)
        again = load_seed_personas(path)
        assert [p.to_doc() for p in again.personas] == [
            p.to_doc() for p in micro_pop.personas
        ]

    def test_expanded_population_survives_save_and_load(self, seed_pop, tmp_path):
        out = expand_personas(seed_pop, 200, TemplateBackend(7))
        save_personas(out, tmp_path / "expanded.json")
        again = load_seed_personas(tmp_path / "expanded.json")
        assert again == out
        assert again.personas[:len(seed_pop)] == seed_pop.personas

    def test_load_rejects_duplicate_ids(self, tmp_path):
        docs = [make_persona("x_01").to_doc(), make_persona("x_01").to_doc()]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(docs))
        with pytest.raises((SchemaError, ValidationError)):
            load_seed_personas(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError, match="nope.json"):
            load_seed_personas(tmp_path / "nope.json")


class _ScriptedBackend:
    """Returns queued payloads, then raises. For expansion failure paths."""

    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.calls = 0

    def complete(self, system_text, user_text, params):
        self.calls += 1
        if not self.payloads:
            raise BackendError("script exhausted")
        return self.payloads.pop(0)


class TestExpansion:
    def test_expand_reaches_target(self, micro_pop):
        out = expand_personas(micro_pop, 25, TemplateBackend(seed=3), run_seed=9)
        assert len(out) == 25
        assert validate_population(out) == []
        # seeds are preserved verbatim and first, the generated ones after them
        assert out.personas[: len(micro_pop)] == micro_pop.personas
        assert not set(out.ids()[len(micro_pop):]) & set(micro_pop.ids())

    def test_expand_is_deterministic(self, micro_pop):
        a = expand_personas(micro_pop, 20, TemplateBackend(seed=3), run_seed=9)
        b = expand_personas(micro_pop, 20, TemplateBackend(seed=3), run_seed=9)
        assert [p.to_doc() for p in a.personas] == [p.to_doc() for p in b.personas]

    def test_expand_identity_at_target(self, micro_pop):
        assert expand_personas(micro_pop, len(micro_pop), TemplateBackend()) is micro_pop

    def test_expand_target_below_seed_rejected(self, micro_pop):
        with pytest.raises(ValidationError, match="target"):
            expand_personas(micro_pop, 2, TemplateBackend())

    def test_invalid_records_dropped_then_regenerated(self, micro_pop):
        bad = json.dumps([{"id": "gen_bad"}])  # missing almost everything
        good_doc = make_persona("gen_ok_001", "alpha").to_doc()
        ok = json.dumps([good_doc])
        backend = _ScriptedBackend([bad, ok])
        out = expand_personas(micro_pop, 5, backend, batch_size=1, retry_cap=3)
        assert backend.calls == 2
        assert out.personas[-1].id == "gen_ok_001"

    @pytest.mark.parametrize("key, value, field", REFUSALS)
    def test_each_bad_record_dropped(self, micro_pop, key, value, field):
        bad = _with_defect(make_persona("gen_bad_001").to_doc(), key, value)
        good = make_persona("gen_ok_001")
        backend = _ScriptedBackend([json.dumps([bad, good.to_doc()])])
        out = expand_personas(micro_pop, len(micro_pop) + 1, backend, batch_size=1)
        assert out.personas[len(micro_pop):] == [good]

    def test_too_deeply_nested_batch_dropped(self, micro_pop):
        ok = json.dumps([make_persona("gen_ok_001", "alpha").to_doc()])
        backend = _ScriptedBackend(["[" * 100_000, "[" * 100_000 + "]" * 100_000, ok])
        out = expand_personas(micro_pop, 5, backend, batch_size=1, retry_cap=3)
        assert backend.calls == 3
        assert out.personas[-1].id == "gen_ok_001"

    def test_duplicate_of_seed_id_dropped(self, micro_pop):
        dup = json.dumps([micro_pop.personas[0].to_doc()])  # collides with a_01
        fresh = json.dumps([make_persona("gen_new_001").to_doc()])
        out = expand_personas(micro_pop, 5, _ScriptedBackend([dup, fresh]),
                              batch_size=1, retry_cap=3)
        assert out.personas[-1].id == "gen_new_001"

    def test_retry_cap_raises_with_summary(self, micro_pop):
        backend = _ScriptedBackend(["not json at all"] * 10)
        with pytest.raises(BackendError, match="stalled"):
            expand_personas(micro_pop, 6, backend, batch_size=1, retry_cap=2)

    @pytest.mark.parametrize("raw, logged", [
        ("not json at all", "backend did not return a parseable JSON array of personas"),
        ('{"id": "x_01"}', "top-level JSON was not an array"),
    ])
    def test_unusable_batch_logged(self, micro_pop, raw, logged):
        backend = _ScriptedBackend([raw])
        with pytest.raises(BackendError) as failed:
            expand_personas(micro_pop, 6, backend, batch_size=1, retry_cap=0)
        assert str(failed.value) == (
            f"persona expansion stalled after 0 fruitless batches: batch[0]: {logged}")
        assert failed.value.raw_text == raw

    def test_default_batch_size_is_ten(self):
        assert EXPANSION_BATCH_SIZE == 10
