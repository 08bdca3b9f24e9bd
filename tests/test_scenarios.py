"""Declarative scenario specs: registry, validation, digests, rehydration.

The contracts under test:

* every built-in resolves through its shipped spec file to a config
  **identical** to the historical hand-written builder, under a pinned
  digest (bit-compatibility of the scenario cache across the refactor);
* any accepted spec canonicalises to a deterministic digest — stable
  across file round-trips, key order, flat-vs-sectioned spelling, and
  JSON/TOML format — and rejected specs name the offending field;
* a spec equivalent to a built-in hits the built-in's warm cache entry
  without simulating, and a worker payload rehydrates to the same
  digest the parent resolved.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.context as context
from repro.errors import ScenarioSpecError, SimulationError
from repro.scenarios import (
    FIELD_GROUPS,
    apply_overrides,
    from_payload,
    list_scenarios,
    resolve,
    resolve_any,
    scenario_names,
    spec_digest,
    with_seed,
)
from repro.simulation.scenario import ScenarioConfig, validate_config

#: Pinned digests of the shipped built-in specs at their default seeds.
#: These must never drift: the persistent scenario cache, checkpoint
#: compatibility stamps and the --list-scenarios output all key off
#: them. A legitimate knob change must update the pin in the same
#: commit that changes the spec.
BUILTIN_DIGESTS = {
    "million-hotspot":
        "122eaa0596975adef7f7df19fc1d325aad0b91f9bc97c6af022e3b124fa6643e",
    "paper":
        "9d66dfaa12c23ef9927cafa285633f13cc8eb46dfa55d2293a755e1cdf6ec314",
    "paper-10x":
        "c9cfebf3ed489fbc13f065710e20e93486d0a1e3fd6c82d35839321e5c48ecf0",
    "small":
        "e1071942836d52c09cf36e05887acdcc821b286c3f5da451457d6e69ee3ad3d8",
}


class TestBuiltins:
    def test_registry_lists_exactly_the_shipped_specs(self):
        assert scenario_names() == sorted(BUILTIN_DIGESTS)

    @pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
    def test_pinned_digests(self, name):
        assert resolve(name).digest == BUILTIN_DIGESTS[name]

    def test_digest_is_the_snapshot_config_digest(
        self, monkeypatch, tmp_path, small_result
    ):
        # One definition of scenario identity: the config digest a
        # cache entry's meta records is the spec digest keying it.
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path))
        resolved = resolve("small")
        monkeypatch.setattr(context, "_CACHE", {resolved.digest: small_result})
        entry = context.ensure_snapshot(resolved)
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["config_digest"] == resolved.digest

    def test_seed_override(self):
        assert resolve("small").config.seed == 7  # the spec's own seed
        assert resolve("small", seed=9).config.seed == 9
        assert resolve("paper").config.seed == 2021

    def test_removed_aliases_are_unknown(self):
        # The old spelling is an error that points at the registry name.
        with pytest.raises(ScenarioSpecError, match="paper-10x"):
            resolve("paper10x")

    def test_listing_carries_digests(self):
        rows = {row["name"]: row for row in list_scenarios()}
        assert rows["small"]["digest"] == BUILTIN_DIGESTS["small"]
        assert rows["small"]["seed"] == 7
        assert rows["paper"]["n_days"] == 667


class TestSpecFiles:
    def test_equivalent_spec_shares_the_builtin_digest(self, tmp_path):
        path = tmp_path / "mine.json"
        path.write_text(json.dumps({"base": "small", "name": "mine"}))
        resolved = resolve(str(path))
        assert resolved.label == "mine"
        assert resolved.digest == BUILTIN_DIGESTS["small"]

    def test_overrides_change_the_digest(self, tmp_path):
        path = tmp_path / "tweak.json"
        path.write_text(json.dumps(
            {"base": "small", "growth": {"batch_growth": 1.5}}
        ))
        resolved = resolve(path)
        assert resolved.config.batch_growth == 1.5
        assert resolved.digest != BUILTIN_DIGESTS["small"]

    def test_default_base_is_paper(self, tmp_path):
        path = tmp_path / "nobase.json"
        path.write_text(json.dumps({"target_hotspots": 8800}))
        resolved = resolve(path)
        assert resolved.config.target_hotspots == 8800
        base = resolve("paper").config
        assert resolved.config.n_days == base.n_days
        assert resolved.config.mining_pools == base.mining_pools

    def test_flat_and_sectioned_spelling_share_a_digest(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({"base": "small", "batch_growth": 1.5}))
        grouped = tmp_path / "grouped.json"
        grouped.write_text(json.dumps(
            {"base": "small", "growth": {"batch_growth": 1.5}}
        ))
        assert resolve(flat).digest == resolve(grouped).digest

    def test_label_defaults_to_the_file_stem(self, tmp_path):
        path = tmp_path / "boomtown.json"
        path.write_text(json.dumps({"base": "small"}))
        assert resolve(path).label == "boomtown"

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib needs Python 3.11+"
    )
    def test_toml_spec_matches_json_spec(self, tmp_path):
        toml = tmp_path / "s.toml"
        toml.write_text(
            'base = "small"\n[growth]\nbatch_growth = 1.5\n'
        )
        as_json = tmp_path / "s.json"
        as_json.write_text(json.dumps(
            {"base": "small", "growth": {"batch_growth": 1.5}}
        ))
        assert resolve(toml).digest == resolve(as_json).digest

    def test_toml_on_old_interpreters_fails_clearly(self, tmp_path, monkeypatch):
        if sys.version_info >= (3, 11):
            import builtins

            real_import = builtins.__import__

            def no_tomllib(name, *args, **kwargs):
                if name == "tomllib":
                    raise ImportError("gated for test")
                return real_import(name, *args, **kwargs)

            monkeypatch.setattr(builtins, "__import__", no_tomllib)
        path = tmp_path / "s.toml"
        path.write_text('base = "small"\n')
        with pytest.raises(ScenarioSpecError, match="3.11"):
            resolve(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioSpecError, match="does not exist"):
            resolve(tmp_path / "ghost.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(ScenarioSpecError, match="invalid JSON"):
            resolve(path)

    def test_non_object_spec(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ScenarioSpecError, match="one JSON object"):
            resolve(path)

    def test_unknown_base(self, tmp_path):
        path = tmp_path / "orphan.json"
        path.write_text(json.dumps({"base": "gigantic"}))
        with pytest.raises(ScenarioSpecError, match="unknown base"):
            resolve(path)

    def test_unknown_name_is_not_a_path(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            resolve("gigantic")


class TestRejections:
    """Field-level errors: every rejection names the offending key."""

    def _err(self, spec):
        with pytest.raises(ScenarioSpecError) as excinfo:
            apply_overrides(ScenarioConfig(), spec, "unit-test")
        return str(excinfo.value)

    def test_unknown_key_suggests(self):
        message = self._err({"online_fractio": 0.5})
        assert "online_fractio" in message
        assert "did you mean 'online_fraction'" in message

    def test_unknown_key_in_section(self):
        message = self._err({"growth": {"batch_growht": 1.5}})
        assert "growth.batch_growht" in message

    def test_wrong_section(self):
        message = self._err({"moves": {"online_fraction": 0.5}})
        assert "does not belong to section 'moves'" in message
        assert "'growth'" in message

    def test_top_level_only_field_in_section(self):
        message = self._err({"growth": {"n_days": 200}})
        assert "top-level only" in message

    def test_duplicate_flat_and_sectioned(self):
        message = self._err(
            {"online_fraction": 0.5, "growth": {"online_fraction": 0.5}}
        )
        assert "already set" in message

    def test_type_mismatch_int(self):
        assert "expects int" in self._err({"n_days": "400"})

    def test_bool_is_not_an_int(self):
        assert "got bool" in self._err({"n_days": True})

    def test_type_mismatch_float(self):
        assert "expects float" in self._err({"online_fraction": "half"})

    def test_tuple_rows_checked(self):
        message = self._err({"ownership": {"mining_pools": [[14, "Denver"]]}})
        assert "row 0" in message and "[str, int]" in message

    def test_section_must_be_a_table(self):
        assert "must be a table" in self._err({"growth": 1.5})

    def test_fraction_out_of_range(self):
        message = self._err({"growth": {"online_fraction": 1.5}})
        assert "online_fraction" in message and "(0, 1]" in message

    def test_nonpositive_n_days(self):
        assert "n_days" in self._err({"n_days": 0})

    def test_milestone_after_run_end(self):
        message = self._err({"timeline": {"march_snapshot_day": 9999}})
        assert "march_snapshot_day" in message

    def test_milestones_out_of_order(self):
        message = self._err({"timeline": {"hip10_day": 100}})
        assert "out of order" in message

    def test_empty_fleet_rejected(self):
        message = self._err({"ownership": {"mining_pools": [["Denver", 0]]}})
        assert "mining_pools" in message


class TestValidateConfig:
    """Satellite: the historical validation gaps are closed in strict
    mode while ``dataclasses.replace`` test paths stay permissive."""

    def test_strict_catches_bad_fraction(self):
        config = ScenarioConfig(rssi_liar_fraction=1.5)  # non-strict: allowed
        with pytest.raises(SimulationError, match="rssi_liar_fraction"):
            validate_config(config, strict=True)

    def test_strict_catches_milestone_past_n_days(self):
        import dataclasses

        config = dataclasses.replace(ScenarioConfig(), n_days=120)
        with pytest.raises(SimulationError, match="inside the run"):
            validate_config(config, strict=True)

    def test_nonstrict_keeps_historical_checks(self):
        with pytest.raises(SimulationError):
            ScenarioConfig(n_days=0)
        with pytest.raises(SimulationError):
            ScenarioConfig(online_fraction=1.5)


_GROWTH_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "online_fraction": st.floats(0.05, 1.0),
        "batch_growth": st.floats(0.2, 3.0),
        "international_share_final": st.floats(0.01, 0.9),
    },
)

_TOP_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(0, 2**32 - 1),
        # small's latest milestone day is 150; keep every draw legal.
        "n_days": st.integers(151, 500),
        "target_hotspots": st.integers(50, 5000),
    },
)


class TestDigestProperties:
    @settings(max_examples=25, deadline=None)
    @given(top=_TOP_OVERRIDES, growth=_GROWTH_OVERRIDES)
    def test_file_round_trip_digest_stable(self, tmp_path_factory, top, growth):
        spec = {"base": "small", "name": "prop", **top}
        if growth:
            spec["growth"] = growth
        direct = apply_overrides(resolve("small").config, spec, "direct")
        tmp = tmp_path_factory.mktemp("specs")
        path = tmp / "prop.json"
        path.write_text(json.dumps(spec))
        first = resolve(path)
        second = resolve(path)
        # dict -> file -> load equals in-memory application, twice over.
        assert first.config == direct
        assert first.digest == second.digest == spec_digest(direct)

    @settings(max_examples=25, deadline=None)
    @given(growth=_GROWTH_OVERRIDES)
    def test_flat_spelling_is_canonical(self, growth):
        base = resolve("small").config
        sectioned = apply_overrides(base, {"growth": growth}, "sectioned")
        flat = apply_overrides(base, dict(growth), "flat")
        assert spec_digest(sectioned) == spec_digest(flat)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_payload_round_trip(self, seed):
        resolved = with_seed(resolve("small"), seed)
        clone = from_payload(resolved.payload())
        assert clone.config == resolved.config
        assert clone.digest == resolved.digest
        assert clone.label == resolved.label

    def test_payload_digest_mismatch_rejected(self):
        payload = resolve("small").payload()
        payload["digest"] = "0" * 64
        with pytest.raises(ScenarioSpecError, match="digest mismatch"):
            from_payload(payload)


class TestCacheIntegration:
    def test_equivalent_spec_loads_from_warm_cache(
        self, monkeypatch, tmp_path, small_result
    ):
        # Warm the cache under the built-in's digest key...
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(
            context, "_CACHE", {resolve("small").digest: small_result}
        )
        entry = context.ensure_snapshot("small")
        assert entry is not None
        # ...then a *fresh process* resolves an equivalent user spec:
        # it must land on the same entry without simulating.
        monkeypatch.setattr(context, "_CACHE", {})
        monkeypatch.setattr(
            context.SimulationEngine,
            "run",
            lambda self, **kwargs: pytest.fail(
                "equivalent spec must reuse the built-in's cache entry"
            ),
        )
        spec = tmp_path / "mine.json"
        spec.write_text(json.dumps({"base": "small", "name": "mine"}))
        result = context.get_result(str(spec))
        assert result.chain.tip.hash == small_result.chain.tip.hash

    def test_resolve_any_passthrough(self):
        resolved = resolve("small")
        assert resolve_any(resolved) is resolved
        assert resolve_any(resolved, seed=7) is resolved
        reseeded = resolve_any(resolved, seed=9)
        assert reseeded.config.seed == 9
        assert reseeded.label == resolved.label

    def test_field_groups_cover_every_config_field(self):
        import dataclasses

        grouped = {
            field for fields in FIELD_GROUPS.values() for field in fields
        }
        top_level = {"seed", "n_days", "target_hotspots", "real_network_size"}
        all_fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert grouped | top_level == all_fields
        assert not grouped & top_level
