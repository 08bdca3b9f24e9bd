"""Declarative scenario specs: validation, canonicalisation, digests.

A *spec* is a plain dict (parsed from a JSON or TOML file, or built in
code) of overrides on a named base scenario::

    {
        "name": "boomtown",
        "description": "twice the fleet, faster batches",
        "base": "paper",
        "target_hotspots": 8800,
        "growth": {"batch_growth": 1.5}
    }

Overrides may be flat (any :class:`ScenarioConfig` field name at the
top level) or grouped under the section the field belongs to —
``growth.batch_growth`` and ``batch_growth`` are the same knob, and a
field may appear only once. Everything else is rejected with a
field-level :class:`~repro.errors.ScenarioSpecError`: unknown keys
(with a did-you-mean suggestion), keys under the wrong section, type
mismatches, and — after the base is applied — constraint violations via
:func:`repro.simulation.scenario.validate_config` in strict mode.

Every accepted spec canonicalises to a deterministic digest:
:func:`spec_digest` hashes the *fully resolved* config (sorted-key
JSON over every knob, seed included), so two specs that resolve to the
same history share one digest — and one persistent cache entry —
regardless of file format, key order, or how the overrides were
spelled. This digest is the scenario-cache entry key
(:mod:`repro.experiments.context`) and the worker-rehydration contract
(:mod:`repro.parallel`).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Mapping, Tuple

from repro.digest import sha256
from repro.errors import ScenarioSpecError
from repro.simulation.scenario import ScenarioConfig

__all__ = [
    "FIELD_GROUPS",
    "RESERVED_KEYS",
    "apply_overrides",
    "canonical_config_dict",
    "flatten_overrides",
    "spec_digest",
]

#: Keys a spec may carry besides overrides. ``base`` names the scenario
#: the overrides apply to; ``name``/``description`` are documentation
#: and never enter the digest.
RESERVED_KEYS = frozenset({"base", "name", "description"})

#: Section -> fields, mirroring the comment blocks in ``scenario.py``.
#: Fields not listed here (seed, n_days, target_hotspots,
#: real_network_size) are top-level only.
FIELD_GROUPS: Dict[str, Tuple[str, ...]] = {
    "timeline": (
        "dc_payments_live_day",
        "hip10_day",
        "spam_decay_end_day",
        "international_launch_day",
        "resale_start_day",
        "march_snapshot_day",
    ),
    "growth": (
        "online_fraction",
        "batch_interval_days",
        "batch_growth",
        "international_share_final",
    ),
    "ownership": (
        "new_owner_probability",
        "attachment_alpha",
        "organic_owner_cap",
        "whale_share_of_late_supply",
        "whale_start_day",
        "mining_pools",
        "commercial_fleets",
    ),
    "moves": (
        "never_move_fraction",
        "extra_move_probability",
        "frequent_mover_moves",
        "null_island_initial_probability",
        "null_island_move_probability",
        "long_move_fraction",
        "long_move_us_export_fraction",
    ),
    "resale": (
        "resale_fraction",
        "zero_dc_transfer_fraction",
        "repeat_transfer_probability",
    ),
    "poc": (
        "challenges_per_hotspot_day",
        "max_witness_candidates",
        "silent_mover_fraction",
        "rssi_liar_fraction",
        "gossip_cliques",
        "high_gain_fraction",
    ),
    "traffic": (
        "final_packets_per_second",
        "console_channel_share",
        "console_close_blocks",
        "arbitrage_peak_multiplier",
        "third_party_ouis",
    ),
    "backhaul": ("tail_isps", "validator_fraction"),
}

#: Tuple-of-tuples fields and the (element) shape each row must have.
_TUPLE_SHAPES: Dict[str, Tuple[type, type]] = {
    "mining_pools": (str, int),      # (city, fleet size)
    "commercial_fleets": (str, int),  # (city, fleet size)
    "gossip_cliques": (int, str),     # (members, home city)
}

_DEFAULTS = ScenarioConfig()
_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ScenarioConfig)
)
_FIELD_GROUP: Dict[str, str] = {
    field: group for group, fields in FIELD_GROUPS.items() for field in fields
}
_TOP_LEVEL_ONLY = frozenset(
    name for name in _FIELDS if name not in _FIELD_GROUP
)

# Import-time drift guard: a ScenarioConfig field added without a group
# assignment (or a group listing a dropped field) fails loudly here,
# not silently at the first user spec.
_unknown_grouped = set(_FIELD_GROUP) - set(_FIELDS)
if _unknown_grouped:  # pragma: no cover - drift guard
    raise RuntimeError(
        f"FIELD_GROUPS names non-config fields: {sorted(_unknown_grouped)}"
    )
if _TOP_LEVEL_ONLY - {"seed", "n_days", "target_hotspots",
                      "real_network_size"}:  # pragma: no cover - drift guard
    raise RuntimeError(
        "new ScenarioConfig fields must be assigned to a FIELD_GROUPS "
        f"section: {sorted(_TOP_LEVEL_ONLY)}"
    )


def canonical_config_dict(config: ScenarioConfig) -> Dict[str, Any]:
    """The fully-resolved config as a JSON-ready dict (tuples -> lists)."""
    return dataclasses.asdict(config)


def spec_digest(config: ScenarioConfig) -> str:
    """Canonical digest of a resolved scenario: SHA-256 over the
    sorted-key JSON of every knob (seed included).

    This is the single definition of scenario identity: the persistent
    cache entry key, the checkpoint compatibility stamp, and the value
    ``--list-scenarios`` prints all derive from it.
    """
    payload = json.dumps(
        canonical_config_dict(config), sort_keys=True, separators=(",", ":")
    )
    return sha256(payload.encode("utf-8")).hexdigest()


def _suggest(key: str) -> str:
    import difflib  # only a misspelt key pays for it

    matches = difflib.get_close_matches(
        key, list(_FIELDS) + list(FIELD_GROUPS), n=1
    )
    return f" (did you mean {matches[0]!r}?)" if matches else ""


def _check_value(path: str, field: str, value: Any, source: str) -> Any:
    """Type-check one override; returns the canonical-typed value."""
    default = getattr(_DEFAULTS, field)
    if field in _TUPLE_SHAPES:
        return _check_rows(path, field, value, source)
    if isinstance(value, bool):
        raise ScenarioSpecError(
            f"{source}: field {path!r} expects "
            f"{type(default).__name__}, got bool"
        )
    if isinstance(default, int):
        if not isinstance(value, int):
            raise ScenarioSpecError(
                f"{source}: field {path!r} expects int, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)):
            raise ScenarioSpecError(
                f"{source}: field {path!r} expects float, "
                f"got {type(value).__name__} ({value!r})"
            )
        return float(value)
    raise ScenarioSpecError(  # pragma: no cover - no such fields today
        f"{source}: field {path!r} cannot be overridden from a spec"
    )


def _check_rows(path: str, field: str, value: Any, source: str) -> tuple:
    """Validate a tuple-of-tuples field ([[a, b], ...]) row by row."""
    first_t, second_t = _TUPLE_SHAPES[field]
    shape = f"[{first_t.__name__}, {second_t.__name__}]"
    if isinstance(value, (str, bytes)) or not isinstance(
        value, (list, tuple)
    ):
        raise ScenarioSpecError(
            f"{source}: field {path!r} expects a list of {shape} rows, "
            f"got {type(value).__name__}"
        )
    rows = []
    for index, row in enumerate(value):
        ok = (
            isinstance(row, (list, tuple))
            and len(row) == 2
            and isinstance(row[0], first_t)
            and isinstance(row[1], second_t)
            and not isinstance(row[0], bool)
            and not isinstance(row[1], bool)
        )
        if not ok:
            raise ScenarioSpecError(
                f"{source}: field {path!r} row {index} must be {shape}, "
                f"got {row!r}"
            )
        rows.append((row[0], row[1]))
    return tuple(rows)


def flatten_overrides(
    spec: Mapping[str, Any], source: str = "<spec>"
) -> Dict[str, Any]:
    """Validated ``field -> value`` overrides from a raw spec mapping.

    Accepts flat field names and section tables; rejects everything
    else with a :class:`ScenarioSpecError` naming the offending key.
    """
    if not isinstance(spec, Mapping):
        raise ScenarioSpecError(
            f"{source}: a scenario spec must be a table/object, "
            f"got {type(spec).__name__}"
        )
    overrides: Dict[str, Any] = {}
    origin: Dict[str, str] = {}

    def _put(path: str, field: str, value: Any) -> None:
        if field in overrides:
            raise ScenarioSpecError(
                f"{source}: field {path!r} already set as "
                f"{origin[field]!r}; each knob may appear once"
            )
        overrides[field] = _check_value(path, field, value, source)
        origin[field] = path

    for key, value in spec.items():
        if key in RESERVED_KEYS:
            continue
        if key in FIELD_GROUPS:
            if not isinstance(value, Mapping):
                raise ScenarioSpecError(
                    f"{source}: section {key!r} must be a table of "
                    f"fields, got {type(value).__name__}"
                )
            for sub, sub_value in value.items():
                path = f"{key}.{sub}"
                if sub not in _FIELD_GROUP and sub not in _TOP_LEVEL_ONLY:
                    raise ScenarioSpecError(
                        f"{source}: unknown field {path!r}{_suggest(sub)}"
                    )
                home = _FIELD_GROUP.get(sub)
                if home != key:
                    belongs = (
                        f"it lives in section {home!r}"
                        if home
                        else "it is top-level only"
                    )
                    raise ScenarioSpecError(
                        f"{source}: field {path!r} does not belong to "
                        f"section {key!r} ({belongs})"
                    )
                _put(path, sub, sub_value)
        elif key in _FIELDS:
            _put(key, key, value)
        else:
            raise ScenarioSpecError(
                f"{source}: unknown key {key!r}{_suggest(key)}"
            )
    return overrides


def apply_overrides(
    base: ScenarioConfig, spec: Mapping[str, Any], source: str = "<spec>"
) -> ScenarioConfig:
    """Resolve a spec against its base config, fully validated.

    Runs :func:`repro.simulation.scenario.validate_config` in strict
    mode on the result, so out-of-range knobs and inconsistent
    milestone days are rejected here — at load time, with the source
    named — instead of failing deep inside the engine.
    """
    from repro.simulation.scenario import validate_config

    overrides = flatten_overrides(spec, source)
    try:
        config = dataclasses.replace(base, **overrides)
        validate_config(config, strict=True)
    except ScenarioSpecError:
        raise
    except Exception as exc:
        raise ScenarioSpecError(f"{source}: {exc}") from exc
    return config
