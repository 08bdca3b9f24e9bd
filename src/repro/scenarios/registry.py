"""One scenario registry: shipped spec files, user spec files, digests.

Every consumer of ``--scenario`` (the simulation and experiments CLIs,
the ETL and serving tiers, the farm and sweep workers, the persistent
cache) resolves through :func:`resolve`: a *reference* is either a
registry name (``small``, ``paper``, ``paper-10x``,
``million-hotspot`` — each shipped as a spec file under
``repro/scenarios/builtin/``) or a path to a user spec file (JSON
anywhere; TOML on Python 3.11+ via :mod:`tomllib`). The result is a
:class:`ResolvedScenario`: the frozen
:class:`~repro.simulation.scenario.ScenarioConfig`, the canonical
:func:`~repro.scenarios.spec.spec_digest`, and a primitives-only
:meth:`~ResolvedScenario.payload` that parallel workers rehydrate from
(:func:`from_payload`) without re-reading any file or registry — the
parent's resolution is the single source of truth for a run.
"""

from __future__ import annotations

import dataclasses
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ScenarioSpecError
from repro.scenarios import spec as specmod
from repro.simulation.scenario import ScenarioConfig, validate_config

__all__ = [
    "ResolvedScenario",
    "from_payload",
    "list_scenarios",
    "resolve",
    "resolve_any",
    "scenario_names",
    "with_seed",
]

#: Directory of shipped spec files; the file stem is the registry name.
BUILTIN_DIR = Path(__file__).parent / "builtin"

#: The base every built-in spec builds on: a default-constructed
#: ScenarioConfig (which *is* the paper scenario). Spelled ``"defaults"``
#: in spec files so ``paper.json`` need not base on itself.
_DEFAULTS_BASE = "defaults"

_SPEC_SUFFIXES = (".json", ".toml")


@dataclasses.dataclass(frozen=True)
class ResolvedScenario:
    """One fully-validated scenario: label, provenance, config, digest."""

    label: str
    source: str
    config: ScenarioConfig
    digest: str

    def payload(self) -> Dict[str, Any]:
        """Primitives-only serialisation for worker rehydration.

        Carries the *resolved* config — not the spec file path — so a
        spawn worker reconstructs exactly what the parent validated
        even if the file changes (or vanishes) mid-run.
        """
        return {
            "label": self.label,
            "source": self.source,
            "digest": self.digest,
            "config": specmod.canonical_config_dict(self.config),
        }


def scenario_names() -> List[str]:
    """Sorted registry names (the shipped spec files' stems)."""
    return sorted(path.stem for path in BUILTIN_DIR.glob("*.json"))


@lru_cache(maxsize=None)
def _builtin_raw(name: str) -> Dict[str, Any]:
    path = BUILTIN_DIR / f"{name}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:  # pragma: no cover - ship-time invariant
        raise ScenarioSpecError(f"missing built-in spec {name!r}: {exc}")
    except ValueError as exc:  # pragma: no cover - ship-time invariant
        raise ScenarioSpecError(f"corrupt built-in spec {name!r}: {exc}")


def _builtin_name(ref: str) -> Optional[str]:
    """``ref`` if it names a shipped spec file, else ``None``."""
    return ref if (BUILTIN_DIR / f"{ref}.json").exists() else None


def _load_spec_file(path: Path) -> Dict[str, Any]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioSpecError(f"cannot read spec file {path}: {exc}")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError:
            raise ScenarioSpecError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                "use a JSON spec on this interpreter"
            )
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioSpecError(f"{path}: invalid TOML: {exc}")
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ScenarioSpecError(f"{path}: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ScenarioSpecError(
            f"{path}: a spec file must hold one JSON object, "
            f"got {type(data).__name__}"
        )
    return data


def _base_config(base: Any, source: str, *, _depth: int = 0) -> ScenarioConfig:
    """The config a spec's overrides apply to (built-ins chain once)."""
    if base == _DEFAULTS_BASE:
        return ScenarioConfig()
    if not isinstance(base, str):
        raise ScenarioSpecError(
            f"{source}: 'base' must name a built-in scenario, "
            f"got {type(base).__name__}"
        )
    if _depth > len(scenario_names()) + 1:  # pragma: no cover - guard
        raise ScenarioSpecError(f"{source}: circular 'base' chain")
    name = _builtin_name(base)
    if name is None:
        raise ScenarioSpecError(
            f"{source}: unknown base scenario {base!r}; "
            f"known: {scenario_names()} (or 'defaults')"
        )
    return _resolve_spec_dict(
        _builtin_raw(name), f"builtin:{name}", _depth=_depth + 1
    )


def _resolve_spec_dict(
    raw: Dict[str, Any], source: str, *, _depth: int = 0
) -> ScenarioConfig:
    base = raw.get("base", "paper" if _depth == 0 else _DEFAULTS_BASE)
    return specmod.apply_overrides(
        _base_config(base, source, _depth=_depth), raw, source
    )


def resolve(
    ref: Union[str, Path], seed: Optional[int] = None
) -> ResolvedScenario:
    """Resolve a scenario reference into a validated scenario.

    ``ref`` is a registry name or a spec-file path; a ``seed`` of
    ``None`` keeps the spec's own seed (every built-in pins one), an
    int overrides it. Raises :class:`ScenarioSpecError` with the
    source and field named on any problem.
    """
    if isinstance(ref, Path):
        return _resolve_file(ref, seed)
    name = _builtin_name(ref)
    if name is not None:
        raw = _builtin_raw(name)
        config = _resolve_spec_dict(raw, f"builtin:{name}")
        return _finish(name, f"builtin:{name}", config, seed)
    if _looks_like_path(ref):
        return _resolve_file(Path(ref), seed)
    raise ScenarioSpecError(
        f"unknown scenario {ref!r}; known: {scenario_names()} "
        "(or pass a path to a .json/.toml spec file)"
    )


def _looks_like_path(ref: str) -> bool:
    if "/" in ref or "\\" in ref:
        return True
    if ref.endswith(_SPEC_SUFFIXES):
        return True
    return Path(ref).exists()


def _resolve_file(path: Path, seed: Optional[int]) -> ResolvedScenario:
    if not path.exists():
        raise ScenarioSpecError(
            f"spec file {path} does not exist (registry names: "
            f"{scenario_names()})"
        )
    raw = _load_spec_file(path)
    config = _resolve_spec_dict(raw, str(path))
    label = raw.get("name") or path.stem
    if not isinstance(label, str) or not label:
        raise ScenarioSpecError(f"{path}: 'name' must be a non-empty string")
    return _finish(label, str(path), config, seed)


def _finish(
    label: str, source: str, config: ScenarioConfig, seed: Optional[int]
) -> ResolvedScenario:
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ScenarioSpecError(
                f"{source}: seed must be an int, got {type(seed).__name__}"
            )
        config = dataclasses.replace(config, seed=seed)
        validate_config(config, strict=True)
    return ResolvedScenario(
        label=label,
        source=source,
        config=config,
        digest=specmod.spec_digest(config),
    )


def resolve_any(
    scenario: Union[str, Path, ResolvedScenario],
    seed: Optional[int] = None,
) -> ResolvedScenario:
    """Normalise any accepted ``--scenario`` value to a resolution.

    Already-resolved scenarios pass through (re-seeded if ``seed``
    differs), so layered APIs can hand resolutions down without
    re-reading files.
    """
    if isinstance(scenario, ResolvedScenario):
        if seed is None or seed == scenario.config.seed:
            return scenario
        return with_seed(scenario, seed)
    return resolve(scenario, seed=seed)


def with_seed(resolved: ResolvedScenario, seed: int) -> ResolvedScenario:
    """The same scenario under a different seed (digest recomputed)."""
    config = dataclasses.replace(resolved.config, seed=int(seed))
    return ResolvedScenario(
        label=resolved.label,
        source=resolved.source,
        config=config,
        digest=specmod.spec_digest(config),
    )


def from_payload(payload: Dict[str, Any]) -> ResolvedScenario:
    """Rehydrate a :meth:`ResolvedScenario.payload` in a worker.

    Validates strictly and recomputes the digest, so a corrupted or
    hand-built payload cannot silently poison the cache key space.
    """
    try:
        fields = dict(payload["config"])
        label = payload["label"]
        source = payload.get("source", "<payload>")
    except (KeyError, TypeError) as exc:
        raise ScenarioSpecError(f"malformed scenario payload: {exc}")
    for name in specmod._TUPLE_SHAPES:
        if name in fields:
            fields[name] = [list(row) for row in fields[name]]
    config = specmod.apply_overrides(ScenarioConfig(), fields, source)
    digest = specmod.spec_digest(config)
    carried = payload.get("digest")
    if carried is not None and carried != digest:
        raise ScenarioSpecError(
            f"scenario payload digest mismatch for {label!r}: "
            f"carried {str(carried)[:12]}…, recomputed {digest[:12]}…"
        )
    return ResolvedScenario(
        label=str(label),
        source=str(source),
        config=config,
        digest=digest,
    )


def list_scenarios() -> List[Dict[str, Any]]:
    """Registry listing for ``--list-scenarios``: one dict per name
    with the resolved digest under the spec's own default seed."""
    rows = []
    for name in scenario_names():
        resolved = resolve(name)
        raw = _builtin_raw(name)
        rows.append({
            "name": name,
            "description": raw.get("description", ""),
            "seed": resolved.config.seed,
            "n_days": resolved.config.n_days,
            "target_hotspots": resolved.config.target_hotspots,
            "digest": resolved.digest,
        })
    return rows


def format_listing(rows: Optional[List[Dict[str, Any]]] = None) -> str:
    """The ``--list-scenarios`` table (shared by both CLIs)."""
    rows = list_scenarios() if rows is None else rows
    lines = []
    width = max(len(row["name"]) for row in rows) if rows else 0
    for row in rows:
        lines.append(
            f"{row['name']:<{width}}  seed={row['seed']:<5} "
            f"days={row['n_days']:<4} hotspots={row['target_hotspots']:<8,} "
            f"digest={row['digest'][:12]}  {row['description']}"
        )
    return "\n".join(lines)
