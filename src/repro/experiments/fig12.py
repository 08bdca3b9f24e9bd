"""Figure 12: the five coverage estimates."""

from __future__ import annotations

from repro.core.coverage import (
    DiskModel,
    ExplorerDotMap,
    HullModel,
    RevisedModel,
    build_witness_geometry,
)
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.geo.hexgrid import HexCell
from repro.geo.landmass import CONTIGUOUS_US
from repro.rng import RngHub
from repro.simulation.engine import SimulationResult


def _locate(token: str):
    location = HexCell.from_token(token).center()
    return None if location.is_null_island() else location


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 12a–e: dot map → 300 m disks → hulls → 25 km → revised.

    Landmass fractions scale with fleet size; the descaled column
    divides by the scenario's scale factor to compare against the
    paper's full-network percentages.
    """
    rng = RngHub(result.config.seed).stream("fig12")
    landmass = CONTIGUOUS_US
    scale = result.config.scale_factor

    us_online = []
    us_offline = []
    for hotspot in result.world.hotspots.values():
        if hotspot.asserted_location is None:
            continue
        if not landmass.contains(hotspot.asserted_location):
            continue
        (us_online if hotspot.online else us_offline).append(
            hotspot.asserted_location
        )
    dots = ExplorerDotMap(us_online, us_offline)

    geometries = build_witness_geometry(store.valid_witness_receipts(), _locate)

    disk = DiskModel(us_online).landmass_fraction(
        landmass, rng, scale_factor=scale
    )
    hulls = HullModel(geometries).landmass_fraction(
        landmass, rng, scale_factor=scale
    )
    hulls25 = HullModel(geometries, max_witness_km=25.0).landmass_fraction(
        landmass, rng, scale_factor=scale
    )
    revised = RevisedModel(geometries, max_witness_km=25.0).landmass_fraction(
        landmass, rng, scale_factor=scale
    )

    report = ExperimentReport(
        experiment_id="fig12",
        title="Coverage estimates (Fig. 12)",
    )
    report.rows = [
        Row("(a) explorer dots: online / offline", None,
            dots.n_online, note=f"offline {dots.n_offline}; dots ≠ coverage"),
        Row("(b) 300 m disk coverage (descaled %)", 0.09295,
            100.0 * (disk.descaled_fraction or 0.0),
            note=f"raw {100.0 * disk.landmass_fraction:.4f}%"),
        Row("(c) convex hull coverage (descaled %)", None,
            100.0 * (hulls.descaled_fraction or 0.0),
            note=f"raw {100.0 * hulls.landmass_fraction:.4f}%; no cutoff "
                 "inflates via implausible witnesses"),
        Row("(d) hulls w/ 25 km cutoff (descaled %)", 0.5723,
            100.0 * (hulls25.descaled_fraction or 0.0),
            note=f"raw {100.0 * hulls25.landmass_fraction:.4f}%"),
        Row("(e) revised model (descaled %)", 3.3032,
            100.0 * (revised.descaled_fraction or 0.0),
            note=f"raw {100.0 * revised.landmass_fraction:.4f}%; raw and "
                 "descaled bracket the paper (see EXPERIMENTS.md)"),
    ]
    ordering_ok = (
        disk.landmass_fraction
        <= hulls25.landmass_fraction
        <= revised.landmass_fraction
    )
    report.notes.append(
        "model ordering disk < hulls(25km) < revised: "
        + ("holds (matches Fig. 12)" if ordering_ok else "VIOLATED")
    )
    report.series["breakdown_km2"] = sorted(revised.breakdown_km2.items())
    return report
