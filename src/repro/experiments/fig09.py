"""Figure 9 + §6.1: ASN distribution and per-city diversity."""

from __future__ import annotations

from repro.core.analysis.meta import (
    asn_distribution,
    city_asn_diversity,
    cloud_hosted_peers,
)
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 9's heavy-headed ASN distribution and the 1-ASN cities."""
    distribution = asn_distribution(result.peerbook, result.world.isps)
    clouds = cloud_hosted_peers(result.peerbook, result.world.isps)

    # Join: peer → city (from world ground truth) and peer → ASN.
    peer_city = {}
    for gateway, hotspot in result.world.hotspots.items():
        peer_city[gateway] = hotspot.city.name
    peer_asn = {}
    universe = result.world.isps
    from repro.p2p.multiaddr import parse_multiaddr

    for entry in result.peerbook.entries_with_listen_addrs():
        parsed = parse_multiaddr(entry.listen_addrs[0])
        if parsed.ip is not None:
            asn = universe.asn_for_ip(parsed.ip)
            if asn is not None:
                peer_asn[entry.peer] = asn
    diversity = city_asn_diversity(
        {p: c for p, c in peer_city.items() if p in peer_asn}, peer_asn
    )

    head = sum(count for _, count in distribution[:10])
    total = sum(count for _, count in distribution)
    report = ExperimentReport(
        experiment_id="fig09",
        title="ASN distribution and city diversity (Fig. 9, §6.1)",
    )
    report.rows = [
        Row("distinct ASNs with hotspots", 454, len(distribution),
            note="paper: 454 at full scale"),
        Row("top-10 ASN share of hotspots", None, head / total,
            note="'the overwhelming majority hang off just a few networks'"),
        Row("single-hotspot ASNs (long tail)", None,
            sum(1 for _, c in distribution if c <= 2)),
        Row("cities with annotated hotspots", None,
            diversity.cities_with_hotspots,
            note="paper: 3,958 cities with ≥1 hotspot"),
        Row("single-ASN city fraction", 1_588 / 3_958,
            diversity.single_asn_cities / max(diversity.cities_with_hotspots, 1)),
        Row("single-ASN cities with ≥2 hotspots", None,
            diversity.single_asn_cities_with_2plus,
            note="paper: 414 (Palma, Mesa, Rome, ...)"),
        Row("cloud-hosted peers (validators)", None,
            sum(clouds.values()),
            note=f"by provider: {clouds} (paper: DO 72, Amazon 44)"),
    ]
    report.series["asn_distribution"] = distribution
    return report
