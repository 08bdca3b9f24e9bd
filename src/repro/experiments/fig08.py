"""Figure 8 + §5.2/§5.3: packet-transfer and router analyses."""

from __future__ import annotations

from repro.core.analysis.traffic import (
    channel_share,
    packets_by_close,
    spam_episode,
    traffic_series,
)
from repro.etl.store import EtlStore
from repro.experiments.registry import ExperimentReport, Row
from repro.simulation.engine import SimulationResult


def run(result: SimulationResult, store: EtlStore) -> ExperimentReport:
    """Figure 8's series plus the Console share and the HIP 10 spike."""
    share = channel_share(store)
    series = traffic_series(store)
    spike = spam_episode(series)
    config = result.config

    report = ExperimentReport(
        experiment_id="fig08",
        title="Packet transfers and routers (Fig. 8, §5.2–5.3)",
    )
    report.rows = [
        Row("Console share of channel txns", 0.8118, share.console_share),
        Row("registered OUIs", 10, len(share.ouis_seen)),
        Row("final aggregate packets/s", 14.0,
            series.final_packets_per_second(),
            note="organic traffic approaching 14 pkt/s (Fig. 8)"),
        Row("spam spike multiplier over baseline", None,
            spike.spike_multiplier,
            note="the Aug 2020 arbitrage episode (§5.3.2)"),
        Row("spike decayed by day", config.spam_decay_end_day,
            spike.decayed_by_day or -1,
            note="HIP 10 landed on day "
                 f"{config.hip10_day}; spam decays after"),
    ]
    report.series["packets_by_close"] = packets_by_close(store)
    report.series["daily_console"] = list(series.console_packets)
    report.series["daily_third_party"] = list(series.third_party_packets)
    report.notes.append(
        "spike remains the largest sustained data volume in the history"
        if spike.peak_packets >= max(
            series.console_packets[-7:] or [0]
        ) else "late organic traffic exceeded the spike (differs from paper)"
    )
    return report
