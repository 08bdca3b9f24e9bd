"""SD-card-vs-cloud reconciliation (§8.1, §8.2.2; Tables 2 and 3).

The paper logs packets on the device's SD card and compares against the
cloud log. These functions compute every statistic that comparison
yields: PRR, the single/double/longest miss-run structure, the ACK/NACK
validity tables, and HIP-15 prediction accuracy. The first three come
from :class:`ReceptionTally`, which folds records in one at a time, so
a long run can drop each record once it is counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from repro.errors import AnalysisError
from repro.lorawan.mac import AckOutcome
from repro.lorawan.network import TransmissionRecord

__all__ = [
    "ReceptionTally",
    "prr",
    "MissRunStats",
    "miss_run_stats",
    "AckTable",
    "ack_table",
    "Hip15Accuracy",
    "hip15_accuracy",
]


@dataclass(frozen=True)
class MissRunStats:
    """Structure of the losses: mostly singles in the paper's re-run
    (83.5 % single-misses, 92.2 % single-or-double, longest run 34)."""

    total_misses: int
    runs: Dict[int, int]  # run length → count of runs
    single_miss_fraction: float
    single_or_double_fraction: float
    longest_run: int


@dataclass(frozen=True)
class AckTable:
    """Tables 2 and 3: ACK/NACK validity."""

    packets_sent: int
    correct_ack: int
    correct_nack: int
    incorrect_ack: int
    incorrect_nack: int

    def fractions(self) -> Dict[str, float]:
        """The table's percentage row (as fractions)."""
        n = max(self.packets_sent, 1)
        return {
            "correct_ack": self.correct_ack / n,
            "correct_nack": self.correct_nack / n,
            "incorrect_ack": self.incorrect_ack / n,
            "incorrect_nack": self.incorrect_nack / n,
        }


@dataclass
class ReceptionTally:
    """One-pass reduction of a send sequence to PRR, miss runs and ACKs.

    :meth:`add` folds in one record at a time, in send order, so a 24 h
    run needs no per-uplink history: the state is a few counters plus
    one count per distinct miss-run length.
    """

    packets_sent: int = 0
    delivered: int = 0
    sent_outside_outage: int = 0
    delivered_outside_outage: int = 0
    runs: Dict[int, int] = field(default_factory=dict)  # closed runs only
    open_run: int = 0  # misses since the last delivery
    outcomes: Dict[AckOutcome, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in AckOutcome}
    )

    @classmethod
    def of(cls, records: Iterable[TransmissionRecord]) -> "ReceptionTally":
        """The tally of ``records`` (send order)."""
        tally = cls()
        for record in records:
            tally.add(record)
        return tally

    def add(self, record: TransmissionRecord) -> None:
        """Fold in the next record of the send sequence."""
        delivered = record.delivered_to_cloud
        self.packets_sent += 1
        if delivered:
            self.delivered += 1
            if self.open_run:
                self.runs[self.open_run] = self.runs.get(self.open_run, 0) + 1
                self.open_run = 0
        else:
            self.open_run += 1
        if not record.in_outage:
            self.sent_outside_outage += 1
            self.delivered_outside_outage += delivered
        self.outcomes[AckOutcome.classify(record.acked, delivered)] += 1

    def _require_records(self) -> None:
        if not self.packets_sent:
            raise AnalysisError("no transmission records")

    def prr(self) -> float:
        """Packet reception ratio: cloud receptions / packets sent."""
        self._require_records()
        return self.delivered / self.packets_sent

    def miss_run_stats(self) -> MissRunStats:
        """Consecutive-miss run lengths over the send sequence."""
        self._require_records()
        runs = dict(self.runs)
        if self.open_run:
            runs[self.open_run] = runs.get(self.open_run, 0) + 1
        total_misses = sum(length * count for length, count in runs.items())
        if total_misses == 0:
            return MissRunStats(0, {}, 0.0, 0.0, 0)
        singles = runs.get(1, 0)
        doubles = runs.get(2, 0)
        return MissRunStats(
            total_misses=total_misses,
            runs=dict(sorted(runs.items())),
            single_miss_fraction=singles / total_misses,
            single_or_double_fraction=(singles + 2 * doubles) / total_misses,
            longest_run=max(runs),
        )

    def ack_table(self) -> AckTable:
        """Every confirmed uplink classified into the paper's four buckets."""
        self._require_records()
        return AckTable(
            packets_sent=self.packets_sent,
            correct_ack=self.outcomes[AckOutcome.CORRECT_ACK],
            correct_nack=self.outcomes[AckOutcome.CORRECT_NACK],
            incorrect_ack=self.outcomes[AckOutcome.INCORRECT_ACK],
            incorrect_nack=self.outcomes[AckOutcome.INCORRECT_NACK],
        )


def prr(records: Sequence[TransmissionRecord]) -> float:
    """Packet reception ratio: cloud receptions / packets sent."""
    return ReceptionTally.of(records).prr()


def miss_run_stats(records: Sequence[TransmissionRecord]) -> MissRunStats:
    """Consecutive-miss run lengths over the send sequence."""
    return ReceptionTally.of(records).miss_run_stats()


def ack_table(records: Sequence[TransmissionRecord]) -> AckTable:
    """Classify every confirmed uplink per the paper's four buckets."""
    return ReceptionTally.of(records).ack_table()


@dataclass(frozen=True)
class Hip15Accuracy:
    """§8.2.2: does the 300 m promise predict reception?

    Paper: "Predicting reception when within 300 m of a hotspot is
    accurate 55.5 % of the time, while predicting no reception outside
    of the radius is accurate for 79.6 % of packets."
    """

    packets_inside: int
    packets_outside: int
    inside_received_fraction: float   # accuracy of "covered ⇒ received"
    outside_missed_fraction: float    # accuracy of "uncovered ⇒ missed"


def hip15_accuracy(
    records: Sequence[TransmissionRecord], radius_km: float = 0.3
) -> Hip15Accuracy:
    """Score the 300 m disk model against walk ground truth."""
    if not records:
        raise AnalysisError("no transmission records")
    inside = [
        r for r in records
        if r.nearest_hotspot_km is not None and r.nearest_hotspot_km <= radius_km
    ]
    outside = [
        r for r in records
        if r.nearest_hotspot_km is None or r.nearest_hotspot_km > radius_km
    ]
    inside_received = sum(1 for r in inside if r.delivered_to_cloud)
    outside_missed = sum(1 for r in outside if not r.delivered_to_cloud)
    return Hip15Accuracy(
        packets_inside=len(inside),
        packets_outside=len(outside),
        inside_received_fraction=(
            inside_received / len(inside) if inside else 0.0
        ),
        outside_missed_fraction=(
            outside_missed / len(outside) if outside else 0.0
        ),
    )
