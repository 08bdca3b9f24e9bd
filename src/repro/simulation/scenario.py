"""Scenario configuration: every knob of the generative model.

The default (``ScenarioConfig()``, the registry's ``paper`` scenario)
is a 1/10-scale replica of the network the paper measured (≈ 4,400 hotspots by late May 2021 instead of
44,000) with Proof-of-Coverage thinned relative to the real chain's
~3 challenges/hotspot/day. Both scale factors are recorded here so the
analyses can report descaled figures next to raw ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SimulationError

__all__ = [
    "ScenarioConfig",
    "validate_config",
]

#: Days from genesis (2019-07-29) to the paper's snapshot (late May 2021).
PAPER_STUDY_DAYS: int = 667

#: Day index of the March 7, 2021 mid-study snapshot the paper quotes.
MARCH_7_2021_DAY: int = 587

#: Day index when DC payments went live (Aug 12, 2020; §5.3.2).
DC_PAYMENTS_LIVE_DAY: int = 380

#: Day index when HIP 10 stopped the arbitrage (Aug 24, 2020).
HIP10_DAY: int = 392

#: Day the spam traffic finally fell off (Sep 6, 2020).
SPAM_DECAY_END_DAY: int = 405

#: Day hotspot sales opened outside the US (summer 2020, §4.2).
INTERNATIONAL_LAUNCH_DAY: int = 340

#: Day the resale market (transfer_hotspot) got going (Dec 2020, Fig 7c).
RESALE_START_DAY: int = 490


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterisation of one simulated Helium history."""

    seed: int = 2021
    #: Simulated days from genesis.
    n_days: int = PAPER_STUDY_DAYS
    #: Target fleet size at the end of the run.
    target_hotspots: int = 4400
    #: Real network size the target represents (sets the scale factor).
    real_network_size: int = 44_000

    # -- timeline milestones (day indices from genesis) ------------------------
    dc_payments_live_day: int = DC_PAYMENTS_LIVE_DAY
    hip10_day: int = HIP10_DAY
    spam_decay_end_day: int = SPAM_DECAY_END_DAY
    international_launch_day: int = INTERNATIONAL_LAUNCH_DAY
    resale_start_day: int = RESALE_START_DAY
    march_snapshot_day: int = MARCH_7_2021_DAY

    # -- adoption (§4.2) -----------------------------------------------------
    #: Fraction of ever-connected hotspots still online at any time
    #: (paper: 34k online of 44k connected ≈ 0.78).
    online_fraction: float = 0.78
    #: Production batch cadence in days and relative batch growth.
    batch_interval_days: int = 30
    batch_growth: float = 1.33
    #: Fraction of new hotspots placed outside the US after the
    #: international launch ramp completes.
    international_share_final: float = 0.52

    # -- ownership (§4.3) ------------------------------------------------------
    #: Probability a new hotspot creates a brand-new owner. Calibrated
    #: with attachment_alpha/organic_owner_cap so the §4.3 ownership
    #: marginals emerge (62 % own one, 10 % own ≥5, whale at top).
    new_owner_probability: float = 0.42
    #: Preferential-attachment exponent for repeat buyers.
    attachment_alpha: float = 1.0
    #: Ceiling on organic repeat-buyer fleet size.
    organic_owner_cap: int = 60
    #: Whale owner (the 1,903-hotspot wallet): share of late supply.
    whale_share_of_late_supply: float = 0.10
    whale_start_day: int = 560
    #: Mining-pool archetypes: (city, fleet size) pairs, paper §4.3.2.
    mining_pools: Tuple[Tuple[str, int], ...] = (("Denver", 14), ("Denver", 14))
    #: Commercial archetypes: (city, fleet size), paper §4.3.1.
    commercial_fleets: Tuple[Tuple[str, int], ...] = (
        ("Chicago", 3),      # Careband-like (25 at full scale)
        ("Stonington", 6),   # nowi-like (61 across 19 owners at full scale)
    )

    # -- moves (§4.1) -------------------------------------------------------------
    #: Fraction of hotspots planned to never move after the initial
    #: assert. Set below the paper's measured 71.9 % because movers
    #: whose first gap falls past the study window end up *measured* as
    #: never-movers.
    never_move_fraction: float = 0.66
    #: Of movers, geometric tail; P(another move | moved k times).
    #: Set above the steady-state Fig. 2 value (q≈0.67 would give
    #: P(≤2|mover)=0.55, P(>5|mover)=0.16) because the study window
    #: right-censors late adopters' move careers.
    extra_move_probability: float = 0.74
    #: One pathological frequent mover (the 20-move outlier).
    frequent_mover_moves: int = 20
    #: Probability an initial assert lands at (0, 0) (GPS-fix failure).
    null_island_initial_probability: float = 0.0085
    #: Probability a *re*assert lands at (0, 0). Calibrated so ~11 % of
    #: (0,0) asserts are relocations (paper: 41 of 372).
    null_island_move_probability: float = 0.0022
    #: Fraction of moves that are long-distance (> 500 km).
    long_move_fraction: float = 0.135
    #: Of long moves, fraction leaving the US (the resale export flow).
    long_move_us_export_fraction: float = 0.62

    # -- resale (§4.3.3) --------------------------------------------------------------
    #: Fraction of the fleet ever transferred on-chain.
    resale_fraction: float = 0.086
    #: Fraction of transfers carrying 0 DC (off-chain settlement).
    zero_dc_transfer_fraction: float = 0.958
    #: Of transferred hotspots, chance of a further transfer.
    repeat_transfer_probability: float = 0.30

    # -- PoC (§2.3, §7) ------------------------------------------------------------------
    #: Challenges per online hotspot per day actually *simulated*. The
    #: real chain runs ≈ 3; the analyses descale by poc_thinning_factor.
    challenges_per_hotspot_day: float = 0.05
    #: Candidate witnesses evaluated per challenge (random subsample cap).
    max_witness_candidates: int = 25
    #: Fraction of hotspots that are silent movers (§7.1).
    silent_mover_fraction: float = 0.004
    #: Fraction of hotspots that forge RSSI (§7.2).
    rssi_liar_fraction: float = 0.010
    #: Gossip cliques: (members, home city) tuples.
    gossip_cliques: Tuple[Tuple[int, str], ...] = ((5, "Miami"), (4, "Las Vegas"))
    #: Fraction of hotspots with high-gain elevated antennas (long links).
    high_gain_fraction: float = 0.012

    # -- traffic (§5) ---------------------------------------------------------------------
    #: Aggregate user traffic at the end of the run, packets/second
    #: (paper: "approaching 14 packets/second across the whole network").
    final_packets_per_second: float = 14.0
    #: Console's share of state-channel transactions (paper: 81.18 %).
    console_channel_share: float = 0.8118
    #: Console channel close cadence in blocks (paper: ~120).
    console_close_blocks: int = 120
    #: Arbitrage spam peak multiplier over contemporary organic traffic.
    arbitrage_peak_multiplier: float = 60.0
    #: Number of third-party OUIs (paper: ten total incl. OUI 1/2).
    third_party_ouis: int = 8

    # -- backhaul / p2p (§6) -----------------------------------------------------------------
    #: Long-tail regional ISPs to generate.
    tail_isps: int = 440
    #: Fraction of hotspots that are actually cloud-hosted validators.
    validator_fraction: float = 0.004

    def __post_init__(self) -> None:
        validate_config(self)

    @property
    def scale_factor(self) -> float:
        """Fleet scale relative to the real May-2021 network."""
        return self.target_hotspots / self.real_network_size

    @property
    def poc_thinning_factor(self) -> float:
        """How much rarer simulated challenges are than real ones (≈3/day)."""
        return 3.0 / self.challenges_per_hotspot_day


#: Fields constrained to [0, 1] (probabilities and shares), checked in
#: strict validation — the one validated spec-load path.
_FRACTION_FIELDS = (
    "online_fraction",
    "international_share_final",
    "new_owner_probability",
    "whale_share_of_late_supply",
    "never_move_fraction",
    "extra_move_probability",
    "null_island_initial_probability",
    "null_island_move_probability",
    "long_move_fraction",
    "long_move_us_export_fraction",
    "resale_fraction",
    "zero_dc_transfer_fraction",
    "repeat_transfer_probability",
    "silent_mover_fraction",
    "rssi_liar_fraction",
    "high_gain_fraction",
    "console_channel_share",
    "validator_fraction",
)

#: Timeline milestones that must land inside the run (strict mode).
_MILESTONE_FIELDS = (
    "dc_payments_live_day",
    "hip10_day",
    "spam_decay_end_day",
    "international_launch_day",
    "resale_start_day",
    "march_snapshot_day",
    "whale_start_day",
)

#: (field, minimum) pairs that must be strictly positive / at least 1.
_POSITIVE_FIELDS = (
    ("real_network_size", 1),
    ("batch_interval_days", 1),
    ("max_witness_candidates", 1),
    ("console_close_blocks", 1),
)

#: Fields that only need to be non-negative.
_NON_NEGATIVE_FIELDS = (
    "seed",
    "attachment_alpha",
    "organic_owner_cap",
    "frequent_mover_moves",
    "final_packets_per_second",
    "arbitrage_peak_multiplier",
    "third_party_ouis",
    "tail_isps",
)


def validate_config(config: "ScenarioConfig", *, strict: bool = False) -> None:
    """Check a scenario's constraints, raising :class:`SimulationError`.

    The non-strict form runs on every construction (``__post_init__``)
    and keeps only the historical cheap checks, so tests and benches
    may still ``dataclasses.replace`` a scenario into unusual corners
    (e.g. capping ``n_days`` below a milestone for a day-capped run).

    ``strict=True`` is the *load-path* contract used by
    :mod:`repro.scenarios` on every spec resolution: every fraction in
    [0, 1], rates and sizes positive, and milestone days ordered and
    inside ``[0, n_days]`` — with the offending field named, so a bad
    knob fails at load time instead of deep inside the engine.
    """
    if config.n_days < 30:
        raise SimulationError("n_days: scenario needs at least 30 days")
    if config.target_hotspots < 50:
        raise SimulationError(
            "target_hotspots: scenario needs at least 50 hotspots"
        )
    if not (0.0 < config.online_fraction <= 1.0):
        raise SimulationError("online_fraction must be in (0, 1]")
    if not (0.0 <= config.never_move_fraction <= 1.0):
        raise SimulationError("never_move_fraction must be in [0, 1]")
    if not strict:
        return
    for name in _FRACTION_FIELDS:
        value = getattr(config, name)
        if not (0.0 <= value <= 1.0):
            raise SimulationError(
                f"{name} must be in [0, 1], got {value!r}"
            )
    if config.challenges_per_hotspot_day <= 0.0:
        raise SimulationError(
            "challenges_per_hotspot_day must be positive, got "
            f"{config.challenges_per_hotspot_day!r}"
        )
    if config.batch_growth <= 0.0:
        raise SimulationError(
            f"batch_growth must be positive, got {config.batch_growth!r}"
        )
    for name, minimum in _POSITIVE_FIELDS:
        value = getattr(config, name)
        if value < minimum:
            raise SimulationError(
                f"{name} must be at least {minimum}, got {value!r}"
            )
    for name in _NON_NEGATIVE_FIELDS:
        value = getattr(config, name)
        if value < 0:
            raise SimulationError(
                f"{name} must be non-negative, got {value!r}"
            )
    for name in _MILESTONE_FIELDS:
        day = getattr(config, name)
        if not (0 <= day <= config.n_days):
            raise SimulationError(
                f"{name} must fall inside the run (0..{config.n_days} "
                f"days), got {day!r}"
            )
    if not (
        config.dc_payments_live_day
        <= config.hip10_day
        <= config.spam_decay_end_day
    ):
        raise SimulationError(
            "milestone days out of order: need dc_payments_live_day <= "
            f"hip10_day <= spam_decay_end_day, got "
            f"{config.dc_payments_live_day} / {config.hip10_day} / "
            f"{config.spam_decay_end_day}"
        )
    for name in ("mining_pools", "commercial_fleets"):
        for city, size in getattr(config, name):
            if size < 1:
                raise SimulationError(
                    f"{name} fleet size for {city!r} must be at least 1, "
                    f"got {size!r}"
                )
    for members, city in config.gossip_cliques:
        if members < 1:
            raise SimulationError(
                f"gossip_cliques members for {city!r} must be at least "
                f"1, got {members!r}"
            )
