"""Synthetic AS universe and per-city ISP markets (§6.1).

The paper runs zannotate over Route Views data to map hotspot IPs to
ASNs, then CAIDA's as2org to name the owning ISP. We generate the whole
pipeline's inputs: an AS universe whose head matches Table 1's shape
(Spectrum, Comcast and Verizon dominating US residential backhaul, a long
tail of 400+ small ASNs), city-level ISP markets (many small cities are
single-ISP — the §6.1 regional-outage risk), NAT behaviour per access
type, and cloud ASNs for the validator look-alikes the paper spotted on
Digital Ocean and Amazon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.digest import sha256
from repro.errors import P2pError
from repro.geo.cities import City

__all__ = ["AccessType", "IspProfile", "BackhaulAssignment", "AsUniverse"]


class AccessType(Enum):
    """Kind of last-mile (or not-last-mile) network."""

    CABLE = "cable"
    DSL = "dsl"
    FIBER = "fiber"
    WIRELESS = "wireless"
    CLOUD = "cloud"


@dataclass(frozen=True, slots=True)
class IspProfile:
    """One ISP/organisation with its ASN and behaviour."""

    name: str
    asn: int
    country: str
    access_type: AccessType
    #: Relative national market weight among the paper-named majors.
    market_weight: float
    #: Probability a subscriber's hotspot sits behind NAT / firewall.
    nat_probability: float
    #: First octet-pair of this ISP's address space (toy prefix).
    prefix: str
    #: Residential-only terms of service (the §9.1 Spectrum risk).
    residential_tos: bool = True
    #: Percent of same-country cities served (territorial footprint);
    #: None falls back to the access-type default.
    footprint_pct: Optional[int] = None


# The paper's Table 1 head, with toy ASNs and plausible access types.
# Market weights are tuned so the simulated Table 1 ranks match.
_MAJOR_ISPS: Tuple[IspProfile, ...] = (
    IspProfile("Spectrum", 11351, "US", AccessType.CABLE, 26.0, 0.62, "24.28", footprint_pct=43),
    IspProfile("Comcast", 7922, "US", AccessType.CABLE, 20.0, 0.60, "24.60", footprint_pct=38),
    IspProfile("Verizon", 701, "US", AccessType.FIBER, 16.5, 0.48, "71.10", footprint_pct=23),
    IspProfile("Cablevision", 6128, "US", AccessType.CABLE, 4.7, 0.58, "24.38", footprint_pct=11),
    IspProfile("AT&T", 7018, "US", AccessType.DSL, 3.5, 0.55, "99.10", footprint_pct=10),
    IspProfile("Virgin Media", 5089, "GB", AccessType.CABLE, 3.5, 0.57, "82.20"),
    IspProfile("Cox", 22773, "US", AccessType.CABLE, 3.3, 0.58, "68.10", footprint_pct=9),
    IspProfile("Level 3", 3356, "US", AccessType.FIBER, 2.1, 0.35, "4.14", False, footprint_pct=6),
    IspProfile("Sky UK", 5607, "GB", AccessType.DSL, 2.1, 0.55, "90.20"),
    IspProfile("Telefonica", 3352, "ES", AccessType.DSL, 2.1, 0.55, "80.30"),
    IspProfile("CenturyLink", 209, "US", AccessType.DSL, 2.0, 0.53, "65.10", footprint_pct=6),
    IspProfile("TELUS", 852, "CA", AccessType.FIBER, 1.9, 0.50, "75.15"),
    IspProfile("RCN", 6079, "US", AccessType.CABLE, 1.6, 0.55, "66.30", footprint_pct=5),
    IspProfile("Frontier", 5650, "US", AccessType.DSL, 1.5, 0.55, "47.32", footprint_pct=5),
    IspProfile("Google Fiber", 16591, "US", AccessType.FIBER, 1.5, 0.40, "136.32", footprint_pct=4),
    # Wireless backhaul exists but is rare ("30 of the 1590 [Verizon]
    # hotspots are backhauled through Verizon wireless").
    IspProfile("Verizon Wireless", 22394, "US", AccessType.WIRELESS, 0.30, 0.85, "174.20"),
    # EU majors beyond Table 1's head.
    IspProfile("Deutsche Telekom", 3320, "DE", AccessType.DSL, 3.0, 0.55, "91.10"),
    IspProfile("Orange", 3215, "FR", AccessType.FIBER, 2.4, 0.52, "92.10"),
    IspProfile("Vodafone", 3209, "DE", AccessType.CABLE, 2.0, 0.56, "95.10"),
    IspProfile("BT", 2856, "GB", AccessType.DSL, 2.0, 0.55, "86.10"),
    IspProfile("KPN", 1136, "NL", AccessType.DSL, 1.0, 0.52, "77.60"),
    IspProfile("Swisscom", 3303, "CH", AccessType.FIBER, 0.8, 0.48, "85.20"),
)

#: Cloud providers hosting validator look-alikes (§6.1).
_CLOUD_ISPS: Tuple[IspProfile, ...] = (
    IspProfile("Digital Ocean", 14061, "US", AccessType.CLOUD, 0.0, 0.0, "157.24", False),
    IspProfile("Amazon", 16509, "US", AccessType.CLOUD, 0.0, 0.0, "35.80", False),
)


class AsUniverse:
    """The synthetic AS topology plus as2org and per-city markets.

    Args:
        rng: stream used to generate the long tail of small regional
            ISPs ("a very long tail of ASNs with just one or two
            hotspots", Figure 9).
        tail_isps: number of small regional ASNs to generate.
    """

    def __init__(self, rng: np.random.Generator, tail_isps: int = 440) -> None:
        if tail_isps < 0:
            raise P2pError("tail_isps must be non-negative")
        self.majors: Tuple[IspProfile, ...] = _MAJOR_ISPS
        self.clouds: Tuple[IspProfile, ...] = _CLOUD_ISPS
        self.tail: List[IspProfile] = self._generate_tail(rng, tail_isps)
        self._by_asn: Dict[int, IspProfile] = {}
        for isp in list(self.majors) + list(self.clouds) + self.tail:
            if isp.asn in self._by_asn:
                raise P2pError(f"duplicate ASN in universe: {isp.asn}")
            self._by_asn[isp.asn] = isp
        self._market_cache: Dict[str, Tuple[List[IspProfile], np.ndarray]] = {}

    @staticmethod
    def _generate_tail(rng: np.random.Generator, count: int) -> List[IspProfile]:
        countries = ["US"] * 6 + ["GB", "DE", "FR", "ES", "IT", "NL", "CA", "AU"]
        access = [AccessType.CABLE, AccessType.DSL, AccessType.FIBER]
        tail = []
        for i in range(count):
            country = countries[int(rng.integers(len(countries)))]
            tail.append(IspProfile(
                name=f"Regional ISP {i + 1}",
                asn=64512 + i,  # private-use range: never collides
                country=country,
                access_type=access[int(rng.integers(len(access)))],
                market_weight=float(min(rng.pareto(1.8) * 0.02 + 0.005, 0.35)),
                nat_probability=float(rng.uniform(0.45, 0.75)),
                prefix=f"{10 + i // 256}.{i % 256}",
                # Regional ISPs are genuinely regional: a few cities each.
                footprint_pct=int(rng.integers(1, 4)),
            ))
        return tail

    # -- as2org / zannotate equivalents -------------------------------------

    def org_for_asn(self, asn: int) -> str:
        """CAIDA-as2org-style lookup: ASN → organisation name."""
        isp = self._by_asn.get(asn)
        if isp is None:
            raise P2pError(f"unknown ASN: {asn}")
        return isp.name

    def asn_for_ip(self, ip: str) -> Optional[int]:
        """zannotate-style lookup: IP → origin ASN via toy prefixes."""
        for isp in self._by_asn.values():
            if ip.startswith(isp.prefix + "."):
                return isp.asn
        return None

    def isp(self, asn: int) -> IspProfile:
        """The :class:`IspProfile` for an ASN."""
        profile = self._by_asn.get(asn)
        if profile is None:
            raise P2pError(f"unknown ASN: {asn}")
        return profile

    # -- city markets --------------------------------------------------------

    def market_for_city(self, city: City) -> Tuple[List[IspProfile], np.ndarray]:
        """The ISPs serving a city and their subscriber weights.

        Deterministic per city (hashed from its name). Last-mile markets
        are *territorial*: each provider serves only a fraction of
        cities (cable monopolies most of all), so even Spectrum —
        nationally #1 — backhauls only ~17 % of US hotspots (§9.1),
        while small towns often depend on a single ASN (§6.1).
        """
        cached = self._market_cache.get(city.name)
        if cached is not None:
            return cached
        national = [
            isp
            for isp in list(self.majors) + self.tail
            if isp.country == city.country
        ]
        if not national:
            national = self.tail[:20] or list(self.majors)
        eligible = [
            isp for isp in national if _serves_city(isp, city)
        ]
        if not eligible:
            # Every inhabited place has *some* regional provider.
            eligible = [max(
                national,
                key=lambda isp: _pair_hash(isp.name, city.name),
            )]
        digest = sha256(
            f"market:{city.name}:{city.country}".encode()
        ).digest()
        # Provider count scales with city size.
        if city.population >= 500_000:
            n_providers = 4 + digest[0] % 3       # 4-6
        elif city.population >= 50_000:
            n_providers = 2 + digest[0] % 3       # 2-4
        else:
            n_providers = 1 + digest[0] % 2       # 1-2
        n_providers = min(n_providers, len(eligible))
        order = sorted(
            range(len(eligible)),
            key=lambda i: -_within_city_weight(eligible[i], digest, i),
        )
        chosen = [eligible[i] for i in order[:n_providers]]
        raw = np.array(
            [_within_city_weight(isp, digest, i) for i, isp in
             enumerate(chosen)],
            dtype=float,
        )
        weights = raw / raw.sum()
        result = (chosen, weights)
        self._market_cache[city.name] = result
        return result


#: Fraction (%) of same-country cities each access type serves.
_FOOTPRINT_PCT = {
    AccessType.CABLE: 32,
    AccessType.DSL: 45,
    AccessType.FIBER: 38,
    AccessType.WIRELESS: 60,
    AccessType.CLOUD: 0,
}


def _pair_hash(a: str, b: str) -> int:
    """Stable 0-99 hash of a provider/city pair."""
    digest = sha256(f"{a}|{b}".encode()).digest()
    return digest[0] % 100


def _serves_city(isp: IspProfile, city: City) -> bool:
    """Whether a provider's territorial footprint includes a city."""
    pct = (
        isp.footprint_pct
        if isp.footprint_pct is not None
        else _FOOTPRINT_PCT[isp.access_type]
    )
    return _pair_hash(isp.name, city.name) < pct


def _city_affinity(digest: bytes, index: int) -> float:
    """Stable pseudo-random affinity of a city for provider ``index``."""
    return 0.25 + (digest[(index + 1) % len(digest)] / 255.0) * 1.5


def _within_city_weight(isp: IspProfile, digest: bytes, index: int) -> float:
    """Subscriber share of a provider inside one city's market.

    Heavily flattened relative to national weight: where territorial
    providers overlap they compete; national rank comes mostly from how
    many cities each serves. Wireless backhaul exists but is a niche
    choice for a stationary hotspot (the paper found 30 of Verizon's
    1,590 on wireless).
    """
    weight = _city_affinity(digest, index) * (0.5 + isp.market_weight ** 0.25)
    if isp.access_type is AccessType.WIRELESS:
        weight *= 0.04
    return weight


@dataclass(frozen=True, slots=True)
class BackhaulAssignment:
    """One hotspot's backhaul: ISP, IP and NAT status."""

    isp: IspProfile
    ip: str
    behind_nat: bool

    @property
    def asn(self) -> int:
        """Origin ASN of the assigned address."""
        return self.isp.asn

    @property
    def has_public_ip(self) -> bool:
        """Directly reachable (publishes an ``/ip4`` listen address)."""
        return not self.behind_nat


def assign_backhaul(
    universe: AsUniverse,
    city: City,
    rng: np.random.Generator,
    cloud: bool = False,
) -> BackhaulAssignment:
    """Draw an ISP from the city market and mint an IP + NAT status.

    Args:
        universe: the AS universe.
        city: deployment city (sets the market).
        rng: random stream.
        cloud: validators get cloud backhaul instead of a city market.
    """
    if cloud:
        isp = universe.clouds[int(rng.integers(len(universe.clouds)))]
    else:
        providers, weights = universe.market_for_city(city)
        isp = providers[int(rng.choice(len(providers), p=weights))]
    ip = f"{isp.prefix}.{int(rng.integers(256))}.{int(rng.integers(1, 255))}"
    behind_nat = bool(rng.random() < isp.nat_probability)
    return BackhaulAssignment(isp=isp, ip=ip, behind_nat=behind_nat)
