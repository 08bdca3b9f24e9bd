"""Synthetic world city database used to place hotspots.

The paper's hotspot population clusters in US metros first (Helium's 2019
US-only launch), then spreads to western Europe and beyond (§4.2). The
growth simulator needs a geography to deploy into: this module provides a
seed list of real anchor metros (including every city the paper names:
Chicago, Stonington, Denver, Los Angeles, San Diego, New York, Brooklyn,
San Francisco, Spokane, Mesa, Palma, Rome, ...) plus a procedural layer of
smaller towns so that city-count statistics (e.g. "3,958 cities with at
least one hotspot", §6.1) have room to emerge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GeoError
from repro.geo.geodesy import LatLon, destination

__all__ = ["City", "CityDatabase", "SEED_CITIES"]


@dataclass(frozen=True, slots=True)
class City:
    """A populated place hotspots can be deployed in.

    ``radius_scale`` supports *density-true* scaled-down simulations: a
    1/10-scale fleet in full-size cities would be 10× sparser than the
    real network, distorting every local radio statistic (witness
    distances, RSSIs, hull sizes). Shrinking each city's footprint by
    √scale keeps local hotspot density equal to the real network's, at
    the cost of metro footprint — which is exactly the regime where
    linearly descaling coverage areas back up is valid.
    """

    name: str
    country: str
    location: LatLon
    population: int
    radius_scale: float = 1.0

    @property
    def is_us(self) -> bool:
        """True for cities in the contiguous United States."""
        return self.country == "US"

    def scatter_radius_km(self) -> float:
        """Approximate urban radius, grown sub-linearly with population."""
        return max(1.5, 0.012 * self.population ** 0.5) * self.radius_scale


# name, country, lat, lon, population — anchor metros. Populations are
# rounded metro-area figures; they only set relative sampling weights.
_SEED_ROWS: Sequence[Tuple[str, str, float, float, int]] = (
    ("New York", "US", 40.7128, -74.0060, 8_400_000),
    ("Brooklyn", "US", 40.6782, -73.9442, 2_600_000),
    ("Los Angeles", "US", 34.0522, -118.2437, 3_900_000),
    ("Chicago", "US", 41.8781, -87.6298, 2_700_000),
    ("Houston", "US", 29.7604, -95.3698, 2_300_000),
    ("Phoenix", "US", 33.4484, -112.0740, 1_600_000),
    ("Mesa", "US", 33.4152, -111.8315, 500_000),
    ("Philadelphia", "US", 39.9526, -75.1652, 1_580_000),
    ("San Antonio", "US", 29.4241, -98.4936, 1_530_000),
    ("San Diego", "US", 32.7157, -117.1611, 1_420_000),
    ("Dallas", "US", 32.7767, -96.7970, 1_340_000),
    ("San Jose", "US", 37.3382, -121.8863, 1_030_000),
    ("Austin", "US", 30.2672, -97.7431, 960_000),
    ("Jacksonville", "US", 30.3322, -81.6557, 900_000),
    ("Columbus", "US", 39.9612, -82.9988, 890_000),
    ("Fort Worth", "US", 32.7555, -97.3308, 890_000),
    ("Charlotte", "US", 35.2271, -80.8431, 870_000),
    ("San Francisco", "US", 37.7749, -122.4194, 880_000),
    ("Indianapolis", "US", 39.7684, -86.1581, 870_000),
    ("Seattle", "US", 47.6062, -122.3321, 740_000),
    ("Denver", "US", 39.7392, -104.9903, 720_000),
    ("Washington", "US", 38.9072, -77.0369, 700_000),
    ("Boston", "US", 42.3601, -71.0589, 690_000),
    ("Nashville", "US", 36.1627, -86.7816, 690_000),
    ("Detroit", "US", 42.3314, -83.0458, 670_000),
    ("Portland", "US", 45.5051, -122.6750, 650_000),
    ("Las Vegas", "US", 36.1699, -115.1398, 640_000),
    ("Memphis", "US", 35.1495, -90.0490, 650_000),
    ("Louisville", "US", 38.2527, -85.7585, 620_000),
    ("Baltimore", "US", 39.2904, -76.6122, 590_000),
    ("Milwaukee", "US", 43.0389, -87.9065, 590_000),
    ("Albuquerque", "US", 35.0844, -106.6504, 560_000),
    ("Tucson", "US", 32.2226, -110.9747, 550_000),
    ("Fresno", "US", 36.7378, -119.7871, 540_000),
    ("Sacramento", "US", 38.5816, -121.4944, 510_000),
    ("Kansas City", "US", 39.0997, -94.5786, 510_000),
    ("Atlanta", "US", 33.7490, -84.3880, 500_000),
    ("Miami", "US", 25.7617, -80.1918, 470_000),
    ("Tampa", "US", 27.9506, -82.4572, 400_000),
    ("Oakland", "US", 37.8044, -122.2712, 430_000),
    ("Minneapolis", "US", 44.9778, -93.2650, 430_000),
    ("Cleveland", "US", 41.4993, -81.6944, 380_000),
    ("New Orleans", "US", 29.9511, -90.0715, 390_000),
    ("Raleigh", "US", 35.7796, -78.6382, 470_000),
    ("Salt Lake City", "US", 40.7608, -111.8910, 200_000),
    ("Pittsburgh", "US", 40.4406, -79.9959, 300_000),
    ("Cincinnati", "US", 39.1031, -84.5120, 310_000),
    ("St. Louis", "US", 38.6270, -90.1994, 300_000),
    ("Orlando", "US", 28.5383, -81.3792, 310_000),
    ("Spokane", "US", 47.6588, -117.4260, 230_000),
    ("Buffalo", "US", 42.8864, -78.8784, 260_000),
    ("Richmond", "US", 37.5407, -77.4360, 230_000),
    ("Boise", "US", 43.6150, -116.2023, 240_000),
    ("Des Moines", "US", 41.5868, -93.6250, 215_000),
    ("Stonington", "US", 41.3359, -71.9056, 19_000),
    ("Hartford", "US", 41.7658, -72.6734, 120_000),
    ("Providence", "US", 41.8240, -71.4128, 190_000),
    ("Omaha", "US", 41.2565, -95.9345, 480_000),
    ("Oklahoma City", "US", 35.4676, -97.5164, 680_000),
    ("El Paso", "US", 31.7619, -106.4850, 680_000),
    ("Colorado Springs", "US", 38.8339, -104.8214, 480_000),
    ("Chula Vista", "US", 32.6401, -117.0842, 275_000),
    ("San Marcos", "US", 33.1434, -117.1661, 95_000),
    # Western Europe — the second wave (§4.2, §4.3).
    ("London", "GB", 51.5074, -0.1278, 8_900_000),
    ("Manchester", "GB", 53.4808, -2.2426, 550_000),
    ("Birmingham", "GB", 52.4862, -1.8904, 1_140_000),
    ("Bristol", "GB", 51.4545, -2.5879, 460_000),
    ("Berlin", "DE", 52.5200, 13.4050, 3_600_000),
    ("Munich", "DE", 48.1351, 11.5820, 1_470_000),
    ("Hamburg", "DE", 53.5511, 9.9937, 1_840_000),
    ("Frankfurt", "DE", 50.1109, 8.6821, 750_000),
    ("Paris", "FR", 48.8566, 2.3522, 2_160_000),
    ("Lyon", "FR", 45.7640, 4.8357, 510_000),
    ("Marseille", "FR", 43.2965, 5.3698, 860_000),
    ("Madrid", "ES", 40.4168, -3.7038, 3_200_000),
    ("Barcelona", "ES", 41.3851, 2.1734, 1_620_000),
    ("Palma", "ES", 39.5696, 2.6502, 410_000),
    ("Valencia", "ES", 39.4699, -0.3763, 790_000),
    ("Rome", "IT", 41.9028, 12.4964, 2_870_000),
    ("Milan", "IT", 45.4642, 9.1900, 1_350_000),
    ("Turin", "IT", 45.0703, 7.6869, 870_000),
    ("Amsterdam", "NL", 52.3676, 4.9041, 870_000),
    ("Rotterdam", "NL", 51.9244, 4.4777, 650_000),
    ("Brussels", "BE", 50.8503, 4.3517, 1_200_000),
    ("Antwerp", "BE", 51.2194, 4.4025, 520_000),
    ("Zurich", "CH", 47.3769, 8.5417, 430_000),
    ("Vienna", "AT", 48.2082, 16.3738, 1_900_000),
    ("Lisbon", "PT", 38.7223, -9.1393, 500_000),
    ("Dublin", "IE", 53.3498, -6.2603, 550_000),
    ("Stockholm", "SE", 59.3293, 18.0686, 980_000),
    ("Copenhagen", "DK", 55.6761, 12.5683, 630_000),
    ("Oslo", "NO", 59.9139, 10.7522, 700_000),
    ("Helsinki", "FI", 60.1699, 24.9384, 650_000),
    ("Warsaw", "PL", 52.2297, 21.0122, 1_790_000),
    ("Prague", "CZ", 50.0755, 14.4378, 1_300_000),
    ("Athens", "GR", 37.9838, 23.7275, 660_000),
    # Rest of world (small but present in the long tail).
    ("Toronto", "CA", 43.6532, -79.3832, 2_930_000),
    ("Vancouver", "CA", 49.2827, -123.1207, 680_000),
    ("Montreal", "CA", 45.5017, -73.5673, 1_780_000),
    ("Calgary", "CA", 51.0447, -114.0719, 1_300_000),
    ("Sydney", "AU", -33.8688, 151.2093, 5_300_000),
    ("Melbourne", "AU", -37.8136, 144.9631, 5_000_000),
    ("Auckland", "NZ", -36.8509, 174.7645, 1_650_000),
    ("Shenzhen", "CN", 22.5431, 114.0579, 12_500_000),
    ("Seoul", "KR", 37.5665, 126.9780, 9_700_000),
    ("Tokyo", "JP", 35.6762, 139.6503, 13_900_000),
    ("Singapore", "SG", 1.3521, 103.8198, 5_700_000),
    ("Sao Paulo", "BR", -23.5505, -46.6333, 12_300_000),
    ("Buenos Aires", "AR", -34.6037, -58.3816, 3_000_000),
    ("Mexico City", "MX", 19.4326, -99.1332, 9_200_000),
    ("Dubai", "AE", 25.2048, 55.2708, 3_300_000),
    ("Istanbul", "TR", 41.0082, 28.9784, 15_400_000),
)

SEED_CITIES: Tuple[City, ...] = tuple(
    City(name, country, LatLon(lat, lon), population)
    for name, country, lat, lon, population in _SEED_ROWS
)

#: Countries whose procedural towns are considered "Europe" by analyses.
EU_COUNTRIES = frozenset(
    {"GB", "DE", "FR", "ES", "IT", "NL", "BE", "CH", "AT", "PT", "IE",
     "SE", "DK", "NO", "FI", "PL", "CZ", "GR"}
)


class CityDatabase:
    """Seed metros plus procedurally generated satellite towns.

    Procedural towns are scattered around their anchor metro with a
    heavy-tailed population, giving each country a realistic settlement
    hierarchy without shipping a gazetteer.

    Args:
        rng: generator for the procedural layer (pass a dedicated stream).
        towns_per_metro: satellite towns generated around each seed metro.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        towns_per_metro: int = 28,
        radius_scale: float = 1.0,
    ) -> None:
        if towns_per_metro < 0:
            raise GeoError("towns_per_metro must be non-negative")
        if radius_scale <= 0:
            raise GeoError(f"radius_scale must be positive, got {radius_scale}")
        self.radius_scale = radius_scale
        if radius_scale == 1.0:
            self._cities: List[City] = list(SEED_CITIES)
        else:
            from dataclasses import replace

            self._cities = [
                replace(city, radius_scale=radius_scale) for city in SEED_CITIES
            ]
        self._generate_towns(rng, towns_per_metro)
        self._by_country: Dict[str, List[City]] = {}
        for city in self._cities:
            self._by_country.setdefault(city.country, []).append(city)
        self._weights_cache: Dict[Optional[str], np.ndarray] = {}
        self._pool_cache: Dict[Optional[str], List[City]] = {}

    def _generate_towns(self, rng: np.random.Generator, per_metro: int) -> None:
        for metro in SEED_CITIES:
            for i in range(per_metro):
                bearing = float(rng.uniform(0.0, 360.0))
                # Towns within ~15–150 km of the anchor metro.
                distance = float(rng.uniform(15.0, 150.0))
                population = int(2_000 * float(rng.pareto(1.3) + 1.0))
                population = min(population, metro.population // 3)
                location = destination(metro.location, bearing, distance)
                if not (-60.0 <= location.lat <= 72.0):
                    continue
                self._cities.append(
                    City(
                        name=f"{metro.name} Town {i + 1}",
                        country=metro.country,
                        location=location,
                        population=max(population, 500),
                        radius_scale=self.radius_scale,
                    )
                )

    # -- queries -----------------------------------------------------------

    @property
    def cities(self) -> List[City]:
        """All cities (seed metros plus procedural towns)."""
        return list(self._cities)

    def countries(self) -> List[str]:
        """Country codes present in the database."""
        return sorted(self._by_country)

    def in_country(self, country: str) -> List[City]:
        """Cities in ``country`` (empty list when unknown)."""
        return list(self._by_country.get(country, []))

    def us_cities(self) -> List[City]:
        """Cities in the contiguous US."""
        return self.in_country("US")

    def _pool(self, country: Optional[str]) -> List[City]:
        pool = self._pool_cache.get(country)
        if pool is None:
            pool = (
                self._cities if country is None else self.in_country(country)
            )
            self._pool_cache[country] = pool
        return pool

    def sample_city(
        self,
        rng: np.random.Generator,
        country: Optional[str] = None,
        exclude_us: bool = False,
    ) -> City:
        """Draw a city weighted by population.

        Args:
            rng: random stream for the draw.
            country: restrict to one country (overrides ``exclude_us``).
            exclude_us: restrict to non-US cities (the post-2020
                international expansion draws from this pool).
        """
        key = country if country is not None else ("non-US" if exclude_us else None)
        pool = self._pool_cache.get(key)
        if pool is None:
            if country is not None:
                pool = self.in_country(country)
            elif exclude_us:
                pool = [c for c in self._cities if not c.is_us]
            else:
                pool = self._cities
            self._pool_cache[key] = pool
        if not pool:
            raise GeoError(f"no cities available for selection key {key!r}")
        weights = self._weights_cache.get(key)
        if weights is None:
            # Sub-linear population weighting: hotspot enthusiasts are
            # everywhere, so small towns get more than their per-capita
            # share (matches the paper's 3,958 hotspot cities with only
            # 40 % single-ASN — a flatter spread than population).
            raw = np.array([c.population for c in pool], dtype=float) ** 0.7
            weights = raw / raw.sum()
            self._weights_cache[key] = weights
        index = int(rng.choice(len(pool), p=weights))
        return pool[index]

    def sample_location_in_city(
        self, rng: np.random.Generator, city: City
    ) -> LatLon:
        """Draw a deployment site within ``city``'s urban radius.

        Radial Gaussian scatter concentrates hotspots downtown with a
        realistic suburban tail.
        """
        radius = abs(float(rng.normal(0.0, city.scatter_radius_km() / 2.0)))
        radius = min(radius, 3.0 * city.scatter_radius_km())
        bearing = float(rng.uniform(0.0, 360.0))
        return destination(city.location, bearing, radius)
