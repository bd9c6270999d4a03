"""IP geolocation and DNS naming-hint decoding.

The paper resolves traceroute hops to places "by using geolocation
information and naming hints in the traceroute data [78, 92]".  Naming
hints (airport/city codes embedded in router names) are authoritative
when present; the geolocation database is right most of the time but
occasionally snaps to a nearby city or fails — the standard error modes
of commercial IP geolocation.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Optional

import numpy as np

from repro.data.cities import CITIES, City, city_by_code, city_table
from repro.fibermap.synthesis import _stable_unit
from repro.traceroute.rngv2 import (
    RNG_CONTRACT_V1,
    SUPPORTED_RNG_CONTRACTS,
    default_rng_contract,
    geo_unit_draws,
)
from repro.traceroute.topology import InternetTopology

#: Probability the database returns the correct city.
DEFAULT_ACCURACY = 0.85
#: Probability it returns a nearby (wrong) city; the remainder is "unknown".
DEFAULT_NEAR_MISS = 0.10
#: A near miss names a city closer than this to the true one.
NEAR_MISS_RADIUS_KM = 150.0

_HINT_RE = re.compile(r"^ae-\d+\.cr\d+\.([a-z0-9]+)\.")


def decode_naming_hint(dns_name: str) -> Optional[str]:
    """City key encoded in a router DNS name, if any.

    Implements the DRoP-style decoding of [92]: the third label of
    ``ae-1.cr1.<code>.<provider>.net`` is a city code.
    """
    match = _HINT_RE.match(dns_name)
    if not match:
        return None
    code = match.group(1)
    try:
        return city_by_code(code).key
    except KeyError:
        return None


def near_miss_pool(city_key: str) -> List[City]:
    """The base cities other than *city_key* within
    :data:`NEAR_MISS_RADIUS_KM` of it, sorted by key: the candidates of
    a near-miss answer, read off the city's row of the compiled table."""
    # CITIES hold the table's leading rows, in dataset order.
    row = city_table().row(city_key)[:len(CITIES)]
    pool = (CITIES[i] for i in np.flatnonzero(row < NEAR_MISS_RADIUS_KM))
    return sorted((c for c in pool if c.key != city_key), key=lambda c: c.key)


class GeolocationDatabase:
    """A noisy commercial-style IP geolocation database.

    Built once against a topology's address plan; per-IP results are
    deterministic (the same IP always geolocates to the same answer).

    Near-miss city picks follow the configured RNG contract: under v1
    (the historical behavior) a single sequential ``random.Random(seed)``
    feeds ``choice``; under v2 the build consumes the GEO stream of the
    counter-based contract (:func:`repro.traceroute.rngv2.geo_unit_draws`)
    — every router owns the slot-0 uniform of its enumeration index
    (sorted providers, each provider's sorted routers), so each answer
    is independent of every other router's error mode.
    """

    def __init__(
        self,
        topology: InternetTopology,
        accuracy: float = DEFAULT_ACCURACY,
        near_miss: float = DEFAULT_NEAR_MISS,
        seed: int = 57,
        rng_contract: Optional[int] = None,
    ):
        if accuracy + near_miss > 1.0:
            raise ValueError("accuracy + near_miss must be <= 1")
        if rng_contract is None:
            rng_contract = default_rng_contract()
        if rng_contract not in SUPPORTED_RNG_CONTRACTS:
            raise ValueError(
                f"rng_contract must be one of {SUPPORTED_RNG_CONTRACTS}, "
                f"got {rng_contract!r}"
            )
        self.rng_contract = rng_contract
        self._entries: Dict[str, Optional[str]] = {}
        routers = [
            router
            for isp in topology.providers()
            for router in topology.routers_of(isp)
        ]
        if rng_contract == RNG_CONTRACT_V1:
            rng = random.Random(seed)
            pick = lambda pool, index: rng.choice(pool)  # noqa: E731
        else:
            draws = geo_unit_draws(seed, len(routers))
            pick = lambda pool, index: pool[  # noqa: E731
                int(draws[index] * len(pool))
            ]
        for index, router in enumerate(routers):
            u = _stable_unit(f"geo|{router.ip}|{seed}")
            if u < accuracy:
                answer: Optional[str] = router.city_key
            elif u < accuracy + near_miss:
                pool = near_miss_pool(router.city_key)
                if pool:
                    answer = pick(pool, index).key
                else:
                    answer = router.city_key
            else:
                answer = None
            self._entries[router.ip] = answer

    def locate(self, ip: str) -> Optional[str]:
        """City key for *ip*, or ``None`` when the database has no answer."""
        return self._entries.get(ip)

    def __len__(self) -> int:
        return len(self._entries)


def resolve_hop_city(
    dns_name: str, ip: str, database: GeolocationDatabase
) -> Optional[str]:
    """Best-effort hop location: naming hint first, then geolocation."""
    hint = decode_naming_hint(dns_name)
    if hint is not None:
        return hint
    return database.locate(ip)
