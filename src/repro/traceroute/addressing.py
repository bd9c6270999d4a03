"""IPv4 address plan for the simulated Internet.

Each provider gets a /8 out of a reserved study range; within it, each
(city, router) pair gets a deterministic host address.  The plan is the
inverse oracle for the geolocation database: it knows the truth, the
database adds noise.
"""

from __future__ import annotations

import ipaddress
from typing import Dict, List, Optional, Tuple

#: First /8 assigned; providers get consecutive /8s in registration order.
_BASE_OCTET = 20


class AddressPlan:
    """Deterministic provider/city/router → IPv4 mapping."""

    def __init__(self) -> None:
        self._isp_nets: Dict[str, ipaddress.IPv4Network] = {}
        self._city_index: Dict[str, Dict[str, int]] = {}
        self._reverse: Dict[str, Tuple[str, str]] = {}

    def register_isp(self, isp: str) -> ipaddress.IPv4Network:
        """Assign the next /8 to *isp* (idempotent)."""
        if isp in self._isp_nets:
            return self._isp_nets[isp]
        octet = _BASE_OCTET + len(self._isp_nets)
        if octet > 255:
            raise RuntimeError("address space exhausted")
        network = ipaddress.IPv4Network(f"{octet}.0.0.0/8")
        self._isp_nets[isp] = network
        self._city_index[isp] = {}
        return network

    def isps(self) -> List[str]:
        return sorted(self._isp_nets)

    def address_for(self, isp: str, city_key: str, router: int = 1) -> str:
        """Deterministic interface address for a router in one city."""
        if isp not in self._isp_nets:
            self.register_isp(isp)
        cities = self._city_index[isp]
        if city_key not in cities:
            cities[city_key] = len(cities)
        index = cities[city_key]
        if not 0 <= router <= 255:
            raise ValueError(f"router index out of range: {router}")
        base = int(self._isp_nets[isp].network_address)
        ip = ipaddress.IPv4Address(base + index * 256 + router)
        text = str(ip)
        self._reverse[text] = (isp, city_key)
        return text

    def lookup(self, ip: str) -> Optional[Tuple[str, str]]:
        """Ground-truth (isp, city) for an address issued by this plan."""
        return self._reverse.get(ip)
