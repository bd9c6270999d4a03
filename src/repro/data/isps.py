"""The 20 service providers of the paper's study.

§2 builds the initial map from 9 providers with explicitly geocoded maps
(step 1, Table 1) and augments it with 11 providers whose published maps
only give POP-level connectivity (step 3).  Footprint sizes below are
taken from Table 1 where the paper states them and set to plausible
values (calibrated so step-3 links total 1153, as the paper reports)
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Footprint styles: where an ISP concentrates its POPs.
STYLE_NATIONAL = "national"
STYLE_SOUTH = "south"
STYLE_SOUTH_CENTRAL = "south_central"
STYLE_NORTHWEST = "northwest"
STYLE_EAST = "east"
STYLE_WEST = "west"
STYLES = (STYLE_NATIONAL, STYLE_SOUTH, STYLE_SOUTH_CENTRAL, STYLE_NORTHWEST,
          STYLE_EAST, STYLE_WEST)

#: States grouped per style (used by footprint synthesis to bias sampling).
STYLE_STATES: Dict[str, Tuple[str, ...]] = {
    STYLE_SOUTH: ("TX", "LA", "AR", "OK", "MS", "AL", "GA", "FL", "TN", "NM", "AZ", "WV", "NC", "SC", "MO", "KS"),
    STYLE_SOUTH_CENTRAL: ("TX", "LA", "AR", "OK", "MO", "KS", "MS"),
    STYLE_NORTHWEST: ("WA", "OR", "ID", "MT", "UT", "CO", "MN", "ND", "CA", "NV", "WY"),
    STYLE_EAST: ("NY", "NJ", "PA", "MA", "CT", "RI", "MD", "DC", "VA", "DE", "NH", "ME", "VT", "OH", "MI", "IL", "IN", "WI", "NC", "GA", "FL"),
    STYLE_WEST: ("CA", "NV", "AZ", "OR", "WA", "UT", "CO", "TX", "NM", "ID"),
}


@dataclass(frozen=True)
class ISPProfile:
    """Identity and calibration targets for one provider.

    ``target_nodes`` / ``target_links`` reproduce the paper's Table 1 for
    step-1 ISPs; step-3 values are calibrated so the step-3 ISPs together
    contribute 1153 links (§2.3, "196 nodes, 1153 links, and 347 conduits
    without considering the 9 ISPs above").
    """

    name: str
    tier: str  # "tier1" | "cable" | "regional"
    step: int  # 1 = geocoded published map; 3 = POP-only published map
    target_nodes: int
    target_links: int
    style: str = STYLE_NATIONAL
    #: How strongly POP selection favors large metros.  Non-US providers
    #: that "use policies like dig once ... to expand their presence in
    #: the US" (§4.2) sit almost exclusively in major hubs (high bias);
    #: broad domestic networks like EarthLink and Level 3 reach many small
    #: markets (low bias).
    hub_bias: float = 1.0
    #: Facilities-based builders trench their own conduits where that is
    #: cheapest for them (cable MSOs, Level 3, EarthLink); lessees expand
    #: by pulling fiber through existing conduits via IRUs and dark-fiber
    #: leases (§4.2: Deutsche Telekom, NTT, XO "use policies like dig
    #: once and open trench, and/or lease dark fibers").
    builder: bool = False

    def __post_init__(self) -> None:
        if self.step not in (1, 3):
            raise ValueError(f"step must be 1 or 3: {self.step}")
        if self.tier not in ("tier1", "cable", "regional"):
            raise ValueError(f"unknown tier: {self.tier}")
        if self.style not in STYLES:
            raise ValueError(f"unknown style: {self.style}")

    @property
    def geocoded(self) -> bool:
        """True when the provider publishes explicit link geography (step 1)."""
        return self.step == 1


def _isp(name: str, tier: str, step: int, nodes: int, links: int,
         style: str = STYLE_NATIONAL, hub_bias: float = 1.0,
         builder: bool = False) -> ISPProfile:
    return ISPProfile(name=name, tier=tier, step=step, target_nodes=nodes,
                      target_links=links, style=style, hub_bias=hub_bias,
                      builder=builder)


#: Step-1 providers, node/link targets straight from Table 1.
STEP1_ISPS: Tuple[ISPProfile, ...] = (
    _isp("AT&T", "tier1", 1, 25, 57, hub_bias=2.0),
    _isp("Comcast", "cable", 1, 26, 71, hub_bias=1.0, builder=True),
    _isp("Cogent", "tier1", 1, 69, 84, hub_bias=1.6),
    _isp("EarthLink", "regional", 1, 248, 370, hub_bias=0.5, builder=True),
    _isp("Integra", "regional", 1, 27, 36, STYLE_NORTHWEST, hub_bias=1.2, builder=True),
    _isp("Level 3", "tier1", 1, 240, 336, hub_bias=0.5, builder=True),
    _isp("Suddenlink", "cable", 1, 39, 42, STYLE_SOUTH_CENTRAL, hub_bias=0.4, builder=True),
    _isp("Verizon", "tier1", 1, 116, 151, hub_bias=1.2, builder=True),
    _isp("Zayo", "regional", 1, 98, 111, hub_bias=1.6),
)

#: Step-3 providers (POP-only published maps).
STEP3_ISPS: Tuple[ISPProfile, ...] = (
    _isp("CenturyLink", "tier1", 3, 96, 134, hub_bias=1.0, builder=True),
    _isp("Sprint", "tier1", 3, 73, 102, hub_bias=1.2, builder=True),
    _isp("Cox", "cable", 3, 80, 110, STYLE_SOUTH, hub_bias=0.8, builder=True),
    _isp("Deutsche Telekom", "tier1", 3, 58, 79, hub_bias=3.0),
    _isp("HE", "tier1", 3, 66, 90, STYLE_WEST, hub_bias=1.8),
    _isp("Inteliquent", "tier1", 3, 64, 90, hub_bias=2.0),
    _isp("NTT", "tier1", 3, 70, 95, hub_bias=3.0),
    _isp("Tata", "tier1", 3, 50, 65, hub_bias=2.6),
    _isp("TeliaSonera", "tier1", 3, 60, 80, STYLE_EAST, hub_bias=2.4),
    _isp("TWC", "cable", 3, 112, 158, STYLE_EAST, hub_bias=0.8, builder=True),
    _isp("XO", "tier1", 3, 105, 150, hub_bias=3.0),
)

#: All 20 providers, step-1 first.
ISPS: Tuple[ISPProfile, ...] = STEP1_ISPS + STEP3_ISPS

if len({p.name for p in ISPS}) != len(ISPS):
    raise RuntimeError("duplicate ISP names")

_total_step3_links = sum(p.target_links for p in STEP3_ISPS)
if _total_step3_links != 1153:
    raise RuntimeError(
        f"step-3 link calibration drifted: {_total_step3_links} != 1153"
    )


def isp_names() -> List[str]:
    """All provider names, step-1 providers first."""
    return [p.name for p in ISPS]
