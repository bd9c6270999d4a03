"""Policy analysis: the §6.2 Title II / open-access trade-off.

The paper argues the net-neutrality debate "would benefit from a
quantitative assessment of the unavoidable trade-offs ... between the
substantial cost savings enjoyed by future Title II regulated service
providers and an increasingly vulnerable national long-haul fiber-optic
infrastructure".  :mod:`repro.policy.titleii` provides exactly that
quantification over the constructed map.
"""

from repro.policy.titleii import (
    OpenAccessOutcome,
    TradeoffPoint,
    open_access_tradeoff,
)

__all__ = [
    "OpenAccessOutcome",
    "open_access_tradeoff",
    "TradeoffPoint",
]
