"""Traceroute substrate (§4.3): simulate Edgescope-style campaigns.

The paper overlays 4.9M traceroutes (Edgescope, Jan-Mar 2014) onto its
conduit map using geolocation and DNS naming hints.  This subpackage
provides the equivalent machinery end-to-end:

* :mod:`repro.traceroute.addressing` — per-provider IPv4 address plan;
* :mod:`repro.traceroute.topology` — router-level topologies over the
  fiber footprints, inter-provider peering, MPLS opacity, and the
  *phantom providers* (SoftLayer, MFN, ...) whose presence the paper
  could only infer from traceroute data;
* :mod:`repro.traceroute.probe` — the traceroute simulator;
* :mod:`repro.traceroute.columns` — the columnar campaign record store
  (structured arrays + string tables) that holds paper-scale campaigns;
* :mod:`repro.traceroute.campaign` — client/destination workload
  generation and the sharded shared-memory campaign runner;
* :mod:`repro.traceroute.geolocate` — noisy IP geolocation plus DRoP-
  style DNS naming-hint decoding;
* :mod:`repro.traceroute.overlay` — mapping layer-3 hops onto physical
  conduits and inferring additional tenants.
"""

from repro.traceroute.addressing import AddressPlan
from repro.traceroute.campaign import CampaignConfig, run_campaign
from repro.traceroute.columns import ColumnSchema, TraceColumns
from repro.traceroute.geolocate import GeolocationDatabase, decode_naming_hint
from repro.traceroute.overlay import ConduitTraffic, TrafficOverlay
from repro.traceroute.probe import Hop, ProbeEngine, TracerouteRecord
from repro.traceroute.topology import InternetTopology, Router

__all__ = [
    "AddressPlan",
    "InternetTopology",
    "Router",
    "ProbeEngine",
    "Hop",
    "TracerouteRecord",
    "ColumnSchema",
    "TraceColumns",
    "CampaignConfig",
    "run_campaign",
    "GeolocationDatabase",
    "decode_naming_hint",
    "TrafficOverlay",
    "ConduitTraffic",
]
