"""Simulated MIMD distributed-memory machine."""

from .costmodel import FAST_NETWORK, FREE, IPSC860, CostModel, tree_stages
from .deadlock import DeadlockReport, RankWait
from .event import (
    EventCollectives,
    EventNetwork,
    EventProcContext,
    EventScheduler,
)
from .faults import FaultPlan
from .machine import Machine, ProcContext
from .network import DeadlockError, SimulationError
from .stats import RunStats
from .topology import (
    TOPOLOGIES,
    FatTreeTopology,
    HypercubeTopology,
    LinkClock,
    Mesh2DTopology,
    Topology,
    Torus2DTopology,
    UniformTopology,
    resolve_topology,
)

__all__ = [
    "EventCollectives",
    "EventNetwork",
    "EventProcContext",
    "EventScheduler",
    "CostModel",
    "IPSC860",
    "FAST_NETWORK",
    "FREE",
    "tree_stages",
    "Machine",
    "ProcContext",
    "SimulationError",
    "DeadlockError",
    "DeadlockReport",
    "RankWait",
    "FaultPlan",
    "RunStats",
    "TOPOLOGIES",
    "Topology",
    "UniformTopology",
    "HypercubeTopology",
    "Mesh2DTopology",
    "Torus2DTopology",
    "FatTreeTopology",
    "LinkClock",
    "resolve_topology",
]
