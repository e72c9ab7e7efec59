"""Structural validation of netlists using a connectivity graph."""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from repro.spice.netlist import GROUND, Netlist

#: Undirected adjacency: node → {neighbour node: connecting device name}.
Graph = Dict[str, Dict[str, str]]


class NetlistError(ValueError):
    """Raised when a netlist is structurally unsound."""


def connectivity_graph(netlist: Netlist) -> Graph:
    """Undirected device-connectivity graph over node names.

    Transistor gates connect capacitively (no DC path), but for reachability
    purposes a gate must still be driven, so gate edges are included.  When
    several devices join the same node pair, the edge names the last one.
    """
    graph: Graph = {GROUND: {}}

    def connect(node_a: str, node_b: str, device: str) -> None:
        graph.setdefault(node_a, {})[node_b] = device
        graph.setdefault(node_b, {})[node_a] = device

    for resistor in netlist.resistors:
        connect(resistor.node_a, resistor.node_b, resistor.name)
    for source in netlist.sources:
        connect(source.node_plus, source.node_minus, source.name)
    for egt in netlist.transistors:
        connect(egt.drain, egt.source, egt.name)
        connect(egt.gate, egt.source, f"{egt.name}.gate")
    return graph


def ground_component(graph: Graph) -> Set[str]:
    """Every node reachable from ground (breadth-first search)."""
    reached = {GROUND}
    frontier = deque([GROUND])
    while frontier:
        for neighbour in graph[frontier.popleft()]:
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    return reached


def validate_netlist(netlist: Netlist) -> None:
    """Check that the netlist can be solved.

    Raises
    ------
    NetlistError
        If the netlist is empty, has no ground reference, or contains nodes
        unreachable from ground (which would make the MNA system singular up
        to ``gmin``).
    """
    if not netlist.devices:
        raise NetlistError("netlist contains no devices")

    graph = connectivity_graph(netlist)
    if len(graph) <= 1:
        raise NetlistError("netlist has no nodes besides ground")
    if not graph[GROUND]:
        raise NetlistError("no device is connected to ground")

    floating = set(graph) - ground_component(graph)
    if floating:
        raise NetlistError(f"nodes not connected to ground: {sorted(floating)}")
