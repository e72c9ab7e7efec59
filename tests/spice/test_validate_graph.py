"""Netlist connectivity graph and the ground-reachability check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import EGTModel, Netlist
from repro.spice.netlist import GROUND
from repro.spice.validate import (
    NetlistError,
    connectivity_graph,
    ground_component,
    validate_netlist,
)


def inverter_netlist():
    netlist = Netlist("inv")
    netlist.add_voltage_source("Vdd", "vdd", "0", 1.0)
    netlist.add_voltage_source("Vin", "g", "0", 0.5)
    netlist.add_resistor("RL", "vdd", "d", 100e3)
    netlist.add_egt("T1", "d", "g", "0", 400, 30, EGTModel())
    return netlist


class TestConnectivityGraph:
    def test_nodes_and_edges(self):
        graph = connectivity_graph(inverter_netlist())
        assert set(graph) == {"0", "vdd", "g", "d"}
        assert "d" in graph["vdd"] and "vdd" in graph["d"]    # load resistor
        assert "0" in graph["d"]                               # EGT channel
        assert "0" in graph["g"]                               # gate reference edge

    def test_edge_device_attribution(self):
        graph = connectivity_graph(inverter_netlist())
        assert graph["vdd"]["d"] == graph["d"]["vdd"] == "RL"
        assert graph["g"]["0"] == "T1.gate"

    def test_connected_single_component(self):
        graph = connectivity_graph(inverter_netlist())
        assert ground_component(graph) == set(graph)


NODES = st.sampled_from(["0", "a", "b", "c", "d", "e", "f"])
DEVICES = st.lists(
    st.tuples(st.sampled_from(["R", "V", "T"]), NODES, NODES, NODES), max_size=8
)


def build(devices):
    netlist = Netlist("random")
    for index, (kind, n1, n2, n3) in enumerate(devices):
        if kind == "R":
            netlist.add_resistor(f"R{index}", n1, n2, 1e3)
        elif kind == "V":
            netlist.add_voltage_source(f"V{index}", n1, n2, 1.0)
        else:
            netlist.add_egt(f"T{index}", n1, n2, n3, 400, 30, EGTModel())
    return netlist


@settings(max_examples=200, deadline=None)
@given(DEVICES)
def test_floating_nodes_match_networkx(devices):
    """BFS from ground finds exactly networkx's ground component."""
    nx = pytest.importorskip("networkx")
    netlist = build(devices)
    oracle = nx.Graph()
    oracle.add_node(GROUND)
    for resistor in netlist.resistors:
        oracle.add_edge(resistor.node_a, resistor.node_b)
    for source in netlist.sources:
        oracle.add_edge(source.node_plus, source.node_minus)
    for egt in netlist.transistors:
        oracle.add_edge(egt.drain, egt.source)
        oracle.add_edge(egt.gate, egt.source)
    expected = set(oracle.nodes) - nx.node_connected_component(oracle, GROUND)

    graph = connectivity_graph(netlist)
    assert set(graph) == set(oracle.nodes)
    assert set(graph) - ground_component(graph) == expected
    if expected and netlist.devices and oracle.degree(GROUND) > 0:
        with pytest.raises(NetlistError, match="not connected to ground"):
            validate_netlist(netlist)


class TestValidate:
    def test_valid_netlist_passes(self):
        validate_netlist(inverter_netlist())

    def test_error_lists_floating_nodes(self):
        netlist = inverter_netlist()
        netlist.add_resistor("Rfloat", "island_a", "island_b", 1e3)
        with pytest.raises(NetlistError) as excinfo:
            validate_netlist(netlist)
        assert "island_a" in str(excinfo.value)

    def test_repr(self):
        assert "R=1" in repr(inverter_netlist())
