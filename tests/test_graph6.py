"""graph6 codec: frozen decodes, round trips, networkx cross-check, errors."""

from __future__ import annotations

import networkx as nx
import pytest

from kneserchrom import (
    Graph6Error,
    SimpleGraph,
    enumerate_graphs,
    parse_graph6,
    write_graph6,
)


def test_frozen_decodes():
    assert parse_graph6("@").n == 1
    assert parse_graph6("@").sorted_edges() == []
    k2 = parse_graph6("A_")
    assert (k2.n, k2.sorted_edges()) == (2, [(0, 1)])
    assert parse_graph6("A?").sorted_edges() == []
    tri = parse_graph6("Bw")
    assert (tri.n, tri.sorted_edges()) == (3, [(0, 1), (0, 2), (1, 2)])
    star = parse_graph6("D?{")
    assert star.n == 5
    assert star.sorted_edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_header_and_whitespace():
    assert parse_graph6(">>graph6<<A_").sorted_edges() == [(0, 1)]
    assert parse_graph6("  A_\n").sorted_edges() == [(0, 1)]


def test_round_trip_all_small_graphs():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            back = parse_graph6(write_graph6(g))
            assert back.n == g.n and back.edges == g.edges


def test_round_trip_matches_networkx():
    # graph6 encodes the labelled graph; compare exact edge sets
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            s = write_graph6(g)
            ng = nx.from_graph6_bytes(s.encode())
            assert set(ng.nodes) == set(range(g.n))
            assert {tuple(sorted(e)) for e in ng.edges} == set(g.edges)
            # and the reverse direction: networkx encodes, we decode
            enc = nx.to_graph6_bytes(ng, header=False).decode().strip()
            assert parse_graph6(enc).edges == g.edges


def test_long_form_vertex_count():
    path = SimpleGraph.from_edges(63, [(i, i + 1) for i in range(62)])
    s = write_graph6(path)
    assert s.startswith("~")
    back = parse_graph6(s)
    assert back.n == 63 and back.edges == path.edges


def test_empty_graph_zero_vertices():
    assert parse_graph6("?").n == 0
    assert write_graph6(SimpleGraph.from_edges(0, [])) == "?"


def test_errors():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated payload
    with pytest.raises(Graph6Error):
        parse_graph6("A_?")  # payload too long
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(200))  # out-of-range character
    with pytest.raises(Graph6Error):
        parse_graph6(">>sparse6<<A_")  # wrong header


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: parse_graph6("~~??????"),
            "malformed header: 8-byte size form is out of range here",
        ),
        (lambda: parse_graph6("~A"), "malformed header: truncated 4-byte size form"),
        (lambda: parse_graph6("~@@!"), "out-of-range character '!' in size field"),
        (
            lambda: write_graph6(SimpleGraph.from_edges(258048, [])),
            "graph too large for the 4-byte graph6 size form",
        ),
    ],
    ids=["8-byte-size", "truncated-4-byte-size", "bad-size-character", "write-too-large"],
)
def test_size_field_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
