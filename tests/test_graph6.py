import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutgame.graphs import Graph, Graph6Error, emit_graph6, parse_graph6
from cutgame.graphs.graph import complete_graph, cycle_graph, petersen_graph


def test_known_decodings():
    k4 = parse_graph6("C~")
    assert (k4.n, k4.edge_count()) == (4, 6)
    edge = parse_graph6("A_")
    assert (edge.n, edge.edge_count()) == (2, 1)
    assert edge.has_edge(0, 1)
    empty3 = parse_graph6("B?")
    assert (empty3.n, empty3.edge_count()) == (3, 0)


def test_header_and_long_form():
    assert parse_graph6(">>graph6<<C~").edge_count() == 6
    big = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    s = emit_graph6(big)
    assert s[0] == "~"
    back = parse_graph6(s)
    assert back.n == 70 and back.edges == big.edges


def test_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C" + chr(30))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("C~~")  # trailing data
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated adjacency
    with pytest.raises(Graph6Error):
        parse_graph6("")


@pytest.mark.parametrize("text, offset", [("~>??", 1), ("~?>?", 2), ("~??" + chr(200), 3)])
def test_bad_character_in_long_form_count(text, offset):
    with pytest.raises(Graph6Error, match=rf"outside graph6 alphabet \(byte {offset}\)$") as exc:
        parse_graph6(text)
    assert exc.value.offset == offset


def test_roundtrip_known_graphs():
    for g in (complete_graph(5), cycle_graph(9), petersen_graph()):
        assert parse_graph6(emit_graph6(g)).edges == g.edges


def test_against_networkx():
    import networkx as nx

    for g in (complete_graph(6), petersen_graph()):
        s = emit_graph6(g)
        h = nx.from_graph6_bytes(s.encode())
        assert {frozenset(e) for e in h.edges()} == g.edges
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == s


@given(st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_roundtrip_random(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    g = Graph.from_edges(n, list(chosen))
    back = parse_graph6(emit_graph6(g))
    assert back.n == g.n and back.edges == g.edges
