import importlib.resources

import pytest

from fatflip.fatgraph import UnivalentVertexError, oe
from fatflip.graphio import GraphParseError, format_graph, parse_graph
from fatflip.markings import SymplecticForm, check_marking, is_topological_h

TREE_FILE = """\
fatgraph v1
# a single edge with the tail at one end: a disk spine
vertex 0: 0-
vertex 1: 0+
tail 0+
"""

G1_FILE = """\
fatgraph v1
vertex 0: 0-
vertex 1: 0+ 1+ 3-
vertex 2: 3+ 2+ 4-
vertex 3: 4+ 1- 2-
tail 0+
marking rank 2
mark 1+: 0 1
mark 2+: 1 0
mark 3+: 0 1
mark 4+: 1 1
mark 0+: 0 0
"""


class TestParse:
    def test_minimal_tree(self):
        graph, marking = parse_graph(TREE_FILE)
        assert marking is None
        assert graph.genus() == 0
        assert graph.boundary_number() == 1
        with pytest.raises(UnivalentVertexError):
            graph.validate()

    def test_graph_with_marking(self, g1):
        graph, marking = parse_graph(G1_FILE)
        graph.validate()
        assert graph.genus() == 1
        assert graph.canonical_key() == g1.canonical_key()
        check_marking(graph, marking)
        assert is_topological_h(graph, marking, SymplecticForm.standard(1))

    def test_shipped_reference_file(self):
        text = (importlib.resources.files("fatflip") / "data" / "g1.fg") \
            .read_text()
        graph, marking = parse_graph(text)
        graph.validate()
        assert graph.genus() == 1
        assert marking is not None
        check_marking(graph, marking)
        assert is_topological_h(graph, marking, SymplecticForm.standard(1))

    def test_duplicate_half_edge(self):
        bad = TREE_FILE.replace("vertex 1: 0+", "vertex 1: 0+ 0-")
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad)
        assert exc.value.line == 4

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_graph("vertex 0: 0-\ntail 0+\n")

    def test_missing_tail(self):
        with pytest.raises(GraphParseError):
            parse_graph("fatgraph v1\nvertex 0: 0-\nvertex 1: 0+\n")

    def test_bad_half_edge_reports_column(self):
        bad = "fatgraph v1\nvertex 0: 0*\ntail 0+\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad)
        assert exc.value.line == 2
        assert exc.value.col == 11

    def test_mark_wrong_arity(self):
        bad = G1_FILE.replace("mark 1+: 0 1", "mark 1+: 0 1 2")
        with pytest.raises(GraphParseError):
            parse_graph(bad)

    def test_mark_before_rank(self):
        bad = "fatgraph v1\nvertex 0: 0-\nvertex 1: 0+\ntail 0+\nmark 0+: 1\n"
        with pytest.raises(GraphParseError):
            parse_graph(bad)

    def test_mark_for_unknown_half_edge(self):
        bad = G1_FILE + "mark 9+: 0 0\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad)
        assert exc.value.line == 13
        assert exc.value.col == 6
        # a later line must not shift the reported line to the last one
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad + "# trailing comment\n")
        assert exc.value.line == 13
        assert exc.value.col == 6

    def test_duplicate_mark(self):
        bad = G1_FILE + "mark 1+: 0 1\n# trailing comment\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad)
        assert exc.value.line == 13
        assert exc.value.col == 6
        assert "line 8" in str(exc.value)

    def test_inconsistent_mark_pair(self):
        bad = G1_FILE + "mark 1-: 5 5\n"
        with pytest.raises(GraphParseError) as exc:
            parse_graph(bad)
        assert exc.value.line == 13
        assert exc.value.col == 6
        assert "line 8" in str(exc.value)
        # a pair that agrees with Inversion is accepted
        _, marking = parse_graph(G1_FILE + "mark 1-: 0 -1\n")
        assert marking.value(oe(1, -1)).coords == (0, -1)


class TestRoundTrip:
    def test_same_canonical_form(self, g2):
        text = format_graph(g2)
        back, _ = parse_graph(text)
        assert back.canonical_key() == g2.canonical_key()

    def test_marking_survives(self, g1):
        graph, marking = parse_graph(G1_FILE)
        again, marking2 = parse_graph(format_graph(graph, marking))
        assert marking2 == marking

    def test_negative_orientation_derived(self):
        graph, marking = parse_graph(G1_FILE)
        assert marking.value(oe(2, -1)) == -marking.value(oe(2, 1))
