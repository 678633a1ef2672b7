import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from satforge import kernels
from satforge.discharging import LevelError, bfs_levels
from satforge.graph import (
    CyclePath,
    Graph,
    Graph6Error,
    GraphError,
    from_graph6,
    read_graph6_file,
    to_graph6,
)
from satforge.saturation import contains_cycle
from tests.conftest import complete_graph, cycle_graph, path_graph, star_graph


def random_graph_strategy(n_max=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, n_max))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [p for p, keep in zip(pairs, mask) if keep])

    return build()


class TestBasics:
    def test_construct_and_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == [1, 2, 2, 1]
        assert g.edge_count == 3
        assert g.neighbors(1) == [0, 2]

    def test_rejects_self_loop(self):
        # an edge with an endpoint outside 0..n-1 is rejected the same way
        for edges in ([(0, 0)], [(0, 2)], [(-1, 1)], [(1, -2)], [(0, 1), (5, 0)]):
            with pytest.raises(GraphError):
                Graph.from_edges(2, edges)

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(GraphError):
            Graph(2, [0b10, 0b00])

    def test_immutable(self):
        g = path_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_with_without_edge(self):
        g = path_graph(3)
        g2 = g.with_edge(0, 2)
        assert g2.edge_count == 3 and g.edge_count == 2
        assert g2.without_edge(0, 2) == g
        g = path_graph(5)
        for call, u, v in ((g.with_edge, 0, 7), (g.with_edge, -5, 2),
                           (g.with_edge, 0, 5), (g.without_edge, -1, 3),
                           (g.without_edge, 4, 5), (g.has_edge, -1, 3),
                           (g.has_edge, 0, 5)):
            with pytest.raises(GraphError, match="outside 0..4"):
                call(u, v)

    def test_vertex_range_errors(self):
        g = path_graph(5)
        for call in (g.degree, g.neighbors, lambda v: bfs_levels(g, v)):
            for v in (-1, 5, 7):
                with pytest.raises(GraphError, match="outside 0..4"):
                    call(v)

    def test_children_equal_validated_graphs(self):
        # with_edge/without_edge skip __init__'s checks; their results must
        # equal the same rows built through the validating constructor
        rng = random.Random(0xED6E)
        for _ in range(40):
            n = rng.randint(2, 12)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.4])
            for u, v in pairs:
                child = g.without_edge(u, v) if g.has_edge(u, v) else g.with_edge(u, v)
                checked = Graph(n, list(child.adj))
                assert child == checked and hash(child) == hash(checked)
                assert isinstance(child.adj, tuple)
                assert child.edge_count == checked.edge_count == len(child.edges())
                assert abs(child.edge_count - g.edge_count) == 1

    def test_named_families(self):
        assert complete_graph(5).edge_count == 10
        assert cycle_graph(6).degrees() == [2] * 6
        assert star_graph(7).degrees() == [6] + [1] * 6

    def test_delete_vertices_renumbers(self):
        g = cycle_graph(5)
        h = g.delete_vertices({0})
        assert h.n == 4 and h.edge_count == 3

    @pytest.mark.parametrize("doomed", [[7], [-1], [0, 3]])
    def test_delete_vertices_rejects_ids_outside_the_graph(self, doomed):
        with pytest.raises(GraphError, match="outside 0..2"):
            path_graph(3).delete_vertices(doomed)

    @pytest.mark.parametrize("perm", [[0, 1, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [1, 2, 3]])
    def test_relabel_rejects_a_non_permutation(self, perm):
        # [0, 1, 1] would merge the edges 0-1 and 1-2 into one
        with pytest.raises(GraphError, match="permutation of 0..2"):
            path_graph(3).relabel(perm)

    def test_non_edges_complement(self):
        g = cycle_graph(5)
        assert len(g.non_edges()) + g.edge_count == 10


class TestCyclePath:
    def test_constructor_checks_kind_and_repeats(self):
        with pytest.raises(GraphError):
            CyclePath((0, 0), "path")
        with pytest.raises(GraphError):
            CyclePath((0, 1), "loop")

    @pytest.mark.parametrize("vertices", [(), (0,), (0, 1)])
    def test_validate_rejects_a_cycle_under_three_vertices(self, vertices):
        # the edge 0-1 read as a "cycle" of length 2
        g = path_graph(3)
        with pytest.raises(GraphError, match="cycle needs 3 vertices"):
            CyclePath(vertices, "cycle").validate(g)
        assert CyclePath((0, 1, 2), "path").validate(g)
        assert CyclePath((0, 1), "path").validate(g)

    def test_repr_and_tuple_behaviour(self):
        cyc = CyclePath((0, 1, 2), "cycle")
        assert repr(cyc) == "CyclePath(vertices=(0, 1, 2), kind='cycle')"
        assert cyc == ((0, 1, 2), "cycle")
        vertices, kind = cyc
        assert (vertices, kind, len(cyc), cyc.length) == ((0, 1, 2), "cycle", 2, 3)
        assert CyclePath((0, 1, 2), "path").length == 2
        with pytest.raises(AttributeError):
            cyc.kind = "path"

    def test_make_and_replace_check_too(self):
        cyc = CyclePath((0, 1, 2), "cycle")
        with pytest.raises(GraphError):
            cyc._replace(kind="loop")
        with pytest.raises(GraphError):
            cyc._replace(vertices=(1, 1))
        with pytest.raises(GraphError):
            CyclePath._make(((0, 0), "path"))
        path = cyc._replace(kind="path")
        assert type(path) is CyclePath and path == ((0, 1, 2), "path")


class TestGraph6:
    def test_known_encodings(self):
        # nauty's documented examples
        assert to_graph6(Graph.from_edges(5, [(0, 2), (0, 4), (1, 3), (3, 4)])) == "DQc"
        assert from_graph6("DQc").edges() == [(0, 2), (0, 4), (1, 3), (3, 4)]

    def test_header_prefix_accepted(self):
        g = from_graph6(">>graph6<<DQc")
        assert g.n == 5

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_roundtrip(self, g):
        assert from_graph6(to_graph6(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    def test_matches_networkx(self, g):
        ours = to_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs

    def test_decodes_as_networkx_for_every_n(self):
        # n = 63 and 64 take the long-form header; decoding skips Graph's
        # checks, so each result must equal its rows checked
        rng = random.Random(0x96)
        for n in range(1, 65):
            pairs = list(itertools.combinations(range(n), 2))
            for p in (0.0, rng.random() / 4, rng.random(), 1.0):
                h = nx.Graph()
                h.add_nodes_from(range(n))
                h.add_edges_from(e for e in pairs if rng.random() < p)
                record = nx.to_graph6_bytes(h, header=False).strip()
                g = from_graph6(record.decode())
                want = nx.from_graph6_bytes(record)
                assert g.n == n and sorted(g.edges()) == sorted(
                    tuple(sorted(e)) for e in want.edges())
                assert Graph(g.n, g.adj) == g and isinstance(g.adj, tuple)
                assert g.edge_count == want.number_of_edges() == len(g.edges())

    def test_error_messages(self):
        # the CLI prints these on its `error:` line
        for record, message in (
                ("!Qc", "bad header byte '!'"),
                ("~?A\x7f", "bad header byte '\\x7f'"),
                ("DQ\x80", "bad body byte '\\x80'"),
                ("D Q", "bad body byte ' '"),
                ("DQcc", "expected 2 body chars, got 3"),
                ("D~~", "nonzero padding bits"),  # K_5 with padding set
                # control bytes that str.strip() would take for whitespace
                ("\x1fQc", "bad header byte '\\x1f'"),
                ("DQ\x1f", "bad body byte '\\x1f'"),
                ("\x0cDQ", "bad header byte '\\x0c'"),
                ("DQc\x1f", "expected 2 body chars, got 3"),
                ("DQc\x0b", "expected 2 body chars, got 3")):
            with pytest.raises(Graph6Error) as exc:
                from_graph6(record)
            assert str(exc.value) == message, record

    def test_trims_only_blanks(self, tmp_path):
        assert from_graph6(" \tDQc\r\n").edges() == from_graph6("DQc").edges()
        path = tmp_path / "ctl.g6"
        path.write_text(" DQc\t\r\nDQ\x1f\n")
        with pytest.raises(Graph6Error) as exc:
            read_graph6_file(path)
        assert str(exc.value) == f"{path}: line 2: bad body byte '\\x1f'"

    def test_rejects_bad_padding(self):
        with pytest.raises(Graph6Error):
            from_graph6("D~~")  # K_5 body with nonzero padding tail bits

    def test_rejects_truncated_body(self):
        with pytest.raises(Graph6Error):
            from_graph6("D")

    def test_large_n_header(self):
        g = path_graph(63)
        assert to_graph6(g).startswith("~")
        assert from_graph6(to_graph6(g)) == g


class TestPaths:
    def test_least_path_lex_least(self):
        g = Graph.from_edges(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
        out = {}
        assert kernels.least_paths(g.adj, 0, 2, 1 << 4, 0, out) == 0
        assert out == {4: (0, 1, 4)}

    def test_banned_mask(self):
        g = Graph.from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        out = {}
        assert kernels.least_paths(g.adj, 0, 2, 1 << 3, 1 << 1, out) == 0
        assert out == {3: (0, 2, 3)}

    @staticmethod
    def brute_paths(g, u, v, length):
        others = [w for w in range(g.n) if w not in (u, v)]
        return [
            p
            for inner in itertools.permutations(others, length - 1)
            for p in [(u, *inner, v)]
            if all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
        ]

    def test_has_path_matches_enumeration(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(40):
            g = random_connected_graph(rng, n_max=8)
            for length in range(1, 6):
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        assert kernels.has_path(g.adj, u, v, length) == bool(
                            self.brute_paths(g, u, v, length)
                        )


class TestCycles:
    @staticmethod
    def brute_cycle_exists(g, k):
        for nodes in itertools.combinations(range(g.n), k):
            first = nodes[0]
            for perm in itertools.permutations(nodes[1:]):
                cyc = (first,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    return True
        return False

    def test_against_brute_force(self, rng):
        from tests.conftest import random_connected_graph

        for _ in range(30):
            g = random_connected_graph(rng, n_max=10)
            for k in range(3, 8):
                found = contains_cycle(g, k)
                assert (found is not None) == self.brute_cycle_exists(g, k)
                if found is not None:
                    found.validate(g)

    def test_cycle_graph_has_only_its_length(self):
        g = cycle_graph(6)
        assert contains_cycle(g, 6) is not None
        for k in (2, 3, 4, 5):
            assert contains_cycle(g, k) is None


class TestLevels:
    def test_closed_neighborhood_is_first_level(self):
        g = path_graph(6)
        part = bfs_levels(g, 0)
        assert part.levels[0] == (0, 1)
        assert part.level(0) == part.level(1) == 1
        assert part.level(5) == 5

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(LevelError):
            bfs_levels(g, 0)

    def test_depth_overflow_raises(self):
        # the audit's layering needs at most five levels; path_graph(9) from
        # an end has eight
        from satforge.discharging import level_charges

        assert bfs_levels(path_graph(9), 0).depth == 8
        with pytest.raises(LevelError, match="exceeds max level 5"):
            level_charges(path_graph(9), 0)
