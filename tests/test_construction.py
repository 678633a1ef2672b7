import pytest

from satforge import construction
from satforge.construction import (
    ConstructionError,
    build_construction,
    build_g0,
    lower_bound_edges,
    upper_bound_edges,
)
from satforge.discharging import t_sets, theta_classes
from satforge.saturation import SaturationReport, check_saturated


class TestCore:
    def test_core_size(self):
        g = build_g0()
        assert g.n == 9 and g.edge_count == 12

    def test_core_degree_profile(self):
        g = build_g0()
        assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 2, 4, 4, 4]

    def test_core_is_saturated(self):
        assert check_saturated(build_g0(), 6).saturated

    def test_core_is_certified_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(construction, "check_saturated",
                            lambda g, k: calls.append(k) or check_saturated(g, k))
        build_g0.cache_clear()
        assert build_g0() is build_g0()
        build_construction(12)
        assert calls == [6]

    def test_core_checks_raise_every_time(self, monkeypatch):
        # a failed build is not cached, so each call checks and raises again
        build_g0.cache_clear()
        monkeypatch.setattr(construction, "_CORE_EDGES", construction._CORE_EDGES[1:])
        for _ in range(2):
            with pytest.raises(ConstructionError, match="12 edges"):
                build_g0()
        monkeypatch.undo()
        monkeypatch.setattr(construction, "check_saturated",
                            lambda g, k: SaturationReport(k, None, {}, "missing-witness",
                                                          (0, 2)))
        for _ in range(2):
            with pytest.raises(ConstructionError, match="certificate"):
                build_construction(9)


class TestFamily:
    def test_rejects_small_n(self):
        with pytest.raises(ConstructionError):
            build_construction(8)

    def test_rejects_n_beyond_max_vertices(self):
        build_construction(64)
        with pytest.raises(ConstructionError, match="at most 64"):
            build_construction(65)

    def test_edge_formula_range(self):
        for n in range(9, 61):
            g, _ = build_construction(n)
            assert g.edge_count == upper_bound_edges(n)

    def test_epsilon_split(self):
        for n, eps in ((9, 0), (10, 1), (11, 2), (12, 0)):
            _, spec = build_construction(n)
            assert spec.epsilon == eps

    def test_labels_are_bijective(self):
        g, spec = build_construction(17)
        assert sorted(spec.labels.values()) == list(range(17))

    def test_min_degree_two_and_good_pendant_roots(self):
        g, spec = build_construction(15)
        assert g.min_degree() == 2
        roots = theta_classes(g).keys()
        for i in range(3):  # b_i vertices carry no triangle
            assert spec.labels[f"b{i}"] in roots

    def test_epsilon_two_clique_attachment(self):
        g, spec = build_construction(14)
        lab = spec.labels
        assert g.has_edge(lab["z1"], lab["z2"])
        assert g.has_edge(lab["y4"], lab["z1"])
        assert g.has_edge(lab["y4"], lab["z2"])
        assert {lab["z1"], lab["z2"]} == set(t_sets(g)[1])


class TestBounds:
    def test_upper_bound_values(self):
        assert [upper_bound_edges(n) for n in (9, 10, 11, 12)] == [12, 13, 15, 16]

    def test_lower_bound_values(self):
        assert [lower_bound_edges(n) for n in (9, 10, 11, 12)] == [10, 12, 13, 14]

    def test_upper_dominates_lower(self):
        for n in range(9, 61):
            assert upper_bound_edges(n) >= lower_bound_edges(n)


# Six witness families certifying the cross-path non-edges; each template is
# the cycle closed by the named non-edge (first and last entries).
WITNESS_TEMPLATES = (
    ("a{i}", "b{i}", "c{i}", "x2", "x1", "a{j}"),
    ("a{i}", "b{i}", "c{i}", "x2", "c{j}", "b{j}"),
    ("a{i}", "x1", "y2", "y3", "x2", "c{j}"),
    ("b{i}", "a{i}", "x1", "x2", "c{j}", "b{j}"),
    ("b{i}", "a{i}", "x1", "a{j}", "b{j}", "c{j}"),
    ("c{i}", "b{i}", "a{i}", "x1", "x2", "c{j}"),
)


def assert_witness_templates(n):
    """Every template, at every pair i < j of pendant paths, is a non-edge
    closed by a 5-edge path of the family member."""
    g, spec = build_construction(n)
    lab = spec.labels
    idxs = [0] + list(range(1, spec.t - 2))
    for i_pos, i in enumerate(idxs):
        for j in idxs[i_pos + 1:]:
            for tmpl in WITNESS_TEMPLATES:
                verts = [lab[s.format(i=i, j=j)] for s in tmpl]
                assert not g.has_edge(verts[0], verts[-1]), (tmpl, i, j)
                for a, b in zip(verts, verts[1:]):
                    assert g.has_edge(a, b), (tmpl, i, j)


class TestWitnesses:
    def test_templates_hold_at_15(self):
        assert_witness_templates(15)

    def test_templates_hold_at_18(self):
        assert_witness_templates(18)


class TestVerify:
    def test_report_rows(self):
        for n in (9, 10, 11):
            g, _ = build_construction(n)
            assert g.edge_count == upper_bound_edges(n)
            assert check_saturated(g, 6).saturated
            assert g.edge_count >= lower_bound_edges(n)
