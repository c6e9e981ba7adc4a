import numpy as np
import pytest

import greenpot.core
from greenpot import geometry
from greenpot.balayage import sweep
from greenpot.core import (DiscreteMeasure, DomainConfig, PointSet,
                           ValidationError, _index_array,
                           nearest_neighbor_distances, validate_field_separation)
from greenpot.green import build_green, green_sweep
from greenpot.riesz import assemble_riesz, capacity

# a boolean mask over a four-point cloud
MASK = np.array([True, False, True, True])


def two_point_cloud():
    return np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestPointSet:
    def test_default_radius_is_half_nearest_neighbor(self):
        ps = PointSet.from_points(two_point_cloud())
        assert np.allclose(ps.cell_radius, [0.5, 0.5])
        assert ps.dim == 3
        assert len(ps) == 2

    def test_explicit_radius_above_half_spacing_rejected(self):
        with pytest.raises(ValidationError):
            PointSet(two_point_cloud(), np.array([0.6, 0.5]))

    def test_duplicate_points_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="rows 1 and 2 coincide"):
            PointSet.from_points(pts)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValidationError):
            PointSet(two_point_cloud(), np.array([0.5, 0.0]))

    def test_one_dimensional_cloud_rejected(self):
        with pytest.raises(ValidationError):
            PointSet.from_points(np.array([[0.0], [1.0]]))

    def test_nearest_neighbor_distances(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        assert np.allclose(nearest_neighbor_distances(pts), [1.0, 1.0, 4.0])

    @pytest.mark.parametrize("pts, message", [
        (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]),
         "rows 1 and 3 coincide"),
        (np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), None),
        (np.array([[0.0, 0.0]]), "single-point cloud")],
        ids=["duplicate", "valid", "single"])
    def test_from_points_queries_the_tree_once(self, monkeypatch, pts,
                                               message):
        queries = []

        class CountingTree(greenpot.core.cKDTree):
            def query(self, *args, **kwargs):
                queries.append(len(self.data))
                return super().query(*args, **kwargs)

        monkeypatch.setattr(greenpot.core, "cKDTree", CountingTree)
        if message is None:
            ps = PointSet.from_points(pts)
            assert np.array_equal(ps.cell_radius, [0.5, 0.5, 2.0])
            assert queries == [3]
        else:
            with pytest.raises(ValidationError, match=message):
                PointSet.from_points(pts)
            assert queries == ([4] if len(pts) > 1 else [])

    def test_explicit_radii_still_searched(self, monkeypatch):
        # a caller's radii are checked against a search of their own
        queries = []
        real = greenpot.core.nearest_neighbor_distances

        def counting(points):
            queries.append(len(points))
            return real(points)

        monkeypatch.setattr(greenpot.core, "nearest_neighbor_distances", counting)
        PointSet(two_point_cloud(), np.array([0.5, 0.4]))
        assert queries == [2]
        with pytest.raises(ValidationError, match="exceeds half"):
            PointSet(two_point_cloud(), np.array([0.5, 0.6]))


class TestIndexArray:
    @pytest.mark.parametrize("indices, expected", [
        ([3, 1, 1, 2], [1, 2, 3]),
        (np.array([5, 0, 5], dtype=np.int32), [0, 5]),
        ([[1, 2], [2, 0]], [0, 1, 2]),
        ([0.0, 2.7, 2.2, -0.5], [0, 2]),
        (np.array([1, 0], dtype=np.uint8), [0, 1]),
        (4, [4]),
        ([], [])])
    def test_sorted_distinct_and_truncated(self, indices, expected):
        idx = _index_array(indices, 10, "q")
        assert idx.dtype == np.int64
        assert idx.tolist() == expected

    @pytest.mark.parametrize("indices", [
        [0, np.nan], [np.inf], [1.0, -np.inf], [10], [-1], [-1.5], [1e20],
        [2 ** 70], [1 + 0j], np.array([True, False])])
    def test_invalid_entries_raise(self, indices):
        with pytest.raises(ValidationError, match="q "):
            _index_array(indices, 10, "q")

    @pytest.mark.parametrize("call", [
        lambda ps, gs: capacity(assemble_riesz(ps, 2.0), MASK),
        lambda ps, gs: sweep(assemble_riesz(ps, 2.0),
                             DiscreteMeasure.from_dict(4, {1: 1.0}), MASK),
        lambda ps, gs: DomainConfig(ps, range(4), [], MASK, 2.0),
        lambda ps, gs: green_sweep(gs, DiscreteMeasure.from_dict(4, {3: 1.0}),
                                   MASK),
        lambda ps, gs: gs.restrict(MASK)],
        ids=["capacity", "sweep", "domain_config", "green_sweep", "restrict"])
    def test_boolean_mask_rejected(self, call):
        # read as integers the mask would name {0, 1}, where np.flatnonzero
        # names {0, 2, 3}
        ps = PointSet.from_points(geometry.sphere_shell(4, 1.0))
        gs = build_green(DomainConfig(ps, range(4), [], [0, 1, 2], 2.0))
        with pytest.raises(ValidationError, match="boolean mask"):
            call(ps, gs)


class TestDiscreteMeasure:
    def test_from_dict_and_mass(self):
        mu = DiscreteMeasure.from_dict(4, {1: 0.3, 2: 0.1})
        assert mu.total_mass == pytest.approx(0.4)
        assert list(mu.support) == [1, 2]
        assert len(mu) == 4

    @pytest.mark.parametrize("index", [-1, 3])
    def test_from_dict_index_out_of_range(self, index):
        # -1 used to put the mass on the last point, 3 raised IndexError
        with pytest.raises(ValidationError, match="outside 0..2"):
            DiscreteMeasure.from_dict(3, {index: 1.0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([0.1, -0.2]))

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([0.1, np.inf]))


def small_domain():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0],
                    [3.0, 0.0, 0.0]])
    ps = PointSet.from_points(pts)
    return ps


class TestDomainConfig:
    def test_omega_is_d_minus_f(self):
        cfg = DomainConfig(small_domain(), [0, 1, 2], [3], [0, 1], 2.0)
        assert list(cfg.omega_indices) == [2]

    def test_f_outside_d_rejected(self):
        with pytest.raises(ValidationError):
            DomainConfig(small_domain(), [0, 1], [3], [0, 2], 2.0)

    def test_d_y_overlap_rejected(self):
        with pytest.raises(ValidationError):
            DomainConfig(small_domain(), [0, 1, 2], [2, 3], [0], 2.0)

    def test_f_equal_to_d_rejected(self):
        with pytest.raises(ValidationError):
            DomainConfig(small_domain(), [0, 1], [], [0, 1], 2.0)

    def test_empty_f_rejected(self):
        with pytest.raises(ValidationError):
            DomainConfig(small_domain(), [0, 1, 2], [], [], 2.0)

    def test_alpha_must_be_admissible(self):
        for alpha in (0.0, 3.0, 2.5, -1.0):
            with pytest.raises(ValidationError):
                DomainConfig(small_domain(), [0, 1, 2], [], [0], alpha)

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValidationError):
            DomainConfig(small_domain(), [0, 1, 9], [], [0], 2.0)


class TestFieldSeparation:
    def test_two_point_distance(self):
        cfg = DomainConfig(small_domain(), [0, 1, 2], [3], [0, 1], 2.0)
        theta = DiscreteMeasure.from_dict(4, {2: 1.0})
        assert validate_field_separation(theta, cfg) == pytest.approx(2.0)

    def test_charge_on_f_rejected(self):
        cfg = DomainConfig(small_domain(), [0, 1, 2], [3], [0, 1], 2.0)
        theta = DiscreteMeasure.from_dict(4, {0: 1.0})
        with pytest.raises(ValidationError):
            validate_field_separation(theta, cfg)

    def test_zero_charge_rejected(self):
        cfg = DomainConfig(small_domain(), [0, 1, 2], [3], [0, 1], 2.0)
        theta = DiscreteMeasure(np.zeros(4))
        with pytest.raises(ValidationError):
            validate_field_separation(theta, cfg)

    def test_charge_on_y_rejected(self):
        cfg = DomainConfig(small_domain(), [0, 1, 2], [3], [0, 1], 2.0)
        theta = DiscreteMeasure.from_dict(4, {3: 1.0})
        with pytest.raises(ValidationError):
            validate_field_separation(theta, cfg)
