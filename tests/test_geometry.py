import numpy as np
import pytest

from greenpot import geometry
from greenpot.core import PointSet, ValidationError


class TestBoxGrid:
    def test_unit_square(self):
        g = geometry.box_grid([0.0, 0.0], [1.0, 1.0], 1.0)
        assert np.array_equal(g, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_count_scaling(self):
        g = geometry.box_grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.5)
        assert g.shape == (27, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            geometry.box_grid([0.0, 0.0], [0.0, 1.0], 0.5)
        with pytest.raises(ValidationError):
            geometry.box_grid([0.0, 0.0], [1.0, 1.0], 0.0)

    @pytest.mark.parametrize("lo, hi, spacing", [
        ([0.0, 0.0], [1.0, 1.0], float("nan")),
        ([0.0, 0.0], [1.0, 1.0], float("inf")),
        ([float("nan"), 0.0], [1.0, 1.0], 0.5),
        ([0.0, 0.0], [float("inf"), 1.0], 0.5)],
        ids=["nan_spacing", "inf_spacing", "nan_lo", "inf_hi"])
    def test_non_finite_inputs_rejected(self, lo, hi, spacing):
        with pytest.raises(ValidationError):
            geometry.box_grid(lo, hi, spacing)


class TestSphereShell:
    def test_radii_and_shape(self):
        pts = geometry.sphere_shell(120, 2.0)
        assert pts.shape == (120, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-12)

    def test_deterministic(self):
        a = geometry.sphere_shell(50, 1.0, rotate=0.3)
        b = geometry.sphere_shell(50, 1.0, rotate=0.3)
        assert np.array_equal(a, b)

    def test_rotation_moves_points_on_the_sphere(self):
        a = geometry.sphere_shell(50, 1.0)
        b = geometry.sphere_shell(50, 1.0, rotate=0.3)
        assert not np.allclose(a, b)
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)

    def test_center_offset(self):
        pts = geometry.sphere_shell(40, 1.0, center=(5.0, 0.0, 0.0))
        assert np.allclose(np.linalg.norm(pts - [5.0, 0.0, 0.0], axis=1), 1.0,
                           atol=1e-12)

    def test_points_are_spread_out(self):
        pts = geometry.sphere_shell(100, 1.0)
        ps = PointSet.from_points(pts)
        # Fibonacci spacing on the unit sphere scales like count^(-1/2)
        from greenpot.core import nearest_neighbor_distances
        nn = nearest_neighbor_distances(pts)
        assert nn.min() > 0.1
        assert nn.max() < 0.5
        assert len(ps) == 100

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            geometry.sphere_shell(0, 1.0)


class TestSphericalCap:
    def test_stays_inside_cap(self):
        pts = geometry.spherical_cap(60, 0.825, radius=2.0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-12)
        assert np.min(pts[:, 2] / 2.0) >= 0.825

    def test_cos_validation(self):
        with pytest.raises(ValidationError):
            geometry.spherical_cap(10, 1.0)


class TestIntegerCounts:
    @pytest.mark.parametrize("make", [
        lambda c: geometry.sphere_shell(c),
        lambda c: geometry.spherical_cap(c, 0.5),
        lambda c: geometry.circle_ring(c),
        lambda c: geometry.annulus(c, [1.0, 2.0]),
        lambda c: geometry.layered_ball([1.0], [c]),
        lambda c: geometry.truncated_cone(1, points_per_shell=c)],
        ids=["sphere_shell", "spherical_cap", "circle_ring", "annulus",
             "layered_ball", "truncated_cone"])
    @pytest.mark.parametrize("count", [4.5, 4.0, True], ids=["half", "float", "bool"])
    def test_non_integer_count_is_a_type_error(self, make, count):
        with pytest.raises(TypeError, match="count must be an integer"):
            make(count)

    def test_numpy_integer_count_samples_like_int(self):
        assert np.array_equal(geometry.sphere_shell(np.int64(9)),
                              geometry.sphere_shell(9))


class TestBallGrid:
    def test_inside_ball_on_grid(self):
        pts = geometry.ball_grid(0.5, 1.0)
        assert np.max(np.linalg.norm(pts, axis=1)) <= 1.0 + 1e-12
        offsets = (pts + 1.0) / 0.5
        assert np.allclose(offsets, np.round(offsets), atol=1e-9)

    def test_center_shift(self):
        pts = geometry.ball_grid(0.5, 1.0, center=(0.0, 0.0, 3.0))
        assert np.max(np.linalg.norm(pts - [0.0, 0.0, 3.0], axis=1)) <= 1.0 + 1e-12


class TestCompositeClouds:
    def test_annulus_layer_radii(self):
        pts = geometry.annulus(10, [1.0, 2.0])
        assert pts.shape == (20, 3)
        assert np.allclose(np.linalg.norm(pts[:10], axis=1), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(pts[10:], axis=1), 2.0, atol=1e-12)

    def test_layered_ball_counts_and_center(self):
        pts = geometry.layered_ball([1.0, 0.5], [30, 12])
        assert pts.shape == (43, 3)
        assert np.array_equal(pts[-1], [0.0, 0.0, 0.0])
        bare = geometry.layered_ball([1.0, 0.5], [30, 12], include_center=False)
        assert bare.shape == (42, 3)

    def test_layered_ball_validation(self):
        with pytest.raises(ValidationError):
            geometry.layered_ball([1.0], [30, 12])
        # zip would drop the layers past the end of a short rotation list
        with pytest.raises(ValidationError, match="rotations"):
            geometry.layered_ball([1.0, 0.5], [30, 12], rotations=[0.1])

    def test_truncated_cone_geometry(self):
        pts = geometry.truncated_cone(2)
        assert pts.shape == (2 * 2 * 28, 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.min(norms) >= 1.0 - 1e-12
        assert np.max(norms) < 1.45 ** 2
        assert np.min(pts[:, 2] / norms) >= 0.825 - 1e-12

    def test_truncated_cone_ratio_validation(self):
        with pytest.raises(ValidationError):
            geometry.truncated_cone(2, ratio=1.0)


class TestPlaneRings:
    def test_geometric_rings_on_plane(self):
        pts = geometry.plane_rings(1.0, 4.0, 2.0, z=0.5)
        # ratio 2 gives 6 points per ring, rings at radii 1, 2, 4, plus center
        assert pts.shape == (19, 3)
        assert np.allclose(pts[:, 2], 0.5)
        radii = np.linalg.norm(pts[:, :2], axis=1)
        assert sorted(set(np.round(radii, 9))) == [0.0, 1.0, 2.0, 4.0]

    def test_ratio_validation(self):
        with pytest.raises(ValidationError):
            geometry.plane_rings(1.0, 4.0, 1.0)

    @pytest.mark.parametrize("ring_start, ring_max, ratio", [
        (0.0, 4.0, 2.0), (-1.0, 4.0, 2.0), (float("nan"), 4.0, 2.0),
        (float("inf"), 4.0, 2.0), (1.0, float("inf"), 2.0),
        (1.0, float("nan"), 2.0), (1.0, 4.0, float("inf")),
        (1.0, 4.0, float("nan"))],
        ids=["zero_start", "negative_start", "nan_start", "inf_start",
             "inf_max", "nan_max", "inf_ratio", "nan_ratio"])
    def test_rings_that_would_never_end_rejected(self, ring_start, ring_max, ratio):
        # a start of 0 or below, or an infinite end, never passes ring_max
        with pytest.raises(ValidationError):
            geometry.plane_rings(ring_start, ring_max, ratio)


class TestCircleRing:
    def test_cardinal_points(self):
        pts = geometry.circle_ring(4, 1.0)
        assert np.allclose(pts, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-12)

    def test_center_and_rotation(self):
        pts = geometry.circle_ring(4, 2.0, center=(1.0, 1.0), rotate=np.pi / 4)
        assert np.allclose(np.linalg.norm(pts - [1.0, 1.0], axis=1), 2.0,
                           atol=1e-12)
        s = np.sqrt(2.0)
        assert np.allclose(pts[0], [1.0 + s, 1.0 + s], atol=1e-12)


class TestPointCap:
    @pytest.mark.parametrize("make", [
        lambda: geometry.plane_rings(0.30, 25.0, 1.30),
        lambda: geometry.plane_rings(0.20, 40.0, 1.20),
        lambda: geometry.plane_rings(0.14, 60.0, 1.13),
        lambda: geometry.plane_rings(1.0, 4.0, 2.0),
        lambda: geometry.box_grid([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.1),
        lambda: geometry.box_grid([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 0.24),
        lambda: geometry.sphere_shell(50),
        lambda: geometry.spherical_cap(50, 0.5),
        lambda: geometry.circle_ring(50),
        lambda: geometry.annulus(10, [1.0, 2.0, 3.0]),
        lambda: geometry.layered_ball([1.0, 0.5], [30, 12]),
        lambda: geometry.layered_ball([1.0, 0.5], [30, 12], include_center=False),
        lambda: geometry.truncated_cone(8, points_per_shell=28)],
        ids=["rings_358", "rings_931", "rings_2401", "rings_hand", "box_unit",
             "box_ball", "sphere_shell", "spherical_cap", "circle_ring",
             "annulus", "layered_ball", "layered_ball_bare", "truncated_cone"])
    def test_count_computed_before_allocation_is_the_output_length(
            self, monkeypatch, make):
        # the rings are check 5's and the dense benchmark's complement planes
        n = len(make())
        monkeypatch.setattr(geometry, "MAX_POINTS", n)
        assert len(make()) == n
        monkeypatch.setattr(geometry, "MAX_POINTS", n - 1)
        with pytest.raises(ValidationError, match=f"asks for {n} points; a generator makes 1 to {n - 1}"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: geometry.truncated_cone(0),
        lambda: geometry.annulus(10, []),
        lambda: geometry.layered_ball([], [], include_center=False),
        lambda: geometry.circle_ring(0),
        lambda: geometry.spherical_cap(-3, 0.5)],
        ids=["cone", "annulus", "layered_ball", "circle_ring", "spherical_cap"])
    def test_no_points_is_a_validation_error(self, make):
        with pytest.raises(ValidationError, match="asks for -?[03] points"):
            make()

    def test_ball_grid_counts_the_cube_it_filters(self, monkeypatch):
        cube = len(geometry.box_grid([-1.0] * 3, [1.0] * 3, 0.5))
        monkeypatch.setattr(geometry, "MAX_POINTS", cube - 1)
        with pytest.raises(ValidationError, match="box_grid"):
            geometry.ball_grid(0.5)


class TestGeneratorRegistry:
    def test_all_entries_callable(self):
        assert set(geometry.GENERATORS) == {
            "box_grid", "sphere_shell", "spherical_cap", "ball_grid",
            "annulus", "layered_ball", "truncated_cone", "plane_rings",
            "circle_ring"}
        for fn in geometry.GENERATORS.values():
            assert callable(fn)


class TestCsvRoundTrip:
    def test_three_d_roundtrip(self, tmp_path):
        ps = PointSet.from_points(geometry.sphere_shell(15, 1.3))
        path = tmp_path / "cloud.csv"
        geometry.save_csv(path, ps)
        back = geometry.load_csv(path)
        assert np.array_equal(back.points, ps.points)
        assert np.array_equal(back.cell_radius, ps.cell_radius)

    def test_two_d_roundtrip_keeps_radius_column(self, tmp_path):
        ps = PointSet.from_points(geometry.circle_ring(8, 1.0))
        path = tmp_path / "ring.csv"
        geometry.save_csv(path, ps)
        back = geometry.load_csv(path)
        assert back.dim == 2
        assert np.array_equal(back.points, ps.points)
        assert np.array_equal(back.cell_radius, ps.cell_radius)

    def test_headerless_coordinates_get_default_radii(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0,0,0\n1,0,0\n")
        ps = geometry.load_csv(path)
        assert ps.dim == 3
        assert np.array_equal(ps.cell_radius, [0.5, 0.5])

    def test_headerless_four_columns_are_coordinates(self, tmp_path):
        # only a cell_radius header marks a radius column; these rows used to
        # load as a 3-d cloud with radii [0.1, 0.1, 0.2]
        path = tmp_path / "wide.csv"
        path.write_text("0,0,0,0.1\n1,0,0,0.1\n0,1,0,0.2\n")
        ps = geometry.load_csv(path)
        assert ps.dim == 4
        assert np.array_equal(ps.points[:, 3], [0.1, 0.1, 0.2])
        assert ps.cell_radius == pytest.approx([0.5, 0.5, 0.5 * np.sqrt(1.01)],
                                               rel=1e-15)

    def test_rows_past_the_cap_are_refused_before_the_rest_is_read(
            self, tmp_path, monkeypatch):
        # the non-numeric eighth row is never reached: reading stops at the
        # sixth data row, before any array is built
        monkeypatch.setattr(geometry, "MAX_POINTS", 5)
        rows = [f"{k},0,0" for k in range(10)]
        path = tmp_path / "ten.csv"
        path.write_text("\n".join(["x0,x1,x2", *rows]) + "\n")
        with pytest.raises(ValidationError,
                           match="more than 5 points; a cloud has 1 to 5"):
            geometry.load_csv(path)
        rows[7] = "oops,0,0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="more than 5 points"):
            geometry.load_csv(path)
        path.write_text("\n".join(rows[:5]) + "\n")
        assert len(geometry.load_csv(path)) == 5

    def test_malformed_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0,0\noops,0,0\n")
        with pytest.raises(ValidationError):
            geometry.load_csv(bad)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0,0,0\n1,0\n")
        with pytest.raises(ValidationError):
            geometry.load_csv(ragged)
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1,x2,cell_radius\n")
        with pytest.raises(ValidationError):
            geometry.load_csv(empty)
