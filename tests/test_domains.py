import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vilab import Ball, Box, Product, Simplex

from helpers import dense_grid, greedy_packing_count, linf_cover, min_dist_to_set, vertices


def small_domains():
    return [
        Simplex(1),
        Simplex(2),
        Ball(np.zeros(2), 1.0),
        Ball(np.array([0.3, -0.2, 0.1]), 0.7),
        Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        Box(np.array([0.0, -2.0, 1.0]), np.array([1.0, 3.0, 1.5])),
        Product((Box(np.array([-1.0]), np.array([1.0])), Ball(np.zeros(2), 0.5))),
        Product((Simplex(1), Box(np.array([0.0, 0.0]), np.array([2.0, 1.0])))),
    ]


class TestProjection:
    def test_box_clamp(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        assert np.allclose(box.project(np.array([2.0, 0.5])), [1.0, 0.5])
        assert np.allclose(box.project(np.array([-3.0, -3.0])), [-1.0, -1.0])
        z = np.array([0.2, -0.7])
        assert np.allclose(box.project(z), z)

    def test_simplex_identity_on_feasible(self):
        s = Simplex(1)
        z = np.array([0.5, 0.5])
        assert np.allclose(s.project(z), z)

    def test_simplex_clips_to_vertex(self):
        s = Simplex(1)
        assert np.allclose(s.project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_ball_formula(self):
        ball = Ball(np.array([1.0, 0.0]), 2.0)
        p = ball.project(np.array([5.0, 0.0]))
        assert np.allclose(p, [3.0, 0.0])
        inside = np.array([1.5, 0.5])
        assert np.allclose(ball.project(inside), inside)

    def test_variational_characterization(self):
        # p = proj(z) iff <z - p, u - p> <= 0 for all feasible u
        rng = np.random.default_rng(0)
        for dom in small_domains():
            z = rng.normal(scale=3.0, size=(50, dom.dim))
            p = dom.project(z)
            u = dom.sample(rng, 200)
            for i in range(len(z)):
                vals = (u - p[i]) @ (z[i] - p[i])
                assert np.max(vals) <= 1e-9

    def test_simplex_matches_segment_search(self):
        # Simplex(1) is the segment (t, 1-t); brute-force the parameter
        s = Simplex(1)
        ts = np.linspace(0.0, 1.0, 200001)
        seg = np.stack([ts, 1.0 - ts], axis=-1)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(scale=2.0, size=2)
            p = s.project(z)
            best = seg[np.argmin(np.linalg.norm(seg - z, axis=-1))]
            assert np.linalg.norm(p - best) <= 2e-5
            assert np.linalg.norm(z - p) <= np.min(np.linalg.norm(seg - z, axis=-1)) + 1e-12

    def test_projection_is_idempotent_and_feasible(self):
        rng = np.random.default_rng(2)
        for dom in small_domains():
            z = rng.normal(scale=4.0, size=(100, dom.dim))
            p = dom.project(z)
            assert np.all(dom.contains(p, tol=1e-9))
            assert np.allclose(dom.project(p), p, atol=1e-12)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(3)
        for dom in small_domains():
            z = rng.normal(size=(4, 5, dom.dim))
            batched = dom.project(z)
            assert batched.shape == z.shape
            for i in range(4):
                for j in range(5):
                    assert np.allclose(batched[i, j], dom.project(z[i, j]))

    def test_out_buffer_gets_the_same_bits(self):
        # project(z, out=buf) returns buf holding project(z) bit for bit,
        # also when buf is z itself
        rng = np.random.default_rng(4)
        for dom in small_domains():
            for shape in ((dom.dim,), (6, dom.dim)):
                z = rng.normal(scale=3.0, size=shape)
                before = z.copy()
                expected = dom.project(z)
                buf = np.empty_like(z)
                assert dom.project(z, out=buf) is buf
                assert np.array_equal(buf, expected)
                assert np.array_equal(z, before)
                assert dom.project(z, out=z) is z
                assert np.array_equal(z, expected)

    def test_ball_bits_ignore_memory_layout(self):
        # the row norms sum squares in one order whatever the input's layout:
        # C, Fortran and strided inputs, and Fortran out= buffers, agree bitwise
        rng = np.random.default_rng(5)
        ball = Ball(rng.normal(size=30), 1.5)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=(50, 30))
            expected = ball.project(z)
            wide = np.empty((50, 60))
            wide[:, ::2] = z
            fortran = np.asfortranarray(z)
            for view in (fortran, wide[:, ::2]):
                assert np.array_equal(ball.project(view), expected)
            buf = np.empty_like(z, order="F")
            assert np.array_equal(ball.project(z, out=buf), expected)
            assert np.array_equal(ball.project(fortran, out=fortran), expected)


class TestMembership:
    def test_examples(self):
        s = Simplex(2)
        assert s.contains(np.array([1 / 3, 1 / 3, 1 / 3]))
        assert not s.contains(np.array([0.5, 0.5, 0.5]))
        ball = Ball(np.zeros(2), 1.0)
        assert ball.contains(np.array([0.6, 0.8]))
        assert not ball.contains(np.array([0.8, 0.8]))

    def test_tolerance_boundary(self):
        ball = Ball(np.zeros(1), 1.0)
        assert ball.contains(np.array([1.0 + 5e-10]), tol=1e-9)
        assert not ball.contains(np.array([1.0 + 5e-9]), tol=1e-9)

    def test_distance_values(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert np.isclose(box.distance(np.array([2.0, 0.5])), 1.0)
        assert np.isclose(box.distance(np.array([2.0, 2.0])), np.sqrt(2.0))

    def test_interior_margin(self):
        box = Box(np.array([0.0]), np.array([1.0]))
        assert box.contains_interior(np.array([0.5]), 0.4)
        assert not box.contains_interior(np.array([0.05]), 0.1)
        s = Simplex(2)
        assert s.contains_interior(s.center(), 0.1)
        assert not s.contains_interior(np.array([1.0, 0.0, 0.0]), 0.1)
        # interior test also requires sitting on the affine hull
        assert not s.contains_interior(np.array([0.5, 0.5, 0.5]), 0.1)

    def test_ball_membership_bits_ignore_memory_layout(self):
        # distance and contains_interior agree bitwise on C, Fortran and
        # strided inputs. Each interior margin puts the threshold exactly on
        # one row's C-order norm (1 - (1 - t) == t for t in [0.5, 1]), so a
        # norm that moved by one ulp with the layout flips that row.
        rng = np.random.default_rng(7)
        ball = Ball(np.zeros(30), 1.0)
        z = rng.normal(size=(50, 30))
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        outside = z * rng.uniform(1.1, 2.0, size=(50, 1))
        inside = z * rng.uniform(0.5, 0.99, size=(50, 1))
        margins = 1.0 - np.linalg.norm(inside, axis=-1)

        def layouts(x):
            wide = np.empty((50, 60))
            wide[:, ::2] = x
            return [x, np.asfortranarray(x), wide[:, ::2]]

        dists = [ball.distance(v) for v in layouts(outside)]
        assert all(np.array_equal(d, dists[0]) for d in dists[1:])
        for m in margins:
            flags = [ball.contains_interior(v, m) for v in layouts(inside)]
            assert all(np.array_equal(f, flags[0]) for f in flags[1:])


class TestDiameter:
    def test_values(self):
        assert np.isclose(Simplex(3).diameter(), np.sqrt(2.0))
        ball = Ball(np.zeros(3), 2.0)
        assert np.isclose(ball.diameter(), 4.0)
        box = Box(np.array([0.0, 0.0]), np.array([3.0, 4.0]))
        assert np.isclose(box.diameter(), 5.0)

    def test_realized_by_feasible_pair(self):
        # the reported diameter is attained (not just an upper bound)
        witnesses = {
            "simplex": (Simplex(2), np.eye(3)[0], np.eye(3)[1]),
            "box": (
                Box(np.array([0.0, -1.0]), np.array([2.0, 1.0])),
                np.array([0.0, -1.0]),
                np.array([2.0, 1.0]),
            ),
        }
        for dom, a, b in witnesses.values():
            assert dom.contains(a) and dom.contains(b)
            assert np.isclose(np.linalg.norm(a - b), dom.diameter())
        ball = Ball(np.array([0.5, -0.5]), 1.5)
        u = np.array([1.0, 0.0])
        a = ball.center_point + ball.radius * u
        b = ball.center_point - ball.radius * u
        assert ball.contains(a, tol=1e-9) and ball.contains(b, tol=1e-9)
        assert np.isclose(np.linalg.norm(a - b), ball.diameter())

    def test_never_exceeded_by_samples(self):
        rng = np.random.default_rng(4)
        for dom in small_domains():
            pts = dom.sample(rng, 300)
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            assert d.max() <= dom.diameter() + 1e-9


class TestCenterAndNorms:
    def test_center_is_deep_inside(self):
        for dom in small_domains():
            c = dom.center()
            assert dom.contains(c, tol=1e-12)
            assert dom.contains_interior(c, 1e-6)

    def test_max_point_norm_examples(self):
        assert np.isclose(Simplex(4).max_point_norm(), 1.0)
        assert np.isclose(Ball(np.array([3.0, 0.0]), 1.0).max_point_norm(), 4.0)
        box = Box(np.array([-2.0, 0.0]), np.array([1.0, 1.0]))
        assert np.isclose(box.max_point_norm(), np.sqrt(5.0))

    def test_max_point_norm_bounds_samples(self):
        rng = np.random.default_rng(5)
        for dom in small_domains():
            pts = dom.sample(rng, 2000)
            assert np.linalg.norm(pts, axis=-1).max() <= dom.max_point_norm() + 1e-9

    def test_max_point_norm_attained_on_vertex_domains(self):
        for dom in (Simplex(3), Box(np.array([-1.0, -0.5]), np.array([0.5, 2.0]))):
            best = max(np.linalg.norm(v) for v in vertices(dom))
            assert np.isclose(best, dom.max_point_norm())


class TestLMO:
    def test_simplex_picks_smallest_coefficient(self):
        s = Simplex(2)
        assert np.allclose(s.lmo(np.array([3.0, 1.0, 2.0])), [0.0, 1.0, 0.0])
        # ties break to the lowest index
        assert np.allclose(s.lmo(np.array([1.0, 1.0, 5.0])), [1.0, 0.0, 0.0])
        assert np.allclose(s.lmo(np.zeros(3)), [1.0, 0.0, 0.0])

    def test_box_picks_active_corner(self):
        box = Box(np.array([-1.0, -1.0]), np.array([2.0, 2.0]))
        assert np.allclose(box.lmo(np.array([1.0, -1.0])), [-1.0, 2.0])
        # zero coefficients resolve to the lower corner
        assert np.allclose(box.lmo(np.array([0.0, 1.0])), [-1.0, -1.0])

    def test_ball_formula(self):
        ball = Ball(np.array([1.0, 1.0]), 2.0)
        g = np.array([3.0, 4.0])
        assert np.allclose(ball.lmo(g), ball.center_point - 2.0 * g / 5.0)
        assert np.allclose(ball.lmo(np.zeros(2)), ball.center_point)

    def test_optimal_over_vertices(self):
        rng = np.random.default_rng(6)
        for dom in (Simplex(3), Box(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 1.0, 3.0]))):
            verts = np.array(vertices(dom))
            for _ in range(500):
                g = rng.normal(size=dom.dim)
                val = g @ dom.lmo(g)
                assert val <= (verts @ g).min() + 1e-12

    def test_optimal_over_samples(self):
        rng = np.random.default_rng(7)
        for dom in small_domains():
            pts = dom.sample(rng, 500)
            for _ in range(50):
                g = rng.normal(size=dom.dim)
                u = dom.lmo(g)
                assert dom.contains(u, tol=1e-9)
                assert g @ u <= (pts @ g).min() + 1e-9

    def test_batched(self):
        rng = np.random.default_rng(8)
        for dom in small_domains():
            g = rng.normal(size=(7, dom.dim))
            batched = dom.lmo(g)
            for i in range(7):
                assert np.allclose(batched[i], dom.lmo(g[i]))


class TestVertices:
    """The brute-force vertex lists the LMO and norm tests check against."""

    def test_simplex(self):
        verts = vertices(Simplex(2))
        assert len(verts) == 3
        assert np.allclose(np.array(verts), np.eye(3))

    def test_box_corner_count(self):
        box = Box(np.zeros(3), np.ones(3))
        verts = np.array(vertices(box))
        assert verts.shape == (8, 3)
        assert len(np.unique(verts, axis=0)) == 8
        assert np.all(box.contains(verts))

    def test_smooth_sets_have_none(self):
        assert vertices(Ball(np.zeros(2), 1.0)) is None
        prod = Product((Ball(np.zeros(2), 1.0), Box(np.zeros(1), np.ones(1))))
        assert vertices(prod) is None


class TestCovering:
    def test_frozen_counts(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert box.covering_number_upper(0.25) == 4
        assert Ball(np.zeros(1), 1.0).covering_number_upper(1.0) == 3
        assert Simplex(1).covering_number_upper(0.5) == 4

    def test_points_match_reported_count_box_ball(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        ball = Ball(np.array([0.2, -0.1]), 0.8)
        for dom in (box, ball):
            for r in (0.2, 0.35, 0.7):
                assert len(linf_cover(dom, r)) == dom.covering_number_upper(r)

    def test_constructions_cover_dense_grid(self):
        cases = [
            (Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])), 0.3),
            (Ball(np.array([0.2, -0.1]), 0.8), 0.3),
            (Simplex(2), 0.4),
        ]
        for dom, r in cases:
            grid = dense_grid(dom, r / 10.0)
            worst = min_dist_to_set(grid, linf_cover(dom, r), "linf").max()
            assert worst <= r + 1e-9, (type(dom).__name__, worst)

    def test_packing_lower_bound(self):
        # a strict 2r-packing can never exceed the r-covering number
        cases = [
            Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
            Ball(np.zeros(2), 1.0),
            Simplex(2),
            Product((Box(np.array([0.0]), np.array([1.0])), Box(np.array([0.0]), np.array([1.0])))),
        ]
        for dom in cases:
            for r in (0.23, 0.4):
                grid = dense_grid(dom, r / 5.0)
                packed = greedy_packing_count(grid, 2.0 * r, "linf")
                assert packed <= dom.covering_number_upper(r)

    def test_monotone_in_radius(self):
        rs = np.linspace(0.1, 1.0, 10)
        for dom in small_domains():
            counts = [dom.covering_number_upper(float(r)) for r in rs]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("d", [25, 40])
    def test_exact_at_any_dimension(self, d):
        # 10 cells per axis; the product passes int64's 9.2e18 from d = 19
        assert Box(-np.ones(d), np.ones(d)).covering_number_upper(0.1) == 10 ** d
        assert Ball(np.zeros(d), 1.0).covering_number_upper(0.25) == 9 ** d

    def test_invalid_inputs(self):
        dom = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            dom.covering_number_upper(0.0)
        with pytest.raises(ValueError):
            dom.covering_number_upper(-1.0)


def _points(d):
    return st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d).map(np.array)


_BOXES = st.integers(1, 2).flatmap(lambda d: st.builds(
    lambda lower, sides: Box(lower, lower + sides),
    _points(d), st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d).map(np.array)))
_BALLS = st.integers(1, 2).flatmap(lambda d: st.builds(Ball, _points(d), st.floats(0.1, 1.0)))
_BOXES_AND_BALLS = st.one_of(_BOXES, _BALLS)
_RADII = st.floats(0.15, 1.0)


class TestGeometryProperties:
    """diameter() and the l-inf cover against brute force, on random boxes and balls."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_BOXES_AND_BALLS, _RADII)
    def test_cover_size_is_the_count(self, dom, r):
        assert len(linf_cover(dom, r)) == dom.covering_number_upper(r)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(_BOXES_AND_BALLS, _RADII)
    def test_cover_reaches_a_dense_grid(self, dom, r):
        grid = dense_grid(dom, r / 10.0)
        assert min_dist_to_set(grid, linf_cover(dom, r), "linf").max() <= r + 1e-9

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_BOXES_AND_BALLS, st.integers(0, 2 ** 32 - 1))
    def test_diameter_bounds_sampled_pairs(self, dom, seed):
        pts = dom.sample(np.random.default_rng(seed), 200)
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        assert dists.max() <= dom.diameter() + 1e-9


class TestSampling:
    def test_samples_are_feasible(self):
        rng = np.random.default_rng(9)
        for dom in small_domains():
            pts = dom.sample(rng, 2000)
            assert pts.shape == (2000, dom.dim)
            assert np.all(dom.contains(pts, tol=1e-9))

    def test_single_draw_shape(self):
        rng = np.random.default_rng(10)
        for dom in small_domains():
            assert dom.sample(rng).shape == (dom.dim,)

    def test_seeded_determinism(self):
        for dom in small_domains():
            a = dom.sample(np.random.default_rng(123))
            b = dom.sample(np.random.default_rng(123))
            c = dom.sample(np.random.default_rng(124))
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_spread(self):
        # draws should not collapse onto a low-dimensional subset
        rng = np.random.default_rng(11)
        ball = Ball(np.zeros(2), 1.0)
        pts = ball.sample(rng, 4000)
        radii = np.linalg.norm(pts, axis=-1)
        assert radii.min() < 0.2 and radii.max() > 0.9
        frac_inner = np.mean(radii <= 0.5)  # area ratio is 1/4
        assert 0.15 < frac_inner < 0.35


class TestProduct:
    def test_split_join_roundtrip(self):
        prod = Product((Simplex(1), Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))))
        rng = np.random.default_rng(12)
        z = rng.normal(size=(5, prod.dim))
        parts = prod.split(z)
        assert parts[0].shape == (5, 2) and parts[1].shape == (5, 2)
        assert np.array_equal(prod.join(parts), z)

    def test_project_is_factorwise(self):
        f1 = Box(np.array([-1.0]), np.array([1.0]))
        f2 = Ball(np.zeros(2), 1.0)
        prod = Product((f1, f2))
        z = np.array([3.0, 2.0, 2.0])
        p = prod.project(z)
        assert np.allclose(p[:1], f1.project(z[:1]))
        assert np.allclose(p[1:], f2.project(z[1:]))

    def test_dim_bookkeeping(self):
        prod = Product((Simplex(2), Ball(np.zeros(2), 1.0), Box(np.zeros(1), np.ones(1))))
        assert prod.dim == 6
        assert [s.stop - s.start for s in prod.slices] == [3, 2, 1]


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Simplex(2).project(np.zeros(2))
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 1.0).lmo(np.zeros(3))

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            Simplex(0)
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            Box(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Box(np.array([0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Product(())

    @pytest.mark.parametrize("center, radius", [
        (np.zeros(2), np.inf), (np.zeros(2), np.nan), (np.array([np.nan, 0.0]), 1.0),
        (np.array([0.0, np.inf]), 1.0)])
    def test_ball_must_be_finite(self, center, radius):
        with pytest.raises(ValueError, match="finite"):
            Ball(center, radius)

    @pytest.mark.parametrize("lower, upper", [
        ([-np.inf], [np.inf]), ([0.0, -np.inf], [1.0, 0.0]), ([0.0], [np.inf])])
    def test_box_must_be_finite(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            Box(np.array(lower), np.array(upper))
