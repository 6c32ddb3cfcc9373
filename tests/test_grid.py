import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbelab import (
    CustomIC,
    DiscreteFragmentsBreakage,
    DomainError,
    ExponentialIC,
    Grid,
    GridFunction,
    WeightedExponentialIC,
    build_grid,
    l1_norm,
    project_initial,
    quad_moment,
)
from cbelab.collision import birth_map
from cbelab.grid import _interp_rows
from error_bounds import weighted_norm


class TestBuildGrid:
    def test_uniform_edges_and_midpoints(self):
        grid = build_grid(1.0, 4)
        assert grid.edges == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.midpoints == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert grid.widths == pytest.approx([0.25] * 4)

    def test_geometric_edges(self):
        grid = build_grid(1.0, 3, scheme="geometric", eps_min=0.25)
        assert grid.edges == pytest.approx([0.0, 0.25, 0.5, 1.0])

    def test_single_cell_rejected(self):
        with pytest.raises(DomainError):
            build_grid(1.0, 1)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([0.0, 1.0], "at least two cells"),
            ([0.5, 1.0, 2.0], "first edge must be exactly 0"),
            ([0.0, 1.0, 1.0], "strictly increasing"),
            ([0.0, 2.0, 1.0], "strictly increasing"),
        ],
        ids=["one-cell", "first-edge", "repeated-edge", "decreasing-edge"],
    )
    def test_malformed_edges_rejected(self, edges, message):
        with pytest.raises(DomainError, match=message):
            Grid(edges=np.array(edges))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(DomainError, match="unknown grid scheme 'hex'"):
            build_grid(1.0, 4, scheme="hex")

    @pytest.mark.parametrize("scheme, eps", [("uniform", None), ("geometric", 1e-3)])
    @pytest.mark.parametrize("cells", [2**60 - 65, 10**19])
    def test_cells_past_numpy_array_limit_rejected(self, scheme, eps, cells):
        # 2**60 - 64 edges round to 2**60 in linspace: 2**63 bytes
        with pytest.raises(DomainError, match="largest array numpy can address"):
            build_grid(1.0, cells, scheme=scheme, eps_min=eps)

    @pytest.mark.parametrize("rmax", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_non_finite_or_non_positive_radius(self, rmax):
        with pytest.raises(DomainError, match="rmax must be finite and positive"):
            build_grid(rmax, 10)

    def test_geometric_requires_interior_first_edge(self):
        with pytest.raises(DomainError):
            build_grid(1.0, 4, scheme="geometric", eps_min=2.0)
        with pytest.raises(DomainError):
            build_grid(1.0, 4, scheme="geometric")

    def test_endpoints_are_exact(self):
        for scheme, eps in (("uniform", None), ("geometric", 1e-3)):
            grid = build_grid(7.3, 57, scheme=scheme, eps_min=eps)
            assert grid.edges[0] == 0.0
            assert grid.edges[-1] == 7.3
            assert np.sum(grid.widths) == pytest.approx(7.3, rel=1e-14)

    def test_construction_is_deterministic(self):
        a = build_grid(13.7, 211, scheme="geometric", eps_min=0.01)
        b = build_grid(13.7, 211, scheme="geometric", eps_min=0.01)
        assert a.edges.tobytes() == b.edges.tobytes()


class TestProjection:
    def test_exponential_first_cell(self):
        grid = build_grid(1.0, 4)
        projected = project_initial(ExponentialIC(), grid)
        assert projected.values[0] == pytest.approx(
            (1.0 - math.exp(-0.25)) / 0.25
        )

    def test_weighted_exponential_first_cell(self):
        grid = build_grid(1.0, 4)
        projected = project_initial(WeightedExponentialIC(), grid)
        assert projected.values[0] == pytest.approx(
            (1.0 - 1.25 * math.exp(-0.25)) / 0.25
        )

    def test_constant_custom_function(self):
        grid = build_grid(3.0, 7)
        projected = project_initial(CustomIC(lambda x: 1.0), grid)
        assert projected.values == pytest.approx(np.ones(7))

    def test_custom_projection_matches_closed_form(self):
        # Gauss-Legendre projection of exp(-x) against its antiderivative
        grid = build_grid(5.0, 20)
        gl = project_initial(CustomIC(lambda x: np.exp(-x)), grid)
        exact = project_initial(ExponentialIC(), grid)
        assert gl.values == pytest.approx(exact.values, rel=1e-10)

    def test_per_value_custom_function_is_refused(self):
        # math.exp takes one number; the projection calls fn once on every node
        with pytest.raises(DomainError, match="np.where.*np.vectorize"):
            project_initial(CustomIC(lambda x: math.exp(-x)), build_grid(5.0, 20))

    @pytest.mark.parametrize("init", [ExponentialIC(), WeightedExponentialIC()])
    def test_projected_mass_matches_integral(self, init):
        grid = build_grid(10.0, 200)
        projected = project_initial(init, grid)
        # integral of x * f(x) over (0, 10]
        if isinstance(init, ExponentialIC):
            target = 1.0 - 11.0 * math.exp(-10.0)
        else:
            target = 2.0 - 122.0 * math.exp(-10.0)
        assert quad_moment(projected, 1) == pytest.approx(target, rel=1e-3)


class TestQuadMoment:
    def test_constant_zeroth_moment(self):
        grid = build_grid(1.0, 4)
        ones = GridFunction(grid, np.ones(4))
        assert quad_moment(ones, 0) == pytest.approx(1.0)

    def test_constant_first_moment(self):
        grid = build_grid(1.0, 4)
        ones = GridFunction(grid, np.ones(4))
        assert quad_moment(ones, 1) == pytest.approx(0.5)

    def test_projected_exponential_number(self):
        grid = build_grid(10.0, 1000)
        projected = project_initial(ExponentialIC(), grid)
        assert quad_moment(projected, 0) == pytest.approx(
            1.0 - math.exp(-10.0), abs=1e-4
        )

    def test_negative_order_rejected(self):
        grid = build_grid(1.0, 4)
        with pytest.raises(DomainError):
            quad_moment(GridFunction(grid, np.ones(4)), -1)


class TestInterpEval:
    """The two samplers between midpoints the series run: ``grid._interp_rows`` and,
    for discrete fragments, the interpolated birth map that zeroes sites beyond R."""

    def test_midpoints_are_nodes(self):
        grid = build_grid(2.0, 8)
        rows = np.stack([np.sin(grid.midpoints) + 2.0, np.cos(grid.midpoints)])
        samples = _interp_rows(grid.midpoints, grid.midpoints, rows)
        assert np.array_equal(samples, rows)

    def test_zero_beyond_truncation(self):
        grid = build_grid(2.0, 3)
        sampler = birth_map(grid, DiscreteFragmentsBreakage((0.5, 0.5)), interpolated=True)
        # sites 2 m per ratio: 2/3 between midpoints, 2 exactly at R, 10/3 past R
        assert sampler.sites[1] == grid.rmax
        values = np.array([1.0, 2.0, 4.0])
        assert sampler.sample(values).tolist() == [1.5, 4.0, 0.0] * 2
        # the cut multiplies by the mask, so a negative profile reads -0.0 past R
        assert np.signbit(sampler.sample(-values)).all()

    def test_linear_between_midpoints(self):
        grid = build_grid(1.0, 4)
        rows = np.array([[1.0, 2.0, 4.0, 0.5], [0.0, 1.0, 2.0, 3.0]])
        x = 0.5 * (grid.midpoints[1:] + grid.midpoints[:-1])
        samples = _interp_rows(x, grid.midpoints, rows)
        assert samples.shape == (2, 3)
        assert samples[0] == pytest.approx([1.5, 3.0, 2.25])
        assert samples[1] == pytest.approx([0.5, 1.5, 2.5])

    def test_constant_extension_near_origin(self):
        grid = build_grid(1.0, 4)
        values = np.array([1.5, 2.0, 2.5, 3.0])
        samples = _interp_rows(np.array([1e-6, 0.1, 0.9, 1.0, 5.0]), grid.midpoints, values)
        # constant below the first midpoint and past the last, with no cut at R
        assert samples.tolist() == [1.5, 1.5, 3.0, 3.0, 3.0]

    def test_monotone_data_stays_monotone(self):
        grid = build_grid(4.0, 16)
        values = np.sort(np.exp(-grid.midpoints))
        samples = _interp_rows(np.linspace(1e-3, 4.0, 333), grid.midpoints, values)
        assert np.all(np.diff(samples) >= -1e-15)


class TestWeightedNorm:
    def test_zero_function(self):
        grid = build_grid(1.0, 4)
        assert weighted_norm(GridFunction(grid, np.zeros(4)), 1.0, 0.0) == 0.0

    def test_unit_function_closed_form(self):
        grid = build_grid(1.0, 4)
        ones = GridFunction(grid, np.ones(4))
        # weight x + 1 integrates to 1/2 + 1 on (0, 1]
        assert weighted_norm(ones, 1.0, 0.0) == pytest.approx(1.5)

    def test_against_direct_quadrature(self):
        grid = build_grid(10.0, 10_000)
        projected = project_initial(ExponentialIC(), grid)
        value = weighted_norm(projected, 1.0, 0.5)
        direct = float(
            np.sum(
                (grid.midpoints + 1.0 / grid.midpoints)
                * np.abs(projected.values)
                * grid.widths
            )
        )
        assert math.isfinite(value)
        assert value == pytest.approx(direct, rel=1e-12)

    def test_exponent_domains(self):
        grid = build_grid(1.0, 4)
        ones = GridFunction(grid, np.ones(4))
        with pytest.raises(DomainError):
            weighted_norm(ones, 0.5, 0.0)
        with pytest.raises(DomainError):
            weighted_norm(ones, 1.0, -0.1)


class TestGridFunction:
    def test_length_mismatch_rejected(self):
        grid = build_grid(1.0, 4)
        with pytest.raises(DomainError):
            GridFunction(grid, np.ones(5))

    def test_non_finite_rejected(self):
        grid = build_grid(1.0, 4)
        with pytest.raises(DomainError):
            GridFunction(grid, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_values_are_read_only(self):
        grid = build_grid(1.0, 4)
        g = GridFunction(grid, np.ones(4))
        with pytest.raises(ValueError):
            g.values[0] = 2.0

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(0.1, 10.0), cells=st.integers(2, 40))
    def test_l1_norm_scales_linearly(self, scale, cells):
        grid = build_grid(3.0, cells)
        base = np.linspace(1.0, 2.0, cells)
        assert l1_norm(GridFunction(grid, scale * base)) == pytest.approx(
            scale * l1_norm(GridFunction(grid, base))
        )
