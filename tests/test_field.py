import numpy as np
import pytest
from hypothesis import given, strategies as st

from spreadopt import (
    ConfigurationError,
    FieldGrid,
    ShapeError,
    as_amount_map,
    cost,
    load_map,
    save_map,
)
from spreadopt.field import MAX_N_CELLS


def test_grid_geometry():
    grid = FieldGrid(150.0, 90)
    assert grid.cell_size == pytest.approx(150.0 / 90)
    assert grid.cell_area == pytest.approx((150.0 / 90) ** 2)


def test_default_field_has_8100_cells():
    xs, ys = FieldGrid(150.0, 90).center_mesh()
    assert xs.shape == ys.shape == (90, 90)
    assert (xs[0, 0], ys[0, 0]) == pytest.approx((150.0 / 180, 150.0 / 180))
    for centers in (xs, ys):
        assert (centers > 0.0).all() and (centers < 150.0).all()


def test_the_cell_count_is_bounded_before_any_map_is_allocated():
    # a grid holds no map, so one at the bound costs nothing to build
    assert FieldGrid(1.0, MAX_N_CELLS).n_cells == MAX_N_CELLS
    with pytest.raises(ConfigurationError, match=f"n_cells={MAX_N_CELLS + 1} is more than"):
        FieldGrid(1.0, MAX_N_CELLS + 1)


def test_single_cell_center_is_the_midpoint():
    xs, ys = FieldGrid(2.0, 1).center_mesh()
    assert xs.tolist() == ys.tolist() == [[1.0]]


def test_two_by_two_centers_row_major():
    xs, ys = FieldGrid(2.0, 2).center_mesh()
    assert xs.tolist() == [[0.5, 1.5], [0.5, 1.5]]
    assert ys.tolist() == [[0.5, 0.5], [1.5, 1.5]]


def test_origin_offsets_every_center():
    base_x, base_y = FieldGrid(30.0, 3).center_mesh()
    moved_x, moved_y = FieldGrid(30.0, 3, origin=(7.0, -2.0)).center_mesh()
    assert np.allclose(moved_x, base_x + 7.0)
    assert np.allclose(moved_y, base_y - 2.0)


def test_rows_index_y_and_columns_index_x():
    grid = FieldGrid(4.0, 4)
    xs, ys = grid.center_mesh()
    assert np.allclose(xs[0], [0.5, 1.5, 2.5, 3.5])  # columns sweep x
    assert np.allclose(ys[:, 0], [0.5, 1.5, 2.5, 3.5])  # rows sweep y


def test_cost_of_matching_maps_is_zero():
    grid = FieldGrid(10.0, 4)
    p = as_amount_map(np.full((4, 4), 3.0), grid)
    assert cost(p, p) == 0.0


def test_cost_of_uniform_shortfall():
    grid = FieldGrid(150.0, 90)
    prescribed = as_amount_map(np.full((90, 90), 20.0), grid)
    assert cost(grid.zeros(), prescribed) == 8100 * 400.0


def test_cost_sums_squared_residuals():
    prescribed = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert cost(np.zeros((2, 2)), prescribed) == 30.0


def test_cost_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        cost(np.zeros((2, 2)), np.zeros((3, 3)))


def test_amount_map_validation():
    grid = FieldGrid(10.0, 2)
    with pytest.raises(ShapeError):
        as_amount_map(np.zeros((2, 3)), grid)
    with pytest.raises(ShapeError):
        as_amount_map(np.zeros((3, 3)), grid)
    with pytest.raises(ShapeError):
        as_amount_map(np.array([[np.nan, 0.0], [0.0, 0.0]]), grid)
    with pytest.raises(ShapeError):
        as_amount_map(np.full((2, 2), -1.0), grid)


def test_map_file_round_trip(tmp_path):
    grid = FieldGrid(10.0, 5)
    rng = np.random.default_rng(7)
    values = as_amount_map(rng.uniform(0.0, 50.0, (5, 5)), grid)
    path = tmp_path / "a.csv"
    save_map(path, values)
    again = load_map(path, grid)
    assert np.allclose(again, values, rtol=1e-11, atol=0.0)
    # headerless comma-separated rows
    first = path.read_text().splitlines()[0]
    assert len(first.split(",")) == 5
    assert not any(c.isalpha() for c in first)


def test_load_map_checks_grid_size(tmp_path):
    path = tmp_path / "a.csv"
    save_map(path, np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        load_map(path, FieldGrid(10.0, 4))


@given(st.integers(1, 12))
def test_cost_is_nonnegative_and_zero_only_at_match(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 10.0, (n, n))
    b = rng.uniform(0.0, 10.0, (n, n))
    value = cost(a, b)
    assert value >= 0.0
    assert (value == 0.0) == bool(np.array_equal(a, b))


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        FieldGrid(0.0, 4)
    with pytest.raises(ConfigurationError):
        FieldGrid(10.0, 0)
