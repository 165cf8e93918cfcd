import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbump import (
    ROOT,
    CellSet,
    DyadicCube,
    FileFormatError,
    GridFunction,
    InvalidCubeError,
    InvalidWeightError,
    ResolutionMismatchError,
    average,
    integral,
    level_averages,
    level_sums,
    load_grid_function,
    require_weight,
    restrict,
    save_grid_function,
    superlevel_weight,
    weak_l1_norm,
)

from entbump.grid import paint_down, reduce_up, split_levels
from entbump.sparse import HaarSpec, haar_transform

from oracles import (
    brute_weak_l1,
    cube_average,
    enumerate_cubes,
    ieee_bits,
    stable_weak_l1,
    temp_weak_l1,
)


def grid_values(resolution, elements=None):
    if elements is None:
        elements = st.floats(
            min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
        )
    return st.lists(elements, min_size=1 << resolution, max_size=1 << resolution)


class TestDyadicCube:
    def test_validation(self):
        with pytest.raises(InvalidCubeError):
            DyadicCube(-1, 0)
        with pytest.raises(InvalidCubeError):
            DyadicCube(2, 4)
        with pytest.raises(InvalidCubeError):
            DyadicCube(0, 1)

    def test_geometry(self):
        q = DyadicCube(3, 5)
        assert q.measure == 0.125
        assert q.interval == (5 / 8, 6 / 8)
        assert q.cell_count(5) == 4
        assert q.cell_range(5) == (20, 24)
        assert q.parent() == DyadicCube(2, 2)
        assert q.children() == (DyadicCube(4, 10), DyadicCube(4, 11))
        assert q.ancestor(1) == DyadicCube(1, 1)

    def test_contains(self):
        assert ROOT.contains(DyadicCube(4, 7))
        assert DyadicCube(1, 1).contains(DyadicCube(1, 1))
        assert not DyadicCube(1, 1).contains(DyadicCube(1, 0))
        assert not DyadicCube(2, 0).contains(DyadicCube(1, 0))

    def test_root_has_no_parent(self):
        with pytest.raises(InvalidCubeError):
            ROOT.parent()

    def test_children_at_grid_floor(self):
        q = DyadicCube(2, 1)
        left, right = q.children()
        assert left.cell_range(3)[0] == q.cell_range(3)[0]
        assert right.cell_range(3)[1] == q.cell_range(3)[1]

    @given(st.integers(0, 8), st.data())
    def test_parent_child_roundtrip(self, level, data):
        index = data.draw(st.integers(0, (1 << level) - 1))
        q = DyadicCube(level, index)
        for child in q.children():
            assert child.parent() == q
            assert q.contains(child)


class TestGridFunction:
    def test_constant(self):
        f = GridFunction.constant(3, 2.5)
        assert f.n_cells == 8
        assert f.cell_width == 0.125
        assert np.all(f.values == 2.5)

    def test_values_read_only(self):
        f = GridFunction(1, [1.0, 2.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            GridFunction(2, [1.0, 2.0, 3.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(0, [math.nan])

    def test_equality(self):
        assert GridFunction(1, [1.0, 2.0]) == GridFunction(1, [1.0, 2.0])
        assert GridFunction(1, [1.0, 2.0]) != GridFunction(1, [1.0, 3.0])

    def test_adopt_keeps_the_array_and_the_checks(self):
        vals = np.array([1.0, -2.0])
        f = GridFunction._adopt(1, vals)
        assert np.shares_memory(f.values, vals) and not f.values.flags.writeable
        assert f == GridFunction(1, [1.0, -2.0])
        with pytest.raises(ValueError):
            GridFunction._adopt(1, np.array([1.0, math.inf]))
        with pytest.raises(ValueError):
            GridFunction._adopt(2, np.ones(2))


class TestAverages:
    def test_left_half_average(self):
        f = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        assert average(f, DyadicCube(1, 0)) == 1.5

    def test_average_is_absolute(self):
        f = GridFunction(1, [-2.0, 2.0])
        assert average(f, ROOT) == 2.0

    def test_integral_is_signed(self):
        f = GridFunction(1, [-2.0, 2.0])
        assert integral(f, CellSet.full(1)) == 0.0
        assert integral(f, CellSet.from_indices(1, [1])) == 1.0

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatchError):
            integral(GridFunction(1, [1.0, 2.0]), CellSet.full(2))

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_level_averages_match_per_cube(self, resolution, data):
        vals = data.draw(grid_values(resolution))
        f = GridFunction(resolution, vals)
        avgs = level_averages(np.abs(f.values))
        for q in enumerate_cubes(resolution):
            direct = cube_average(vals, q.level, q.index, resolution)
            assert avgs[q.level][q.index] == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=20, deadline=None)
    def test_level_sums_match_integral(self, resolution, data):
        vals = data.draw(grid_values(resolution))
        f = GridFunction(resolution, vals)
        sums = level_sums(f.values)
        cell = f.cell_width
        for q in enumerate_cubes(resolution):
            cells = CellSet.from_cube(resolution, q)
            assert sums[q.level][q.index] * cell == pytest.approx(
                integral(f, cells), rel=1e-12, abs=1e-12
            )


def _fold(acc, x):
    # Non-commutative and remembers every step, so swapped arguments or a
    # skipped level change the result.
    return 2 * acc + x


def _int_levels(resolution):
    return st.tuples(*[
        st.lists(st.integers(-50, 50), min_size=1 << level, max_size=1 << level)
        for level in range(resolution + 1)
    ])


class TestPyramid:
    def test_resolution_zero(self):
        leaf = np.array([3.0])
        assert [a.tolist() for a in reduce_up(leaf, _fold)] == [[3.0]]
        assert [a.tolist() for a in paint_down([leaf], _fold)] == [[3.0]]
        assert [a.tolist() for a in split_levels(leaf, 0)] == [[3.0]]

    def test_small_example(self):
        assert [a.tolist() for a in reduce_up(np.array([1, 2, 3, 4]), _fold)] == [
            [2 * (2 * 1 + 2) + (2 * 3 + 4)], [4, 10], [1, 2, 3, 4]
        ]
        levels = [np.array([1]), np.array([2, 3]), np.array([4, 5, 6, 7])]
        assert [a.tolist() for a in paint_down(levels, _fold)] == [
            [1], [4, 5], [12, 13, 16, 17]
        ]

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_paint_down_matches_ancestor_loop(self, resolution, data):
        levels = [np.array(v, dtype=np.int64) for v in data.draw(_int_levels(resolution))]
        painted = paint_down(levels, _fold)
        assert len(painted) == resolution + 1
        for level in range(resolution + 1):
            assert painted[level].shape == (1 << level,)
            for index in range(1 << level):
                acc = int(levels[0][0])
                for k in range(1, level + 1):
                    acc = _fold(acc, int(levels[k][index >> (level - k)]))
                assert painted[level][index] == acc

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reduce_up_matches_per_cube_loop(self, resolution, data):
        leaves = np.array(
            data.draw(st.lists(st.integers(-50, 50), min_size=1 << resolution,
                               max_size=1 << resolution)),
            dtype=np.int64,
        )

        def cube(level, index):
            if level == resolution:
                return int(leaves[index])
            return _fold(cube(level + 1, 2 * index), cube(level + 1, 2 * index + 1))

        reduced = reduce_up(leaves, _fold)
        assert len(reduced) == resolution + 1
        for level in range(resolution + 1):
            assert reduced[level].tolist() == [cube(level, j) for j in range(1 << level)]

    @given(st.integers(0, 8))
    def test_split_levels_round_trip(self, resolution):
        flat = np.arange((2 << resolution) - 1)
        levels = split_levels(flat, resolution)
        assert [a.size for a in levels] == [1 << level for level in range(resolution + 1)]
        assert np.array_equal(np.concatenate(levels), flat)
        for level, a in enumerate(levels):
            assert a.base is flat
            assert a[0] == (1 << level) - 1


class TestCellSet:
    def test_constructors(self):
        assert CellSet.full(2).cell_count() == 4
        assert CellSet.empty(2).is_empty()
        assert CellSet.from_cube(2, DyadicCube(1, 1)).cell_count() == 2
        assert CellSet.from_indices(2, [0, 3]).measure() == 0.5
        assert CellSet.from_indices(2, []).is_empty()

    @pytest.mark.parametrize("indices", [[-1], [4], [0, 5], [-4]])
    def test_from_indices_out_of_range(self, indices):
        # a negative index would wrap around to a cell from the end
        with pytest.raises(ValueError, match="out of range"):
            CellSet.from_indices(2, indices)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_boolean_algebra(self, resolution, data):
        size = 1 << resolution
        a = CellSet(resolution, data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        b = CellSet(resolution, data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        assert a.union(b).cell_count() + a.intersection(b).cell_count() == (
            a.cell_count() + b.cell_count()
        )
        assert a.difference(b).intersection(b).is_empty()
        assert a.complement().cell_count() == size - a.cell_count()
        assert a.intersection(b).is_subset_of(a)
        assert a.is_subset_of(a.union(b))

    def test_restrict(self):
        f = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        r = restrict(f, CellSet.from_indices(2, [1, 3]))
        assert list(r.values) == [0.0, 2.0, 0.0, 4.0]


class TestWeightChecks:
    def test_negative_rejected(self):
        with pytest.raises(InvalidWeightError):
            require_weight(GridFunction(1, [1.0, -0.5]))

    def test_nonnegative_accepted(self):
        w = GridFunction(1, [0.0, 2.0])
        assert require_weight(w) is w


class TestSuperlevelAndWeakL1:
    def test_superlevel_example(self):
        g = GridFunction(1, [1.0, 3.0])
        w = GridFunction(1, [2.0, 4.0])
        assert superlevel_weight(g, 2.0, w) == 2.0

    def test_superlevel_strict(self):
        g = GridFunction(1, [1.0, 3.0])
        w = GridFunction(1, [2.0, 4.0])
        assert superlevel_weight(g, 3.0, w) == 0.0

    @pytest.mark.parametrize("lam", [-1.0, math.nan])
    def test_superlevel_rejects_negative_or_nan_level(self, lam):
        g = GridFunction(1, [1.0, 3.0])
        with pytest.raises(ValueError, match="nonnegative"):
            superlevel_weight(g, lam, GridFunction(1, [2.0, 4.0]))

    def test_weak_l1_example(self):
        g = GridFunction(1, [1.0, 2.0])
        w = GridFunction.constant(1, 1.0)
        assert weak_l1_norm(g, w) == 1.0

    def test_weak_l1_uses_absolute_values(self):
        g = GridFunction(1, [-3.0, 1.0])
        w = GridFunction.constant(1, 1.0)
        assert weak_l1_norm(g, w) == 1.5

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_weak_l1_matches_sweep(self, resolution, data):
        size = 1 << resolution
        g_vals = data.draw(grid_values(resolution))
        w_vals = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
        g = GridFunction(resolution, g_vals)
        w = GridFunction(resolution, w_vals)
        mine = weak_l1_norm(g, w)
        oracle, _ = brute_weak_l1(g_vals, w_vals, resolution)
        w_total = float(np.sum(w_vals)) / size
        assert abs(mine - oracle) <= 1e-12 * max(mine, oracle) + 2.0**-40 * max(w_total, 1.0)

    # weak_l1_norm keeps an unstable sort's order only when the sorted values
    # hold no tie; these compare it bit for bit with the stable-order oracle.

    @given(st.integers(0, 12), st.integers(0, 2**32 - 1), st.floats(1e-300, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_weak_l1_tie_free_matches_stable_order(self, resolution, seed, scale):
        rng = np.random.default_rng(seed)
        size = 1 << resolution
        g_vals = rng.permutation(size) + rng.random(size)  # distinct magnitudes
        g_vals *= rng.choice([-scale, scale], size)
        assert np.unique(np.abs(g_vals)).size == size
        w_vals = rng.lognormal(0.0, 2.0, size) * (rng.random(size) < 0.8)
        g, w = GridFunction(resolution, g_vals), GridFunction(resolution, w_vals)
        assert weak_l1_norm(g, w) == stable_weak_l1(g_vals, w_vals, resolution)

    @given(
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_weak_l1_ties_match_stable_order(self, resolution, seed, three):
        # values from a 3-element set, +-v pairs, 0.0 and -0.0
        rng = np.random.default_rng(seed)
        size = 1 << resolution
        a, b, c = three
        pool = np.array([a, -a, b, c, -c, 0.0, -0.0])
        g_vals = pool[rng.integers(0, pool.size, size)]
        w_vals = rng.lognormal(0.0, 2.0, size) * (rng.random(size) < 0.8)
        g, w = GridFunction(resolution, g_vals), GridFunction(resolution, w_vals)
        assert weak_l1_norm(g, w) == stable_weak_l1(g_vals, w_vals, resolution)

    @given(st.integers(8, 12), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_weak_l1_single_tie_matches_stable_order(self, resolution, seed, swap):
        # One +-v pair under the top cell, among weightless distinct values.
        # With weights 1, then a = 0.75 * 2^-52 and b = 1 + 2^-52, the running
        # sum ends at 2 + 2^-51 in the order (a, b) and at 2 in (b, a).
        rng = np.random.default_rng(seed)
        size = 1 << resolution
        g_vals = rng.permutation(size) * (0.25 / size) * rng.choice([-1.0, 1.0], size)
        w_vals = np.zeros(size)
        top, i, j = rng.choice(size, 3, replace=False)
        g_vals[[top, i, j]] = [1.0, 0.75, -0.75]
        pair = [0.75 * 2.0**-52, 1.0 + 2.0**-52]
        w_vals[[top, i, j]] = [1.0] + (pair[::-1] if swap else pair)
        g, w = GridFunction(resolution, g_vals), GridFunction(resolution, w_vals)
        assert weak_l1_norm(g, w) == stable_weak_l1(g_vals, w_vals, resolution)

    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_weak_l1_haar_output_at_the_cap(self, tie_heavy):
        rng = np.random.default_rng(18)
        n = 18
        f = (np.arange(1 << n) < 3000).astype(float) if tie_heavy else rng.standard_normal(1 << n)
        tf = haar_transform(HaarSpec.from_rng(n, rng), GridFunction(n, f))
        w = GridFunction(n, rng.lognormal(0.0, 2.0, 1 << n))
        distinct = np.unique(np.abs(tf.values)).size
        assert distinct < 64 if tie_heavy else distinct == 1 << n
        assert weak_l1_norm(tf, w) == stable_weak_l1(tf.values, w.values, n)


class TestWeakL1Buffers:
    # weak_l1_norm against its fresh-temporaries form, as IEEE bits
    @pytest.mark.parametrize("resolution", [0, 1, 2, 5])
    def test_small_grids_match_fresh_temporaries_oracle(self, resolution):
        rng = np.random.default_rng(resolution)
        size = 1 << resolution
        weights = [rng.lognormal(0.0, 2.0, size), np.where(np.arange(size) < size // 2, 0.0, 1.0),
                   np.zeros(size)]
        gs = [rng.standard_normal(size), rng.choice([-1.0, 0.0, -0.0, 2.0], size),
              np.zeros(size), np.full(size, -0.0)]
        for w_vals in weights:
            for g_vals in gs:
                g, w = GridFunction(resolution, g_vals), GridFunction(resolution, w_vals)
                got, want = weak_l1_norm(g, w), temp_weak_l1(g, w)
                assert ieee_bits(got) == ieee_bits(want)

    @pytest.mark.parametrize("tie_heavy", [False, True])
    def test_cap_matches_fresh_temporaries_oracle(self, tie_heavy):
        rng = np.random.default_rng(81)
        n = 18
        f = (np.arange(1 << n) < 5000).astype(float) if tie_heavy else rng.standard_normal(1 << n)
        g = haar_transform(HaarSpec.from_rng(n, rng), GridFunction(n, f))
        distinct = np.unique(np.abs(g.values)).size
        assert distinct < 64 if tie_heavy else distinct == 1 << n
        w_vals = rng.lognormal(0.0, 2.0, 1 << n)
        w_vals[: 1 << 12] = 0.0  # a weightless subtree
        w = GridFunction(n, w_vals)
        assert ieee_bits(weak_l1_norm(g, w)) == ieee_bits(temp_weak_l1(g, w))


class TestEnumerate:
    # The oracle behind every per-cube loop in the tests: a short list would
    # make those loops pass vacuously.
    def test_small(self):
        assert enumerate_cubes(1) == [DyadicCube(0, 0), DyadicCube(1, 0), DyadicCube(1, 1)]

    def test_count(self):
        assert len(enumerate_cubes(5)) == 2 * 32 - 1


class TestSerialization:
    @given(st.integers(0, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_bit_exact(self, resolution, data):
        vals = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1 << resolution,
                max_size=1 << resolution,
            )
        )
        f = GridFunction(resolution, vals)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.txt")
            save_grid_function(f, path)
            g = load_grid_function(path)
        assert g.resolution == f.resolution
        assert np.array_equal(g.values, f.values)

    def test_load_errors_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not-an-int\n")
        with pytest.raises(FileFormatError) as exc:
            load_grid_function(str(p))
        assert exc.value.line == 1
        assert str(p) in str(exc.value)

        p2 = tmp_path / "bad2.txt"
        p2.write_text("1\n1.0 oops\n")
        with pytest.raises(FileFormatError) as exc:
            load_grid_function(str(p2))
        assert exc.value.line == 2

        p3 = tmp_path / "bad3.txt"
        p3.write_text("1\n1.0 2.0\nextra\n")
        with pytest.raises(FileFormatError) as exc:
            load_grid_function(str(p3))
        assert exc.value.line == 3

    def test_load_wrong_count(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("2\n1.0 2.0\n")
        with pytest.raises(FileFormatError):
            load_grid_function(str(p))
