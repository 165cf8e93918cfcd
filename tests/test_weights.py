import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entbump import (
    ROOT,
    CellSet,
    DyadicCube,
    GridFunction,
    InvalidWeightError,
    a1_constant,
    a1_generator,
    ainf_constant,
    ainf_lemma_ratio,
    dyadic_maximal,
    power_weight,
    rho,
    rho_all,
)

from oracles import (
    brute_maximal,
    brute_rho,
    effective_rho,
    entries_rho_csv,
    enumerate_cubes,
    ieee_bits,
    mp_power_cell_averages,
    repeat_rho_all,
    temp_power_weight,
)

LOG2_3 = math.log2(3.0)


def weight_values(resolution, allow_zero=True):
    # exact zeros exercise vacuous cubes; positive cells stay at scales
    # where sum-based and mean-based arithmetic agree, away from subnormals
    size = 1 << resolution
    positive = st.floats(min_value=1e-9, max_value=50.0, allow_nan=False)
    cell = st.one_of(st.just(0.0), positive) if allow_zero else positive
    return st.lists(cell, min_size=size, max_size=size)


def nested_weight(resolution, c):
    """2^(c j) on the leftmost level-j cube minus the leftmost level-(j+1)
    cube, for j = 0..n: cell x > 0 sits at depth j = n - bit_length(x), and
    cell 0 at depth n."""
    depth = resolution - np.frexp(np.arange(1 << resolution, dtype=np.float64))[1]
    return GridFunction(resolution, np.exp2(float(c) * depth))


def _assert_table_bits(table, w):
    values, vacuous = repeat_rho_all(w)
    assert len(table.values) == len(values) == w.resolution + 1
    for got, ref, got_vac, ref_vac in zip(table.values, values, table.vacuous, vacuous):
        assert np.array_equal(got_vac, ref_vac)
        assert np.array_equal(np.isnan(got), got_vac)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestDyadicMaximal:
    def test_spike(self):
        w = GridFunction(2, [4.0, 0.0, 0.0, 0.0])
        assert list(dyadic_maximal(w).values) == [4.0, 2.0, 1.0, 1.0]

    def test_two_cells(self):
        w = GridFunction(1, [0.0, 2.0])
        assert list(dyadic_maximal(w).values) == [1.0, 2.0]

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, resolution, data):
        vals = data.draw(weight_values(resolution))
        w = GridFunction(resolution, vals)
        mine = dyadic_maximal(w).values
        ref = brute_maximal(vals, resolution)
        np.testing.assert_allclose(mine, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("vals", [[9e307] * 8, [1.7e308, 1.7e308] + [1.0] * 6])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_are_rejected(self, vals):
        # M w <= max w here, but a pairwise sum passes float64's range: this
        # warned of an overflow and failed GridFunction's finiteness check
        with pytest.raises(InvalidWeightError, match="rescale"):
            dyadic_maximal(GridFunction(3, vals))

    @pytest.mark.filterwarnings("error")
    def test_sums_just_inside_float64_range(self):
        # the root's pair sum 1e308 + 1 stays finite
        assert list(dyadic_maximal(GridFunction(1, [1e308, 1.0])).values) == [1e308, (1e308 + 1.0) * 0.5]

    def test_localized_on_root_matches_global(self):
        # rho's M(w 1_Q) at the root is the dyadic maximal function
        rng = np.random.default_rng(7)
        w = GridFunction(5, rng.random(32))
        m_sum = float(dyadic_maximal(w).values.sum())
        assert rho(w, ROOT) == m_sum / float(w.values.sum())

    def test_localized_ignores_outside(self):
        # M(w 1_Q) on Q = (1, 1) is [2, 3]: the cells outside Q do not count
        w = GridFunction(2, [100.0, 100.0, 1.0, 3.0])
        assert rho(w, DyadicCube(1, 1)) == (2.0 + 3.0) / 4.0


class TestRho:
    def test_spike_root(self):
        w = GridFunction(2, [4.0, 0.0, 0.0, 0.0])
        assert rho(w, ROOT) == 2.0

    def test_constant_weight_is_one(self):
        w = GridFunction.constant(3, 5.0)
        for q in enumerate_cubes(3):
            assert rho(w, q) == 1.0

    def test_vacuous_is_nan(self):
        w = GridFunction(2, [0.0, 0.0, 1.0, 1.0])
        assert math.isnan(rho(w, DyadicCube(1, 0)))
        assert effective_rho(rho(w, DyadicCube(1, 0))) == 1.0

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_table_matches_brute_force(self, resolution, data):
        vals = data.draw(weight_values(resolution))
        w = GridFunction(resolution, vals)
        table = rho_all(w)
        for q in enumerate_cubes(resolution):
            ref = brute_rho(vals, q.level, q.index, resolution)
            mine = table.values[q.level][q.index]
            if math.isnan(ref):
                assert table.vacuous[q.level][q.index]
            else:
                assert mine == pytest.approx(ref, rel=1e-12)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rho_at_least_one_exactly(self, resolution, data):
        vals = data.draw(weight_values(resolution))
        w = GridFunction(resolution, vals)
        table = rho_all(w)
        for values, vac in zip(table.values, table.vacuous):
            assert np.all(values[~vac] >= 1.0)

    @given(
        st.integers(0, 12),
        st.one_of(
            st.tuples(st.just("lognormal"), st.floats(0.5, 6.0)),
            st.tuples(st.just("nested"), st.integers(1, 56)),
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(18, ("nested", 16), 0)
    @example(18, ("lognormal", 6.0), 0)
    @settings(max_examples=40, deadline=None)
    def test_rho_at_most_levels_below_plus_one(self, resolution, family, seed):
        # M(w 1_Q) <= sum of <w>_J 1_J over the dyadic J in Q, which
        # integrates to (n - l + 1) w(Q), so rho_w(Q) <= n - l + 1 for every
        # weight, however wide its range of values
        kind, scale = family
        if kind == "nested":
            w = nested_weight(resolution, scale)
        else:
            rng = np.random.default_rng(seed)
            w = GridFunction(resolution, rng.lognormal(0.0, scale, 1 << resolution))
        table = rho_all(w)
        for level, values in enumerate(table.values):
            assert np.all(values <= (resolution - level + 1) * (1.0 + 1e-12))

    def test_nested_weight_at_the_cap(self):
        # the largest rho of 2^(16 j) nested weights at n = 18 is about 10,
        # about half the bound n + 1 = 19
        assert 9.5 < rho_all(nested_weight(18, 16)).max_rho() < 10.5

    def test_rho_all_consistent_with_single(self):
        rng = np.random.default_rng(11)
        w = GridFunction(6, rng.random(64) * (rng.random(64) < 0.8))
        table = rho_all(w)
        for q in enumerate_cubes(6):
            single = rho(w, q)
            if math.isnan(single):
                assert table.vacuous[q.level][q.index]
            else:
                assert table.values[q.level][q.index] == pytest.approx(single, rel=1e-12)

    @given(
        st.integers(0, 10),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.3, 0.9]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_matches_repeat_ladder_bit_for_bit(self, resolution, seed, zero_share, data):
        rng = np.random.default_rng(seed)
        size = 1 << resolution
        vals = rng.lognormal(0.0, 3.0, size) * (rng.random(size) >= zero_share)
        level = data.draw(st.integers(0, resolution))
        width = size >> level
        start = width * data.draw(st.integers(0, (1 << level) - 1))
        vals[start:start + width] = 0.0  # an all-zero subtree (the whole grid at level 0)
        w = GridFunction(resolution, vals)
        _assert_table_bits(rho_all(w), w)

    def test_table_matches_repeat_ladder_at_the_cap(self):
        rng = np.random.default_rng(18)
        w = GridFunction(18, rng.lognormal(0.0, 2.0, 1 << 18))
        _assert_table_bits(rho_all(w), w)

    # The streaming sweep builds each level from the level below; these
    # edges check it against the ladder oracle built from whole pyramids.
    @pytest.mark.parametrize("resolution", list(range(13)) + [18])
    def test_streamed_table_matches_repeat_ladder_at_every_resolution(self, resolution):
        rng = np.random.default_rng(100 + resolution)
        size = 1 << resolution
        vals = rng.lognormal(0.0, 4.0, size)
        vals[size // 2 : size // 2 + max(1, size // 8)] = 0.0  # a vacuous subtree
        _assert_table_bits(rho_all(GridFunction(resolution, vals)), GridFunction(resolution, vals))

    @pytest.mark.parametrize("vals", [
        [1e308, 1.0],  # every sum just inside float64's range
        [1e-310, 3e-312, 0.0, 5e-324],  # subnormal cells, a subnormal half-sum rounding to 0
        [5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-324],
        [0.0, 0.0, 0.0, 0.0],  # all vacuous
    ])
    @pytest.mark.filterwarnings("error")
    def test_streamed_table_matches_repeat_ladder_at_float_edges(self, vals):
        w = GridFunction(len(vals).bit_length() - 1, vals)
        _assert_table_bits(rho_all(w), w)

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_streamed_table_matches_repeat_ladder_on_mixed_scales(self, resolution, data):
        # zeros, subnormals and cells up to 1e300 in one weight
        size = 1 << resolution
        cell = st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300))
        w = GridFunction(resolution, data.draw(st.lists(cell, min_size=size, max_size=size)))
        _assert_table_bits(rho_all(w), w)

    def test_csv(self, tmp_path):
        w = GridFunction(1, [1.0, 3.0])
        table = rho_all(w)
        out = tmp_path / "rho.csv"
        table.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "level,index,rho,vacuous"
        assert len(lines) == 4

    @pytest.mark.parametrize("resolution", [0, 3, 8])
    def test_csv_matches_entries_writer(self, resolution, tmp_path):
        rng = np.random.default_rng(resolution)
        vals = rng.lognormal(0.0, 2.0, 1 << resolution)
        vals[: max(1, vals.size // 4)] = 0.0  # a vacuous block; all of it at n = 0
        table = rho_all(GridFunction(resolution, vals))
        table.to_csv(tmp_path / "fast.csv")
        entries_rho_csv(table, tmp_path / "ref.csv")
        got = (tmp_path / "fast.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.count(b"\r\n") == (2 << resolution)


class TestCharacteristics:
    def test_a1_two_cell(self):
        assert a1_constant(GridFunction(1, [1.0, 3.0])) == 2.0

    def test_a1_zero_cell_is_infinite(self):
        assert a1_constant(GridFunction(1, [0.0, 3.0])) == math.inf

    def test_a1_zero_weight_raises(self):
        with pytest.raises(InvalidWeightError):
            a1_constant(GridFunction.constant(2, 0.0))

    def test_ainf_is_max_rho(self):
        rng = np.random.default_rng(3)
        w = GridFunction(5, rng.random(32) + 0.01)
        table = rho_all(w)
        assert ainf_constant(w) == table.max_rho()

    @pytest.mark.parametrize("vals", [[1.7e308, 1e-300, 1.7e308, 1e-300], [9e307] * 4])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_are_rejected(self, vals):
        # rho <= n - l + 1 = 3 on every cube, but these M-sums and w-sums
        # pass float64's range, which wrote NaN or inf rho into the table
        w = GridFunction(2, vals)
        with pytest.raises(InvalidWeightError, match="rescale"):
            rho_all(w)
        with pytest.raises(InvalidWeightError, match="rescale"):
            ainf_constant(w)

    @pytest.mark.filterwarnings("error")
    def test_sums_just_inside_float64_range(self):
        # the root's w-sum 1e308 and M-sum 1.5e308 stay finite
        assert rho_all(GridFunction(1, [1e308, 1.0])).max_rho() == 1.5

    def test_a1_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = GridFunction(5, rng.random(32) + 0.01)
            assert a1_constant(w) >= 1.0

    def test_ainf_at_most_a1(self):
        # rho <= <M(w 1_Q)>_Q / <w>_Q <= [w]_A1 cube by cube
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = GridFunction(5, rng.random(32) + 0.01)
            assert ainf_constant(w) <= a1_constant(w) * (1 + 1e-12)


class TestAinfLemmaRatio:
    def test_full_subset_constant_weight(self):
        w = GridFunction.constant(2, 1.0)
        ratio = ainf_lemma_ratio(w, ROOT, CellSet.full(2))
        assert ratio == pytest.approx(LOG2_3, rel=1e-15)

    def test_half_subset_constant_weight(self):
        w = GridFunction.constant(2, 1.0)
        e = CellSet.from_indices(2, [0, 1])
        assert ainf_lemma_ratio(w, ROOT, e) == pytest.approx(1.0, rel=1e-15)

    def test_quarter_subset_constant_weight(self):
        w = GridFunction.constant(2, 1.0)
        e = CellSet.from_indices(2, [2])
        assert ainf_lemma_ratio(w, ROOT, e) == pytest.approx(
            math.log2(6.0) / 4.0, rel=1e-15
        )

    def test_empty_subset_rejected(self):
        w = GridFunction.constant(2, 1.0)
        with pytest.raises(ValueError):
            ainf_lemma_ratio(w, ROOT, CellSet.empty(2))

    def test_subset_outside_cube_rejected(self):
        w = GridFunction.constant(2, 1.0)
        with pytest.raises(ValueError):
            ainf_lemma_ratio(w, DyadicCube(1, 0), CellSet.from_indices(2, [3]))

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_ratio_below_eight(self, resolution, data):
        size = 1 << resolution
        vals = data.draw(weight_values(resolution, allow_zero=False))
        w = GridFunction(resolution, vals)
        level = data.draw(st.integers(0, resolution))
        index = data.draw(st.integers(0, (1 << level) - 1))
        cube = DyadicCube(level, index)
        a, b = cube.cell_range(resolution)
        chosen = data.draw(
            st.lists(st.integers(a, b - 1), min_size=1, max_size=b - a, unique=True)
        )
        ratio = ainf_lemma_ratio(w, cube, CellSet.from_indices(resolution, chosen))
        assert ratio <= 8.0


class TestPowerWeight:
    def test_s_zero_is_constant(self):
        assert power_weight(0.0, 4) == GridFunction.constant(4, 1.0)

    def test_half_exponent_two_cells(self):
        w = power_weight(0.5, 1)
        assert w.values[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert w.values[1] == pytest.approx(4.0 * (1.0 - 1.0 / math.sqrt(2.0)), rel=1e-14)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 0.96875, 0.999])
    @pytest.mark.parametrize("resolution", [0, 1, 3, 6])
    def test_matches_quadrature(self, s, resolution):
        w = power_weight(s, resolution)
        ref = mp_power_cell_averages(s, resolution)
        np.testing.assert_allclose(w.values, ref, rtol=1e-13)

    def test_deep_grid_stays_finite_positive(self):
        w = power_weight(0.999, 16)
        assert np.all(np.isfinite(w.values))
        assert np.all(w.values > 0)
        # cell averages of a decreasing profile are decreasing
        assert np.all(np.diff(w.values) < 0)

    @pytest.mark.parametrize("s", [0.0, 1e-6, 0.5, 0.99])
    @pytest.mark.parametrize("resolution", [0, 1, 2, 12, 18])
    def test_matches_fresh_temporaries_oracle_bit_for_bit(self, s, resolution):
        got = power_weight(s, resolution).values
        assert np.array_equal(ieee_bits(got), ieee_bits(temp_power_weight(s, resolution)))

    def test_range_validation(self):
        with pytest.raises(InvalidWeightError):
            power_weight(1.0, 3)
        with pytest.raises(InvalidWeightError):
            power_weight(-0.1, 3)


class TestA1Generator:
    def test_pointwise_definition(self):
        rng = np.random.default_rng(9)
        g = GridFunction(5, rng.standard_normal(32))
        w = a1_generator(g, 0.6)
        m = dyadic_maximal(GridFunction(5, np.abs(g.values))).values
        np.testing.assert_array_equal(w.values, np.power(m, 0.6))

    def test_a1_constant_is_finite(self):
        rng = np.random.default_rng(10)
        for i in range(5):
            g = GridFunction(6, rng.standard_normal(64))
            w = a1_generator(g, 0.5 + 0.08 * i)
            assert math.isfinite(a1_constant(w))

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidWeightError):
            a1_generator(GridFunction.constant(3, 0.0), 0.5)

    def test_exponent_validation(self):
        g = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidWeightError):
            a1_generator(g, 0.0)
        with pytest.raises(InvalidWeightError):
            a1_generator(g, 1.0)
