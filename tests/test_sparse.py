import ast
import dataclasses
import json
import math
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entbump
from entbump import (
    ROOT,
    CellSet,
    DyadicCube,
    EpsilonSpec,
    FileFormatError,
    GridFunction,
    HaarSpec,
    InvalidCubeError,
    ResolutionMismatchError,
    SparseCollection,
    SparsePreconditionError,
    bilinear_form,
    build_disjoint_eq,
    carleson_check,
    certify_half_sparse,
    cz_stopping_collection,
    haar_transform,
    m_entropy,
    proof_replay,
    sparse_dominate_bilinear,
    split_eight,
    strong_sparseness_check,
)
from entbump.grid import average, integral, level_averages
from entbump.lab import _draw_function, _draw_weight, trial_rng
from entbump.sparse import (
    BandRecord,
    _ancestor_counts,
    _descendant_cells,
    _level_class,
    _rho_bin,
)
from entbump.weights import rho_all

from oracles import (
    brute_bilinear,
    brute_carleson,
    brute_carve,
    brute_children_cover,
    brute_cz_stopping,
    brute_generation_depths,
    brute_haar_apply,
    brute_sparse_apply,
    ieee_bits,
    level_class,
    level_proof_replay,
    loop_bilinear,
    loop_proof_replay,
    loop_sparse_apply,
    repeat_haar_transform,
    rho_bin,
)

LOG2_3 = math.log2(3.0)


def random_collection(resolution, seed):
    """CZ stopping cubes of a rough positive function; always half-sparse."""
    rng = np.random.default_rng(seed)
    f = GridFunction(resolution, np.exp(rng.normal(0.0, 2.0, 1 << resolution)))
    return f, cz_stopping_collection(f, ROOT, 4.0)


class TestSparseCollection:
    def test_dedup_and_sort(self):
        s = SparseCollection(2, [DyadicCube(2, 3), ROOT, DyadicCube(2, 3), DyadicCube(1, 0)])
        assert len(s) == 3
        assert s.cubes == (ROOT, DyadicCube(1, 0), DyadicCube(2, 3))
        assert ROOT in s
        assert DyadicCube(2, 0) not in s

    def test_level_beyond_resolution(self):
        with pytest.raises(InvalidCubeError):
            SparseCollection(1, [DyadicCube(2, 0)])

    def test_negative_resolution(self):
        with pytest.raises(ValueError):
            SparseCollection(-1, [])

    def test_s_parent_skips_levels(self):
        s = SparseCollection(3, [ROOT, DyadicCube(3, 5)])
        assert s.s_parent(DyadicCube(3, 5)) == ROOT
        assert s.s_parent(ROOT) is None
        # nearest wins
        s2 = SparseCollection(3, [ROOT, DyadicCube(1, 1), DyadicCube(3, 5)])
        assert s2.s_parent(DyadicCube(3, 5)) == DyadicCube(1, 1)

    def test_generation_depths(self):
        s = SparseCollection(3, [ROOT, DyadicCube(1, 0), DyadicCube(3, 1), DyadicCube(3, 7)])
        depths = _ancestor_counts(s)
        assert depths[0][0] == 0
        assert depths[1][0] == 1
        assert depths[3][1] == 2
        assert depths[3][7] == 1

    def test_children_map(self):
        s = SparseCollection(3, [ROOT, DyadicCube(1, 0), DyadicCube(3, 1), DyadicCube(3, 7)])
        cover = _descendant_cells(s, union=True)
        assert cover[0][0] == 4 + 1  # S-children (1, 0) and (3, 7)
        assert cover[1][0] == 1  # S-child (3, 1)
        assert cover[3][1] == 0  # no S-children

    def test_save_load_roundtrip(self):
        _, s = random_collection(6, 11)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "coll.txt")
            s.save(path)
            assert SparseCollection.load(path) == s

    def test_load_comments_and_blanks(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "coll.txt")
            with open(path, "w") as fh:
                fh.write("# header\n\n2\n# cubes\n0 0\n2 3\n")
            s = SparseCollection.load(path)
            assert s.cubes == (ROOT, DyadicCube(2, 3))

    def test_load_errors_carry_line_numbers(self):
        cases = [
            ("x\n0 0\n", 1),          # bad resolution
            ("2\n0\n", 2),            # wrong field count
            ("2\n0 zero\n", 2),       # non-integer index
            ("2\n3 0\n", 2),          # finer than resolution
            ("2\n1 5\n", 2),          # index out of range
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for text, lineno in cases:
                path = os.path.join(tmp, "bad.txt")
                with open(path, "w") as fh:
                    fh.write(text)
                with pytest.raises(FileFormatError) as exc:
                    SparseCollection.load(path)
                assert f":{lineno}:" in str(exc.value)

    def test_load_empty_file(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "empty.txt")
            with open(path, "w") as fh:
                fh.write("# nothing here\n")
            with pytest.raises(FileFormatError):
                SparseCollection.load(path)


class TestCarleson:
    def test_all_cubes_ratio_two(self):
        cubes = [DyadicCube(l, i) for l in range(3) for i in range(1 << l)]
        s = SparseCollection(2, cubes)
        report = carleson_check(s, lam=2.0)
        assert report.passed
        assert report.worst_ratio == 2.0
        assert report.worst_cube == ROOT

    def test_include_self_shifts_by_one(self):
        cubes = [DyadicCube(l, i) for l in range(3) for i in range(1 << l)]
        s = SparseCollection(2, cubes)
        report = carleson_check(s, lam=2.0, include_self=True)
        assert not report.passed
        assert report.worst_ratio == 3.0

    def test_disjoint_family_trivially_passes(self):
        s = SparseCollection(3, [DyadicCube(3, i) for i in range(8)])
        report = carleson_check(s)
        assert report.passed
        assert report.worst_ratio == 0.0

    def test_empty_collection(self):
        report = carleson_check(SparseCollection(2, []))
        assert report.passed
        assert report.worst_cube is None


class TestDisjointEq:
    def test_overfull_root_fails(self):
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0), DyadicCube(2, 3)])
        cert = build_disjoint_eq(s)
        assert not cert.certified
        assert cert.worst_ratio == 0.25
        assert cert.violator == ROOT
        assert not certify_half_sparse(s)

    def test_half_exactly_fails_strictly(self):
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0)])
        cert = build_disjoint_eq(s)
        assert not cert.certified
        assert cert.worst_ratio == 0.5
        assert not certify_half_sparse(s)

    def test_small_child_passes(self):
        s = SparseCollection(2, [ROOT, DyadicCube(2, 0)])
        cert = build_disjoint_eq(s)
        assert cert.certified
        assert cert.worst_ratio == 0.75
        assert cert.violator is None
        assert certify_half_sparse(s)

    def test_eq_sets_partition_members(self):
        for seed in range(6):
            _, s = random_collection(7, seed)
            cert = build_disjoint_eq(s)
            total = np.zeros(1 << 7, dtype=int)
            for cube, cells in cert.eq_sets.items():
                total += cells.mask.astype(int)
                # E_Q stays inside Q
                a, b = cube.cell_range(7)
                outside = cells.mask.copy()
                outside[a:b] = False
                assert not outside.any()
            assert total.max() <= 1

    def test_eq_sets_stay_linear_in_memory(self):
        # One full-length mask per member would take members x 2^16 bytes.
        _, s = random_collection(16, 0)
        assert len(s) > 1000
        tracemalloc.start()
        try:
            cert = build_disjoint_eq(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        # the last member lies on the deepest level, so E_Q is all of Q
        cube = s.cubes[-1]
        assert cert.eq_sets[cube] == CellSet.from_cube(16, cube)
        assert len(cert.eq_sets) == len(s) and ROOT in cert.eq_sets
        with pytest.raises(TypeError):
            cert.eq_sets[ROOT] = CellSet.full(16)

    @given(st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_agrees_with_construction(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        pool = [DyadicCube(l, i) for l in range(n + 1) for i in range(1 << l)]
        picks = [q for q in pool if rng.random() < 0.15]
        s = SparseCollection(n, picks)
        assert certify_half_sparse(s) == build_disjoint_eq(s).certified


class TestStrongSparseness:
    def test_nested_chain_fails(self):
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0), DyadicCube(2, 0)])
        report = strong_sparseness_check(s)
        assert not report.passed
        assert report.worst_ratio == 0.5
        assert report.worst_cube == ROOT

    def test_quarter_child_passes(self):
        s = SparseCollection(2, [ROOT, DyadicCube(2, 0)])
        report = strong_sparseness_check(s)
        assert report.passed
        assert report.worst_ratio == 0.25

    def test_empty(self):
        assert strong_sparseness_check(SparseCollection(3, [])).passed


class TestSplitEight:
    def test_fixes_the_nested_chain(self):
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0), DyadicCube(2, 0)])
        assert not strong_sparseness_check(s).passed
        parts = split_eight(s)
        assert len(parts) == 8
        for part in parts:
            assert strong_sparseness_check(part).passed
        assert [len(p) for p in parts[:3]] == [1, 1, 1]

    def test_rejects_heavy_packing(self):
        cubes = [DyadicCube(l, i) for l in range(4) for i in range(1 << l)]
        s = SparseCollection(3, cubes)
        with pytest.raises(SparsePreconditionError):
            split_eight(s)

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_partition_of_stopping_cubes(self, seed):
        _, s = random_collection(7, seed)
        parts = split_eight(s)
        back = [cube for part in parts for cube in part]
        assert sorted(back, key=lambda q: (q.level, q.index)) == list(s.cubes)
        for part in parts:
            assert strong_sparseness_check(part).passed


class TestStoppingCubes:
    def test_validation(self):
        f = GridFunction(2, [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            cz_stopping_collection(f, ROOT, 2.0)
        zero = GridFunction(2, [0.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            cz_stopping_collection(zero, ROOT, 4.0)

    def test_constant_function_stops_at_top(self):
        f = GridFunction(3, np.ones(8))
        s = cz_stopping_collection(f, ROOT, 4.0)
        assert s.cubes == (ROOT,)

    def test_spike_selects_the_spike(self):
        vals = np.ones(8)
        vals[3] = 100.0
        s = cz_stopping_collection(GridFunction(3, vals), ROOT, 4.0)
        assert ROOT in s
        assert DyadicCube(3, 3) in s

    @given(st.integers(0, 200), st.sampled_from([2.5, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_selection_and_sparseness(self, seed, a):
        rng = np.random.default_rng(seed)
        n = 6
        f = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
        s = cz_stopping_collection(f, ROOT, a)
        assert ROOT in s
        assert certify_half_sparse(s)
        assert carleson_check(s, lam=2.0).passed
        favg = level_averages(np.abs(f.values))

        def avg(q):
            return float(favg[q.level][q.index])

        for cube in s:
            if cube == ROOT:
                continue
            parent = s.s_parent(cube)
            assert avg(cube) > a * avg(parent)
            # maximality: the dyadic parent was not selectable
            dyadic = cube.parent()
            if dyadic != parent:
                assert avg(dyadic) <= a * avg(parent)


def cube_set(n, density, seed):
    """An arbitrary (usually not sparse) set of cubes as (level, index) pairs."""
    rng = np.random.default_rng(seed)
    return [(l, i) for l in range(n + 1) for i in range(1 << l) if rng.random() < density]


cube_sets = st.tuples(
    st.integers(0, 7), st.sampled_from([0.05, 0.2, 0.5, 0.9]), st.integers(0, 2**32 - 1)
)


class TestSweepsAgainstOracles:
    """Every level sweep equals its loop oracle exactly, on arbitrary cube
    sets: empty, n = 0, and sets that fail the packing bound."""

    @given(cube_sets)
    @example((0, 0.9, 0))
    @settings(max_examples=60, deadline=None)
    def test_generation_depths(self, args):
        pairs = cube_set(*args)
        s = SparseCollection(args[0], [DyadicCube(*q) for q in pairs])
        depths = _ancestor_counts(s)
        got = {(q.level, q.index): int(depths[q.level][q.index]) for q in s}
        assert got == brute_generation_depths(pairs)

    @given(cube_sets)
    @example((0, 0.9, 0))
    @settings(max_examples=60, deadline=None)
    def test_children_cover(self, args):
        n = args[0]
        pairs = cube_set(*args)
        s = SparseCollection(n, [DyadicCube(*q) for q in pairs])
        cover = _descendant_cells(s, union=True)
        want = brute_children_cover(pairs, n)
        assert {q: int(cover[q[0]][q[1]]) for q in pairs} == want
        # the certificates read the same cover
        ratios = [(want[q] / (1 << (n - q[0])), q) for q in sorted(want)]
        strong = strong_sparseness_check(s)
        eq = build_disjoint_eq(s)
        if not ratios:
            assert strong.passed and strong.worst_cube is None
            assert eq.certified and certify_half_sparse(s)
            return
        worst, worst_q = max(ratios, key=lambda rq: rq[0])
        assert (strong.worst_ratio, strong.worst_cube) == (worst, DyadicCube(*worst_q))
        assert strong.passed == (worst <= 0.25)
        eq_ratios = [(1.0 - r, q) for r, q in ratios]
        assert eq.worst_ratio == min(r for r, _ in eq_ratios)
        assert eq.certified == certify_half_sparse(s) == (eq.worst_ratio > 0.5)
        violators = [q for r, q in eq_ratios if r <= 0.5]
        assert eq.violator == (DyadicCube(*violators[0]) if violators else None)
        for q, cells in eq.eq_sets.items():
            assert cells.cell_count() == (1 << (n - q.level)) - want[(q.level, q.index)]

    @given(cube_sets, st.booleans())
    @example((0, 0.9, 0), False)
    @example((3, 0.9, 0), False)
    @settings(max_examples=60, deadline=None)
    def test_carleson_and_split(self, args, include_self):
        n = args[0]
        pairs = cube_set(*args)
        s = SparseCollection(n, [DyadicCube(*q) for q in pairs])
        report = carleson_check(s, lam=2.0, include_self=include_self)
        worst_q, worst = brute_carleson(pairs, n, include_self)
        assert report.worst_ratio == worst
        assert report.worst_cube == (None if worst_q is None else DyadicCube(*worst_q))
        assert report.passed == (worst <= 2.0)
        if include_self:
            return
        if not report.passed:
            with pytest.raises(SparsePreconditionError):
                split_eight(s)
            return
        depths = brute_generation_depths(pairs)
        parts = split_eight(s)
        for k, part in enumerate(parts):
            assert [(q.level, q.index) for q in part] == sorted(
                q for q, d in depths.items() if d % 8 == k
            )

    @given(
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
        st.sampled_from([2.5, 4.0, 8.0]),
        st.floats(0.0, 1.0),
    )
    @example(0, 0, 4.0, 0.0)
    @example(6, 1, 2.5, 0.5)
    @settings(max_examples=80, deadline=None)
    def test_cz_stopping(self, n, seed, a, where):
        rng = np.random.default_rng(seed)
        vals = np.exp(rng.normal(0.0, 2.0, 1 << n))
        # zero-average blocks: whole dyadic blocks of cells set to zero
        for _ in range(int(rng.integers(0, 3))):
            level = int(rng.integers(0, n + 1))
            width = 1 << (n - level)
            start = int(rng.integers(0, 1 << level)) * width
            vals[start : start + width] = 0.0
        f = GridFunction(n, vals)
        favg = level_averages(np.abs(vals))
        level = min(n, int(where * (n + 1)))
        top = DyadicCube(level, int(rng.integers(0, 1 << level)))
        if favg[top.level][top.index] == 0.0:
            with pytest.raises(ValueError):
                cz_stopping_collection(f, top, a)
            return
        got = cz_stopping_collection(f, top, a)
        assert [(q.level, q.index) for q in got] == brute_cz_stopping(
            favg, n, (top.level, top.index), a
        )

    def test_cz_stopping_top_finer_than_grid(self):
        f = GridFunction(2, np.ones(4))
        with pytest.raises(InvalidCubeError):
            cz_stopping_collection(f, DyadicCube(3, 0), 4.0)

    @given(cube_sets)
    @example((0, 0.9, 0))
    @settings(max_examples=40, deadline=None)
    def test_bilinear_form_and_operator(self, args):
        n, _, seed = args
        pairs = cube_set(*args)
        s = SparseCollection(n, [DyadicCube(*q) for q in pairs])
        rng = np.random.default_rng(seed + 1)
        f = GridFunction(n, rng.standard_normal(1 << n))
        g = GridFunction(n, rng.standard_normal(1 << n))
        favg = level_averages(np.abs(f.values))
        gavg = level_averages(np.abs(g.values))
        assert bilinear_form([s, s], f, g) == loop_bilinear(pairs + pairs, favg, gavg)
        # against 1, the form is the mean of the sparse operator A_S |f|
        ones = GridFunction(n, np.ones(1 << n))
        a_s = loop_sparse_apply(pairs, favg, n)
        assert bilinear_form([s], f, ones) == pytest.approx(a_s.mean(), rel=1e-12)

    @given(st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_replay_h_carve(self, seed):
        # A few spikes on a flat weight: H takes whole cubes around them,
        # zero cells included.
        rng = np.random.default_rng(seed)
        n = 6
        w = GridFunction(n, np.exp(rng.normal(0.0, 0.1, 1 << n)))
        fv = np.zeros(1 << n)
        fv[rng.integers(0, 1 << n, 3)] = np.exp(rng.normal(0.0, 1.0, 3))
        f = GridFunction(n, fv)
        report = proof_replay(
            SparseCollection(n, [ROOT]), f, w, CellSet.full(n), EpsilonSpec.constant(1.0)
        )
        favg = level_averages(np.abs(fv / report.normalization))
        h = brute_carve(favg, n, report.threshold)
        assert report.w_h == integral(w, CellSet(n, h))

    def test_cz_stopping_tie_is_not_selected(self):
        # <|f|> of cell 3 is exactly 4 <|f|>_[0,1): a tie does not stop.
        f = GridFunction(2, [0.0, 0.0, 0.0, 4.0])
        favg = level_averages(f.values)
        got = cz_stopping_collection(f, ROOT, 4.0)
        assert [(q.level, q.index) for q in got] == brute_cz_stopping(favg, 2, (0, 0), 4.0)
        assert got.cubes == (ROOT,)


class TestBilinearForm:
    def test_frozen_value(self):
        f = GridFunction(2, [2.0, 2.0, 1.0, 1.0])
        g = GridFunction(2, [4.0, 0.0, 0.0, 0.0])
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0)])
        got = bilinear_form([s], f, g)
        assert got == pytest.approx(1.0 * 1.5 * 1.0 + 0.5 * 2.0 * 2.0, rel=1e-15)
        assert isinstance(got, float)

    def test_absolute_values_and_multiple_collections(self):
        f = GridFunction(1, [-2.0, 2.0])
        g = GridFunction(1, [1.0, -1.0])
        s = SparseCollection(1, [ROOT])
        assert bilinear_form([s], f, g) == pytest.approx(2.0)
        assert bilinear_form([s, s], f, g) == pytest.approx(4.0)

    def test_mismatch(self):
        f = GridFunction(2, np.ones(4))
        g = GridFunction(1, np.ones(2))
        s = SparseCollection(2, [ROOT])
        with pytest.raises(ResolutionMismatchError):
            bilinear_form([s], f, g)
        with pytest.raises(ResolutionMismatchError):
            bilinear_form([SparseCollection(1, [ROOT])], f, f)

    @given(st.integers(0, 80))
    @settings(max_examples=25, deadline=None)
    def test_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        fv = rng.standard_normal(1 << n)
        gv = rng.standard_normal(1 << n)
        _, s = random_collection(n, seed + 1000)
        got = bilinear_form([s], GridFunction(n, fv), GridFunction(n, gv))
        want = brute_bilinear([(q.level, q.index) for q in s], fv, gv, n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def cell_pairings(s, f):
    """2^n * bilinear_form([s], f, 1_x) per cell x: the sparse operator
    A_S f(x) = sum over members Q containing x of <|f|>_Q, read through the
    form."""
    n = f.resolution
    out = np.empty(1 << n)
    for x in range(1 << n):
        g = np.zeros(1 << n)
        g[x] = 1.0
        out[x] = bilinear_form([s], f, GridFunction(n, g)) * (1 << n)
    return out


class TestSparseOperator:
    def test_frozen_value(self):
        f = GridFunction(2, [2.0, 2.0, 1.0, 1.0])
        s = SparseCollection(2, [ROOT, DyadicCube(1, 0)])
        np.testing.assert_allclose(cell_pairings(s, f), [3.5, 3.5, 1.5, 1.5], rtol=1e-15)

    @given(st.integers(0, 80))
    @settings(max_examples=25, deadline=None)
    def test_against_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        fv = rng.standard_normal(1 << n)
        _, s = random_collection(n, seed + 2000)
        want = brute_sparse_apply([(q.level, q.index) for q in s], fv, n)
        np.testing.assert_allclose(
            cell_pairings(s, GridFunction(n, fv)), want, rtol=1e-12, atol=1e-14
        )

    def test_pairing_matches_bilinear_form(self):
        rng = np.random.default_rng(3)
        n = 6
        f = GridFunction(n, np.abs(rng.standard_normal(1 << n)))
        g = GridFunction(n, np.abs(rng.standard_normal(1 << n)))
        _, s = random_collection(n, 33)
        a_s = loop_sparse_apply([(q.level, q.index) for q in s], level_averages(f.values), n)
        pairing = float(np.dot(a_s, g.values)) / (1 << n)
        # <A_S f, g> = sum |Q| <f>_Q <g 1_Q> average; equals the form only
        # when g is replaced by its averages, so compare the f-side instead
        ones = GridFunction(n, np.ones(1 << n))
        assert float(np.dot(a_s, ones.values)) / (1 << n) == pytest.approx(
            bilinear_form([s], f, ones), rel=1e-12
        )
        assert pairing >= 0.0


class TestHaar:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HaarSpec(2, [np.ones(1)])  # missing a level
        with pytest.raises(ValueError):
            HaarSpec(2, [np.ones(1), np.ones(3)])  # wrong size
        with pytest.raises(ValueError):
            HaarSpec(1, [np.array([0.5])])  # not a sign
        with pytest.raises(ValueError):
            HaarSpec.constant(2, sign=0)

    def test_spec_accessors(self):
        spec = HaarSpec(2, [np.ones(1), np.array([1.0, -1.0])])
        assert spec.signs[1][1] == -1.0
        assert spec.signs[1][0] == 1.0
        assert spec.signs[0][0] == 1.0
        with pytest.raises(ValueError):
            spec.signs[0][0] = -1.0  # read-only

    def test_all_plus_telescopes_to_mean_zero(self):
        rng = np.random.default_rng(5)
        f = GridFunction(6, rng.standard_normal(64))
        out = haar_transform(HaarSpec.constant(6), f)
        np.testing.assert_allclose(
            out.values, f.values - np.mean(f.values), rtol=1e-12, atol=1e-13
        )

    def test_single_flip_two_cells(self):
        f = GridFunction(1, [3.0, 1.0])
        out = haar_transform(HaarSpec.constant(1, sign=-1), f)
        # flipping the only coefficient negates f - mean
        np.testing.assert_allclose(out.values, [-1.0, 1.0], rtol=1e-15)

    @given(st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_against_explicit_haar_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        fv = rng.standard_normal(1 << n)
        spec = HaarSpec.from_rng(n, rng)
        out = haar_transform(spec, GridFunction(n, fv))
        want = brute_haar_apply(spec.signs, fv, n)
        np.testing.assert_allclose(out.values, want, rtol=1e-11, atol=1e-12)

    def test_unimodular_signs_preserve_l2(self):
        rng = np.random.default_rng(9)
        n = 6
        f = GridFunction(n, rng.standard_normal(1 << n))
        spec = HaarSpec.from_rng(n, rng)
        out = haar_transform(spec, f)
        centered = f.values - np.mean(f.values)
        assert float(np.mean(out.values**2)) == pytest.approx(
            float(np.mean(centered**2)), rel=1e-10
        )

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatchError):
            haar_transform(HaarSpec.constant(2), GridFunction(3, np.ones(8)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 18])
    def test_matches_repeat_oracle_bit_for_bit(self, n):
        # n = 0, 1, 2 reach the width-1 and width-2 views; zeros give
        # constant blocks whose terms cancel to signed zeros
        rng = np.random.default_rng(n)
        size = 1 << n
        inputs = [rng.standard_normal(size), (np.arange(size) < size // 3) * 1.0,
                  np.where(rng.random(size) < 0.5, 0.0, -rng.lognormal(0.0, 3.0, size))]
        for spec in (HaarSpec.from_rng(n, rng), HaarSpec.constant(n, -1)):
            for fv in inputs:
                got = haar_transform(spec, GridFunction(n, fv)).values
                want = repeat_haar_transform(spec, GridFunction(n, fv))
                assert np.array_equal(ieee_bits(got), ieee_bits(want))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_from_rng_keeps_the_stream_and_the_checked_signs(self, n):
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        spec = HaarSpec.from_rng(n, a)
        checked = HaarSpec(n, [b.choice(np.array([-1.0, 1.0]), size=1 << level)
                               for level in range(n)])
        assert spec.resolution == checked.resolution == n
        assert all(np.array_equal(x, y) and x.dtype == y.dtype and not x.flags.writeable
                   for x, y in zip(spec.signs, checked.signs, strict=True))
        assert a.random() == b.random()
        with pytest.raises(ValueError):
            HaarSpec.from_rng(-1, a)


class TestDomination:
    def test_zero_inputs_rejected(self):
        f = GridFunction(2, np.ones(4))
        zero = GridFunction(2, np.zeros(4))
        spec = HaarSpec.constant(2)
        with pytest.raises(ValueError):
            sparse_dominate_bilinear(spec, zero, f)
        with pytest.raises(ValueError):
            sparse_dominate_bilinear(spec, f, zero)

    def test_fields_are_consistent(self):
        rng = np.random.default_rng(21)
        n = 6
        f = GridFunction(n, rng.standard_normal(1 << n))
        g = GridFunction(n, rng.standard_normal(1 << n))
        spec = HaarSpec.from_rng(n, rng)
        result = sparse_dominate_bilinear(spec, f, g, a=4.0)
        assert len(result.collections) == 1
        s = result.collections[0]
        base = GridFunction(n, np.abs(f.values) + np.abs(g.values))
        assert s == cz_stopping_collection(base, ROOT, 4.0)
        assert result.form == pytest.approx(bilinear_form([s], f, g), rel=1e-12)
        tf = haar_transform(spec, f)
        want_pairing = float(np.dot(tf.values, g.values)) / (1 << n)
        assert result.pairing == pytest.approx(want_pairing, rel=1e-12, abs=1e-15)
        assert result.measured_ratio == pytest.approx(
            abs(want_pairing) / result.form, rel=1e-12
        )

    @given(st.integers(0, 60))
    @settings(max_examples=20, deadline=None)
    def test_ratio_finite_on_rough_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        f = GridFunction(n, rng.standard_normal(1 << n))
        g = GridFunction(n, np.exp(rng.normal(0.0, 1.0, 1 << n)))
        spec = HaarSpec.from_rng(n, rng)
        result = sparse_dominate_bilinear(spec, f, g)
        assert math.isfinite(result.measured_ratio)
        assert result.measured_ratio >= 0.0


class TestProofReplay:
    def test_hand_traced_constant_instance(self):
        n = 2
        w = GridFunction(n, np.ones(4))
        f = GridFunction(n, np.ones(4))
        g = CellSet.full(n)
        s = SparseCollection(n, [ROOT])
        report = proof_replay(s, f, w, g, EpsilonSpec.constant(1.0))
        assert report.normalization == pytest.approx(LOG2_3, rel=1e-14)
        assert report.w_g == 1.0
        assert report.w_h == 0.0
        assert report.threshold == 4.0
        assert report.fs_ok and report.doubling_ok
        assert not report.vacuous
        [rec] = report.cube_records
        assert (rec.level, rec.index, rec.part) == (0, 0, 0)
        assert rec.r == 0 and rec.k == 0 and rec.generation == 0
        assert rec.eq1_ok and rec.discard_reason is None
        [band] = report.band_records
        assert band.regime == "coarse"
        assert band.cube_count == 1
        assert band.eq_disjoint_ok
        assert band.coarse_constant == pytest.approx(1.0, rel=1e-12)
        assert band.coarse_ok
        assert report.all_ok
        assert report.max_measured_constant() == pytest.approx(1.0, rel=1e-12)

    def test_discard_reasons(self):
        n = 4
        w = GridFunction(n, np.ones(16))
        fv = np.zeros(16)
        fv[0] = 1.0
        f = GridFunction(n, fv)
        s = SparseCollection(n, [ROOT, DyadicCube(4, 0), DyadicCube(4, 15)])
        report = proof_replay(s, f, w, CellSet.full(n), EpsilonSpec.constant(1.0))
        reasons = {
            (rec.level, rec.index): rec.discard_reason for rec in report.cube_records
        }
        assert reasons[(4, 0)] == "above-threshold"
        assert reasons[(4, 15)] == "zero-average"
        assert reasons[(0, 0)] is None
        assert report.w_h == pytest.approx(2.0 / 16.0)
        assert report.fs_ok and report.doubling_ok
        [band] = report.band_records
        assert band.regime == "coarse"
        assert band.coarse_constant == pytest.approx(14.0 / 16.0, rel=1e-12)
        assert report.all_ok
        # (4, 0) lies above the threshold, so it is checked to meet G' in a
        # null set; that recorded check feeds all_ok and the JSON report
        assert report.above_null_ok and report.to_json_dict()["above_null_ok"]
        assert not dataclasses.replace(report, above_null_ok=False).all_ok

    def test_all_ok_reads_eq1_of_classified_cubes(self):
        n = 4
        fv = np.zeros(16)
        fv[0] = 1.0
        s = SparseCollection(n, [ROOT, DyadicCube(4, 0), DyadicCube(4, 15)])
        report = proof_replay(
            s, GridFunction(n, fv), GridFunction(n, np.ones(16)), CellSet.full(n),
            EpsilonSpec.constant(1.0),
        )
        assert report.all_ok
        level, index, part, r, k, gen, eq1_ok, why = report.cube_columns
        assert eq1_ok == (True, None, None) and why[0] is None
        failed = dataclasses.replace(
            report, cube_columns=(level, index, part, r, k, gen, (False, None, None), why)
        )
        assert not failed.all_ok and failed.to_json_dict()["all_ok"] is False
        assert failed.cube_records[0].eq1_ok is False

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, so no check may be one
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(entbump.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_far_regime_band(self):
        n = 6
        wv = np.ones(1 << n)
        wv[0] = 2.0**50
        w = GridFunction(n, wv)
        fv = np.zeros(1 << n)
        fv[0] = 1.0
        f = GridFunction(n, fv)
        g_mask = np.zeros(1 << n, dtype=bool)
        g_mask[32:] = True
        report = proof_replay(
            SparseCollection(n, [ROOT]),
            f,
            w,
            CellSet(n, g_mask),
            EpsilonSpec.constant(1.0),
        )
        [band] = report.band_records
        assert band.regime == "far"
        assert band.k > 10 * 2**band.r
        assert band.qt_empty and band.qt_measure_ok
        assert band.qt_weight_constant == 0.0
        assert band.disjoint_ok
        assert report.all_ok

    def test_zero_function_is_vacuous(self):
        n = 3
        w = GridFunction(n, np.ones(8))
        f = GridFunction(n, np.zeros(8))
        report = proof_replay(
            SparseCollection(n, [ROOT]), f, w, CellSet.full(n), EpsilonSpec.log_pow(2.0)
        )
        assert report.vacuous
        assert report.all_ok
        assert report.normalization == 0.0
        assert report.cube_records == [] and report.band_records == []

    def test_validation(self):
        n = 3
        w = GridFunction(n, np.ones(8))
        f = GridFunction(n, np.ones(8))
        with pytest.raises(ValueError):
            proof_replay(
                SparseCollection(n, [ROOT]), f, w, CellSet.empty(n), EpsilonSpec.log_pow(2.0)
            )
        not_sparse = SparseCollection(n, [ROOT, DyadicCube(1, 0)])
        with pytest.raises(SparsePreconditionError):
            proof_replay(not_sparse, f, w, CellSet.full(n), EpsilonSpec.log_pow(2.0))
        with pytest.raises(ResolutionMismatchError):
            proof_replay(
                SparseCollection(2, [ROOT]), f, w, CellSet.full(n), EpsilonSpec.log_pow(2.0)
            )

    @given(st.integers(0, 40))
    @settings(max_examples=15, deadline=None)
    def test_random_instances_verify(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
        s = cz_stopping_collection(base, ROOT, 4.0)
        w = GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
        f = GridFunction(n, np.abs(rng.standard_normal(1 << n)))
        if rng.random() < 0.5:
            mask = rng.random(1 << n) < 0.5
            if not mask.any():
                mask[:] = True
            g = CellSet(n, mask)
        else:
            g = CellSet.full(n)
        report = proof_replay(s, f, w, g, EpsilonSpec.log_pow(2.0))
        assert report.all_ok
        assert report.max_measured_constant() <= 16.0 * (1.0 + 1e-9)

    def test_json_roundtrip(self):
        _, s = random_collection(5, 77)
        rng = np.random.default_rng(77)
        w = GridFunction(5, np.exp(rng.normal(0.0, 1.0, 32)))
        f = GridFunction(5, np.abs(rng.standard_normal(32)))
        report = proof_replay(s, f, w, CellSet.full(5), EpsilonSpec.log_pow(2.0))
        payload = report.to_json_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["all_ok"] == report.all_ok
        assert len(back["cubes"]) == len(report.cube_records)
        assert len(back["bands"]) == len(report.band_records)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "replay.json")
            report.save_json(path)
            with open(path) as fh:
                assert json.load(fh) == back


# Edges of the level classes: x = avg_f w(G) at the powers of 4 that a
# double can hold and one ulp either side, x just above 4 (k = -2), and the
# smallest positive doubles.
POW4 = st.integers(-537, 1).map(lambda j: 4.0**j)
LEVEL_X = st.one_of(
    POW4,
    st.tuples(POW4, st.sampled_from([0.0, math.inf]))
    .map(lambda p: float(np.nextafter(*p)))
    .filter(lambda x: x > 0.0),
    st.floats(4.0, 4.0 * (1.0 + 1e-12), exclude_min=True),
    st.floats(5e-324, 1e-300),
    st.floats(1e-300, 4.0),
)


def rho_near_pow2(j, ulps):
    """A rho ulps steps from 2^(2^j) - 2, where shifted_log2(rho) = 2^j."""
    edge = np.array([2.0 ** (2**j) - 2.0])
    bits = edge.view(np.int64) + (abs(ulps) if edge[0] == 0.0 else ulps)
    return float(bits.view(np.float64)[0])


RHO = st.one_of(
    st.tuples(st.integers(0, 6), st.integers(-64, 64)).map(lambda p: rho_near_pow2(*p)),
    st.floats(0.0, 1e30),
)


class TestReplayClassifiers:
    @given(st.lists(LEVEL_X, min_size=1, max_size=20))
    @example([4.0 * (1.0 + 1e-12), 5e-324, 1.0, float(np.nextafter(1.0, 2.0))])
    @settings(max_examples=200, deadline=None)
    def test_level_class_matches_loop_at_edges(self, xs):
        assert _level_class(np.array(xs), 1.0).tolist() == [level_class(x, 1.0) for x in xs]

    @given(st.lists(st.floats(1e-150, 4.0), min_size=1, max_size=20), st.floats(1e-100, 1e100))
    @settings(max_examples=100, deadline=None)
    def test_level_class_matches_loop(self, xs, w_g):
        avg = np.array(xs) / w_g
        avg = avg[(avg > 0.0) & (avg * w_g > 0.0) & (avg * w_g <= 4.0)]
        assert _level_class(avg, w_g).tolist() == [level_class(a, w_g) for a in avg.tolist()]

    def test_level_class_edges(self):
        assert _level_class(np.array([4.0 * (1.0 + 1e-12), 4.0, 5e-324]), 1.0).tolist() == [
            -2, -1, 537
        ]
        # A product that underflows to 0 reaches the cap, where the loop's
        # log guess has no value.
        assert _level_class(np.array([5e-324]), 0.25).tolist() == [1100]
        with pytest.raises(ValueError):
            level_class(5e-324, 0.25)

    @given(st.lists(RHO, min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_rho_bin_matches_loop(self, rhos):
        r, ok = _rho_bin(np.array(rhos))
        want = [rho_bin(x) for x in rhos]
        assert r.tolist() == [w[0] for w in want]
        assert ok.tolist() == [w[2] for w in want]

    def test_rho_bin_edges(self):
        # shifted_log2(rho) = 1, 2, 4, 8, log2(257): 1 is in no band, 2^j
        # tops band j - 1
        r, ok = _rho_bin(np.array([0.0, 2.0, 14.0, 254.0, 255.0]))
        assert r.tolist() == [0, 0, 1, 2, 3]
        assert ok.tolist() == [False, True, True, True, True]


def far_instance(seed, n=10):
    """A 2^60 spike on a lognormal weight, kept out of G: <f> w(G) is tiny,
    so most classes land in the far regime (k > 10 * 2^r)."""
    rng = np.random.default_rng(seed)
    wv = np.exp(rng.normal(0.0, 0.3, 1 << n))
    spike = int(rng.integers(0, 1 << n))
    wv[spike] = 2.0**60
    f = GridFunction(n, np.exp(rng.normal(0.0, 0.2, 1 << n)))
    g = rng.random(1 << n) < 0.5
    g[spike] = False
    base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
    s = cz_stopping_collection(base, ROOT, 4.0)
    return s, f, GridFunction(n, wv), CellSet(n, g), EpsilonSpec.constant(1.0)


def mixed_instance(seed):
    """Coarse instances with zero averages and above-threshold members."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
    s = cz_stopping_collection(base, ROOT, 4.0)
    w = GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
    fv = np.abs(rng.standard_normal(1 << n)) * (rng.random(1 << n) < 0.6)
    fv[int(rng.integers(0, 1 << n))] += 1e3 * rng.random()
    g = rng.random(1 << n) < 0.5
    g[0] = True
    eps = EpsilonSpec.log_pow(2.0) if seed % 2 else EpsilonSpec.constant(1.0)
    return s, GridFunction(n, fv), w, CellSet(n, g), eps


# The far-band disjointness sum adds its positive terms in another order
# than the loop; measured at most 1.9e-15 apart over 400 far instances.
FAR_REL_TOL = 1e-13


class TestReplayAgainstLoop:
    def check(self, args):
        want, got = loop_proof_replay(*args), proof_replay(*args)
        assert dataclasses.replace(want, band_records=[]) == dataclasses.replace(
            got, band_records=[]
        )
        assert len(got.band_records) == len(want.band_records)
        for a, b in zip(want.band_records, got.band_records):
            assert a.band_sum == b.band_sum
            if a.regime == "far":
                assert b.disjoint_constant == pytest.approx(a.disjoint_constant, rel=FAR_REL_TOL)
                b = dataclasses.replace(b, disjoint_constant=a.disjoint_constant)
            assert a == b
        return got

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_far_instances(self, seed):
        self.check(far_instance(seed))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_mixed_instances(self, seed):
        self.check(mixed_instance(seed))

    def test_far_recipe_reaches_multi_member_bands(self):
        multi = 0
        for seed in range(40):
            bands = self.check(far_instance(seed)).band_records
            far = [band for band in bands if band.regime == "far"]
            assert far
            multi += sum(band.cube_count > 1 for band in far)
        assert multi > 0

    def test_band_ok(self):
        band = BandRecord(0, 0, 0, "coarse", 1, 0.0, True, 0.5, True)
        assert band.ok
        assert not dataclasses.replace(band, coarse_ok=False).ok
        assert not dataclasses.replace(band, eq_disjoint_ok=False).ok


# The families of the replay workload's calls, drawn in replay_random_suite's
# order; one trial per instance.
WORKLOAD_WEIGHTS = ("power:0", "power:0.5", "power:0.9", "power:0.99", "a1gen")
WORKLOAD_FUNCTIONS = ("indicator", "random", "haar_packet", "adversarial")


def workload_instance(n, seed, weight, function):
    rng = trial_rng(seed, 0)
    eps = EpsilonSpec.log_pow(2.0)
    w = _draw_weight(rng, n, weight)[0]
    base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
    s = cz_stopping_collection(base, ROOT, 4.0)
    majorant = m_entropy(w, eps).values if function == "adversarial" else None
    f = _draw_function(rng, n, function, majorant=majorant)
    g = CellSet(n, rng.random(1 << n) < 0.5)
    if integral(w, g) <= 0.0:
        g = CellSet.full(n)
    return s, f, w, g, eps


def float_bits(value):
    """A float as its IEEE bytes, so NaN equals NaN and -0.0 differs from 0.0."""
    return struct.pack("<d", value) if isinstance(value, float) else value


class TestReplayAgainstLevels:
    """proof_replay on one member table against level_proof_replay, the form
    with one pass per part and one grid sweep per band: the same records in
    the same order, and every band field bit for bit."""

    def check(self, args):
        want, got = level_proof_replay(*args), proof_replay(*args)
        assert got.cube_records == want.cube_records
        assert dataclasses.replace(got, band_records=[]) == dataclasses.replace(
            want, band_records=[]
        )
        def bits(report):
            return [list(map(float_bits, dataclasses.astuple(b))) for b in report.band_records]

        assert bits(got) == bits(want)
        # the report's cube dicts read the columns; they match the records
        assert got.to_json_dict()["cubes"] == [dataclasses.asdict(rec) for rec in got.cube_records]
        return got

    @given(
        st.integers(6, 12),
        st.integers(0, 10**6),
        st.sampled_from(WORKLOAD_WEIGHTS),
        st.sampled_from(WORKLOAD_FUNCTIONS),
    )
    @settings(max_examples=40, deadline=None)
    def test_workload_instances(self, n, seed, weight, function):
        self.check(workload_instance(n, seed, weight, function))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_far_instances(self, seed):
        bands = self.check(far_instance(seed)).band_records
        assert any(band.regime == "far" for band in bands)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mixed_instances(self, seed):
        self.check(mixed_instance(seed))

    @pytest.mark.parametrize("n", [16, 18])
    def test_stopping_tree_at_the_cap(self, n):
        rng = np.random.default_rng(n)
        base = GridFunction(n, np.exp(rng.normal(0.0, 2.0, 1 << n)))
        s = cz_stopping_collection(base, ROOT, 4.0)
        w = GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
        f = GridFunction(n, np.abs(rng.standard_normal(1 << n)))
        g = CellSet(n, rng.random(1 << n) < 0.5)
        report = self.check((s, f, w, g, EpsilonSpec.log_pow(2.0)))
        assert len(report.cube_records) == len(s) > 1000

    @pytest.mark.parametrize("case", ["coarse", "far", "split"])
    def test_nested_members_of_one_part(self, case):
        # Each generation of a strictly 1/2-sparse chain sits at least two
        # levels below the last, so a part holds nested members only from
        # n = 16 on: ROOT and the cell (16, 0) at S-depth 8 share part 0,
        # and with rho <= 2 they share a rho-bin. With f = 1 they share a
        # band too: a coarse band reads M^S w, which peaks on the deeper
        # member, and a far band takes G' to be that one cell, where w is
        # tiny. A spike of f on the cell puts them in two bands of one bin.
        n = 16
        chain = SparseCollection(n, [DyadicCube(level, 0) for level in range(0, n + 1, 2)])
        wv, fv = np.ones(1 << n), np.ones(1 << n)
        wv[0] = 1e-10 if case == "far" else 1.5
        fv[0] = 4.0 if case == "split" else 1.0
        g = CellSet.from_indices(n, [0]) if case == "far" else CellSet.full(n)
        args = (chain, GridFunction(n, fv), GridFunction(n, wv), g, EpsilonSpec.log_pow(2.0))
        report = self.check(args)
        root, cell = report.cube_records[:2]
        assert (cell.level, cell.part, cell.r) == (16, root.part, root.r)
        if case == "split":
            assert cell.k < root.k and cell.generation == 0
        else:
            [band] = [band for band in report.band_records if band.cube_count == 2]
            assert band.regime == case and cell.generation == 1
        assert report.all_ok

    def test_single_cell_grid(self):
        args = (
            SparseCollection(0, [ROOT]), GridFunction(0, [2.0]), GridFunction(0, [3.0]),
            CellSet.full(0), EpsilonSpec.log_pow(2.0),
        )
        report = self.check(args)
        [rec] = report.cube_records
        assert (rec.level, rec.index, rec.part, rec.generation) == (0, 0, 0, 0)
        assert len(report.band_records) == 1 and report.all_ok

    def test_empty_collection(self):
        n = 4
        args = (
            SparseCollection(n, []), GridFunction(n, np.ones(16)), GridFunction(n, np.ones(16)),
            CellSet.full(n), EpsilonSpec.log_pow(2.0),
        )
        report = self.check(args)
        assert not report.vacuous and report.all_ok
        assert report.cube_records == [] and report.band_records == []

    def test_part_with_every_member_discarded(self):
        # (2, 3) is the only member of part 1, and f vanishes on it
        n = 4
        fv = np.ones(16)
        fv[12:] = 0.0
        s = SparseCollection(n, [ROOT, DyadicCube(2, 3)])
        args = (s, GridFunction(n, fv), GridFunction(n, np.ones(16)), CellSet.full(n),
                EpsilonSpec.constant(1.0))
        report = self.check(args)
        assert [(rec.part, rec.discard_reason) for rec in report.cube_records] == [
            (0, None), (1, "zero-average")
        ]
        assert {band.part for band in report.band_records} == {0}
        assert report.to_json_dict()["cubes"][1]["r"] is None

    def test_vacuous_cube(self):
        # w vanishes on (1, 1), so rho of the member (2, 3) is NaN and the
        # replay reads it as 1: shifted_log2(1) = log2(3) lies in band r = 0
        n = 4
        wv = np.ones(16)
        wv[8:] = 0.0
        w = GridFunction(n, wv)
        assert math.isnan(rho_all(w).values[2][3])
        s = SparseCollection(n, [ROOT, DyadicCube(2, 3)])
        args = (s, GridFunction(n, np.ones(16)), w, CellSet.full(n), EpsilonSpec.log_pow(2.0))
        report = self.check(args)
        rec = report.cube_records[1]
        assert (rec.level, rec.index, rec.r, rec.eq1_ok) == (2, 3, 0, True)
        assert rec.discard_reason is None
        assert report.all_ok
