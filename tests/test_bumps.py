import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entbump import (
    ROOT,
    BracketingError,
    DyadicCube,
    EpsilonSpec,
    GridFunction,
    InvalidCubeError,
    InvalidSpecError,
    OrliczSpec,
    RhoTable,
    SparseCollection,
    dyadic_maximal,
    k_epsilon,
    m_coeff,
    m_entropy,
    m_orlicz,
    orlicz_norm,
    rho,
    shifted_log2,
)
from entbump.bumps import _entropy_levels, _level_orlicz
from entbump.grid import average, level_averages, paint_down

from oracles import (
    brute_entropy_norm,
    brute_m_orlicz,
    brute_orlicz_norm,
    enumerate_cubes,
    ieee_bits,
    loop_m_coeff,
    mp_k_epsilon,
    mp_m_orlicz,
    mp_orlicz_norm,
    temp_entropy_levels,
)

LOG2_3 = math.log2(3.0)


class TestShiftedLog2:
    def test_anchor_values(self):
        assert shifted_log2(0.0) == 1.0
        assert shifted_log2(2.0) == 2.0
        assert shifted_log2(6.0) == 3.0
        assert shifted_log2(1.0) == pytest.approx(LOG2_3, rel=1e-15)

    def test_array_input(self):
        out = shifted_log2(np.array([0.0, 2.0, 6.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0], rtol=1e-15)

    @given(st.floats(min_value=0.0, max_value=1e300))
    def test_at_least_one_and_increasing(self, t):
        assert shifted_log2(t) >= 1.0
        assert shifted_log2(t + 1.0) > shifted_log2(t) - 1e-12


class TestEpsilonSpec:
    def test_parse_bare_and_named(self):
        assert EpsilonSpec.parse("log_pow:2") == EpsilonSpec.parse("log_pow:p=2")
        assert EpsilonSpec.parse("constant:1.5") == EpsilonSpec.constant(1.5)
        assert EpsilonSpec.parse("loglog:0.3") == EpsilonSpec.loglog(0.3)

    def test_serialize_roundtrip(self):
        for spec in (
            EpsilonSpec.constant(2.0),
            EpsilonSpec.log_pow(1.5),
            EpsilonSpec.loglog(0.25),
        ):
            assert EpsilonSpec.parse(spec.serialize()) == spec

    def test_invalid_specs(self):
        for bad in ("nope:1", "log_pow:p=-1", "constant:0.5", "log_pow:q=2",
                    "loglog:delta=-0.1", "log_pow:p=1,p=2", "", "constant",
                    "log_pow:p=x"):
            with pytest.raises(InvalidSpecError):
                EpsilonSpec.parse(bad)

    def test_domain(self):
        eps = EpsilonSpec.log_pow(2.0)
        with pytest.raises(ValueError):
            eps(0.5)
        assert eps(1.0 - 1e-12) == pytest.approx(eps(1.0))

    def test_values(self):
        eps = EpsilonSpec.log_pow(2.0)
        assert eps(2.0) == 4.0
        assert eps(6.0) == 9.0
        assert EpsilonSpec.constant(3.0)(100.0) == 3.0
        t = 37.0
        l1 = shifted_log2(t)
        l2 = shifted_log2(l1)
        l3 = shifted_log2(l2)
        assert EpsilonSpec.loglog(0.5)(t) == pytest.approx(l2 * l3**1.5, rel=1e-13)

    @given(
        st.sampled_from(["constant:2", "log_pow:1", "log_pow:2.5", "loglog:0.3"]),
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_at_least_one_and_nondecreasing(self, text, t, bump):
        eps = EpsilonSpec.parse(text)
        assert eps(t) >= 1.0 - 1e-12
        assert eps(t + bump) >= eps(t) * (1.0 - 1e-12)

    def test_tower_evaluation_matches_direct(self):
        eps = EpsilonSpec.log_pow(2.0)
        for k in range(5):
            t = 2.0 ** (2.0**k)
            assert eps.at_tower(k) == pytest.approx(eps(t), rel=1e-13)
        for k in range(0, 12):
            assert eps.at_pow2(k) == pytest.approx(eps(2.0**k), rel=1e-13)
        # k = -1 extends below the public domain via the shifted log
        assert eps.at_pow2(-1) == pytest.approx(math.log2(2.5) ** 2, rel=1e-13)

    def test_tower_evaluation_huge_k(self):
        # arguments like 2^(2^40) never materialize
        eps = EpsilonSpec.log_pow(2.0)
        v = eps.at_tower(40)
        assert v == pytest.approx((2.0**40) ** 2, rel=1e-10)


class TestOrliczSpec:
    def test_parse(self):
        assert OrliczSpec.parse("power:2") == OrliczSpec.power(2.0)
        assert OrliczSpec.parse("llog:0.5") == OrliczSpec.llog(0.5)
        assert OrliczSpec.parse("dlr:delta=0.25") == OrliczSpec.dlr(0.25)
        assert OrliczSpec.parse("logprod:e1=1,e3=0.5") == OrliczSpec.logprod(e1=1.0, e3=0.5)

    def test_serialize_roundtrip(self):
        for spec in (
            OrliczSpec.power(1.7),
            OrliczSpec.llog(0.25),
            OrliczSpec.dlr(0.1),
            OrliczSpec.logprod(e1=1.0, e2=0.5, e4=2.0),
        ):
            assert OrliczSpec.parse(spec.serialize()) == spec

    def test_invalid(self):
        for bad in ("power:0", "power:-1", "llog:-0.5", "logprod:e5=1", "wat:1"):
            with pytest.raises(InvalidSpecError):
                OrliczSpec.parse(bad)

    def test_zero_at_zero(self):
        for spec in (
            OrliczSpec.power(2.0),
            OrliczSpec.llog(0.5),
            OrliczSpec.dlr(0.25),
            OrliczSpec.logprod(e1=1.0),
        ):
            assert spec(0.0) == 0.0

    def test_values(self):
        assert OrliczSpec.power(2.0)(3.0) == 9.0
        assert OrliczSpec.llog(0.0)(2.0) == pytest.approx(2.0 * shifted_log2(2.0))
        t = 5.0
        l1 = shifted_log2(t)
        l2 = shifted_log2(l1)
        l3 = shifted_log2(l2)
        assert OrliczSpec.dlr(0.5)(t) == pytest.approx(t * l2 * l3**1.5, rel=1e-13)
        assert OrliczSpec.logprod(e1=2.0, e2=1.0)(t) == pytest.approx(
            t * l1**2 * l2, rel=1e-13
        )

    @given(
        st.sampled_from(["power:2", "llog:0.5", "dlr:0.25", "logprod:e1=1,e2=0.5"]),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.001, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_increasing(self, text, t, bump):
        phi = OrliczSpec.parse(text)
        assert phi(t + bump) > phi(t)


class TestKEpsilon:
    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            k_epsilon(EpsilonSpec.log_pow(2.0), tol=tol)

    def test_log_pow_2_value(self):
        ref, used = mp_k_epsilon("log_pow", {"p": 2.0})
        got = k_epsilon(EpsilonSpec.log_pow(2.0))
        assert not got.diverged
        assert got.terms_used == used
        assert got.value == pytest.approx(ref, rel=1e-12)

    def test_log_pow_1_value(self):
        ref, _ = mp_k_epsilon("log_pow", {"p": 1.0})
        got = k_epsilon(EpsilonSpec.log_pow(1.0))
        assert got.value == pytest.approx(ref, rel=1e-12)
        assert not got.diverged

    def test_loglog_value(self):
        ref, _ = mp_k_epsilon("loglog", {"delta": 0.5})
        got = k_epsilon(EpsilonSpec.loglog(0.5))
        assert got.value == pytest.approx(ref, rel=1e-10)

    def test_constant_diverges(self):
        got = k_epsilon(EpsilonSpec.constant(1.0), max_terms=64)
        assert got.diverged
        assert got.terms_used == 64
        assert got.value == pytest.approx(64.0)

    def test_dyadic_scale(self):
        ref, used = mp_k_epsilon("log_pow", {"p": 3.0}, scale="dyadic", max_terms=4096)
        got = k_epsilon(EpsilonSpec.log_pow(3.0), scale="dyadic", max_terms=4096)
        assert got.terms_used == used
        assert got.value == pytest.approx(ref, rel=1e-10)

    def test_bad_scale(self):
        with pytest.raises(InvalidSpecError):
            k_epsilon(EpsilonSpec.log_pow(2.0), scale="nope")


class TestEntropyNorm:
    # The per-level norms of _entropy_levels, read one cube at a time.
    def test_full_variant_spike(self):
        w = GridFunction(2, [4.0, 0.0, 0.0, 0.0])
        assert _entropy_levels(w, EpsilonSpec.constant(1.0), "full")[0][0] == 2.0

    def test_log_variant_formula(self):
        rng = np.random.default_rng(2)
        w = GridFunction(4, rng.random(16) + 0.1)
        eps = EpsilonSpec.log_pow(2.0)
        q = DyadicCube(1, 1)
        r = rho(w, q)
        expected = average(w, q) * shifted_log2(r) * eps(r)
        got = _entropy_levels(w, eps, "log")[q.level][q.index]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_vacuous_cube_gives_zero(self):
        w = GridFunction(2, [0.0, 0.0, 1.0, 1.0])
        assert _entropy_levels(w, EpsilonSpec.log_pow(2.0), "log")[1][0] == 0.0

    @pytest.mark.parametrize("variant", ["log", "full"])
    def test_reads_m_entropy_bits(self, variant):
        # Each cube's norm is the value m_entropy paints from it, bit for bit,
        # and matches the one-cube formula to rounding.
        rng = np.random.default_rng(3)
        w = GridFunction(5, np.exp(rng.normal(0.0, 2.0, 32)) * (rng.random(32) < 0.8))
        eps = EpsilonSpec.log_pow(2.0)
        norms = _entropy_levels(w, eps, variant)
        for level in range(6):
            q = DyadicCube(level, (7 * level) % (1 << level))
            got = norms[level][q.index]
            cube_only = m_entropy(w, eps, [SparseCollection(5, [q])], variant=variant)
            a, b = q.cell_range(5)
            assert np.all(cube_only.values[a:b] == got)
            assert got == pytest.approx(brute_entropy_norm(w, q, eps, variant), rel=1e-13)

    def test_errors(self):
        w = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            _entropy_levels(w, EpsilonSpec.log_pow(2.0), "nope")


class TestEntropyLevels:
    # A hand-built RhoTable with rho just below 1, where eps clips its
    # argument to 1 before taking the log; 1 - 2^-30 keeps log2(2 + rho)
    # apart from log2(3), 1 - 2^-52 does not.
    EPS = [EpsilonSpec.constant(2.0), EpsilonSpec.log_pow(2.0), EpsilonSpec.loglog(0.5)]

    @staticmethod
    def _table(w, rho_value):
        avgs = level_averages(w.values)
        vac = tuple(a == 0.0 for a in avgs)
        values = tuple(np.where(v, np.nan, rho_value) for v in vac)
        return avgs, RhoTable(w.resolution, values, vac)

    @pytest.mark.parametrize("variant", ["log", "full"])
    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    @pytest.mark.parametrize("rho_value", [1.0 - 2.0**-52, 1.0 - 2.0**-30])
    def test_rho_below_one_matches_eps_call(self, variant, eps, rho_value):
        rng = np.random.default_rng(4)
        w = GridFunction(5, rng.lognormal(0.0, 2.0, 32))
        w = GridFunction(5, np.where(np.arange(32) < 8, 0.0, w.values))  # vacuous cubes
        avgs, table = self._table(w, rho_value)
        norms = _entropy_levels(w, eps, variant, table)
        for avg, vac, got in zip(avgs, table.vacuous, norms):
            r = np.full(avg.size, rho_value)
            factor = r if variant == "full" else np.log2(2.0 + r)
            want = np.where(vac, 0.0, avg * factor * eps(r))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    def test_rho_outside_the_bump_domain_raises(self, eps):
        w = GridFunction(3, np.arange(1.0, 9.0))
        _, table = self._table(w, 1.0 - 1e-8)
        with pytest.raises(ValueError, match="bump domain is t >= 1"):
            _entropy_levels(w, eps, "log", table)


class TestEntropyBuffers:
    # _entropy_levels and m_entropy against their fresh-temporaries form,
    # as IEEE bits
    EPS = TestEntropyLevels.EPS

    @staticmethod
    def _weights(resolution):
        rng = np.random.default_rng(resolution)
        size = 1 << resolution
        rough = rng.lognormal(0.0, 2.0, size)
        return [rough, np.where(np.arange(size) % 8 < 4, 0.0, rough),  # zero subtrees
                np.zeros(size), np.ones(size)]

    @pytest.mark.parametrize("variant", ["log", "full"])
    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    @pytest.mark.parametrize("resolution", [0, 1, 2, 9])
    def test_levels_and_maximal_match_oracle(self, variant, eps, resolution):
        for vals in self._weights(resolution):
            w = GridFunction(resolution, vals)
            want = temp_entropy_levels(w, eps, variant)
            got = _entropy_levels(w, eps, variant)
            assert len(got) == len(want) == resolution + 1
            for a, b in zip(got, want):
                assert np.array_equal(ieee_bits(a), ieee_bits(b))
            painted = paint_down(want, np.maximum)[-1]
            assert np.array_equal(ieee_bits(m_entropy(w, eps, variant=variant).values),
                                  ieee_bits(painted))

    def test_cap_matches_oracle(self):
        w = GridFunction(18, self._weights(18)[1])
        eps = EpsilonSpec.log_pow(2.0)
        want = paint_down(temp_entropy_levels(w, eps), np.maximum)[-1]
        assert np.array_equal(ieee_bits(m_entropy(w, eps).values), ieee_bits(want))

    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    def test_collections_zero_uncovered_cells(self, eps):
        w = GridFunction(6, self._weights(6)[1])
        coll = SparseCollection(6, [DyadicCube(2, 1), DyadicCube(4, 13), DyadicCube(6, 60)])
        norms = [np.where(ok, v, -math.inf)
                 for ok, v in zip(coll.members, temp_entropy_levels(w, eps))]
        painted = paint_down(norms, np.maximum)[-1]
        want = np.where(np.isneginf(painted), 0.0, painted)
        got = m_entropy(w, eps, collections=[coll]).values
        assert np.array_equal(ieee_bits(got), ieee_bits(want))
        covered = np.zeros(64, dtype=bool)
        covered[16:32] = covered[52:56] = covered[60] = True
        assert np.all(got[~covered] == 0.0) and np.all(np.isfinite(got))


class TestMEntropy:
    @given(st.integers(0, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_per_cube_max(self, resolution, data):
        size = 1 << resolution
        vals = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
        w = GridFunction(resolution, vals)
        eps = EpsilonSpec.log_pow(1.0)
        got = m_entropy(w, eps)
        for cell in range(size):
            best = 0.0
            for level in range(resolution + 1):
                q = DyadicCube(level, cell >> (resolution - level))
                best = max(best, brute_entropy_norm(w, q, eps))
            assert got.values[cell] == pytest.approx(best, rel=1e-12, abs=1e-300)

    def test_dominates_dyadic_maximal(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            w = GridFunction(6, rng.random(64))
            me = m_entropy(w, EpsilonSpec.log_pow(2.0)).values
            md = dyadic_maximal(w).values
            assert np.all(me >= md * (1.0 - 1e-12))

    def test_collections_restriction(self):
        w = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        eps = EpsilonSpec.constant(1.0)
        got = m_entropy(w, eps, collections=[SparseCollection(2, [DyadicCube(1, 1)])])
        # cells under the chosen cube see its norm, others see zero
        assert got.values[0] == 0.0
        assert got.values[1] == 0.0
        assert got.values[2] == got.values[3] > 0

    def test_collections_union(self):
        # Several collections act as their union; a coarser collection is
        # fine, a member finer than the grid is not, nor is an empty list.
        rng = np.random.default_rng(4)
        w = GridFunction(4, rng.random(16) + 0.05)
        eps = EpsilonSpec.log_pow(1.0)
        a = [DyadicCube(1, 0), DyadicCube(3, 6)]
        b = [DyadicCube(2, 3), DyadicCube(4, 1)]
        union = m_entropy(w, eps, [SparseCollection(4, a + b)])
        split = m_entropy(w, eps, [SparseCollection(4, a), SparseCollection(4, b)])
        assert np.array_equal(union.values, split.values)
        coarse = m_entropy(w, eps, [SparseCollection(2, [DyadicCube(1, 0)])])
        assert np.array_equal(coarse.values, m_entropy(w, eps, [SparseCollection(4, a[:1])]).values)
        with pytest.raises(InvalidCubeError):
            m_entropy(w, eps, [SparseCollection(5, [DyadicCube(5, 0)])])
        with pytest.raises(ValueError):
            m_entropy(w, eps, [])


class TestOrliczNorm:
    def test_identity_recovers_average(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            w = GridFunction(4, rng.random(16) * 3.0)
            for q in (ROOT, DyadicCube(2, 1), DyadicCube(4, 7)):
                got = orlicz_norm(w, q, OrliczSpec.power(1.0))
                want = average(w, q)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_square_two_cell(self):
        w = GridFunction(1, [2.0, 0.0])
        got = orlicz_norm(w, ROOT, OrliczSpec.power(2.0))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_zero_on_cube(self):
        w = GridFunction(1, [0.0, 3.0])
        assert orlicz_norm(w, DyadicCube(1, 0), OrliczSpec.power(2.0)) == 0.0

    def test_certificate_holds(self):
        rng = np.random.default_rng(12)
        tol = 1e-10
        for spec in (OrliczSpec.power(3.0), OrliczSpec.llog(0.5), OrliczSpec.dlr(0.2)):
            w = GridFunction(5, rng.random(32) * 10.0 + 0.01)
            lam = orlicz_norm(w, ROOT, spec, tol=tol)
            mean = float(np.mean(spec(w.values / lam)))
            assert abs(mean - 1.0) <= tol

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        w_vals = rng.random(16) + 0.1
        phi = OrliczSpec.llog(0.5)
        base = orlicz_norm(GridFunction(4, w_vals), ROOT, phi)
        scaled = orlicz_norm(GridFunction(4, 7.0 * w_vals), ROOT, phi)
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)

    def test_monotone_in_weight(self):
        rng = np.random.default_rng(14)
        w_vals = rng.random(16) + 0.1
        phi = OrliczSpec.power(2.0)
        small = orlicz_norm(GridFunction(4, w_vals), ROOT, phi)
        big = orlicz_norm(GridFunction(4, w_vals + 0.5), ROOT, phi)
        assert big > small


class TestMOrlicz:
    def test_matches_per_cube_max(self):
        rng = np.random.default_rng(15)
        w = GridFunction(4, rng.random(16) * 2.0)
        phi = OrliczSpec.power(2.0)
        got = m_orlicz(w, phi)
        for cell in range(16):
            best = 0.0
            for level in range(5):
                q = DyadicCube(level, cell >> (4 - level))
                best = max(best, orlicz_norm(w, q, phi))
            assert got.values[cell] == pytest.approx(best, rel=1e-12)

    def test_identity_bump_is_dyadic_maximal(self):
        rng = np.random.default_rng(16)
        w = GridFunction(5, rng.random(32) * 4.0)
        got = m_orlicz(w, OrliczSpec.power(1.0))
        ref = dyadic_maximal(w)
        np.testing.assert_allclose(got.values, ref.values, rtol=1e-12)


ORACLE_PHIS = ("power:2", "power:0.5", "llog:0.5", "dlr:0.25", "logprod:e1=1,e2=0.5")


# Largest distance in ulps allowed between the Orlicz solve and either
# oracle (bisection and mpmath root); the largest measured is 5.
ORLICZ_ULPS = 8


def ulps(got, want):
    """Largest distance between got and want in units of want's last place."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))))


def orlicz_case(n, seed, zero_block):
    """A lognormal weight with sigma 3, optionally zero on one cube."""
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.normal(0.0, 3.0, 1 << n))
    if zero_block:
        # a vacuous cube, and everything below it
        level = int(rng.integers(0, n + 1))
        width = 1 << (n - level)
        a = int(rng.integers(0, 1 << level)) * width
        vals[a : a + width] = 0.0
    return vals, rng


ORLICZ_CASES = (
    st.integers(0, 6),
    st.sampled_from(ORACLE_PHIS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


class TestOrliczLevelSolver:
    """The child-bracket Illinois solve against the bisection and mpmath oracles."""

    @given(*ORLICZ_CASES)
    @example(0, "llog:0.5", 0, False)
    @example(0, "dlr:0.25", 0, True)
    @settings(max_examples=40, deadline=None)
    def test_matches_both_oracles_within_ulps(self, n, text, seed, zero_block):
        vals, rng = orlicz_case(n, seed, zero_block)
        phi = OrliczSpec.parse(text)
        w = GridFunction(n, vals)
        got = m_orlicz(w, phi).values
        assert ulps(got, brute_m_orlicz(vals, n, phi)) <= ORLICZ_ULPS
        assert ulps(got, mp_m_orlicz(vals, n, phi)) <= ORLICZ_ULPS
        level = int(rng.integers(0, n + 1))
        index = int(rng.integers(0, 1 << level))
        one = orlicz_norm(w, DyadicCube(level, index), phi)
        assert ulps(one, brute_orlicz_norm(vals, level, index, n, phi)) <= ORLICZ_ULPS
        assert ulps(one, mp_orlicz_norm(vals, level, index, n, phi)) <= ORLICZ_ULPS

    @given(*ORLICZ_CASES)
    @settings(max_examples=40, deadline=None)
    def test_parent_norm_lies_between_its_childrens(self, n, text, seed, zero_block):
        vals, _ = orlicz_case(n, seed, zero_block)
        phi = OrliczSpec.parse(text)
        w = GridFunction(n, vals)
        for level in range(n):
            for index in range(1 << level):
                parent = orlicz_norm(w, DyadicCube(level, index), phi)
                kids = [orlicz_norm(w, DyadicCube(level + 1, 2 * index + i), phi) for i in (0, 1)]
                slack = ORLICZ_ULPS * np.spacing(max(kids))
                assert min(kids) - slack <= parent <= max(kids) + slack

    def test_machine_width_bracket_goes_to_the_certificate(self):
        # equal children give a bracket of width 0: every level above the
        # finest takes one Phi call, for its certificate, and keeps the
        # finest level's norm
        calls = []
        phi = OrliczSpec.llog(0.5)

        def counted(t):
            calls.append(t.shape)
            return phi(t)

        w = GridFunction(4, np.full(16, 3.0))
        got = m_orlicz(w, counted).values
        leaf = orlicz_norm(GridFunction(0, [3.0]), ROOT, phi)
        assert list(got) == [leaf] * 16
        assert calls[-4:] == [(1 << level, 16 >> level) for level in (3, 2, 1, 0)]

    @pytest.mark.parametrize("text", ORACLE_PHIS)
    def test_phi_call_budget(self, text):
        # 13-19 Phi calls per level here; bisection took about 55, and
        # without the 2e-16 hi keep-off the Illinois steps creep at the
        # noise floor up to the 200-step cap
        phi = OrliczSpec.parse(text)
        calls = []

        def counted(t):
            calls.append(t.shape)
            return phi(t)

        w = GridFunction(10, np.exp(np.random.default_rng(0).normal(0.0, 2.0, 1 << 10)))
        m_orlicz(w, counted)
        assert len(calls) <= 22 * 11

    def test_infinite_phi_mean_at_lo(self):
        # the root's bracket starts at the children's norms, about 1e-300
        # and 1e300, where Phi(1e300 / lo) overflows: the first step from
        # that infinite Phi-mean is the midpoint
        vals = np.array([1e-300, 1e300])
        phi = OrliczSpec.llog(0.5)
        got = m_orlicz(GridFunction(1, vals), phi).values
        assert ulps(got, brute_m_orlicz(vals, 1, phi)) <= ORLICZ_ULPS

    def test_bracket_with_rising_phi_mean_is_invalid(self):
        # Phi jumps to 3 on (0.4, 0.6), so on w = 1 the Phi-mean is 4/9 at
        # lo = 1.5 and 3 at hi = 2; the geometric search from lam0 = 1 alone
        # would bracket [0.5, 1] and certify 1
        def bump(t):
            return np.where((t > 0.4) & (t < 0.6), 3.0, t * t)

        blocks = np.ones((1, 1))
        assert _level_orlicz(blocks, bump, 1e-10) == [1.0]
        with pytest.raises(InvalidSpecError):
            _level_orlicz(blocks, bump, 1e-10, np.array([1.5]), np.array([2.0]))

    def test_all_zero_weight(self):
        w = GridFunction(3, np.zeros(8))
        assert list(m_orlicz(w, OrliczSpec.llog(0.5)).values) == [0.0] * 8

    def test_constant_phi_cannot_bracket(self):
        w = GridFunction(3, np.arange(1.0, 9.0))

        def two(t):
            return np.full_like(t, 2.0)

        with pytest.raises(BracketingError):
            orlicz_norm(w, DyadicCube(1, 1), two)
        with pytest.raises(BracketingError):
            m_orlicz(w, two)
        with pytest.raises(BracketingError):
            brute_orlicz_norm(w.values, 1, 1, 3, two)

    def test_bracket_limit_is_sixty_doublings(self):
        # Phi(t) = c t has Luxemburg norm c <w>_Q, reached after log2(c)
        # doublings (or halvings) from lam0 = <w>_Q
        w = GridFunction(2, [1.0, 2.0, 3.0, 6.0])
        for k in (60, -60):
            c = 2.0**k
            assert orlicz_norm(w, ROOT, lambda t: c * t) == pytest.approx(3.0 * c, rel=1e-15)
        for k in (61, -61):
            c = 2.0**k
            with pytest.raises(BracketingError, match="bracket"):
                orlicz_norm(w, ROOT, lambda t: c * t)
            with pytest.raises(BracketingError, match="bracket"):
                brute_orlicz_norm(w.values, 0, 0, 2, lambda t: c * t)

    def test_step_phi_fails_the_certificate(self):
        # brackets fine, but the Phi-mean jumps from 0 to 2 across lam = 1
        w = GridFunction(2, np.ones(4))

        def step(t):
            return np.where(t < 1.0, 0.0, 2.0)

        with pytest.raises(BracketingError, match="stalled"):
            orlicz_norm(w, ROOT, step)
        with pytest.raises(BracketingError, match="stalled"):
            m_orlicz(w, step)
        with pytest.raises(BracketingError, match="stalled"):
            brute_orlicz_norm(w.values, 0, 0, 2, step)

    def test_increasing_phi_mean_is_invalid(self):
        # <Phi(w/lam)> = lam * <1/w> grows with lam
        def reciprocal(t):
            return 1.0 / t

        for vals in (np.arange(1.0, 9.0), np.ones(8)):
            w = GridFunction(3, vals)
            with pytest.raises(InvalidSpecError):
                orlicz_norm(w, ROOT, reciprocal)
            with pytest.raises(InvalidSpecError):
                m_orlicz(w, reciprocal)
            with pytest.raises(InvalidSpecError):
                brute_orlicz_norm(vals, 0, 0, 3, reciprocal)

    def test_nonpositive_tol(self):
        phi = OrliczSpec.llog(0.5)
        for vals in (np.arange(1.0, 9.0), np.zeros(8)):
            with pytest.raises(ValueError):
                m_orlicz(GridFunction(3, vals), phi, tol=0)
            with pytest.raises(ValueError):
                orlicz_norm(GridFunction(3, vals), ROOT, phi, tol=0)


def unit_alpha(resolution):
    return [np.ones(1 << level) for level in range(resolution + 1)]


@st.composite
def coeff_instances(draw):
    """(f, collection, per-level alpha, alpha dict): a grid of resolution n,
    a member set on a grid of resolution m <= n (coarser allowed, levels may
    be empty) and nonnegative coefficients, NaN off the members."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, n))
    zero_f = draw(st.booleans())
    vals = [0.0] * (1 << n) if zero_f else draw(
        st.lists(st.floats(-1e3, 1e3), min_size=1 << n, max_size=1 << n)
    )
    bits = draw(st.lists(st.booleans(), min_size=(2 << m) - 1, max_size=(2 << m) - 1))
    coeffs = draw(st.lists(st.floats(0.0, 10.0), min_size=len(bits), max_size=len(bits)))
    alpha = [np.full(1 << level, math.nan) for level in range(m + 1)]
    alpha_dict = {}
    for q, bit, a in zip(enumerate_cubes(m), bits, coeffs):
        if bit:
            alpha[q.level][q.index] = a
            alpha_dict[q] = a
    return GridFunction(n, vals), SparseCollection(m, alpha_dict), alpha, alpha_dict


class TestMCoeff:
    def test_unit_coefficients_give_dyadic_maximal(self):
        rng = np.random.default_rng(17)
        f = GridFunction(5, rng.standard_normal(32))
        cubes = SparseCollection(5, enumerate_cubes(5))
        got = m_coeff(f, unit_alpha(5), cubes)
        ref = dyadic_maximal(GridFunction(5, np.abs(f.values)))
        np.testing.assert_array_equal(got.values, ref.values)

    def test_uncovered_cells_are_zero(self):
        f = GridFunction(2, [1.0, 1.0, 1.0, 1.0])
        alpha = [np.zeros(1), np.array([2.0, math.nan])]
        got = m_coeff(f, alpha, SparseCollection(2, [DyadicCube(1, 0)]))
        assert list(got.values) == [2.0, 2.0, 0.0, 0.0]

    def test_missing_coefficient(self):
        f = GridFunction(1, [1.0, 2.0])
        with pytest.raises(ValueError, match="alpha"):
            m_coeff(f, [], SparseCollection(1, [ROOT]))
        with pytest.raises(ValueError, match="missing"):
            m_coeff(f, [np.array([math.nan])], SparseCollection(1, [ROOT]))

    def test_negative_coefficient(self):
        f = GridFunction(1, [1.0, 2.0])
        with pytest.raises(ValueError, match="negative"):
            m_coeff(f, [np.array([-1.0])], SparseCollection(1, [ROOT]))

    def test_nan_only_off_the_members_is_fine(self):
        f = GridFunction(1, [1.0, 3.0])
        alpha = [np.array([math.nan]), np.array([math.nan, 0.5])]
        got = m_coeff(f, alpha, SparseCollection(1, [DyadicCube(1, 1)]))
        assert list(got.values) == [0.0, 1.5]

    def test_wrong_length_level(self):
        f = GridFunction(2, np.ones(4))
        cubes = SparseCollection(2, [ROOT, DyadicCube(2, 3)])
        alpha = [np.ones(1), np.ones(2), np.ones(3)]
        with pytest.raises(ValueError, match=r"alpha\[2\]"):
            m_coeff(f, alpha, cubes)

    def test_member_finer_than_grid(self):
        f = GridFunction(2, np.ones(4))
        cubes = SparseCollection(3, [ROOT, DyadicCube(3, 5)])
        with pytest.raises(InvalidCubeError):
            m_coeff(f, unit_alpha(3), cubes)
        # a finer grid with no member below f's resolution is fine
        got = m_coeff(f, unit_alpha(3), SparseCollection(3, [ROOT]))
        assert list(got.values) == [1.0] * 4

    def test_infinite_coefficient_on_zero_average_counts_as_no_value(self):
        f = GridFunction(1, [0.0, 2.0])
        alpha = [np.array([0.5]), np.array([math.inf, 1.0])]
        got = m_coeff(f, alpha, SparseCollection(1, enumerate_cubes(1)))
        assert list(got.values) == [0.5, 2.0]

    @given(coeff_instances())
    @settings(max_examples=80, deadline=None)
    @example((GridFunction(0, [2.5]), SparseCollection(0, [ROOT]), [np.array([0.3])],
              {ROOT: 0.3}))
    @example((GridFunction(3, np.zeros(8)), SparseCollection(3, [ROOT, DyadicCube(3, 2)]),
              [np.ones(1), np.full(2, math.nan), np.full(4, math.nan), np.ones(8)],
              {ROOT: 1.0, DyadicCube(3, 2): 1.0}))
    @example((GridFunction(4, np.arange(16.0) - 7.0),
              SparseCollection(2, [DyadicCube(2, 1), DyadicCube(1, 1)]),
              [np.full(1, math.nan), np.array([math.nan, 1.5]), np.array([math.nan, 0.7, 0, 0])],
              {DyadicCube(1, 1): 1.5, DyadicCube(2, 1): 0.7}))
    def test_matches_loop_oracle_bit_for_bit(self, inst):
        f, cubes, alpha, alpha_dict = inst
        got = m_coeff(f, alpha, cubes).values
        ref = loop_m_coeff(f, alpha_dict, list(cubes)).values
        assert got.tobytes() == ref.tobytes()
