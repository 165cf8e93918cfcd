import contextlib
import math
import tracemalloc
from unittest import mock

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
    InvalidWeightError,
    OrliczSpec,
    RhoTable,
    SparseCollection,
    a1_generator,
    dyadic_maximal,
    k_epsilon,
    m_coeff,
    m_entropy,
    m_orlicz,
    orlicz_norm,
    power_weight,
    rho,
    rho_all,
    shifted_log2,
)
from entbump import bumps
from entbump.bumps import (
    _EPS_CATALOG,
    _PHI_CATALOG,
    _coeff_maxima,
    _entropy_level,
    _entropy_levels,
    _level_orlicz,
    _tower_log,
    _unit_norm,
)
from entbump.grid import average, level_averages, paint_down
from entbump.sparse import _majorant

from oracles import (
    brute_entropy_norm,
    brute_m_orlicz,
    brute_orlicz_norm,
    enumerate_cubes,
    ieee_bits,
    level_m_orlicz,
    loop_m_coeff,
    mp_k_epsilon,
    mp_m_orlicz,
    mp_orlicz_norm,
    pairwise_row_sum,
    repeat_rho_all,
    temp_entropy_levels,
    loop_bump_product,
    temp_eps,
    temp_phi,
)

LOG2_3 = math.log2(3.0)


def entropy_levels(w, eps, variant="log"):
    """The norms of one _entropy_levels sweep, indexed by level."""
    out = [None] * (w.resolution + 1)
    for level, _, _, vals in _entropy_levels(w, eps, variant):
        out[level] = vals
    return out


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


# Every catalog row, with the edge exponents 0 and 1 where a factor drops
# out or skips np.power, and logprod factors at every depth.
CATALOG_EPS = ("constant:1", "constant:2.5", "log_pow:0", "log_pow:1", "log_pow:2",
               "log_pow:2.5", "loglog:0", "loglog:0.5")
CATALOG_PHIS = ("power:1", "power:0.5", "power:0.01", "power:2", "llog:0", "llog:0.5",
                "dlr:0", "dlr:0.25", "logprod:e1=0", "logprod:e1=1,e2=0.5",
                "logprod:e2=1,e3=1,e4=1.5", "logprod:e1=2,e2=1,e4=0.5",
                "logprod:e1=1,e2=1,e3=1,e4=1", "logprod:e3=3")
PHI_POINTS = np.array([0.0, 5e-324, 1e-300, 1e-6, 0.5, 1.0, 2.0, 37.0, 1e6, 1e150,
                       1e300, 1.7976931348623157e308, math.inf])
EPS_POINTS = np.array([1.0 - 1e-12, 1.0, 1.5, 3.0, 37.0, 1e6, 1e150, 1e300, math.inf])


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
                    "log_pow:p=x", "log_pow:=2", "log_pow:2,", "power:1",
                    "constant:c=2,p=1", "log_pow:nan", "constant:nan", "log_pow:inf"):
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

    # Parsing checks only the catalog's bounds; that they make every row
    # nondecreasing and >= 1 is checked here, and for Phi in test_increasing.
    @given(
        st.sampled_from(CATALOG_EPS),
        st.floats(min_value=1.0, max_value=1e300),
        st.floats(min_value=0.0, max_value=1e300),
    )
    @settings(max_examples=300, deadline=None)
    def test_at_least_one_and_nondecreasing(self, text, t, bump):
        eps = EpsilonSpec.parse(text)
        assert eps(t) >= 1.0 - 1e-12
        assert eps(t + bump) >= eps(t) * (1.0 - 1e-12)

    def test_tower_evaluation_matches_direct(self):
        eps = EpsilonSpec.log_pow(2.0)
        for k in range(5):
            t = 2.0 ** (2.0**k)
            assert eps.at_tower(k) == pytest.approx(eps(t), rel=1e-13)

    def test_tower_evaluation_huge_k(self):
        # arguments like 2^(2^40) never materialize
        eps = EpsilonSpec.log_pow(2.0)
        v = eps.at_tower(40)
        assert v == pytest.approx((2.0**40) ** 2, rel=1e-10)
        # past k = 1023, 2^k itself overflows: the term is 1 / inf
        assert eps.at_tower(1024) == math.inf
        assert EpsilonSpec.constant(2.0).at_tower(5000) == 2.0
        got = k_epsilon(EpsilonSpec.constant(1.0), max_terms=1100)
        assert got.diverged and got.value == 1100.0


class TestOrliczSpec:
    def test_parse(self):
        assert OrliczSpec.parse("power:2") == OrliczSpec.power(2.0)
        assert OrliczSpec.parse("llog:0.5") == OrliczSpec.llog(0.5)
        assert OrliczSpec.parse("dlr:delta=0.25") == OrliczSpec.dlr(0.25)
        assert OrliczSpec.parse("logprod:e1=1,e3=0.5") == OrliczSpec.logprod(e1=1.0, e3=0.5)
        # a bare value binds the row's first parameter
        assert OrliczSpec.parse("logprod:1.5") == OrliczSpec.logprod(e1=1.5)

    def test_serialize_roundtrip(self):
        for spec in (
            OrliczSpec.power(1.7),
            OrliczSpec.llog(0.25),
            OrliczSpec.dlr(0.1),
            OrliczSpec.logprod(e1=1.0, e2=0.5, e4=2.0),
        ):
            assert OrliczSpec.parse(spec.serialize()) == spec

    def test_invalid(self):
        for bad in ("power:0", "power:-1", "llog:-0.5", "logprod:e5=1", "wat:1",
                    "logprod", "logprod:e1=1,e2=-1", "logprod:1,e1=2", "log_pow:2",
                    "llog:nan", "power:nan", "logprod:e4=inf"):
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
        st.sampled_from(CATALOG_PHIS),
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.001, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_increasing(self, text, t, bump):
        phi = OrliczSpec.parse(text)
        assert phi(t + bump) > phi(t)


@pytest.mark.filterwarnings("ignore:overflow encountered")
class TestCatalogBits:
    """Every row of the bump catalog, bit for bit against the per-name
    formulas of temp_eps and temp_phi."""

    def test_every_row_is_listed(self):
        assert {text.partition(":")[0] for text in CATALOG_EPS} == set(_EPS_CATALOG)
        assert {text.partition(":")[0] for text in CATALOG_PHIS} == set(_PHI_CATALOG)

    @pytest.mark.parametrize("text", CATALOG_PHIS)
    def test_phi(self, text):
        phi = OrliczSpec.parse(text)
        t = np.concatenate((PHI_POINTS, np.random.default_rng(0).lognormal(0.0, 8.0, 63)))
        kept = t.copy()
        want = ieee_bits(temp_phi(phi, t))
        assert np.array_equal(ieee_bits(phi(t)), want)
        blocks = phi(t.reshape(-1, 2))
        assert blocks.shape == (t.size // 2, 2)
        assert np.array_equal(ieee_bits(blocks).ravel(), want)
        assert np.array_equal(ieee_bits(t), ieee_bits(kept))
        for v, bits in zip(t.tolist(), want):
            got = phi(v)
            assert type(got) is float and ieee_bits(got) == bits

    @pytest.mark.parametrize("text", CATALOG_EPS)
    def test_eps(self, text):
        eps = EpsilonSpec.parse(text)
        t = np.concatenate((EPS_POINTS, 1.0 + np.random.default_rng(1).lognormal(0.0, 8.0, 63)))
        want = ieee_bits(temp_eps(eps, np.log2(2.0 + np.maximum(t, 1.0))))
        assert np.array_equal(ieee_bits(eps(t)), want)
        blocks = eps(t.reshape(-1, 2))
        assert blocks.shape == (t.size // 2, 2)
        assert np.array_equal(ieee_bits(blocks).ravel(), want)
        for v, bits in zip(t.tolist(), want):
            got = eps(v)
            assert type(got) is float and ieee_bits(got) == bits
        # in place on the first log, as _entropy_level calls it
        logs = np.log2(2.0 + t)
        want = ieee_bits(temp_eps(eps, logs))
        assert eps._eval_from_log(logs, out=logs) is logs
        assert np.array_equal(ieee_bits(logs), want)
        for k in (0, 1, 2, 5, 9, 40, 1023):
            got = eps.at_tower(k)
            assert type(got) is float
            assert ieee_bits(got) == ieee_bits(temp_eps(eps, _tower_log(k)))

    @pytest.mark.parametrize("cls, form", [
        # a unit factor that stays in the scratch array while two logs follow
        (EpsilonSpec, (1.0, 0.0, (0.0, 1.0, 0.0, 2.0))),
        (EpsilonSpec, (1.0, 0.0, (1.0, 1.0, 1.0, 1.0))),
        (EpsilonSpec, (2.5, 0.0, (2.0,))),
        (OrliczSpec, (1.0, 2.0, (0.0, 0.0, 1.0))),
        (OrliczSpec, (3.0, 1.0, (1.0, 2.0, 0.0, 1.5))),
    ])
    def test_any_form_matches_the_plain_product(self, monkeypatch, cls, form):
        # forms outside the catalog, through a row added for the test
        monkeypatch.setitem(cls._CATALOG, "probe", (("x",), 0.0, False, lambda x: form))
        spec = cls("probe", (("x", 0.0),))
        x = np.concatenate(([1.0, 2.0, 1e300, math.inf],
                            np.random.default_rng(3).lognormal(0.0, 8.0, 60)))
        want = ieee_bits(loop_bump_product(form, cls._DEPTH, x))
        assert np.array_equal(ieee_bits(spec._product(x)), want)
        assert np.array_equal(ieee_bits(spec._product(x, out=x)), want)

    @pytest.mark.parametrize("named, product", [
        ("llog:0.5", "logprod:e1=1.5"),
        ("llog:0", "logprod:e1=1"),
        ("dlr:0.25", "logprod:e2=1,e3=1.25"),
        ("power:1", "logprod:e4=0"),
    ])
    def test_named_rows_are_logprod_rows(self, named, product):
        t = np.concatenate((PHI_POINTS, np.random.default_rng(2).lognormal(0.0, 8.0, 64)))
        got = OrliczSpec.parse(named)(t)
        assert np.array_equal(ieee_bits(got), ieee_bits(OrliczSpec.parse(product)(t)))


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


class TestEntropyNorm:
    # The per-level norms of _entropy_levels, read one cube at a time.
    def test_full_variant_spike(self):
        w = GridFunction(2, [4.0, 0.0, 0.0, 0.0])
        assert entropy_levels(w, EpsilonSpec.constant(1.0), "full")[0][0] == 2.0

    def test_log_variant_formula(self):
        rng = np.random.default_rng(2)
        w = GridFunction(4, rng.random(16) + 0.1)
        eps = EpsilonSpec.log_pow(2.0)
        q = DyadicCube(1, 1)
        r = rho(w, q)
        expected = average(w, q) * shifted_log2(r) * eps(r)
        got = entropy_levels(w, eps, "log")[q.level][q.index]
        assert got == pytest.approx(expected, rel=1e-14)

    def test_vacuous_cube_gives_zero(self):
        w = GridFunction(2, [0.0, 0.0, 1.0, 1.0])
        assert entropy_levels(w, EpsilonSpec.log_pow(2.0), "log")[1][0] == 0.0

    @pytest.mark.parametrize("variant", ["log", "full"])
    def test_reads_m_entropy_bits(self, variant):
        # Each cell of m_entropy is, bit for bit, the max of the norms of the
        # cubes containing it, read cube by cube from one _entropy_levels
        # sweep; each norm matches the one-cube formula to rounding.
        rng = np.random.default_rng(3)
        w = GridFunction(5, np.exp(rng.normal(0.0, 2.0, 32)) * (rng.random(32) < 0.8))
        eps = EpsilonSpec.log_pow(2.0)
        norms = entropy_levels(w, eps, variant)
        for q in enumerate_cubes(5):
            got = norms[q.level][q.index]
            assert got == pytest.approx(brute_entropy_norm(w, q, eps, variant), rel=1e-13)
        want = [max(norms[level][cell >> (5 - level)] for level in range(6)) for cell in range(32)]
        assert np.array_equal(ieee_bits(m_entropy(w, eps, variant=variant).values), ieee_bits(want))

    def test_errors(self):
        w = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            _entropy_levels(w, EpsilonSpec.log_pow(2.0), "nope")

    @pytest.mark.parametrize("variant", ["log", "full"])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_norms_are_rejected(self, variant):
        # rho is finite (max 1.5), but <w>_Q * log2(2 + rho) * eps(rho) on
        # the 1e308 cell is not: this warned of an overflow and failed
        # GridFunction's finiteness check
        w = GridFunction(1, [1e308, 1.0])
        assert rho_all(w).max_rho() == 1.5
        with pytest.raises(InvalidWeightError, match="rescale w"):
            m_entropy(w, EpsilonSpec.log_pow(2.0), variant=variant)
        with pytest.raises(InvalidWeightError, match="rescale w"):
            _majorant(w, EpsilonSpec.log_pow(2.0))


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
        norms = [_entropy_level(*level, eps, variant) for level in zip(avgs, table.values, table.vacuous)]
        for avg, vac, got in zip(avgs, table.vacuous, norms):
            r = np.full(avg.size, rho_value)
            factor = r if variant == "full" else np.log2(2.0 + r)
            want = np.where(vac, 0.0, avg * factor * eps(r))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    def test_rho_outside_the_bump_domain_raises(self, eps):
        w = GridFunction(3, np.arange(1.0, 9.0))
        avgs, table = self._table(w, 1.0 - 1e-8)
        with pytest.raises(ValueError, match="bump domain is t >= 1"):
            _entropy_level(avgs[0], table.values[0], table.vacuous[0], eps, "log")


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
            got = entropy_levels(w, eps, variant)
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

    # m_entropy streams one rho sweep into a leaves-only paint; the oracle
    # builds the rho table from the repeat ladder's whole pyramids
    @staticmethod
    def _assert_streamed_bits(w, eps, variant):
        table = RhoTable(w.resolution, *map(tuple, repeat_rho_all(w)))
        want = paint_down(temp_entropy_levels(w, eps, variant, table), np.maximum)[-1]
        assert np.array_equal(ieee_bits(m_entropy(w, eps, variant=variant).values), ieee_bits(want))
        majorant = _majorant(w, eps)[1] if variant == "log" else want
        assert np.array_equal(ieee_bits(majorant), ieee_bits(want))

    @pytest.mark.parametrize("variant", ["log", "full"])
    @pytest.mark.parametrize("resolution", list(range(13)) + [18])
    def test_streamed_maximal_matches_oracle_at_every_resolution(self, resolution, variant):
        for vals in self._weights(resolution)[:2]:  # rough, and with zero subtrees
            self._assert_streamed_bits(GridFunction(resolution, vals), EpsilonSpec.loglog(0.5), variant)

    @pytest.mark.parametrize("vals", [
        [1e-310, 3e-312, 0.0, 5e-324],  # subnormal cells, a subnormal half-sum rounding to 0
        [5e-324, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5e-324],
        [1e300, 0.0, 0.0, 1.0],
    ])
    @pytest.mark.parametrize("eps", EPS, ids=lambda e: e.name)
    @pytest.mark.filterwarnings("error")
    def test_streamed_maximal_matches_oracle_at_float_edges(self, vals, eps):
        for variant in ("log", "full"):
            self._assert_streamed_bits(GridFunction(len(vals).bit_length() - 1, vals), eps, variant)

    @given(st.integers(0, 8), st.sampled_from(EPS), st.sampled_from(["log", "full"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_streamed_maximal_matches_oracle_on_mixed_scales(self, resolution, eps, variant, data):
        # zeros, subnormals and cells up to 1e300 in one weight
        size = 1 << resolution
        cell = st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300))
        w = GridFunction(resolution, data.draw(st.lists(cell, min_size=size, max_size=size)))
        self._assert_streamed_bits(w, eps, variant)

    def test_peak_memory_at_n16(self):
        # 2.38 MiB here: one rho sweep (a cell-size suffix max and one level
        # of temporaries) beside the norms it keeps, then a leaves-only
        # paint. Holding the rho table, a second averages pyramid and a flat
        # norms array peaked at 3.20 MiB.
        w = GridFunction(16, np.exp(np.random.default_rng(0).normal(0.0, 2.0, 1 << 16)))
        tracemalloc.start()
        try:
            m_entropy(w, EpsilonSpec.log_pow(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.7 * 2**20


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


ORACLE_PHIS = (
    "power:2",
    "power:0.5",
    "llog:0.5",
    "dlr:0.25",
    "logprod:e1=1,e2=0.5",
    "logprod:e2=1,e3=1,e4=1.5",
)


# Largest distance in ulps allowed between the Orlicz solve and either
# oracle (bisection and mpmath root); the largest measured is 5.
ORLICZ_ULPS = 8


def ulps(got, want):
    """Largest distance between got and want in units of want's last place."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))))


def benchmark_orlicz_weight(n, seed, family):
    """A weight of the orlicz benchmark workload, drawn as it draws them."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    if family == "random":
        return GridFunction(n, np.exp(rng.normal(0.0, 1.5, 1 << n)))
    if family == "a1gen":
        return a1_generator(GridFunction(n, rng.standard_normal(1 << n)), float(rng.uniform(0.3, 0.95)))
    return power_weight(float(family.split(":", 1)[1]), n)


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


def grouped(span, n):
    """Set m_orlicz's group budget so that a group holds ``span`` levels of
    an n-level grid."""
    return mock.patch.object(bumps, "_GROUP_CELLS", span << n)


ORLICZ_CASES = (
    st.integers(0, 6),
    st.sampled_from(ORACLE_PHIS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


class TestRowSums:
    """The Orlicz solve sums each block of a row set on its (rows, width)
    view; a row keeps the bits np.mean gives it alone only while numpy's
    row sum has a fixed order, pinned here."""

    def test_pairwise_row_sum_is_numpys_row_sum(self):
        # every width that numpy sums without a split (256 is split)
        rng = np.random.default_rng(128)
        for width in range(1, 129):
            a = np.exp(rng.normal(0.0, 3.0, (4096, width)))
            want = np.add.reduce(a, axis=1)
            assert np.array_equal(ieee_bits(pairwise_row_sum(a)), ieee_bits(want)), width

    @pytest.mark.parametrize("shapes", [
        [(1, 128), (3, 100), (5, 13), (2, 8), (9, 3), (4, 1), (6, 8)],  # a flat Phi call
        [(7, 24), (2, 24)],  # one (rows, width) Phi call
    ])
    def test_phi_means_give_each_row_the_bits_of_np_mean(self, shapes):
        rng = np.random.default_rng(len(shapes))
        phi = OrliczSpec.llog(0.5)
        blocks = [np.exp(rng.normal(0.0, 2.0, shape)) for shape in shapes]
        rows = bumps._rowset(blocks)
        lam = np.exp(rng.normal(0.0, 1.0, rows[1].size))
        flat = [row for block in blocks for row in block]
        want = [np.mean(phi(row / scale)) for row, scale in zip(flat, lam)]
        assert np.array_equal(ieee_bits(bumps._phi_means(phi, rows, lam)), ieee_bits(want))
        means = [np.mean(row) for row in flat]
        assert np.array_equal(ieee_bits(bumps._row_means(rows, rows[0])), ieee_bits(means))
        keep = rng.random(len(flat)) < 0.5
        kept = bumps._rows(rows, keep)
        assert np.array_equal(ieee_bits(bumps._row_means(kept, kept[0])), ieee_bits(np.compress(keep, means)))


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
        brute, mp = brute_m_orlicz(vals, n, phi), mp_m_orlicz(vals, n, phi)
        for span in (1, 2, n + 1):  # levels per group, the leaves one: one, two, all
            with grouped(span, n):
                got = m_orlicz(w, phi).values
            assert ulps(got, brute) <= ORLICZ_ULPS
            assert ulps(got, mp) <= ORLICZ_ULPS
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

    @given(st.integers(0, 8), st.sampled_from(ORACLE_PHIS), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_one_level_groups_match_the_level_solver_bit_for_bit(self, n, text, seed, zero_block):
        vals, _ = orlicz_case(n, seed, zero_block)
        phi = OrliczSpec.parse(text)
        w = GridFunction(n, vals)
        with grouped(1, n):
            got = m_orlicz(w, phi).values
        assert np.array_equal(ieee_bits(got), ieee_bits(level_m_orlicz(w, phi).values))

    def test_groups_are_one_level_from_n14(self):
        # no patch: the default budget gives one-level groups here
        assert bumps._GROUP_CELLS >> 14 <= 1
        w = GridFunction(14, np.exp(np.random.default_rng(14).normal(0.0, 2.0, 1 << 14)))
        phi = OrliczSpec.llog(0.5)
        assert np.array_equal(ieee_bits(m_orlicz(w, phi).values),
                              ieee_bits(level_m_orlicz(w, phi).values))

    def test_machine_width_bracket_goes_to_the_certificate(self):
        # equal cells give every cube the norm of one cell, and a bracket of
        # width 0 from its descendants: each group, the leaves one of its
        # levels, takes one Phi call, for its cubes' certificates, and keeps
        # that norm. The default budget puts all 5 levels in one group.
        phi = OrliczSpec.llog(0.5)
        leaf = orlicz_norm(GridFunction(0, [3.0]), ROOT, phi)
        w = GridFunction(4, np.full(16, 3.0))
        for span in (None, 1, 2):
            cells = []

            def counted(t):
                cells.append(t.size)
                return phi(t)

            with grouped(span, 4) if span else contextlib.nullcontext():
                got = m_orlicz(w, counted).values
            assert list(got) == [leaf] * 16
            span = span or 5
            # the unit norm's solve (a plain callable keeps no u) makes
            # only one-cell calls; groups run from the leaves up
            assert [size for size in cells if size > 1] == [
                16 * min(span, stop) for stop in range(5, 0, -span)]

    def test_phi_call_budget_on_the_orlicz_benchmark_weights(self, monkeypatch):
        # the orlicz benchmark's n = 6 weights, drawn as its workload draws
        # them: all seven levels, the leaves included, share one group, 7-11
        # Phi calls a pyramid (median 8) with Anderson-Bjorck ends. The
        # Illinois halving took 9-12 (medians 11 and 10.5), and one solve
        # per level 43-58
        calls = []
        call = OrliczSpec.__call__

        def counted(self, t):
            calls.append(t.size)
            return call(self, t)

        for text in ("llog:0.5", "dlr:0.25"):
            phi = OrliczSpec.parse(text)
            orlicz_norm(GridFunction(0, [1.0]), ROOT, phi)
            per_pyramid = []
            with monkeypatch.context() as patch:
                patch.setattr(OrliczSpec, "__call__", counted)
                for seed in range(20):
                    for family in ("random", "a1gen", "power:0.5", "power:0.9"):
                        calls.clear()
                        m_orlicz(benchmark_orlicz_weight(6, seed, family), phi)
                        per_pyramid.append(len(calls))
            assert np.median(per_pyramid) <= 9, text
            assert max(per_pyramid) <= 11, text

    def test_peak_memory_at_n16(self):
        # an absolute budget: 8.9 MiB here, set by the level below the
        # leaves (the Illinois state, one Phi call and the row set). A
        # budget relative to level_m_orlicz missed a rise to 13.5 MiB, as
        # that oracle calls the same _level_orlicz and rose with it.
        w = GridFunction(16, np.exp(np.random.default_rng(0).normal(0.0, 2.0, 1 << 16)))
        tracemalloc.start()
        try:
            m_orlicz(w, OrliczSpec.llog(0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.0 * 2**20

    @pytest.mark.parametrize("text", ORACLE_PHIS)
    def test_phi_call_budget(self, text):
        # 11-27 Phi calls in all here, the unit norm's solve included: all
        # levels share one group. One solve per level took 13-19 per
        # level, bisection about 55, and without the 2e-16 hi keep-off the
        # Illinois steps creep at the noise floor up to the 200-step cap
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
        leaf = blocks[:, 0] * _unit_norm(bump)
        assert _level_orlicz(blocks, bump, 1e-10, leaf, leaf) == [1.0]
        with pytest.raises(InvalidSpecError):
            _level_orlicz(blocks, bump, 1e-10, np.array([1.5]), np.array([2.0]))

    def test_log_step_budget_on_a_rough_weight(self, monkeypatch):
        # lognormal sigma 3 at n = 12: with steps in lambda the levels next
        # to the finest took up to 36 Phi calls (level 11); the log-log
        # steps take at most 10 here with Anderson-Bjorck ends, 11 with the
        # Illinois halving. With the unit norm kept on the spec, the finest
        # level is a group of its own, one call: its certificate.
        n = 12
        phi = OrliczSpec.llog(0.5)
        orlicz_norm(GridFunction(0, [1.0]), ROOT, phi)
        widths = []
        call = OrliczSpec.__call__

        def counted(self, t):
            widths.append(t.shape[1])
            return call(self, t)

        monkeypatch.setattr(OrliczSpec, "__call__", counted)
        monkeypatch.setattr(bumps, "_GROUP_CELLS", 1)  # one level per group
        w = GridFunction(n, np.exp(np.random.default_rng(0).normal(0.0, 3.0, 1 << n)))
        m_orlicz(w, phi)
        per_level = [widths.count(1 << (n - level)) for level in range(n + 1)]
        assert per_level[n] == 1
        assert max(per_level[:n]) <= 12

    @pytest.mark.parametrize("vals", [[1e-310, 1.0], [1e308, 1.0], [2.2e-308, 3.0]])
    def test_extreme_dynamic_range(self, vals):
        # a subnormal or near-overflow cell is w * u, certified at once;
        # searching such a leaf from lam0 = w could not certify it
        phi = OrliczSpec.llog(0.5)
        vals = np.array(vals)
        w = GridFunction(1, vals)
        assert ulps(m_orlicz(w, phi).values, mp_m_orlicz(vals, 1, phi)) <= ORLICZ_ULPS
        for index in (0, 1):
            one = orlicz_norm(w, DyadicCube(1, index), phi)
            assert ulps(one, mp_orlicz_norm(vals, 1, index, 1, phi)) <= ORLICZ_ULPS

    def test_smallest_subnormal_cell_cannot_be_certified(self):
        with pytest.raises(BracketingError):
            m_orlicz(GridFunction(1, [5e-324, 1.0]), OrliczSpec.llog(0.5))

    def test_underflowing_leaf_is_never_zero(self):
        # Phi(t) = t / 4 has unit norm 1/4, so w * u underflows to 0 at
        # w = 5e-324; no float certifies that leaf, and it raises
        def quarter(t):
            return t / 4.0

        assert orlicz_norm(GridFunction(0, [1.0]), ROOT, quarter) == pytest.approx(0.25)
        with pytest.raises(BracketingError):
            orlicz_norm(GridFunction(0, [5e-324]), ROOT, quarter)
        cells = np.array([[1.0], [5e-324]])
        leaf = cells[:, 0] * _unit_norm(quarter)
        with pytest.raises(BracketingError):
            _level_orlicz(cells, quarter, 1e-10, leaf, leaf)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        # a NaN tol used to pass the check and fail every certificate
        w = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        phi = OrliczSpec.llog(0.5)
        with pytest.raises(ValueError, match="tol must be positive"):
            m_orlicz(w, phi, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            orlicz_norm(w, ROOT, phi, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            _level_orlicz(np.ones((2, 2)), phi, tol, np.ones(2), np.ones(2))

    def test_all_zero_weight(self):
        w = GridFunction(3, np.zeros(8))
        assert list(m_orlicz(w, OrliczSpec.llog(0.5)).values) == [0.0] * 8

    def test_all_zero_weight_makes_no_phi_call(self):
        # a plain callable keeps no unit norm, so any solve would call it
        calls = []

        def counted(t):
            calls.append(t.size)
            return t * t

        w = GridFunction(3, np.zeros(8))
        assert list(m_orlicz(w, counted).values) == [0.0] * 8
        assert orlicz_norm(w, ROOT, counted) == 0.0
        assert orlicz_norm(GridFunction(1, [0.0, 3.0]), DyadicCube(1, 0), counted) == 0.0
        assert calls == []

    def test_uncertified_closed_bracket_is_searched_again(self):
        # lo = hi = twice the norm is a closed bracket that fails its
        # certificate: the row is searched from <w>_Q and closed by the
        # Illinois steps, where it used to raise "stalled"
        phi = OrliczSpec.llog(0.5)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        want = mp_orlicz_norm(vals, 0, 0, 2, phi)
        twice = np.array([2.0 * want])
        got = _level_orlicz(vals[None, :], phi, 1e-10, twice, twice)
        assert ulps(got, want) <= ORLICZ_ULPS
        assert twice == [2.0 * want]  # the caller's bracket is left as passed

    @pytest.mark.parametrize("r", [0.01, 0.05])
    @pytest.mark.parametrize("p", [0.5, 0.125])
    def test_zero_lower_bracket_end(self, r, p):
        # w = 1 on a share p of the cells has <Phi(w/lam)>_Q = p lam^-r and
        # norm p^(1/r), 7.9e-31 at r = 0.01, p = 1/2. The root's bracket
        # starts at its zero cells' norm, 0; the geometric search from
        # <w>_Q could not bracket it within 60 halvings
        k = int(64 * p)
        w = GridFunction(6, [0.0] * (64 - k) + [1.0] * k)
        phi = OrliczSpec.power(r)
        exact = p ** (1.0 / r)
        assert m_orlicz(w, phi).values[0] == pytest.approx(exact, rel=1e-12)
        assert orlicz_norm(w, ROOT, phi) == pytest.approx(exact, rel=1e-12)

    def test_orlicz_norm_phi_call_budget(self, monkeypatch):
        # bracketed by its cells' w * u, the root of a lognormal weight
        # (sigma 2) at n = 12 takes 6 Phi calls; the search from <w>_Q
        # took 9
        phi = OrliczSpec.llog(0.5)
        orlicz_norm(GridFunction(0, [1.0]), ROOT, phi)
        calls = []
        call = OrliczSpec.__call__

        def counted(self, t):
            calls.append(t.size)
            return call(self, t)

        monkeypatch.setattr(OrliczSpec, "__call__", counted)
        w = GridFunction(12, np.exp(np.random.default_rng(12).normal(0.0, 2.0, 1 << 12)))
        orlicz_norm(w, ROOT, phi)
        assert len(calls) <= 7

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
        # Phi(t) = c t has Luxemburg norm c <w>_Q and unit norm c, which the
        # unit norm's search from 1 reaches after log2(c) doublings (or
        # halvings)
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

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_negative_zero_coefficients_give_positive_zeros(self, n):
        # f = 1, the root at 0.0 and every leaf at -0.0: numpy's fmax picks
        # between equal zeros by its loop order, the oracle keeps the root's
        f = GridFunction(n, np.ones(1 << n))
        leaves = [DyadicCube(n, i) for i in range(1 << n)]
        alpha = [np.zeros(1 << level) for level in range(n)] + [np.full(1 << n, -0.0)]
        got = m_coeff(f, alpha, SparseCollection(n, [ROOT, *leaves])).values
        want = loop_m_coeff(f, {ROOT: 0.0, **dict.fromkeys(leaves, -0.0)}, [ROOT, *leaves])
        assert np.array_equal(ieee_bits(got), ieee_bits(want.values))

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

    @pytest.mark.parametrize("resolution, alpha, members, error, message", [
        # the coarsest bad level wins, whatever the finer levels hold
        (2, [np.ones(1), np.array([-1.0, 1.0]), np.ones(4)], [(1, 0), (3, 0)],
         ValueError, "coefficient for DyadicCube(level=1, index=0) is negative"),
        (2, [np.ones(1), np.ones(3), np.array([1.0, -1.0, 1.0, 1.0])], [(1, 0), (2, 1)],
         ValueError, "alpha[1] must hold 2 coefficients"),
        (2, [np.ones(1)], [(0, 0), (2, 1), (1, 0)],
         ValueError, "alpha[1] must hold 2 coefficients"),
        (1, [np.ones(1), np.full(2, math.nan), np.ones(4)], [(1, 0), (2, 0)],
         ValueError, "coefficient for DyadicCube(level=1, index=0) is missing"),
        # within a level: finer than the grid, then alpha[l], then the cubes
        (2, [np.ones(1), np.ones(2), np.ones(4)], [(3, 0)],
         InvalidCubeError, "cube level 3 exceeds resolution 2"),
        (2, [np.ones(1), np.full(3, -1.0)], [(1, 0)],
         ValueError, "alpha[1] must hold 2 coefficients"),
        (2, [np.ones(1), np.ones(2), np.array([1.0, -1.0, 1.0, math.nan])], [(2, 1), (2, 3)],
         ValueError, "coefficient for DyadicCube(level=2, index=1) is negative"),
        (2, [np.ones(1), np.ones(2), np.array([1.0, math.nan, 1.0, -2.0])], [(2, 1), (2, 3)],
         ValueError, "coefficient for DyadicCube(level=2, index=1) is missing"),
    ])
    def test_error_order(self, resolution, alpha, members, error, message):
        f = GridFunction(resolution, np.arange(1.0, 1.0 + (1 << resolution)))
        cubes = SparseCollection(max(level for level, _ in members),
                                 [DyadicCube(*m) for m in members])
        with pytest.raises(error) as info:
            m_coeff(f, alpha, cubes)
        assert type(info.value) is error and str(info.value) == message

    def test_bad_entries_off_the_members_are_ignored(self):
        f = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
        alpha = [np.array([-1.0]), np.array([math.nan, 2.0]),
                 np.array([-5.0, 1.0, math.nan, math.nan])]
        got = m_coeff(f, alpha, SparseCollection(2, [DyadicCube(1, 1), DyadicCube(2, 1)]))
        assert list(got.values) == [0.0, 2.0, 7.0, 7.0]

    def test_infinite_product_is_rejected(self):
        f = GridFunction(2, [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            m_coeff(f, [np.array([math.inf])], SparseCollection(0, [ROOT]))


@st.composite
def coeff_stacks(draw):
    """(rows, flat coefficients, cube list, alpha dict): 1-3 rows of a grid
    of resolution n <= 8, cubes on a grid of resolution m <= n, and their
    coefficients in _coeff_maxima's flat (level, index) order, NaN off the
    cubes. A coefficient may be inf only where every row averages 0, the
    one place its product is not inf."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, n))
    cell = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    rows = np.array(draw(st.lists(
        st.lists(cell, min_size=1 << n, max_size=1 << n), min_size=1, max_size=3)))
    coeff = np.full((2 << n) - 1, math.nan)
    cubes, alpha = [], {}
    for pos, q in enumerate(enumerate_cubes(m)):
        if not draw(st.booleans()):
            continue
        a = draw(st.one_of(st.floats(0.0, 10.0), st.just(math.inf)))
        lo, hi = q.cell_range(n)
        if a == math.inf and rows[:, lo:hi].any():
            a = 1.0
        coeff[pos] = alpha[q] = a
        cubes.append(q)
    return rows, coeff, cubes, alpha


class TestCoeffMaxima:
    @given(coeff_stacks())
    @settings(max_examples=120, deadline=None)
    @example((np.array([[2.5]]), np.array([0.3]), [ROOT], {ROOT: 0.3}))
    @example((np.array([[1.0, -2.0], [0.0, 0.0]]), np.full(3, math.nan), [], {}))
    @example((np.array([[0.0, 2.0], [0.0, 3.0], [0.0, 0.0]]),
              np.array([0.5, math.inf, 1.0]),
              [ROOT, DyadicCube(1, 0), DyadicCube(1, 1)],
              {ROOT: 0.5, DyadicCube(1, 0): math.inf, DyadicCube(1, 1): 1.0}))
    @example((np.arange(32.0).reshape(2, 16) - 9.0,
              np.concatenate([[math.nan, math.nan, 1.5, math.nan, 0.7, 0.0, 0.0],
                              np.full(24, math.nan)]),
              [DyadicCube(1, 1), DyadicCube(2, 1), DyadicCube(2, 2), DyadicCube(2, 3)],
              {DyadicCube(1, 1): 1.5, DyadicCube(2, 1): 0.7, DyadicCube(2, 2): 0.0,
               DyadicCube(2, 3): 0.0}))
    def test_rows_match_loop_oracle_bit_for_bit(self, inst):
        rows, coeff, cubes, alpha = inst
        n = int(rows.shape[1]).bit_length() - 1
        got = _coeff_maxima(rows, coeff)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            ref = loop_m_coeff(GridFunction(n, row), alpha, cubes).values
            assert out.tobytes() == ref.tobytes()
