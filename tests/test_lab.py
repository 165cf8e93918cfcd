import csv
import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbump import lab
from entbump import (
    ConfigError,
    DyadicCube,
    EpsilonSpec,
    GridFunction,
    InvalidCubeError,
    InvalidSpecError,
    OrliczSpec,
    ROOT,
    ResolutionMismatchError,
    SparseCollection,
    TrialConfig,
    ainf_lemma_sweep,
    corollary_experiment,
    domination_random_suite,
    fs_check,
    fs_random_suite,
    main_theorem_experiment,
    maximal_comparison,
    power_weight,
    replay_random_suite,
    resolution_cap,
    trial_rng,
    weak_type_quotient,
)
from entbump.lab import CSV_COLUMNS, MAX_RESOLUTION_ENV, _running_max

from oracles import enumerate_cubes, loop_fs_random_suite, loop_m_coeff, superlevel_weight


def small(**kwargs):
    defaults = dict(resolution=5, trials=10, seed=3)
    defaults.update(kwargs)
    return TrialConfig(**defaults)


class TestResolutionCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(MAX_RESOLUTION_ENV, raising=False)
        assert resolution_cap() == 18

    def test_override(self, monkeypatch):
        monkeypatch.setenv(MAX_RESOLUTION_ENV, "12")
        assert resolution_cap() == 12

    def test_bad_values(self, monkeypatch):
        monkeypatch.setenv(MAX_RESOLUTION_ENV, "twelve")
        with pytest.raises(ConfigError):
            resolution_cap()
        monkeypatch.setenv(MAX_RESOLUTION_ENV, "-3")
        with pytest.raises(ConfigError):
            resolution_cap()


class TestTrialRng:
    def test_deterministic_per_index(self):
        a = trial_rng(7, 3).random(4)
        b = trial_rng(7, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = trial_rng(7, 3).random(4)
        b = trial_rng(7, 4).random(4)
        c = trial_rng(8, 3).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestRunningMax:
    """The suites' aggregate maxima against the plain ``max(acc, x)`` fold."""

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf]), st.floats()),
            max_size=20,
        ),
        st.sampled_from([0.0, -math.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_max_fold(self, values, start):
        acc = start
        for x in values:
            acc = max(acc, x)
        best, argmax = _running_max(values, start)
        assert repr(best) == repr(acc)
        if acc > start:
            assert argmax == next(i for i, x in enumerate(values) if x == acc)
        else:
            assert argmax is None

    def test_ties_keep_first_index(self):
        assert _running_max([1.0, 3.0, 2.0, 3.0]) == (3.0, 1)

    def test_nan_skipped(self):
        assert _running_max([math.nan, 1.0, math.nan, 0.5]) == (1.0, 1)

    def test_all_nan_returns_start(self):
        assert _running_max([math.nan, math.nan], -math.inf) == (-math.inf, None)
        assert _running_max([math.nan]) == (0.0, None)

    def test_minus_inf_start_keeps_negative_values(self):
        assert _running_max([-2.0, -1.0, -3.0], -math.inf) == (-1.0, 1)
        assert _running_max([-2.0, -1.0]) == (0.0, None)


class TestTrialConfig:
    def test_defaults_valid(self):
        cfg = TrialConfig()
        assert cfg.eps_spec() == EpsilonSpec.parse("log_pow:2")

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrialConfig(resolution=-1)
        with pytest.raises(ConfigError):
            TrialConfig(trials=0)
        with pytest.raises(ConfigError):
            TrialConfig(seed=-1)
        with pytest.raises(ConfigError):
            TrialConfig(stopping_a=2.0)
        with pytest.raises(ConfigError):
            TrialConfig(weight_families=())
        with pytest.raises(ConfigError):
            TrialConfig(function_families=())
        with pytest.raises(InvalidSpecError):
            TrialConfig(eps="nope:1")

    @pytest.mark.parametrize(
        "spec", ["power:abc", "power:", "power", "power:1", "power:nan", "a1gen:2", "bogus"]
    )
    def test_bad_weight_family_fails_fast(self, spec):
        # the spec is parsed when the config is built, and the error names it
        with pytest.raises(ConfigError, match=re.escape(repr(spec))):
            TrialConfig(weight_families=("power:0.5", spec))

    def test_bad_function_family_fails_fast(self):
        # refused when the config is built, before any suite draws
        with pytest.raises(ConfigError, match=re.escape(repr("bogus"))):
            TrialConfig(function_families=("random", "bogus"))

    def test_to_dict_round(self):
        cfg = small(eps="loglog:0.5")
        d = cfg.to_dict()
        assert d["resolution"] == 5 and d["eps"] == "loglog:0.5"
        assert TrialConfig(**d) == cfg

    def test_specs_parsed_once(self, monkeypatch):
        cfg = small(eps="loglog:0.5")
        monkeypatch.setattr(EpsilonSpec, "parse", None)
        assert cfg.eps_spec() is cfg.eps_spec()
        monkeypatch.undo()
        # the parsed spec is not a field: equality, hash and repr see the
        # spec string only
        twin = small(eps="loglog:0.5")
        assert cfg == twin and hash(cfg) == hash(twin) and repr(cfg) == repr(twin)
        assert "_eps" not in repr(cfg) and "_eps" not in cfg.to_dict()


class TestWeakTypeQuotient:
    def test_constant_instance(self):
        ones = GridFunction(3, np.ones(8))
        q = weak_type_quotient(ones, ones, ones, ones)
        assert q == pytest.approx(1.0, rel=1e-9)

    def test_zero_denominator(self):
        ones = GridFunction(3, np.ones(8))
        zero = GridFunction(3, np.zeros(8))
        with pytest.raises(ValueError):
            weak_type_quotient(ones, ones, zero, ones)

    def test_grid_mismatch(self):
        # g and w on one grid, f and the majorant on a coarser one: this
        # returned 2.0, and a majorant off f's grid failed in numpy's
        # broadcast instead
        fine, coarse = GridFunction(4, np.ones(16)), GridFunction(3, np.ones(8))
        for args in ((fine, fine, coarse, coarse), (coarse, coarse, coarse, fine)):
            with pytest.raises(ResolutionMismatchError):
                weak_type_quotient(*args)


class TestFsCheck:
    root_only = SparseCollection(2, [ROOT])

    def test_constant_example(self):
        ones = GridFunction(2, np.ones(4))
        alpha = [np.ones(1)]
        res = fs_check(self.root_only, alpha, ones, ones, lam=0.5)
        assert res.lhs == 1.0
        assert res.rhs == pytest.approx(2.0)
        assert res.passed
        res2 = fs_check(self.root_only, alpha, ones, ones, lam=2.0)
        assert res2.lhs == 0.0
        assert res2.passed

    def test_level_must_be_positive(self):
        ones = GridFunction(2, np.ones(4))
        with pytest.raises(ValueError):
            fs_check(self.root_only, [np.ones(1)], ones, ones, lam=0.0)

    def test_nan_level_raises(self):
        ones = GridFunction(2, np.ones(4))
        with pytest.raises(ValueError, match="positive"):
            fs_check(self.root_only, [np.ones(1)], ones, ones, lam=math.nan)

    def test_coefficient_errors(self):
        ones = GridFunction(2, np.ones(4))
        for alpha in ([np.array([-1.0])], [np.array([math.nan])], [np.ones(2)], []):
            with pytest.raises(ValueError):
                fs_check(self.root_only, alpha, ones, ones, lam=0.5)
        with pytest.raises(InvalidCubeError):
            fs_check(SparseCollection(3, [DyadicCube(3, 0)]),
                     [np.ones(1 << level) for level in range(4)], ones, ones, lam=0.5)

    @pytest.mark.parametrize("resolution", [0, 1, 3, 6, 10])
    def test_random_suite_matches_scalar_draw_oracle(self, resolution):
        for seed in (0, 7, 41) if resolution < 10 else (5,):
            cfg = TrialConfig(resolution=resolution, trials=20, seed=seed)
            got = json.dumps(fs_random_suite(cfg).to_json_dict(), sort_keys=True)
            ref = json.dumps(loop_fs_random_suite(cfg).to_json_dict(), sort_keys=True)
            assert got == ref

    def test_random_suite_makes_one_two_row_kernel_call_per_trial(self, monkeypatch):
        import entbump.lab

        rows = []
        real = entbump.lab._coeff_maxima
        monkeypatch.setattr(entbump.lab, "_coeff_maxima",
                            lambda values, coeff: rows.append(len(values)) or real(values, coeff))
        monkeypatch.setattr(entbump.lab, "_flat_coefficients", None)  # no checks
        assert fs_random_suite(small(trials=6)).all_passed
        assert rows == [2] * 6

    @given(st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_two_row_pass_matches_loop_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        f = GridFunction(n, rng.standard_normal(1 << n) * (rng.random(1 << n) < 0.7))
        w = GridFunction(n, rng.exponential(size=1 << n) * (rng.random(1 << n) < 0.8))
        m = int(rng.integers(0, n + 1))
        cubes = [q for q in enumerate_cubes(m) if rng.random() < 0.5]
        alpha = {q: float(rng.uniform(0.0, 3.0)) for q in cubes}
        per_level = [np.full(1 << level, math.nan) for level in range(m + 1)]
        for q, a in alpha.items():
            per_level[q.level][q.index] = a
        lam = float(rng.uniform(0.05, 2.0))
        got = fs_check(SparseCollection(m, cubes), per_level, f, w, lam)
        mf = loop_m_coeff(f, alpha, cubes)
        mw = loop_m_coeff(w, alpha, cubes)
        lhs = superlevel_weight(mf, lam, w)
        rhs = float(np.add.reduce(np.abs(f.values) * mw.values)) * f.cell_width / lam
        assert (got.lam, got.lhs, got.rhs) == (lam, lhs, rhs)
        assert got.passed == (lhs <= rhs * (1.0 + 1e-9))

    def test_infinite_product_is_rejected(self):
        ones = GridFunction(2, np.ones(4))
        halves = GridFunction(2, [0.0, 0.0, 1.0, 1.0])
        cubes = SparseCollection(1, [DyadicCube(1, 0)])
        alpha = [np.ones(1), np.array([math.inf, 1.0])]
        # inf on f's zero average is no value; on w's positive one it is inf
        with pytest.raises(ValueError, match="finite"):
            fs_check(cubes, alpha, halves, ones, lam=0.5)
        with pytest.raises(ValueError, match="finite"):
            fs_check(cubes, alpha, ones, halves, lam=0.5)
        res = fs_check(cubes, alpha, halves, halves, lam=0.5)
        assert (res.lhs, res.rhs) == (0.0, 0.0)

    def test_resolution_mismatch_comes_before_the_coefficient_errors(self):
        # the grids are compared before any coefficient is read
        f = GridFunction(3, np.arange(8.0))
        w = GridFunction(2, np.ones(4))
        unit = [np.ones(1 << level) for level in range(4)]
        for cubes, alpha in ((SparseCollection(3, [DyadicCube(3, 1)]), unit),
                             (self.root_only, [np.array([math.inf])]),
                             (self.root_only, [np.array([-1.0])]),
                             (self.root_only, unit)):
            with pytest.raises(ResolutionMismatchError, match="3 vs 2"):
                fs_check(cubes, alpha, f, w, lam=0.5)

    def test_random_suite_constant_one(self):
        report = fs_random_suite(small(trials=40))
        assert report.kind == "fs"
        assert report.all_passed
        assert report.pass_flags == {"constant_one": True}
        assert report.aggregates["worst_lhs_over_rhs"] <= 1.0 + 1e-9
        assert len(report.records) == 40


class TestMainExperiment:
    def test_bound_holds_and_aggregates(self):
        cfg = small(resolution=6, trials=12)
        report = main_theorem_experiment(cfg)
        assert report.kind == "main"
        assert report.all_passed
        ke = report.aggregates["k_eps"]
        assert ke == pytest.approx(0.4779546611060648, rel=1e-12)
        assert report.config["bound"] == report.aggregates["bound"] == 64.0
        assert report.aggregates["limit"] == pytest.approx(64.0 * ke)
        assert report.aggregates["max_quotient"] <= report.aggregates["limit"]
        assert 0 <= report.aggregates["argmax_trial"] < cfg.trials
        for rec in report.records:
            assert rec.normalized_quotient == pytest.approx(rec.quotient / ke)

    @pytest.mark.parametrize("suite", [main_theorem_experiment, domination_random_suite])
    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_nonpositive_bound_is_rejected(self, suite, bound):
        with pytest.raises(ConfigError, match="bound must be positive"):
            suite(small(trials=1), bound=bound)

    def test_divergent_bump_gives_infinite_limit(self):
        report = main_theorem_experiment(small(trials=4, eps="constant:1"))
        assert report.aggregates["k_eps_diverged"]
        assert report.aggregates["limit"] == math.inf
        assert report.all_passed

    def test_deterministic(self):
        cfg = small(resolution=6, trials=8)
        a = json.dumps(main_theorem_experiment(cfg).to_json_dict(), sort_keys=True)
        b = json.dumps(main_theorem_experiment(cfg).to_json_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("family", ["power:0", "power:0.5", "power:0.9", "power:0.99", "a1gen"])
    def test_peak_memory_of_one_trial_at_n16(self, family):
        # 3.07 MiB for every family here, set while T f is built beside w,
        # f and the signs; the majorant is gone by then, and f and the
        # signs before the weak norm. Holding all of them through the weak
        # norm, with whole pyramids in the majorant, peaked at 4.51 MiB.
        cfg = TrialConfig(resolution=16, trials=1, seed=0, weight_families=(family,),
                          function_families=("haar_packet",))
        tracemalloc.start()
        try:
            main_theorem_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20


class TestCorollaryExperiment:
    def test_uniformity_across_s(self):
        cfg = small(resolution=6, trials=8)
        report = corollary_experiment(cfg, s_list=(0.0, 0.5, 0.9))
        assert report.kind == "corollary"
        assert set(report.aggregates["per_s_max"]) == {"0.0", "0.5", "0.9"}
        assert len(report.records) == 3 * 8
        assert report.aggregates["factor"] >= 1.0
        assert report.pass_flags["uniform_in_s"] == (report.aggregates["factor"] <= 4.0)
        assert report.config["s_list"] == [0.0, 0.5, 0.9]
        # power weights carry their exponent into the records
        assert {rec.s for rec in report.records} == {0.0, 0.5, 0.9}
        for rec in report.records:
            assert rec.a1 >= 1.0 and rec.ainf >= 1.0

    def test_empty_s_list(self):
        with pytest.raises(ConfigError):
            corollary_experiment(small(), s_list=())

    def test_repeated_exponent_is_refused_before_any_trial(self, monkeypatch):
        # two blocks of one exponent would share a per_s_max key
        monkeypatch.setattr(lab, "power_weight", None)
        for s_list in ((0.5, 0.5), (0.0, 0.9, 0.0), (0.0, -0.0)):
            with pytest.raises(ConfigError, match="repeated exponent"):
                corollary_experiment(small(), s_list=s_list)


class TestStructuralSweeps:
    def test_ainf_sweep(self):
        report = ainf_lemma_sweep(small(resolution=6, trials=60))
        assert report.pass_flags == {"ratio_bound": True}
        assert 0.0 < report.aggregates["max_ratio"] <= 8.0

    def test_replay_suite(self):
        report = replay_random_suite(small(resolution=6, trials=8))
        assert report.all_passed
        assert report.pass_flags["decomposition"]
        assert report.aggregates["max_measured_constant"] <= 16.0

    def test_adversarial_replay_trial_builds_one_rho_table(self, monkeypatch):
        import entbump.bumps
        import entbump.weights

        # every rho table and entropy majorant comes from one _rho_levels sweep
        calls = []
        real = entbump.weights._rho_levels
        for module in (entbump.weights, entbump.bumps):
            monkeypatch.setattr(module, "_rho_levels", lambda w: calls.append(w) or real(w))
        cfg = small(resolution=6, trials=1, function_families=("adversarial",))
        assert replay_random_suite(cfg).all_passed
        assert len(calls) == 1

    def test_domination_suite(self):
        # the paper's constant 16 is the default gate
        report = domination_random_suite(small(resolution=5, trials=12))
        assert report.all_passed
        assert report.aggregates["max_ratio"] <= 16.0
        assert report.config["bound"] == report.aggregates["bound"] == 16.0

    def test_tiny_bound_fails_honestly(self):
        report = domination_random_suite(small(resolution=5, trials=6), bound=1e-9)
        assert not report.all_passed
        assert not report.pass_flags["domination_bound"]

    def test_unknown_weight_family(self):
        with pytest.raises(ConfigError):
            fs_random_suite(small(weight_families=("bogus",)))

    def test_unknown_function_family(self):
        with pytest.raises(ConfigError):
            fs_random_suite(small(function_families=("bogus",)))


class TestMaximalComparison:
    def test_entropy_dominates(self):
        w = power_weight(0.5, 6)
        report = maximal_comparison(w, EpsilonSpec.parse("log_pow:2"))
        assert report.kind == "compare"
        assert report.aggregates["entropy_dominates_dyadic"] is True
        assert report.aggregates["entropy_over_dyadic_min"] >= 1.0 - 1e-12
        assert report.pass_flags == {}
        assert report.all_passed  # vacuously

    def test_orlicz_block_present_when_asked(self):
        w = power_weight(0.5, 5)
        report = maximal_comparison(
            w, EpsilonSpec.parse("log_pow:2"), phi=OrliczSpec.parse("power:2")
        )
        assert "orlicz_over_dyadic_max" in report.aggregates
        assert report.aggregates["orlicz_over_dyadic_min"] >= 1.0 - 1e-12


class TestReportSerialization:
    def test_csv_layout(self):
        report = corollary_experiment(small(resolution=5, trials=4), s_list=(0.0, 0.5))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            report.save_csv(path)
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + len(report.records)
        first = rows[1]
        assert first[0] == "0"
        assert float(first[1]) == 0.0
        assert first[2] == ""  # no k_eps in this experiment
        assert first[7] == ""  # no pass verdict per record here

    def test_csv_pass_column(self):
        report = fs_random_suite(small(trials=4))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            report.save_csv(path)
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        assert all(row[7] == "1" for row in rows[1:])

    def test_json_roundtrip(self):
        report = fs_random_suite(small(trials=4))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            report.save_json(path)
            with open(path) as fh:
                back = json.load(fh)
        assert back["kind"] == "fs"
        assert back["version"] == report.version
        assert back["all_passed"] is True
        assert len(back["records"]) == 4

    def test_suites_are_reproducible(self):
        cfg = small(resolution=5, trials=6)
        for suite in (fs_random_suite, ainf_lemma_sweep, replay_random_suite):
            a = json.dumps(suite(cfg).to_json_dict(), sort_keys=True)
            b = json.dumps(suite(cfg).to_json_dict(), sort_keys=True)
            assert a == b
