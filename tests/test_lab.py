import csv
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbump import (
    ConfigError,
    DyadicCube,
    EpsilonSpec,
    GridFunction,
    InvalidCubeError,
    InvalidSpecError,
    OrliczSpec,
    ROOT,
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

from oracles import loop_fs_random_suite


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
        assert cfg.eps_spec() == EpsilonSpec.log_pow(2.0)
        assert cfg.phi_spec() is None

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
            TrialConfig(bound=0.0)
        with pytest.raises(ConfigError):
            TrialConfig(weight_families=())
        with pytest.raises(ConfigError):
            TrialConfig(function_families=())
        with pytest.raises(InvalidSpecError):
            TrialConfig(eps="nope:1")
        with pytest.raises(InvalidSpecError):
            TrialConfig(phi="power:-2")

    def test_to_dict_round(self):
        cfg = small(phi="power:2")
        d = cfg.to_dict()
        assert d["resolution"] == 5 and d["phi"] == "power:2"
        assert TrialConfig(**d) == cfg

    def test_phi_spec(self):
        assert small(phi="llog:0.5").phi_spec() == OrliczSpec.llog(0.5)

    def test_specs_parsed_once(self, monkeypatch):
        cfg = small(phi="llog:0.5")
        monkeypatch.setattr(EpsilonSpec, "parse", None)
        monkeypatch.setattr(OrliczSpec, "parse", None)
        assert cfg.eps_spec() is cfg.eps_spec()
        assert cfg.phi_spec() is cfg.phi_spec()
        monkeypatch.undo()
        # the parsed specs are not fields: equality, hash and repr see the
        # spec strings only
        twin = small(phi="llog:0.5")
        assert cfg == twin and hash(cfg) == hash(twin) and repr(cfg) == repr(twin)
        assert "_eps" not in repr(cfg) and "_phi" not in cfg.to_dict()


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

    def test_random_suite_runs_m_coeff_twice_per_trial(self, monkeypatch):
        import entbump.lab

        calls = []
        real = entbump.lab.m_coeff
        monkeypatch.setattr(entbump.lab, "m_coeff", lambda *a: calls.append(a) or real(*a))
        assert fs_random_suite(small(trials=6)).all_passed
        assert len(calls) == 2 * 6

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
        assert report.aggregates["limit"] == pytest.approx(cfg.bound * ke)
        assert report.aggregates["max_quotient"] <= report.aggregates["limit"]
        assert 0 <= report.aggregates["argmax_trial"] < cfg.trials
        for rec in report.records:
            assert rec.normalized_quotient == pytest.approx(rec.quotient / ke)

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
        import entbump.sparse
        import entbump.weights

        calls = []
        real = entbump.weights.rho_all
        for module in (entbump.weights, entbump.bumps, entbump.sparse):
            monkeypatch.setattr(module, "rho_all", lambda w: calls.append(w) or real(w))
        cfg = small(resolution=6, trials=1, function_families=("adversarial",))
        assert replay_random_suite(cfg).all_passed
        assert len(calls) == 1

    def test_domination_suite(self):
        cfg = small(resolution=5, trials=12, bound=16.0)
        report = domination_random_suite(cfg)
        assert report.all_passed
        assert report.aggregates["max_ratio"] <= 16.0
        assert report.aggregates["bound"] == 16.0

    def test_tiny_bound_fails_honestly(self):
        report = domination_random_suite(small(resolution=5, trials=6, bound=1e-9))
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
        report = maximal_comparison(w, EpsilonSpec.log_pow(2.0))
        assert report.kind == "compare"
        assert report.aggregates["entropy_dominates_dyadic"] is True
        assert report.aggregates["entropy_over_dyadic_min"] >= 1.0 - 1e-12
        assert report.pass_flags == {}
        assert report.all_passed  # vacuously

    def test_orlicz_block_present_when_asked(self):
        w = power_weight(0.5, 5)
        report = maximal_comparison(w, EpsilonSpec.log_pow(2.0), phi=OrliczSpec.power(2.0))
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
