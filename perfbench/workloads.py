"""The four instance-loop workloads of the entbump benchmark.

Every workload is a closed loop with one client: call j builds one instance
from the workload seed S and runs it through a public entry point of the
package, which returns a report. One call is one checked instance.

The suites use ``trials=1``, and a one-trial suite always draws family 0, so
call j passes its families explicitly: weight family ``W[j % 5]`` and
function family ``F[j % 4]``. Twenty consecutive calls cover every pairing.
The family tuples are copied here rather than imported, so a later change
of the package defaults does not change the workload.

Why these four: profiles put the time of each suite in a different module.
``replay`` is dominated by ``sparse`` and by ``grid``'s DyadicCube churn,
``fs`` by ``lab``'s per-cube draws and ``bumps.m_coeff``'s per-cube loop,
``ladder`` by the vectorized array ladders at the n = 18 cap (the one
workload where memory counts), and ``orlicz`` by ``bumps.orlicz_norm``'s
bisection, which no other workload reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import entbump

WEIGHT_FAMILIES = ("power:0", "power:0.5", "power:0.9", "power:0.99", "a1gen")
FUNCTION_FAMILIES = ("indicator", "random", "haar_packet", "adversarial")
SUITE_CYCLE = math.lcm(len(WEIGHT_FAMILIES), len(FUNCTION_FAMILIES))
ORLICZ_WEIGHTS = ("random", "a1gen", "power:0.5", "power:0.9")
ORLICZ_EPS = entbump.EpsilonSpec.parse("log_pow:2")
ORLICZ_PHI = entbump.OrliczSpec.parse("llog:0.5")

# llog has Phi(t) >= t, so every Orlicz norm is at least the plain average;
# this slack covers the bisection certificate |<Phi(w/lam)>_Q - 1| <= 1e-10.
ORLICZ_MIN_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    resolution: int
    smoke_resolution: int
    # calls per full rotation of the input families
    cycle: int
    # (resolution, seed, j) -> zero-argument call that returns the report
    make: Callable[[int, int, int], Callable[[], dict]]
    # report -> names of the properties it violates
    check: Callable[[dict], list]


def _suite_call(suite_name: str):
    def make(resolution: int, seed: int, j: int):
        cfg = entbump.TrialConfig(
            resolution=resolution,
            trials=1,
            seed=seed + j,
            weight_families=(WEIGHT_FAMILIES[j % len(WEIGHT_FAMILIES)],),
            function_families=(FUNCTION_FAMILIES[j % len(FUNCTION_FAMILIES)],),
        )
        # Look the suite up at call time, so a traced run reaches the wrapper.
        return lambda: getattr(entbump, suite_name)(cfg).to_json_dict()

    return make


def _check_pass_flags(report: dict) -> list:
    flags = report["pass_flags"]
    bad = [f"pass_flags.{name}" for name, ok in sorted(flags.items()) if ok is not True]
    if not flags:
        bad.append("pass_flags (empty)")
    if report["all_passed"] is not True:
        bad.append("all_passed")
    return bad


def orlicz_weight(resolution: int, seed: int, family: str):
    """The benchmark's own weight draw for the orlicz workload."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    size = 1 << resolution
    if family == "random":
        return entbump.GridFunction(resolution, np.exp(rng.normal(0.0, 1.5, size)))
    if family == "a1gen":
        g = entbump.GridFunction(resolution, rng.standard_normal(size))
        return entbump.a1_generator(g, float(rng.uniform(0.3, 0.95)))
    return entbump.power_weight(float(family.split(":", 1)[1]), resolution)


def _orlicz_make(resolution: int, seed: int, j: int):
    w = orlicz_weight(resolution, seed + j, ORLICZ_WEIGHTS[j % len(ORLICZ_WEIGHTS)])
    return lambda: entbump.maximal_comparison(w, ORLICZ_EPS, ORLICZ_PHI).to_json_dict()


def _orlicz_check(report: dict) -> list:
    agg = report["aggregates"]
    bad = []
    if agg.get("entropy_dominates_dyadic") is not True:
        bad.append("entropy_dominates_dyadic")
    low = agg.get("orlicz_over_dyadic_min")
    if not (isinstance(low, float) and low >= 1.0 - ORLICZ_MIN_TOL):
        bad.append("orlicz_over_dyadic_min >= 1")
    return bad


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("replay", 12, 6, SUITE_CYCLE, _suite_call("replay_random_suite"), _check_pass_flags),
        Workload("fs", 12, 6, SUITE_CYCLE, _suite_call("fs_random_suite"), _check_pass_flags),
        Workload("ladder", 18, 8, SUITE_CYCLE, _suite_call("main_theorem_experiment"), _check_pass_flags),
        Workload("orlicz", 6, 3, len(ORLICZ_WEIGHTS), _orlicz_make, _orlicz_check),
    )
}
