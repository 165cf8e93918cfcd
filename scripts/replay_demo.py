#!/usr/bin/env python3
"""Walk one weak-type decomposition end to end and dump the full record.

The instance is drawn from a fixed seed: a calderon-zygmund stopping tree
of a heavy-tailed function, a lognormal weight, and a random target set.
Every intermediate object of the argument is checked and printed: the
exceptional set carve-out, the eight-way split, the rho bins, the level
classes, and the measured constants per band.
"""

import argparse
import sys

import numpy as np

from entbump import (
    CellSet,
    EpsilonSpec,
    GridFunction,
    ROOT,
    cz_stopping_collection,
    proof_replay,
)
from entbump.lab import trial_rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8, help="grid resolution (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eps", type=str, default="log_pow:2", help="entropy bump spec")
    parser.add_argument("--out", type=str, default="replay_demo.json")
    args = parser.parse_args()

    rng = trial_rng(args.seed, 0)
    size = 1 << args.n
    base = GridFunction(args.n, np.exp(rng.normal(0.0, 2.0, size)))
    coll = cz_stopping_collection(base, ROOT, 4.0)
    w = GridFunction(args.n, np.exp(rng.normal(0.0, 1.5, size)))
    f = GridFunction(args.n, np.abs(rng.standard_normal(size)))
    g_mask = rng.random(size) < 0.5
    if not g_mask.any():
        g_mask[:] = True
    g_set = CellSet(args.n, g_mask)

    report = proof_replay(coll, f, w, g_set, EpsilonSpec.parse(args.eps))

    print(f"collection: {len(coll)} stopping cubes on a 2^{args.n} grid")
    print(f"normalization: {report.normalization:.6g}")
    print(f"w(G) = {report.w_g:.6g}, w(H) = {report.w_h:.6g} "
          f"(carve-out ok: {report.fs_ok}), w(G') = {report.w_gprime:.6g} "
          f"(doubling ok: {report.doubling_ok})")

    discards = [rec for rec in report.cube_records if rec.discard_reason]
    print(f"cubes classified: {len(report.cube_records)}, discarded: {len(discards)}")
    for rec in discards:
        print(f"  ({rec.level},{rec.index}) part {rec.part}: {rec.discard_reason}")

    print(f"{'part':>4} {'r':>3} {'k':>4} {'regime':>7} {'cubes':>5} "
          f"{'constant':>10} {'ok':>3}")
    for band in report.band_records:
        constant = band.coarse_constant if band.regime == "coarse" else band.disjoint_constant
        print(f"{band.part:>4} {band.r:>3} {band.k:>4} {band.regime:>7} "
              f"{band.cube_count:>5} {constant:>10.4f} {'yes' if band.ok else 'NO':>3}")

    print(f"max measured constant: {report.max_measured_constant():.6g} (bound 16)")
    print(f"all checks: {'PASS' if report.all_ok else 'FAIL'}")
    report.save_json(args.out)
    print(f"full record written to {args.out}")
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
