#!/usr/bin/env python3
"""Run every verification subcommand at a small, fast scale.

Also runs the Orlicz path (`compare --phi`, `maximal --phi`), `compare`
at n = 14 with the `loglog:0.5` entropy bump against the abstract's
`logprod:e2=1,e3=1,e4=1.5` Orlicz bump, `verify-fs` at n = 14 with 20
trials, and at the n = 18 resolution cap `sparse-split`,
`maximal` without and with `--phi llog:0.5` and `--phi
logprod:e2=1,e3=1,e4=1.5` (the max paints, and the Orlicz level solve
with every cube certified, for the llog bump and for the iterated-log
bump of the abstract's order claim), `maximal` with that iterated-log
bump at n = 12 (where the Orlicz solve groups its levels four at a
time), `maximal --phi llog:0.5` at n = 0 (one Orlicz group holding
only the leaves), `compare --phi dlr:0.25` at n = 1, `maximal --phi
llog:0.5` at n = 13 (the first group the leaves and one level above
them), and `domination`,
`verify-main` and `replay` with 5 trials each (the stopping tree, Haar and
sparse sweeps, the weak-type quotient with its entropy majorant and
weak-L1 sort, and the decomposition replay on per-level arrays). Exit
code is the number of failed checks, so CI can gate on zero; a check
fails when its command exits nonzero or raises. Pass --n / --trials /
--seed to rescale; the defaults finish in well under a minute.
"""

import argparse
import sys
import traceback

from entbump.cli import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8, help="grid resolution (default 8)")
    parser.add_argument("--trials", type=int, default=100, help="trials per suite (default 100)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    args = parser.parse_args()

    n, trials, seed = str(args.n), str(args.trials), str(args.seed)
    jobs = [
        ["verify-fs", "--n", n, "--trials", trials, "--seed", seed],
        ["verify-fs", "--n", "14", "--trials", "20", "--seed", seed],
        ["verify-main", "--n", n, "--trials", trials, "--seed", seed],
        ["verify-cor", "--n", n, "--trials", trials, "--seed", seed],
        ["verify-ainf", "--n", n, "--trials", trials, "--seed", seed],
        ["domination", "--n", n, "--trials", trials, "--seed", seed],
        ["replay", "--n", n, "--trials", trials, "--seed", seed],
        ["sparse-split", "--n", n, "--seed", seed],
        ["sparse-split", "--n", "18", "--seed", seed],
        ["maximal", "--n", "18", "--seed", seed],
        ["maximal", "--n", "18", "--seed", seed, "--phi", "llog:0.5"],
        ["maximal", "--n", "18", "--seed", seed, "--phi", "logprod:e2=1,e3=1,e4=1.5"],
        ["maximal", "--n", "12", "--seed", seed, "--phi", "logprod:e2=1,e3=1,e4=1.5"],
        ["domination", "--n", "18", "--trials", "5", "--seed", seed],
        ["verify-main", "--n", "18", "--trials", "5", "--seed", seed],
        ["replay", "--n", "18", "--trials", "5", "--seed", seed],
        ["compare", "--n", n, "--seed", seed, "--phi", "llog:0.5"],
        ["compare", "--n", "14", "--seed", seed, "--eps", "loglog:0.5",
         "--phi", "logprod:e2=1,e3=1,e4=1.5"],
        ["maximal", "--n", n, "--seed", seed, "--phi", "dlr:0.25"],
        ["maximal", "--n", "0", "--seed", seed, "--phi", "llog:0.5"],
        ["compare", "--n", "1", "--seed", seed, "--phi", "dlr:0.25"],
        ["maximal", "--n", "13", "--seed", seed, "--phi", "llog:0.5"],
    ]
    failures = []
    for argv in jobs:
        print(f"$ entbump {' '.join(argv)}")
        try:
            code = run(argv)
        except Exception:
            traceback.print_exc()
            failures.append(f"{argv[0]} (raised)")
        else:
            if code != 0:
                failures.append(f"{argv[0]} (exit {code})")
        print()
    if failures:
        print("failed:", ", ".join(failures))
    else:
        print(f"all {len(jobs)} checks passed")
    return len(failures)


if __name__ == "__main__":
    sys.exit(main())
