#!/usr/bin/env python3
"""Run all ten subcommands at a small, fast scale, with the Orlicz path,
the n = 18 resolution cap and the edge resolutions beside them, and every
suite once more at n = 0.

The job list in main() says what runs. The exit code is the number of
failed jobs, so CI can gate on zero; a job fails when its command exits
nonzero or raises. Pass --n / --trials / --seed to rescale; the defaults
finish in well under a minute. The rho table at the cap goes to a file in a
temporary directory, removed at the end, not to stdout.
"""

import argparse
import os
import sys
import tempfile
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
    # rho on the one-cell grid, and at the cap into a file: its 2^19 rows
    # would flood stdout
    tmp = tempfile.TemporaryDirectory()
    jobs += [["rho", "--n", "0", "--seed", seed],
             ["rho", "--n", "18", "--seed", seed, "--out", os.path.join(tmp.name, "rho.csv")]]
    # every suite on the one-cell grid, where T f = 0 and no cube splits
    jobs += [[command, "--n", "0", "--trials", "5", "--seed", seed]
             for command in ("verify-fs", "verify-main", "verify-cor", "verify-ainf",
                             "domination", "replay")]
    failures = []
    with tmp:
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
