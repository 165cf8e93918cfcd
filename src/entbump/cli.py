"""Command line front end.

Exit codes: 0 when the requested checks pass (or the command is purely
descriptive), 1 when a verification ran to completion and failed, 2 on bad
usage, bad input files, or out-of-range configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bumps import EpsilonSpec, OrliczSpec, m_entropy, m_orlicz
from .errors import ConfigError
from .grid import GridFunction, _save_json, load_grid_function, require_weight
from .lab import (
    MAX_RESOLUTION_ENV,
    TrialConfig,
    VERSION,
    WEIGHT_FAMILY_FORMS,
    _draw_weight,
    _weight_family,
    ainf_lemma_sweep,
    corollary_experiment,
    domination_random_suite,
    fs_random_suite,
    main_theorem_experiment,
    maximal_comparison,
    replay_random_suite,
    resolution_cap,
    trial_rng,
)
from .sparse import (
    SparseCollection,
    carleson_check,
    cz_stopping_collection,
    split_eight,
    strong_sparseness_check,
)
from .svgplot import emit_svg
from .weights import dyadic_maximal, rho_all

WEIGHT_FAMILY_HELP = (
    f"weight: a family spec drawn per run ({WEIGHT_FAMILY_FORMS}) "
    "or a path to a grid function file"
)


def _check_cap(n: int) -> None:
    cap = resolution_cap()
    if n > cap:
        raise ConfigError(
            f"resolution {n} exceeds the cap {cap} (set {MAX_RESOLUTION_ENV} to raise it)"
        )
    if n < 0:
        raise ConfigError(f"negative resolution {n}")


def _check_writable(path: str) -> None:
    """Raise the OSError that writing an output to ``path`` would, before
    any work: the path is opened for append and closed, so an existing file
    keeps its bytes and one this call made is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _resolve_weight(value: str, n: int, seed: int) -> GridFunction:
    """Family specs are drawn with the run's seed; anything else is a path."""
    if _weight_family(value) is not None:
        return _draw_weight(trial_rng(seed, 0), n, value)[0]
    if not os.path.exists(value):
        raise ConfigError(f"no such weight file: {value}")
    w = load_grid_function(value)
    require_weight(w)
    _check_cap(w.resolution)
    return w


def _print_config(args_dict: dict) -> None:
    pieces = " ".join(f"{k}={args_dict[k]}" for k in sorted(args_dict))
    print(f"config: {pieces}")


def _emit_report(report, out: str | None, plot: str | None = None,
                 plot_kind: str | None = None) -> None:
    for key in sorted(report.aggregates):
        print(f"  {key} = {report.aggregates[key]}")
    for name in sorted(report.pass_flags):
        print(f"check {name}: {'PASS' if report.pass_flags[name] else 'FAIL'}")
    if out:
        if out.endswith(".csv"):
            report.save_csv(out)
        else:
            report.save_json(out)
        print(f"report written to {out}")
    if plot:
        emit_svg(report, plot_kind, plot)
        print(f"plot written to {plot}")


def _verdict(report) -> int:
    ok = report.all_passed
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _base_config(args) -> TrialConfig:
    """The suite's TrialConfig from the flags its command defines; a field
    whose flag the command lacks keeps its TrialConfig default."""
    fields = {"resolution": args.n, "trials": args.trials, "seed": args.seed}
    if hasattr(args, "eps"):
        fields["eps"] = args.eps
    if hasattr(args, "a"):
        fields["stopping_a"] = args.a
    weight = getattr(args, "weight", None)
    if weight is not None:
        fields["weight_families"] = (weight,)
    return TrialConfig(**fields)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_rho(args) -> int:
    _check_cap(args.n)
    w = _resolve_weight(args.weight, args.n, args.seed)
    _print_config({"n": w.resolution, "seed": args.seed, "weight": args.weight})
    table = rho_all(w)
    max_rho = table.max_rho()  # raises on a zero weight, before any result line
    vacuous = sum(int(np.count_nonzero(vac)) for vac in table.vacuous)
    print(f"  cubes = {(2 << w.resolution) - 1}")
    print(f"  vacuous = {vacuous}")
    print(f"  max_rho = {max_rho:.17g}")
    if args.out:
        table.to_csv(args.out)
        print(f"table written to {args.out}")
    else:
        table.write_rows(sys.stdout, "\n")
    return 0


def _maximal_setup(args):
    """The preamble ``maximal`` and ``compare`` share: the weight, its bumps
    and the config line. Returns (w, eps, phi or None, config)."""
    _check_cap(args.n)
    w = _resolve_weight(args.weight, args.n, args.seed)
    eps = EpsilonSpec.parse(args.eps)
    phi = OrliczSpec.parse(args.phi) if args.phi else None
    config = {"eps": args.eps, "n": w.resolution, "phi": args.phi,
              "seed": args.seed, "weight": args.weight}
    _print_config(config)
    return w, eps, phi, config


def _cmd_maximal(args) -> int:
    w, eps, phi, _ = _maximal_setup(args)
    md = dyadic_maximal(w).values
    me = m_entropy(w, eps)
    payload = {
        "resolution": w.resolution,
        "dyadic": md.tolist(),
        "entropy": me.values.tolist(),
        "orlicz": None,
    }
    print(f"  dyadic_range = [{md.min():.6g}, {md.max():.6g}]")
    print(f"  entropy_range = [{me.values.min():.6g}, {me.values.max():.6g}]")
    if phi is not None:
        mo = m_orlicz(w, phi)
        payload["orlicz"] = mo.values.tolist()
        print(f"  orlicz_range = [{mo.values.min():.6g}, {mo.values.max():.6g}]")
    if args.out:
        _save_json(payload, args.out)
        print(f"values written to {args.out}")
    return 0


def _cmd_sparse_split(args) -> int:
    if args.collection:
        if not os.path.exists(args.collection):
            raise ConfigError(f"no such collection file: {args.collection}")
        resolution, cubes = SparseCollection._read(args.collection)
        _check_cap(resolution)
        coll = SparseCollection(resolution, cubes)
    else:
        _check_cap(args.n)
        rng = trial_rng(args.seed, 0)
        base = GridFunction(args.n, np.exp(rng.normal(0.0, 2.0, 1 << args.n)))
        coll = cz_stopping_collection(base, args.a)
    _print_config(
        {"a": args.a, "collection": args.collection, "n": coll.resolution,
         "seed": args.seed}
    )
    packing = carleson_check(coll)
    print(f"  members = {len(coll)}")
    print(f"  carleson_worst_ratio = {packing.worst_ratio:.6g}")
    print(f"check carleson: {'PASS' if packing.passed else 'FAIL'}")
    if not packing.passed:
        print("RESULT: FAIL")
        return 1
    parts = split_eight(coll)
    all_ok = True
    payload = {"resolution": coll.resolution, "parts": [], "carleson_worst": packing.worst_ratio}
    for idx, part in enumerate(parts):
        check = strong_sparseness_check(part)
        all_ok = all_ok and check.passed
        payload["parts"].append(
            {
                "cubes": [[q.level, q.index] for q in part],
                "strong_ok": check.passed,
                "worst_ratio": check.worst_ratio,
            }
        )
        print(
            f"  part {idx}: {len(part)} cubes, worst descendant cover "
            f"{check.worst_ratio:.6g}, {'PASS' if check.passed else 'FAIL'}"
        )
    if args.out:
        _save_json(payload, args.out)
        print(f"split written to {args.out}")
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _run_suite(args, suite, **suite_kwargs) -> int:
    """The tail every suite command shares: the report's config line, its
    aggregates and checks, and the verdict."""
    _check_cap(args.n)
    report = suite(_base_config(args), **suite_kwargs)
    _print_config(report.config)
    _emit_report(report, args.out, args.plot, args.plot_kind)
    return _verdict(report)


def _suite_command(suite):
    return lambda args: _run_suite(args, suite)


def _cmd_verify_cor(args) -> int:
    try:
        s_list = [float(tok) for tok in args.s_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad --s-list {args.s_list!r}, expected comma separated floats") from None
    if not s_list:
        raise ConfigError("--s-list is empty")
    if any(not 0.0 <= s < 1.0 for s in s_list):
        raise ConfigError("--s-list entries must lie in [0, 1)")
    return _run_suite(args, corollary_experiment, s_list=s_list)


def _cmd_compare(args) -> int:
    w, eps, phi, config = _maximal_setup(args)
    report = maximal_comparison(w, eps, phi, config=config)
    _emit_report(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _arg(*flags, **kwargs):
    return flags, kwargs


def _trials(default):
    return _arg("--trials", type=int, default=default,
                help=f"number of random trials (default {default})")


def _bound(default):
    return _arg("--bound", type=float, default=default,
                help=f"acceptance bound (default {default})")


WEIGHT = _arg("--weight", type=str, default="random", help=WEIGHT_FAMILY_HELP)
EPS = _arg("--eps", type=str, default=TrialConfig.eps, help="entropy bump spec")
PHI = _arg("--phi", type=str, default=None, help="Orlicz bump spec")
STOP_A = _arg("--a", type=float, default=TrialConfig.stopping_a,
              help="stopping factor (default 4)")
PLOT = (
    _arg("--plot", type=str, default=None, help="write an SVG chart here"),
    _arg("--plot-kind", type=str, default="scatter",
         choices=("scatter", "histogram", "line"), help="chart flavor"),
)

# One row per subcommand: name, help, default --n, its arguments beyond
# --n/--seed/--out, and the values set_defaults wires in. Every row sets
# the handler; only the suites whose gate reads a bound take --bound, and
# their handlers pass it to the suite.
COMMANDS = (
    ("rho", "local oscillation table of a weight", 10, (WEIGHT,),
     {"handler": _cmd_rho}),
    ("maximal", "dyadic, entropy, and Orlicz maximal functions", 10, (WEIGHT, EPS, PHI),
     {"handler": _cmd_maximal}),
    ("sparse-split", "eight-way split of a Carleson collection", 10,
     (_arg("--collection", type=str, default=None,
           help="collection file to split (otherwise a random one is generated)"),
      STOP_A),
     {"handler": _cmd_sparse_split}),
    ("domination", "sparse domination of random sign transforms", 10,
     (_trials(100), _bound(16.0), *PLOT, STOP_A),
     {"handler": lambda args: _run_suite(args, domination_random_suite, bound=args.bound)}),
    ("verify-main", "weak-type bound against the entropy majorant", 10,
     (_trials(100), _bound(64.0), *PLOT, EPS,
      _arg("--weight", type=str, default=None,
           help=f"restrict to one weight family ({WEIGHT_FAMILY_FORMS})")),
     {"handler": lambda args: _run_suite(args, main_theorem_experiment, bound=args.bound)}),
    ("verify-cor", "uniformity of the normalized power-weight quotients", 10,
     (_trials(100), *PLOT,
      _arg("--s-list", type=str, default="0,0.5,0.9,0.96875",
           help="comma separated exponents in [0,1)")),
     {"handler": _cmd_verify_cor}),
    ("verify-fs", "constant-one endpoint check for coefficient maximal functions", 8,
     (_trials(200), *PLOT),
     {"handler": _suite_command(fs_random_suite)}),
    ("verify-ainf", "localized oscillation ratio sweep", 10, (_trials(100), *PLOT),
     {"handler": _suite_command(ainf_lemma_sweep)}),
    ("compare", "pointwise maximal function comparison for one weight", 10,
     (WEIGHT, EPS, PHI), {"handler": _cmd_compare}),
    ("replay", "step-by-step weak-type decomposition on random instances", 10,
     (_trials(100), *PLOT, EPS, STOP_A),
     {"handler": _suite_command(replay_random_suite)}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entbump",
        description="Entropy-bump maximal functions, sparse forms, and "
        "weak-type endpoint experiments on the dyadic interval.",
    )
    parser.add_argument("--version", action="version", version=f"entbump {VERSION}")
    sub = parser.add_subparsers(dest="command")
    for name, help_text, n_default, arguments, defaults in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=n_default,
                       help=f"grid resolution, 2^n cells (default {n_default})")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
        p.add_argument("--out", type=str, default=None,
                       help="write a report here (.csv for per-trial CSV, JSON otherwise)")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(**defaults)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if args.command is None:
        parser.print_help()
        return 2
    try:
        for path in (args.out, getattr(args, "plot", None)):
            if path:
                _check_writable(path)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # every domain error of this package subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
