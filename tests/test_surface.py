"""The package's public surface and the test oracles, pinned.

``entbump.__all__`` is compared with a fixed tuple, so a name joins or
leaves the public surface only with an edit here, and every package name
the README's prose cites must be in it. So are the fields of TrialConfig,
the defaulted parameters of every public function, the public
classmethods and staticmethods of every public class and its public
methods and properties, and the default
bound of each bound-gated suite equals its command's ``--bound`` default.
Every top-level function of ``tests/oracles.py`` must back some test,
directly or through another oracle.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import re
import types
from pathlib import Path

import entbump
from entbump.cli import build_parser

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

PUBLIC = (
    "BandRecord", "BracketingError", "CarlesonReport", "CellSet", "ConfigError",
    "CubeClassRecord", "DominationResult", "DyadicCube", "EpsilonSpec",
    "EqCertification", "ExperimentReport", "FileFormatError", "FsCheckResult",
    "GridFunction", "HaarSpec", "InvalidCubeError", "InvalidSpecError",
    "InvalidWeightError", "KEpsilonResult", "OrliczSpec", "ProofReplayReport",
    "ROOT", "ResolutionMismatchError", "RhoTable", "SparseCollection",
    "SparsePreconditionError", "StrongSparsenessReport", "TrialConfig",
    "TrialRecord", "VERSION", "a1_constant", "a1_generator", "ainf_constant",
    "ainf_lemma_ratio", "ainf_lemma_sweep", "bilinear_form",
    "build_disjoint_eq", "carleson_check", "certify_half_sparse",
    "corollary_experiment", "cz_stopping_collection", "domination_random_suite",
    "dyadic_maximal", "emit_svg", "fs_check", "fs_random_suite", "haar_transform",
    "integral", "k_epsilon", "level_averages", "level_sums", "load_grid_function",
    "m_coeff", "m_entropy", "m_orlicz", "main_theorem_experiment",
    "maximal_comparison", "orlicz_norm", "power_weight", "proof_replay",
    "replay_random_suite", "require_weight", "resolution_cap", "restrict", "rho",
    "rho_all", "save_grid_function", "shifted_log2", "sparse_dominate_bilinear",
    "split_eight", "strong_sparseness_check", "trial_rng",
    "weak_l1_norm", "weak_type_quotient",
)

# grid's two sweeps, the cells-only paint and the level split: the README's
# overview explains the layout with them, and they stay internal to the
# modules.
README_INTERNALS = {"paint_down", "paint_leaves", "reduce_up", "split_levels"}

MODULES = ("bumps", "cli", "errors", "grid", "lab", "sparse", "svgplot", "weights")

TRIAL_CONFIG_FIELDS = (
    "resolution", "trials", "seed", "eps", "weight_families", "function_families",
    "stopping_a",
)

# Per public function, its parameters with a default: a settable value
# joins the surface only with an edit here.
DEFAULTED_PARAMETERS = {
    "corollary_experiment": ("s_list",),
    "domination_random_suite": ("bound",),
    "main_theorem_experiment": ("bound",),
    "maximal_comparison": ("phi", "config"),
}

# Per public class, its public classmethods and staticmethods, inherited
# ones included: a second way to build a value joins only with an edit here.
CONSTRUCTORS = {
    "CellSet": ("from_cube", "full"),
    "EpsilonSpec": ("parse",),
    "GridFunction": ("constant",),
    "HaarSpec": ("from_rng",),
    "OrliczSpec": ("parse",),
    "SparseCollection": ("load",),
}

# Per public class, its public methods and properties, classmethods,
# staticmethods and inherited ones included: a method joins only with an
# edit here.
METHODS = {
    "BandRecord": ("ok",),
    "CellSet": ("cell_count", "difference", "from_cube", "full", "is_empty", "is_subset_of"),
    "DyadicCube": ("cell_count", "cell_range", "measure"),
    "EpsilonSpec": ("at_tower", "parse"),
    "ExperimentReport": ("all_passed", "save_csv", "save_json", "to_json_dict"),
    "GridFunction": ("cell_width", "constant", "n_cells"),
    "HaarSpec": ("from_rng",),
    "OrliczSpec": ("parse",),
    "ProofReplayReport": ("all_ok", "cube_records", "max_measured_constant", "save_json",
                          "to_json_dict"),
    "RhoTable": ("max_rho", "to_csv", "write_rows"),
    "SparseCollection": ("cubes", "load", "save"),
    "TrialConfig": ("eps_spec", "function_family", "to_dict", "weight_family"),
    "TrialRecord": ("to_dict",),
}


def test_all_is_pinned():
    assert len(set(entbump.__all__)) == len(entbump.__all__)
    assert tuple(sorted(entbump.__all__)) == PUBLIC
    assert all(hasattr(entbump, name) for name in PUBLIC)


def test_trial_config_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(entbump.TrialConfig))
    assert fields == TRIAL_CONFIG_FIELDS
    assert tuple(entbump.TrialConfig().to_dict()) == TRIAL_CONFIG_FIELDS


def test_defaulted_parameters_are_pinned():
    defaulted = {}
    for name in entbump.__all__:
        obj = getattr(entbump, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            names = tuple(p.name for p in params if p.default is not p.empty)
            if names:
                defaulted[name] = names
    assert defaulted == DEFAULTED_PARAMETERS


def test_class_constructors_are_pinned():
    constructors = {}
    for name in entbump.__all__:
        obj = getattr(entbump, name)
        if inspect.isclass(obj):
            names = tuple(sorted({
                attr
                for base in obj.__mro__
                for attr, value in vars(base).items()
                if not attr.startswith("_") and isinstance(value, (classmethod, staticmethod))
            }))
            if names:
                constructors[name] = names
    assert constructors == CONSTRUCTORS


def test_public_methods_are_pinned():
    kinds = (types.FunctionType, classmethod, staticmethod, property, functools.cached_property)
    methods = {}
    for name in entbump.__all__:
        obj = getattr(entbump, name)
        if inspect.isclass(obj):
            names = tuple(sorted({
                attr
                for base in obj.__mro__
                for attr, value in vars(base).items()
                if not attr.startswith("_") and isinstance(value, kinds)
            }))
            if names:
                methods[name] = names
    assert methods == METHODS
    assert sum(map(len, METHODS.values())) == 37


def test_suite_bound_defaults_match_the_cli():
    parser = build_parser()
    for command, suite in (("verify-main", entbump.main_theorem_experiment),
                           ("domination", entbump.domination_random_suite)):
        default = inspect.signature(suite).parameters["bound"].default
        assert parser.parse_args([command]).bound == default, command


def test_readme_names_are_public():
    # a backquoted name of a function or class that an entbump module
    # defines is a README entry point
    defined = {
        name
        for mod in (importlib.import_module(f"entbump.{m}") for m in MODULES)
        for name, obj in vars(mod).items()
        if getattr(obj, "__module__", None) == mod.__name__
    }
    cited = set(re.findall(r"`([A-Za-z_]\w*)", README.read_text())) & defined
    assert README_INTERNALS <= cited
    assert cited - README_INTERNALS <= set(entbump.__all__)
    assert {"m_entropy", "rho_all", "proof_replay", "SparseCollection"} <= cited


def test_every_oracle_backs_a_test():
    source = (TESTS / "oracles.py").read_text()
    bodies = {
        node.name: ast.get_source_segment(source, node)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }
    tests = "\n".join(p.read_text() for p in sorted(TESTS.glob("test_*.py")))
    unused = []
    for name in bodies:
        word = re.compile(rf"\b{name}\b")
        if not word.search(tests) and not any(
            word.search(body) for other, body in bodies.items() if other != name
        ):
            unused.append(name)
    assert unused == []
    assert len(bodies) > 30
