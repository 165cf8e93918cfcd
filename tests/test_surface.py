"""The package's public surface and the test oracles, pinned.

``entbump.__all__`` is compared with a fixed tuple, so a name joins or
leaves the public surface only with an edit here, and every package name
the README's prose cites must be in it. Every top-level function of
``tests/oracles.py`` must back some test, directly or through another
oracle.
"""

import ast
import importlib
import re
from pathlib import Path

import entbump

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
    "ainf_lemma_ratio", "ainf_lemma_sweep", "average", "bilinear_form",
    "build_disjoint_eq", "carleson_check", "certify_half_sparse",
    "corollary_experiment", "cz_stopping_collection", "domination_random_suite",
    "dyadic_maximal", "emit_svg", "fs_check", "fs_random_suite", "haar_transform",
    "integral", "k_epsilon", "level_averages", "level_sums", "load_grid_function",
    "m_coeff", "m_entropy", "m_orlicz", "main_theorem_experiment",
    "maximal_comparison", "orlicz_norm", "power_weight", "proof_replay",
    "replay_random_suite", "require_weight", "resolution_cap", "restrict", "rho",
    "rho_all", "save_grid_function", "shifted_log2", "sparse_dominate_bilinear",
    "split_eight", "strong_sparseness_check", "superlevel_weight", "trial_rng",
    "weak_l1_norm", "weak_type_quotient",
)

# grid's two sweeps and the level split: the README's overview explains the
# layout with them, and they stay internal to the modules.
README_INTERNALS = {"paint_down", "reduce_up", "split_levels"}

MODULES = ("bumps", "cli", "errors", "grid", "lab", "sparse", "svgplot", "weights")


def test_all_is_pinned():
    assert len(set(entbump.__all__)) == len(entbump.__all__)
    assert tuple(sorted(entbump.__all__)) == PUBLIC
    assert all(hasattr(entbump, name) for name in PUBLIC)


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
