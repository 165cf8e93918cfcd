import argparse
import csv
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entbump
from entbump import (
    DyadicCube,
    GridFunction,
    ROOT,
    SparseCollection,
    save_grid_function,
)
from entbump.cli import build_parser, run
from entbump.lab import MAX_RESOLUTION_ENV, VERSION


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert VERSION in capsys.readouterr().out


def test_no_command_prints_help(capsys):
    assert run([]) == 2
    assert "usage:" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_rho_stdout_table(capsys):
    assert run(["rho", "--n", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "config:" in out
    assert "max_rho" in out
    lines = out.splitlines()
    start = lines.index("level,index,rho,vacuous")
    assert len(lines) - start - 1 == 31  # all cubes of a 2^4 grid


def test_rho_csv_out(tmp_path, capsys):
    path = tmp_path / "rho.csv"
    assert run(["rho", "--n", "4", "--seed", "1", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "index", "rho", "vacuous"]
    assert len(rows) == 1 + 31
    vals = [float(r[2]) for r in rows[1:] if r[3] == "0"]
    assert all(v >= 1.0 for v in vals)


def test_rho_with_weight_file(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    save_grid_function(GridFunction(3, np.arange(1.0, 9.0)), wpath)
    assert run(["rho", "--weight", str(wpath)]) == 0
    assert "cubes = 15" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["rho", "compare"])
@pytest.mark.filterwarnings("error")
def test_zero_weight_file_is_rejected(command, tmp_path, capsys):
    wpath = tmp_path / "zero.txt"
    save_grid_function(GridFunction(3, np.zeros(8)), wpath)
    out = tmp_path / "out.json"
    assert run([command, "--weight", str(wpath), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "zero" in captured.err
    # the config line only: no result line, and no report file
    assert [line for line in captured.out.splitlines() if not line.startswith("config:")] == []
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_weight_file_is_rejected(tmp_path, capsys):
    # rho is at most 3 here, but the root's sums overflow float64: this
    # printed max_rho = inf and a NaN row and exited 0
    wpath = tmp_path / "huge.txt"
    save_grid_function(GridFunction(2, [1.7e308, 1e-300, 1.7e308, 1e-300]), wpath)
    assert run(["rho", "--weight", str(wpath)]) == 2
    captured = capsys.readouterr()
    assert "rescale" in captured.err
    assert "max_rho" not in captured.out


@pytest.mark.parametrize("command", ["maximal", "compare"])
def test_overflowing_weight_file_is_rejected_by_the_maximal_commands(command, tmp_path, capsys):
    # M w <= 9e307 everywhere, but the pairwise sums overflow: this warned
    # from grid.py and then said only that grid values must be finite.
    # [1e308, 1.0] keeps every sum and rho finite (max rho 1.5), but the
    # entropy-bumped average of its first cell passes float64's range:
    # this warned from bumps.py with the same message.
    for n, vals in ((3, [9e307] * 8), (1, [1e308, 1.0])):
        wpath = tmp_path / "huge.txt"
        save_grid_function(GridFunction(n, vals), wpath)
        assert run([command, "--weight", str(wpath)]) == 2
        captured = capsys.readouterr()
        assert "rescale" in captured.err
        assert "Warning" not in captured.err


def test_rho_missing_weight_file(tmp_path, capsys):
    assert run(["rho", "--weight", str(tmp_path / "missing.txt")]) == 2
    assert "no such weight file" in capsys.readouterr().err


def test_maximal_json_payload(tmp_path, capsys):
    path = tmp_path / "max.json"
    code = run(
        ["maximal", "--n", "5", "--seed", "2", "--weight", "power:0.5",
         "--phi", "power:2", "--out", str(path)]
    )
    assert code == 0
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["resolution"] == 5
    assert len(payload["dyadic"]) == 32
    me = np.array(payload["entropy"])
    md = np.array(payload["dyadic"])
    assert np.all(me >= md * (1 - 1e-12))
    assert payload["orlicz"] is not None


def test_maximal_without_phi(capsys):
    assert run(["maximal", "--n", "4", "--weight", "power:0"]) == 0
    out = capsys.readouterr().out
    assert "entropy_range" in out
    assert "orlicz_range" not in out


def test_bad_eps_spec(capsys):
    assert run(["maximal", "--n", "4", "--eps", "nope:1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rho", "verify-main"])
@pytest.mark.parametrize("spec", ["power:abc", "power:"])
def test_malformed_weight_spec_is_named(command, spec, capsys):
    assert run([command, "--n", "3", "--weight", spec]) == 2
    err = capsys.readouterr().err
    assert f"bad weight spec {spec!r}" in err
    assert "could not convert" not in err


@pytest.mark.parametrize("argv", [
    ["rho", "--weight", "power:0.5"],  # draws nothing, yet seeds a generator
    ["maximal"],
    ["compare"],
    ["sparse-split"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_named(argv, capsys):
    # the suite commands' message, not numpy's "expected non-negative integer"
    assert run([*argv, "--n", "3", "--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: negative seed -1\n")


def test_sparse_split_random(tmp_path, capsys):
    path = tmp_path / "split.json"
    assert run(["sparse-split", "--n", "6", "--seed", "2", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "check carleson: PASS" in out
    assert "RESULT: PASS" in out
    with open(path) as fh:
        payload = json.load(fh)
    assert len(payload["parts"]) == 8
    assert all(part["strong_ok"] for part in payload["parts"])


def test_sparse_split_collection_file(tmp_path, capsys):
    coll = SparseCollection(3, [ROOT, DyadicCube(2, 0), DyadicCube(3, 7)])
    path = tmp_path / "coll.txt"
    coll.save(path)
    assert run(["sparse-split", "--collection", str(path)]) == 0
    assert "members = 3" in capsys.readouterr().out


def test_sparse_split_bad_collection(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    with open(path, "w") as fh:
        fh.write("2\n0 zero\n")
    assert run(["sparse-split", "--collection", str(path)]) == 2
    assert ":2:" in capsys.readouterr().err


def test_sparse_split_collection_over_the_cap(tmp_path, capsys):
    # the header is checked against the cap before any member array exists
    path = tmp_path / "huge.txt"
    path.write_text("60\n0 0\n")
    assert run(["sparse-split", "--collection", str(path)]) == 2
    assert "resolution 60 exceeds the cap" in capsys.readouterr().err


def test_sparse_split_missing_collection(tmp_path, capsys):
    assert run(["sparse-split", "--collection", str(tmp_path / "nope.txt")]) == 2
    assert "no such collection file" in capsys.readouterr().err


def test_verify_fs_small(capsys):
    assert run(["verify-fs", "--n", "5", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "check constant_one: PASS" in out
    assert "RESULT: PASS" in out


def test_verify_main_small(tmp_path, capsys):
    path = tmp_path / "main.json"
    code = run(["verify-main", "--n", "6", "--trials", "8", "--out", str(path)])
    assert code == 0
    assert "RESULT: PASS" in capsys.readouterr().out
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["kind"] == "main"
    assert payload["all_passed"] is True


def test_verify_main_tiny_bound_fails(capsys):
    assert run(["verify-main", "--n", "5", "--trials", "4", "--bound", "1e-12"]) == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


def test_domination_tiny_bound_fails(capsys):
    assert run(["domination", "--n", "5", "--trials", "4", "--bound", "1e-12"]) == 1
    assert "RESULT: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify-fs", "verify-ainf", "verify-cor", "replay"])
def test_fixed_gate_suites_take_no_bound(command, capsys):
    # These suites gate on the paper's fixed constants, so a --bound would
    # be accepted and then ignored.
    assert run([command, "--n", "4", "--trials", "2", "--bound", "1e-12"]) == 2
    assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_verify_cor_small(capsys):
    code = run(["verify-cor", "--n", "6", "--trials", "6", "--s-list", "0,0.5,0.9"])
    assert code == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_verify_cor_n0_is_a_vacuous_pass(capsys):
    # At n = 0 the Haar transform is 0, so every per-s max is 0.0 and
    # "max <= 4 x median" holds with factor 1.
    assert run(["verify-cor", "--n", "0", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    assert "factor = 1.0" in out
    assert "RESULT: PASS" in out


def test_verify_cor_bad_s_list(capsys):
    assert run(["verify-cor", "--s-list", "0,down"]) == 2
    assert run(["verify-cor", "--s-list", "1.5"]) == 2
    assert run(["verify-cor", "--s-list", ",,"]) == 2


def test_verify_ainf_small(capsys):
    assert run(["verify-ainf", "--n", "5", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "max_ratio" in out
    assert "RESULT: PASS" in out


def test_domination_small_with_plot(tmp_path, capsys):
    plot = tmp_path / "dom.svg"
    code = run(
        ["domination", "--n", "5", "--trials", "8", "--plot", str(plot)]
    )
    assert code == 0
    text = plot.read_text()
    assert text.lstrip().startswith("<svg")


def test_replay_small(capsys):
    assert run(["replay", "--n", "5", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "check decomposition: PASS" in out
    assert "RESULT: PASS" in out


def test_compare_descriptive(capsys):
    code = run(["compare", "--n", "5", "--weight", "power:0.5", "--phi", "power:2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "entropy_dominates_dyadic = True" in out
    assert "orlicz_over_dyadic_max" in out
    assert "RESULT" not in out  # descriptive command, no verdict


def test_compare_has_no_plot(tmp_path, capsys):
    assert run(["compare", "--n", "4", "--plot", str(tmp_path / "x.svg")]) == 2
    assert "unrecognized arguments: --plot" in capsys.readouterr().err


def test_resolution_cap_enforced(monkeypatch, capsys):
    monkeypatch.setenv(MAX_RESOLUTION_ENV, "8")
    assert run(["rho", "--n", "9"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err
    monkeypatch.setenv(MAX_RESOLUTION_ENV, "9")
    assert run(["rho", "--n", "9"]) == 0


def test_stdout_deterministic(capsys):
    argv = ["verify-ainf", "--n", "5", "--trials", "10", "--seed", "4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def test_readme_command_table_matches_parser():
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.M)
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(listed) == sorted(sub.choices)


def _child_env():
    """Environment for a child Python that imports the `entbump` under test.

    The directory this process imported `entbump` from goes first on
    PYTHONPATH, so the child runs the same code whatever its working
    directory and whatever other `entbump` is installed.
    """
    src = str(Path(entbump.__file__).resolve().parent.parent)
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def _scan_project_scripts(text):
    """`[project.scripts]` of a pyproject.toml, read line by line.

    Enough for `name = "module:attr"` lines, and runs on Python 3.10, which
    has no `tomllib`.
    """
    scripts, in_table = {}, False
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[key] = value
    return scripts


def _project_scripts():
    return _scan_project_scripts(PYPROJECT.read_text())


def _run_console_script(name, args, cwd):
    """Run console script `name` as pip's generated wrapper would."""
    target = _project_scripts()[name]
    code = (
        "import pkgutil, sys\n"
        f"sys.argv[0] = {name!r}\n"
        f"sys.exit(pkgutil.resolve_name({target!r})())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=_child_env(), cwd=cwd,
    )


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "entbump", "--version"],
        capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert VERSION in proc.stdout


def test_replay_demo_refuses_bad_input_before_drawing(tmp_path):
    script = PYPROJECT.parent / "scripts" / "replay_demo.py"
    env = _child_env()
    env.pop(MAX_RESOLUTION_ENV, None)
    for argv, message in (
        (["--n", "40"], "error: resolution 40 exceeds the cap 18"),  # 2^40 cells otherwise
        (["--n", "-1"], "error: negative resolution -1"),
        (["--seed", "-1"], "error: negative seed -1"),
        (["--eps", "bogus"], "error: unknown bump 'bogus'"),
    ):
        proc = subprocess.run([sys.executable, str(script), *argv],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(message), argv
        assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify-fs", "--n", "6", "--trials", "5", "--out"],
    ["domination", "--n", "6", "--trials", "5", "--plot"],
], ids=["out", "plot"])
def test_unwritable_output_fails_before_any_trial(argv, tmp_path, capsys):
    # these ran every trial and printed their checks before the write failed
    for path in (tmp_path / "missing" / "report", tmp_path):  # no directory; a directory
        assert run([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: [Errno")
    assert list(tmp_path.iterdir()) == []


def test_output_check_leaves_an_existing_file_as_it_is(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_bytes(b"old bytes")
    assert run(["verify-fs", "--n", "40", "--out", str(out)]) == 2  # refused after the check
    assert "exceeds the cap" in capsys.readouterr().err
    assert out.read_bytes() == b"old bytes"
    assert run(["verify-fs", "--n", "3", "--trials", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["resolution"] == 3


def test_replay_demo_refuses_an_unwritable_out_before_drawing(tmp_path):
    script = PYPROJECT.parent / "scripts" / "replay_demo.py"
    for path in (tmp_path / "missing" / "demo.json", tmp_path):
        proc = subprocess.run([sys.executable, str(script), "--n", "6", "--out", str(path)],
                              capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: [Errno")
    assert list(tmp_path.iterdir()) == []


def test_project_scripts_scan_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    assert _scan_project_scripts(text) == tomllib.loads(text)["project"]["scripts"]


def test_version_has_one_source(capsys):
    # pyproject.toml takes the package version from the attribute that
    # --version prints, so the two cannot drift apart.
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    module, _, attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    version = getattr(importlib.import_module(module), attr)
    assert isinstance(version, str)
    assert run(["--version"]) == 0
    assert capsys.readouterr().out == f"entbump {version}\n"


def test_console_script(tmp_path):
    argv = ["verify-fs", "--n", "4", "--trials", "5"]
    proc = _run_console_script("entbump", argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: PASS" in proc.stdout
    proc = _run_console_script("entbump", ["frobnicate"], tmp_path)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.skipif(
    shutil.which("entbump") is None,
    reason="no entbump executable on PATH (it comes with `pip install -e .`)",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["entbump", "verify-fs", "--n", "4", "--trials", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "RESULT: PASS" in proc.stdout


def _load_verify_all():
    import importlib.util

    path = PYPROJECT.parent / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_counts_a_raise_as_a_failure(monkeypatch, capsys):
    module = _load_verify_all()
    seen = []

    def fake_run(argv):
        seen.append(argv)
        if argv[0] == "maximal" and "--phi" in argv:
            raise RuntimeError("boom")
        return 1 if argv[0] == "replay" else 0

    monkeypatch.setattr(module, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["verify_all.py", "--n", "3", "--trials", "2"])
    assert module.main() == 9
    out = capsys.readouterr().out
    # replay runs at --n, at the n = 18 cap and at n = 0 with the other
    # suites, maximal --phi twice at the cap, once at n = 12 (levels solved
    # in groups), once at --n, and at n = 0 and n = 13 (the leaves alone,
    # and with one level, in the first group); compare --phi three times,
    # the loglog one at n = 14
    assert ("failed: replay (exit 1), maximal (raised), maximal (raised), "
            "maximal (raised), replay (exit 1), maximal (raised), "
            "maximal (raised), maximal (raised), replay (exit 1)") in out
    assert len(seen) == 30
    rho = [argv for argv in seen if argv[0] == "rho"]
    assert seen[-8:-6] == rho
    assert [argv[1:3] for argv in rho] == [["--n", "0"], ["--n", "18"]]
    assert rho[0][3:] == ["--seed", "0"]
    assert rho[1][3:5] == ["--seed", "0"] and rho[1][5] == "--out"
    # the cap's table goes to a temporary directory, removed at the end
    assert os.path.basename(rho[1][6]) == "rho.csv"
    assert not os.path.exists(os.path.dirname(rho[1][6]))
    assert [argv[0] for argv in seen[-6:]] == [
        "verify-fs", "verify-main", "verify-cor", "verify-ainf", "domination", "replay"]
    assert all(argv[1:5] == ["--n", "0", "--trials", "5"] for argv in seen[-6:])
    orlicz = [argv for argv in seen if "--phi" in argv]
    assert [argv[0] for argv in orlicz] == [
        "maximal", "maximal", "maximal", "compare", "compare", "maximal",
        "maximal", "compare", "maximal"]
    assert [argv[1:3] for argv in orlicz[-3:]] == [["--n", "0"], ["--n", "1"], ["--n", "13"]]
    assert ["--n", "18"] == orlicz[0][1:3] == orlicz[1][1:3]
    assert [argv[-1] for argv in orlicz[:3]] == ["llog:0.5"] + ["logprod:e2=1,e3=1,e4=1.5"] * 2
    assert orlicz[2][1:3] == ["--n", "12"]
    assert orlicz[4][1:3] == ["--n", "14"]
    assert orlicz[4][-4:] == ["--eps", "loglog:0.5", "--phi", "logprod:e2=1,e3=1,e4=1.5"]
