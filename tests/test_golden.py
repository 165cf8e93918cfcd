"""Golden report digests: refactors must keep every report byte-identical.

Each digest is the sha256 of the JSON file a suite writes (``save_json``) at
one small fixed config, plus the file ``sparse-split --out`` writes, the
stdout of ``rho --n 10`` and the ``--out`` file of ``maximal --n 10 --phi
llog:0.5`` (the dyadic, entropy and Orlicz maximal arrays). The command
layer is pinned too: the stdout of each suite command at ``--n 6 --trials
10 --seed 3``, the CSV of ``verify-main --out`` and the SVG of ``domination
--plot`` at the same flags, the stdout of ``verify-main`` and ``verify-cor``
at ``--n 14``, and the stdout and ``--out`` JSON of
``scripts/replay_demo.py --n 8``, the one script that prints cube records. A
change that moves any of them on purpose bumps ``VERSION`` and says why in
CHANGES.md; a refactor leaves them alone.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entbump
from entbump import (
    TrialConfig,
    ainf_lemma_sweep,
    corollary_experiment,
    domination_random_suite,
    fs_random_suite,
    main_theorem_experiment,
    replay_random_suite,
)
from entbump.cli import run

CONFIG = dict(resolution=8, trials=20, seed=0)

SUITES = {
    "fs": fs_random_suite,
    "main": main_theorem_experiment,
    "corollary": corollary_experiment,
    "ainf": ainf_lemma_sweep,
    "domination": domination_random_suite,
    "replay": replay_random_suite,
}

DIGESTS = {
    "fs": "5f76daad3a1302549ab1c7447a7ad53c33477e3076be6f24fdbf4e4f76ed97fc",
    "main": "1fdcffa516462a561d0eb8bb27db3bc9dae5ff1406ab71d65096557b04590b24",
    "corollary": "2a39a968f69fb5f865dd7308f89744bba4abd4a6df6598af98040569137b8e3b",
    "ainf": "798e56e4a908fda3c7fb3ddf9e5346f6209aaf87201733af914fab1f04b76216",
    "domination": "3fa0f4c95875bf8040bb25af3bbff2992475fbe1143ced5a792b4e8141774572",
    "replay": "03f52e52bc0a979e592b6aabe5356ad100b8eaebee68c6497967e26bbad4e671",
    "sparse-split": "0271d272a478f209756dd0c7f71a990b996f2697edc4ae236bc2dcd33d67feb4",
    "rho": "76f8ca5301b97a9d69015c1252639e17f5039dbc6b788b17af4dc13129ad7805",
    "maximal": "1477fb90730b49c7bb82a7bf8ac4796e06207577fa214f331f0da70f2b892e67",
}

CLI_ARGS = ["--n", "6", "--trials", "10", "--seed", "3"]

CLI_STDOUT_DIGESTS = {
    "verify-fs": "a71a57e24764bc110ab38bb9384fdce9068d9ecaa6ba4061ea14a53ed331f7e9",
    "verify-main": "4d61d4e8ce48cda696a363efacf7794cda540a0061514bbe5d37c3b86458f505",
    "verify-cor": "7b0beddf2fb756cfc4ac48ff10a77b495284c76e750ba199b77e629052099ea9",
    "verify-ainf": "24c83e73a58858a8d0d21a22475321298c4192d1b27a47aa61c39c6a659484e5",
    "domination": "573101ecbb9b7e7eb3d7fa26eca6ab21b9552bfa3796d0380a0146f6dc2c34eb",
    "replay": "2234b61d00d0f7f0d510e6dab2152f88d87e4a2d2e9e3a2862339b465934473f",
}

# Stdout nearer the n = 18 cap, where the whole-grid kernels work on views
# of thousands of cells per row rather than a handful.
CLI_N14_DIGESTS = {
    "verify-main --n 14 --trials 10 --seed 3":
        "a7c7fc21e69e16bfc4872c19185336ebda23a55a075c25a66bb7be2bebfcb700",
    "verify-cor --n 14 --trials 5 --seed 3":
        "cf397f0133957f6e53f97de0f2851927612c2a82b8a1307d5a7ed3e71f38b578",
}

CLI_FILE_DIGESTS = {
    "verify-main.csv": "92a32bf1a715fda49f40398639f12b8c10f39ae585922d51ce15752c28f4a94f",
    "domination.svg": "1944da1d5a1aefd38ceaec51b26728cf80ad8770356823c154fd5d77d735296a",
}


REPLAY_DEMO_DIGESTS = {
    "stdout": "00bdc9345699670de34b5d5675883fb4f4426b09c9846d4d109bc07aa4a2a838",
    "replay_demo.json": "37568ae1d511269c23c19d042fd352276583a58ad6f7e38b7a739314ba032c3d",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_report_digest(name, tmp_path):
    path = tmp_path / f"{name}.json"
    SUITES[name](TrialConfig(**CONFIG)).save_json(path)
    assert _sha256(path) == DIGESTS[name]


def test_sparse_split_digest(tmp_path, capsys):
    path = tmp_path / "split.json"
    assert run(["sparse-split", "--n", "10", "--out", str(path)]) == 0
    assert _sha256(path) == DIGESTS["sparse-split"]


def test_rho_stdout_digest(capsys):
    assert run(["rho", "--n", "10"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS["rho"]


def test_maximal_digest(tmp_path, capsys):
    path = tmp_path / "maximal.json"
    assert run(["maximal", "--n", "10", "--phi", "llog:0.5", "--out", str(path)]) == 0
    assert _sha256(path) == DIGESTS["maximal"]


@pytest.mark.parametrize("command", sorted(CLI_STDOUT_DIGESTS))
def test_suite_command_stdout_digest(command, capsys):
    assert run([command, *CLI_ARGS]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CLI_STDOUT_DIGESTS[command]


@pytest.mark.parametrize("args", sorted(CLI_N14_DIGESTS))
def test_suite_command_stdout_digest_n14(args, capsys):
    assert run(args.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CLI_N14_DIGESTS[args]


@pytest.mark.parametrize(
    "name, flag",
    [("verify-main.csv", "--out"), ("domination.svg", "--plot")],
)
def test_suite_command_file_digest(name, flag, tmp_path, capsys):
    command = name.rsplit(".", 1)[0]
    path = tmp_path / name
    assert run([command, *CLI_ARGS, flag, str(path)]) == 0
    assert _sha256(path) == CLI_FILE_DIGESTS[name]


def test_replay_demo_digests(tmp_path):
    # the child imports the entbump under test, and writes its report into
    # its working directory under the name its stdout prints
    script = Path(__file__).resolve().parents[1] / "scripts" / "replay_demo.py"
    src = str(Path(entbump.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))
    proc = subprocess.run(
        [sys.executable, str(script), "--n", "8", "--out", "replay_demo.json"],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == REPLAY_DEMO_DIGESTS["stdout"]
    assert _sha256(tmp_path / "replay_demo.json") == REPLAY_DEMO_DIGESTS["replay_demo.json"]
