"""Golden report digests: refactors must keep every report byte-identical.

Each digest is the sha256 of the JSON file a suite writes (``save_json``) at
one small fixed config, plus the file ``sparse-split --out`` writes, the
stdout of ``rho --n 10`` and the ``--out`` file of ``maximal --n 10 --phi
llog:0.5`` (the dyadic, entropy and Orlicz maximal arrays). The command
layer is pinned too: the stdout of each suite command at ``--n 6 --trials
10 --seed 3``, the CSV of ``verify-main --out`` and the SVG of ``domination
--plot`` at the same flags, the stdout of ``verify-main``, ``verify-cor`` and
``verify-fs`` at ``--n 14``, and the stdout and ``--out`` JSON of
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
    "fs": "a8ec6ee7594b8575783fc45490f4cea65f050e46a444bd764eb24abe87014dee",
    "main": "c472e6da247982cdd51c2351ecaff5c104af2120e1c1c7645577faa7b25960af",
    "corollary": "d4d1db41a171de790f62681b5c9818fcda6c4bbea87600bab425eab744e94086",
    "ainf": "11a69f1a27de5e8175c3b726aaafb55af18a520bdcb728abaedca12f9096543a",
    "domination": "e61e4fd83d6676a80b39baf8928d87254279036a90a4bb65fb3f7767206cb42b",
    "replay": "90b476690dfc2e7a43352e2c5133b63772f3088ab36ae2d4a4d56416c84b7428",
    "sparse-split": "0271d272a478f209756dd0c7f71a990b996f2697edc4ae236bc2dcd33d67feb4",
    "rho": "76f8ca5301b97a9d69015c1252639e17f5039dbc6b788b17af4dc13129ad7805",
    "maximal": "8e0d96b07e750f4cd5f84b303f39aa880f5563267d2988a31266e06a16e5ad5e",
}

CLI_ARGS = ["--n", "6", "--trials", "10", "--seed", "3"]

CLI_STDOUT_DIGESTS = {
    "verify-fs": "a71a57e24764bc110ab38bb9384fdce9068d9ecaa6ba4061ea14a53ed331f7e9",
    "verify-main": "959ad32da0d5030718c0e02e359ac25e9cdc5e18d68fe9a8a34512e19c22ad5c",
    "verify-cor": "e80095019443e9603a2ad351a0c1129b1a9bba22e95ce77807bf30a33457c177",
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
    "verify-fs --n 14 --trials 20 --seed 3":
        "86196cd5436416b260741b85cda3b05a6e5dca4efa2dd1d71d7a8a9c8d4dfb0a",
}

CLI_FILE_DIGESTS = {
    "verify-main.csv": "30b6671b66fc545b7a33c929b97a41761b296d9a28c8540112a70e16c8aa3b76",
    "domination.svg": "1944da1d5a1aefd38ceaec51b26728cf80ad8770356823c154fd5d77d735296a",
}


REPLAY_DEMO_DIGESTS = {
    "stdout": "00bdc9345699670de34b5d5675883fb4f4426b09c9846d4d109bc07aa4a2a838",
    "replay_demo.json": "59dc76f064faa4092eb0e0a9230816320c4de8a7b6832cbf8e054ad37ff281c8",
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


def _child_env(**extra) -> dict:
    # a child process imports the entbump under test
    src = str(Path(entbump.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""), **extra)


def test_n14_stdout_does_not_depend_on_the_blas_thread_count():
    # np.dot hands a sum of more than 10,000 products to BLAS, which may split
    # it across threads; a report's pairings must not read that split
    args = "verify-main --n 14 --trials 10 --seed 3"
    outs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "entbump", *args.split()],
            capture_output=True, env=_child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == CLI_N14_DIGESTS[args]


def test_replay_demo_digests(tmp_path):
    # the child writes its report into its working directory under the name
    # its stdout prints
    script = Path(__file__).resolve().parents[1] / "scripts" / "replay_demo.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--n", "8", "--out", "replay_demo.json"],
        capture_output=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == REPLAY_DEMO_DIGESTS["stdout"]
    assert _sha256(tmp_path / "replay_demo.json") == REPLAY_DEMO_DIGESTS["replay_demo.json"]
