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
    "fs": "d04159732b1f85bef6382bc507832f013beee905276ec436058306e7127e8377",
    "main": "80e11feb7552cce062502f46bbe8592c35e1c5d83e26d119f9005ee504b56d68",
    "corollary": "e8d22fcee2cba121e210facc76be3f649843b7a5889d6172d4609359f3f85050",
    "ainf": "3dedf76e3514ad735807e29d69bd6a48c5413fb55dca12802ac1d6717178da88",
    "domination": "226ae6046b1223f70314f804b9524683e837fc0de8b1ddbb68e702dcc9302ce4",
    "replay": "9adcf403bdcc7e73f38579e2a7bf70f0b5691a45a31544cb74147460a2348e5f",
    "sparse-split": "0271d272a478f209756dd0c7f71a990b996f2697edc4ae236bc2dcd33d67feb4",
    "rho": "76f8ca5301b97a9d69015c1252639e17f5039dbc6b788b17af4dc13129ad7805",
    "maximal": "8e0d96b07e750f4cd5f84b303f39aa880f5563267d2988a31266e06a16e5ad5e",
}

CLI_ARGS = ["--n", "6", "--trials", "10", "--seed", "3"]

CLI_STDOUT_DIGESTS = {
    "verify-fs": "bdbdc2fb4d41d98a7c085d9aefc98e1315bd42e43eb4b571328250a2fc3e0326",
    "verify-main": "edbc9a624cbb48cb5dd301cfef04ea8342f9a87625fd74d5e7f0df8cf730fd84",
    "verify-cor": "4d35af627fa96bb699100cb12a544137b6f70bc8fa816eeb5cd4b8c03c2f407e",
    "verify-ainf": "0f3aa7d9067fd8d635370f8eaded91a8ea77173610805d336541f6b55703a1a2",
    "domination": "93803fea9f41cec0c3ca0c98a091756405d3a71897d3596875e3d8b95d2cd83e",
    "replay": "0c35f67e367bb4a21d3f47e0d37109e03edb38ba8d262444341daf126ab9cbee",
}

# Stdout nearer the n = 18 cap, where the whole-grid kernels work on views
# of thousands of cells per row rather than a handful.
CLI_N14_DIGESTS = {
    "verify-main --n 14 --trials 10 --seed 3":
        "426d8a1ecedb0b2484060effa184683a5090aacbf37bba641c6d7e0eb73617e3",
    "verify-cor --n 14 --trials 5 --seed 3":
        "24de5288b1e96d269fc4add498c37586e70c9dcc089ac9a842a7e66f2237348e",
    "verify-fs --n 14 --trials 20 --seed 3":
        "8d9e16c25784acc21332c70bd4badccb9e6ffe3caa12ab50716fc21a94374d1c",
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
