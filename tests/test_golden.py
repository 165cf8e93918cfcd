"""Golden report digests: refactors must keep every report byte-identical.

Each digest is the sha256 of the JSON file a suite writes (``save_json``) at
one small fixed config, plus the file ``sparse-split --out`` writes, the
stdout of ``rho --n 10`` and the ``--out`` file of ``maximal --n 10 --phi
llog:0.5`` (the dyadic, entropy and Orlicz maximal arrays). The command
layer is pinned too: the stdout of each suite command at ``--n 6 --trials
10 --seed 3``, the CSV of ``verify-main --out`` and the SVG of ``domination
--plot`` at the same flags. A change that moves any of them on purpose bumps
``VERSION`` and says why in CHANGES.md; a refactor leaves them alone.
"""

import hashlib

import pytest

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

CLI_FILE_DIGESTS = {
    "verify-main.csv": "92a32bf1a715fda49f40398639f12b8c10f39ae585922d51ce15752c28f4a94f",
    "domination.svg": "1944da1d5a1aefd38ceaec51b26728cf80ad8770356823c154fd5d77d735296a",
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


@pytest.mark.parametrize(
    "name, flag",
    [("verify-main.csv", "--out"), ("domination.svg", "--plot")],
)
def test_suite_command_file_digest(name, flag, tmp_path, capsys):
    command = name.rsplit(".", 1)[0]
    path = tmp_path / name
    assert run([command, *CLI_ARGS, flag, str(path)]) == 0
    assert _sha256(path) == CLI_FILE_DIGESTS[name]
