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
    "fs": "c7be06abfbd287fce385f92bef79dca3fafa2c3e2dd9a046eb4f642d5493a088",
    "main": "986deb3415bc70686e67e6076f43669806fdb306eb546b7aee41c9aae27d2ab7",
    "corollary": "6b804b722b60a7597355db7e49f1c874ac8d04b824c9379cb278a3cb93ee9b66",
    "ainf": "bc2e28b8931075b53446211f04aa48667ebfedaa22922d353ba8261306232b04",
    "domination": "f7de9323dc849134789f6ae016d4cc0e7f7301ca9dafb4110ac6c33071433b62",
    "replay": "28fcfdad47a7c3e6a55a3e0b447996f6f236c24fe8297feba395b017f6721488",
    "sparse-split": "0271d272a478f209756dd0c7f71a990b996f2697edc4ae236bc2dcd33d67feb4",
    "rho": "76f8ca5301b97a9d69015c1252639e17f5039dbc6b788b17af4dc13129ad7805",
    "maximal": "0a089429177900ef1358eea852fe6740cae771cfcf5414a1c87d37900342ff9b",
}

CLI_ARGS = ["--n", "6", "--trials", "10", "--seed", "3"]

CLI_STDOUT_DIGESTS = {
    "verify-fs": "8ddf96d968ea06887742eae3912b80c318d571950072ed743fe7015b9868604f",
    "verify-main": "4d61d4e8ce48cda696a363efacf7794cda540a0061514bbe5d37c3b86458f505",
    "verify-cor": "1e1bc451ebf502f7e95b9ceda6e962589e2b77295dbaeafa1e7b49698899bc8b",
    "verify-ainf": "f0d0c845913e1efb4dace12e328c79fe3d2d33968991f147cba5b47045fd9158",
    "domination": "573101ecbb9b7e7eb3d7fa26eca6ab21b9552bfa3796d0380a0146f6dc2c34eb",
    "replay": "13266df1a6aa4229adb8c1b956bf00ba454e74d30b3c3284812df479c3fa124d",
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
