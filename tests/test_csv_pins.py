"""SHA-256 pins of the bytes the command line writes.

The CSVs of the bundled example configs and the ``reconstruct`` output of
two fixed records are part of the contract: a change that moves any of
these hashes on purpose updates the pin and says why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from qmaxent.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PINS = {
    ("sweep", "sweep_exact.txt"):
        "2010c67db72841f7fd2ebf7665a688c3b0936dc46cbce25c01d0fb35621882ff",
    ("sweep", "sweep_noisy_mitigated.txt"):
        "999818ed6fb19215558c0595c961cdcff86c828e97eb0bc674ab4595347d6ea5",
    ("caseab", "caseab_shots.txt"):
        "557fed17db83dfff59aab5d6d2acd2e2bb8fcfc03c2487f095ae08982c5a0228",
    ("heatmap", "heatmap.txt"):
        "24f1a4496657dd464af64d6904edd48e3bf035792e66fb02687eea3aa5f733ef",
}

RECORDS = {
    # x_kk is predicted: a pure-state completion, rescaled before the solve
    "incomplete": "n 4\nk 2\nx11 0.4\nre_x1k 0.2\nim_x1k 0\n",
    "complete": "n 8\nk 5\nx11 0.3\nre_x1k 0.1\nim_x1k -0.2\nxkk 0.25\n",
}

RECONSTRUCT_PINS = {
    ("incomplete", "text"):
        "c293e8055dc126d297036e087e27d438e3e8acc1b9a47e02e834b02d9486dda9",
    ("incomplete", "csv"):
        "aec1b96b6f71296bb4094bc7e22a24b0ceb5a4e61efddd17d6599316e352851e",
    ("complete", "text"):
        "79cf51ed6c43675f46607cc8f6b4b28f5bfbcee2ec4d63924da7ff9ca849b5ec",
    ("complete", "csv"):
        "80be51abe4d82adeabfb0cbfae3f10c4e50cc1fc43a187222e7bc9d4c7f7daea",
}


@pytest.mark.parametrize(("command", "config"), sorted(PINS), ids=lambda v: v)
def test_config_output_bytes_are_pinned(command, config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), command, str(CONFIGS / config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[(command, config)]


@pytest.mark.parametrize(("record", "fmt"), sorted(RECONSTRUCT_PINS), ids=lambda v: v)
def test_reconstruct_output_bytes_are_pinned(record, fmt, tmp_path):
    path = tmp_path / "record.txt"
    path.write_text(RECORDS[record])
    out = tmp_path / "out.txt"
    assert main(["--format", fmt, "--out", str(out), "reconstruct", str(path)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == RECONSTRUCT_PINS[(record, fmt)]
