"""SHA-256 pins of the CSVs written for the bundled example configs.

The output bytes for a fixed config and seed are part of the contract: a
change that moves any of these hashes on purpose updates the pin and says
why in CHANGES.md.
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
        "0171318085823d36dcec3b44c1eb988eaa25bdc4b50b410d8ea7799abc779fd3",
    ("caseab", "caseab_shots.txt"):
        "62fb3731b6df38b9d1962d458344f2c4e6717e4110e755adc870d4e3f0599086",
}


@pytest.mark.parametrize(("command", "config"), sorted(PINS), ids=lambda v: v)
def test_config_output_bytes_are_pinned(command, config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), command, str(CONFIGS / config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[(command, config)]
