"""SHA-256 pins of the bytes the command line writes.

The CSVs of the bundled example configs, of a short exact sweep of each
bundled model those configs leave out, and the ``reconstruct`` output of
two fixed records are part of the contract: a change that moves any of
these hashes on purpose updates the pin and says why in CHANGES.md.

The two sampled pins moved when a sampled sweep began to draw every row
from one generator seeded with the config seed, in the order (theta, K,
[populations, then each basis of K's plan]), in place of a generator per
draw seeded with seed + 10007 p (+ 101 + the basis offset). They were
sweep_noisy_mitigated bc7e92d7c74ff38cdeaa278096d506ac7ad8b82dda87126a4e61bdc3d6d1965f
and caseab_shots e59043886e2c2afd106381b3c61ee923353fa18dec8dd1b3763d7c9c82ea02e9.

The two ``reconstruct --format csv`` pins moved when the forward map
became the closed-form exp(A) of the block (from e^(-m -+ r), in place
of eigenvector slopes): those files print each rho entry as its repr, and
some entries moved in the last digit (0.3000000000000001 -> 0.3,
0.07500000000000001 -> 0.075 and 0.10000000000000002-0.20000000000000004j
-> 0.10000000000000003-0.20000000000000007j in the complete record,
0.10000000000017509 -> 0.10000000000017507 in the incomplete one). They
were complete-csv
501bd9a0e3e8753a37e596f0447f910f3c2fea47c4967fcefb4d4b48d4ef4af2 and
incomplete-csv aec1b96b6f71296bb4094bc7e22a24b0ceb5a4e61efddd17d6599316e352851e.

The pins depend on numpy's SIMD dispatch. On x86-64 they hold with the
default dispatch and with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``. Held to its
baseline loops (``"X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``), numpy's
complex abs, which gives the populations |a|^2, rounds differently, and
the twoq_b and twoq_c pins fail in the abs_diff column.

The pins depend on the kernel OpenBLAS picks as well: the 2x2 gate
products of ``circuit._apply_1q`` go to ``zgemm`` and the sampler's
matrix products to ``dgemm``. They hold under the default kernel on an
AVX-512 machine (SkylakeX). With ``OPENBLAS_CORETYPE=Haswell`` the
caseab_shots pin fails, and with ``OPENBLAS_CORETYPE=Prescott`` six of
the eleven pins above fail (caseab_shots, sweep_exact,
sweep_noisy_mitigated and the three model pins). Both settings fail the
two sampled pins below as well.

The two sampled pins of threeq_a, noisy and mitigated over every K and
shots over the K subset (3, 8), cover the 3-qubit basis rotations that
the example configs leave out: every prefix at each qubit, and the
pruned prefixes of a subset. They were computed before the rotations
were made level by level, and did not move.
"""

import hashlib
import os
from pathlib import Path

import pytest

from qmaxent.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

PINS = {
    ("sweep", "sweep_exact.txt"):
        "930a98b894619dcb088d1008689b683f5945a016a822b89e2e7850cb46c46693",
    ("sweep", "sweep_noisy_mitigated.txt"):
        "a54a768f578cdc1083cab69568a639acec4aa163eb2c2d5840d835c658c5c556",
    ("caseab", "caseab_shots.txt"):
        "efb2b6fc825144ef368cd32487994f572e5487b4cd13d9bab1f0896d0780d064",
    ("heatmap", "heatmap.txt"):
        "24f1a4496657dd464af64d6904edd48e3bf035792e66fb02687eea3aa5f733ef",
}

# Short exact sweeps of the bundled models the example configs leave out.
MODEL_CONFIGS = {
    "twoq_b": "circuit twoq_b\ntheta_start -3.0\ntheta_stop 9.5\ntheta_steps 13\n",
    "twoq_c": "circuit twoq_c\ntheta_start 0.0\ntheta_stop 6.283185307179586\ntheta_steps 13\n",
    "threeq_a": "circuit threeq_a\ntheta_start -0.0\ntheta_stop 12.566370614359172\ntheta_steps 9\n",
}

MODEL_PINS = {
    "twoq_b": "2a849fec874a89fe58572730f0d5c887c81f0275e9e7b3189402d9399c88974e",
    "twoq_c": "4172474ead2bb22348439c7f277efae391ef55aca53b77bc4d8a8ee07d4694ef",
    "threeq_a": "a7199ba93645534e94a681bc2349010357b0d2f94612da69a5f79c6cb7c95072",
}

# Sampled sweeps of threeq_a: noisy and mitigated over every K, and shots
# over a K subset.
SAMPLED_CONFIGS = {
    "threeq_a-mitigated": (
        "circuit threeq_a\ntheta_steps 11\nbackend noisy\nshots 8192\n"
        "p01 0.02\np10 0.04\nmitigate true\nseed 4\n"
    ),
    "threeq_a-shots-k3,8": (
        "circuit threeq_a\ntheta_steps 11\nk_targets 3,8\nbackend shots\nshots 8192\nseed 6\n"
    ),
}

SAMPLED_PINS = {
    "threeq_a-mitigated": "a1b19fafbd0a7b8fcf1b66f6a739ca1ff7a744d8db06197168984dacac2ffb87",
    "threeq_a-shots-k3,8": "d7b1c800b3ab90f599b9ddf052608bfb3143c0c437717de6898457cc866e22f0",
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
        "1186dfd6926830aef0d4883982bd5dea3d107f0458f7ae6893d86c4d3d0bf104",
    ("complete", "text"):
        "79cf51ed6c43675f46607cc8f6b4b28f5bfbcee2ec4d63924da7ff9ca849b5ec",
    ("complete", "csv"):
        "d46659e6ff77f161799dc53ce307e7390f6f39b669c909440c6d5663b6c9e0be",
}


@pytest.mark.parametrize(("command", "config"), sorted(PINS), ids=lambda v: v)
def test_config_output_bytes_are_pinned(command, config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), command, str(CONFIGS / config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[(command, config)]


def test_a_short_write_is_followed_by_the_rest(tmp_path, monkeypatch, capsys):
    # A write may take fewer bytes than it is given; the file still gets
    # every byte, in order.
    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(write(fd, memoryview(data)[:4096]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), "sweep", str(CONFIGS / "sweep_exact.txt")]) == 0
    assert len(sizes) > 2 and max(sizes) == 4096
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[("sweep", "sweep_exact.txt")]


@pytest.mark.parametrize("model", sorted(MODEL_PINS))
def test_model_sweep_bytes_are_pinned(model, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(MODEL_CONFIGS[model])
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), "sweep", str(config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MODEL_PINS[model]


@pytest.mark.parametrize("name", sorted(SAMPLED_PINS))
def test_sampled_sweep_bytes_are_pinned(name, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(SAMPLED_CONFIGS[name])
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), "sweep", str(config)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLED_PINS[name]


@pytest.mark.parametrize(("record", "fmt"), sorted(RECONSTRUCT_PINS), ids=lambda v: v)
def test_reconstruct_output_bytes_are_pinned(record, fmt, tmp_path):
    path = tmp_path / "record.txt"
    path.write_text(RECORDS[record])
    out = tmp_path / "out.txt"
    assert main(["--format", fmt, "--out", str(out), "reconstruct", str(path)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == RECONSTRUCT_PINS[(record, fmt)]
