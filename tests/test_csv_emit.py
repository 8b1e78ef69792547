"""The CSV emit writes every value as ``'%.11e'`` does, from numpy.

- ``cli._float_cells``, the formatter behind every sweep, case A/B and
  heatmap CSV, gives the text of ``'%.11e' % v`` for random 64-bit
  patterns, the neighbours of every power of ten, 12-digit rounding ties
  and the values around them, values that round up to the next decade,
  signed zeros, subnormals, NaN and infinities, and hypothesis floats.
- It gives the same bytes with numpy's AVX-512 and AVX2 loops switched
  off (``NPY_DISABLE_CPU_FEATURES``), in a child process.
- ``emit_csv``, ``emit_caseab_csv`` and ``emit_heatmap_csv`` write the
  bytes of the row-template emit (``conftest.reference_emit_*``) on the
  bundled configs and on every bundled model under each backend.
"""

import os
import platform
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_emit_caseab_csv, reference_emit_csv, reference_emit_heatmap_csv
from hypothesis import given
from hypothesis import strategies as st

from qmaxent.cli import (
    _float_cells,
    emit_caseab_csv,
    emit_csv,
    emit_heatmap_csv,
    load_config,
    load_heatmap_config,
    run_case_ab,
    run_sweep,
)
from qmaxent.maxent import heatmap_scan

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def text(cells: np.ndarray) -> str:
    """Rows of ``_float_cells`` as LF-terminated lines."""
    lines = np.concatenate([cells, np.full((len(cells), 1), ord("\n"), np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode()


def formatted(values) -> list[str]:
    """The text ``_float_cells`` gives each value."""
    return text(_float_cells(np.asarray(values, dtype=float))).splitlines()


def assert_formats_as_python(values, cells=None) -> None:
    """``cells``, by default the cells ``_float_cells`` gives ``values``,
    hold the text ``'%.11e'`` gives each value."""
    values = np.asarray(values, dtype=float).ravel()
    got = text(_float_cells(values) if cells is None else cells)
    want = "".join(map("%.11e\n".__mod__, values.tolist()))
    if got != want:
        wrong = [
            (v.hex(), g, w)
            for v, g, w in zip(values.tolist(), got.splitlines(), want.splitlines())
            if g != w
        ]
        pytest.fail(f"{len(wrong)} of {len(values)} values differ: {wrong[:10]}")


def neighbours(values, steps: int = 3) -> np.ndarray:
    """``values`` and their ``steps`` nearest doubles on either side."""
    out = [values]
    for direction in (np.inf, -np.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def powers_of_ten() -> np.ndarray:
    return neighbours(np.array([float(f"1e{k}") for k in range(-320, 309)]))


def ties(rng) -> np.ndarray:
    """Values at and around 12-digit rounding ties.

    Exact ties: every count/8192 (the frequencies of an 8192-shot draw,
    such as 4097/8192 = 0.5001220703125), odd multiples of 2^-j, and
    13-digit integers ending in 5 times 10^s, all exactly representable.
    Near ties: the double nearest to d.ddddddddddd5 x 10^e for random
    12-digit d over every decade of numpy's range and beyond, and its
    neighbours, and the values 1.1e-3 units of the 12th digit either side
    of it, just outside the window that ``_fmt`` writes.
    """
    counts = np.arange(8193) / 8192
    dyadic = np.concatenate([
        (2 * rng.integers(0, 2**20, 200) + 1) * 2.0 ** -j for j in range(1, 60)
    ])
    integers = np.concatenate([
        (rng.integers(10**11, 10**12, 200) * 10 + 5) * 10.0**s for s in range(3)
    ])
    digits = rng.integers(10**11, 10**12, 2000)
    near = np.array([
        float(Decimal(f"{d}{tail}e{e - 11 - len(tail)}"))
        for e in range(-40, 60) for d in digits[:20].tolist() for tail in ("5", "4989", "5011")
    ] + [float(Decimal(f"{d}5e{rng.integers(-30, 50)}")) for d in digits.tolist()])
    return np.concatenate([counts, dyadic, integers, neighbours(near, 2)])


def decade_carries() -> np.ndarray:
    """Values whose 12 digits round up to the next power of ten."""
    nines = np.array([float(f"9.999999999995e{k}") for k in range(-300, 300)])
    below_one = 1 - np.arange(4000) * 2.0**-53
    return np.concatenate([neighbours(nines), below_one, -below_one])


def special() -> np.ndarray:
    subnormals = np.random.default_rng(5).integers(1, 2**52, 1000, dtype=np.uint64).view(float)
    return np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, np.copysign(np.nan, -1.0),
        5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max,
        *subnormals.tolist(), *(-subnormals).tolist(),
    ])


def test_random_bit_patterns():
    rng = np.random.default_rng(2021)
    assert_formats_as_python(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(float))
    # Patterns whose exponent lies where numpy writes the digits.
    n = 10**5
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1023 - 115, 1023 + 185, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    assert_formats_as_python((sign | exponent | mantissa).view(float))


def test_neighbours_of_powers_of_ten():
    assert_formats_as_python(powers_of_ten())


def test_ties_and_the_values_around_them():
    values = ties(np.random.default_rng(7))
    assert_formats_as_python(values)
    assert_formats_as_python(-values)
    # Python rounds an exact tie half to even: 4097/8192 = 0.5001220703125.
    assert formatted([4097 / 8192, 4099 / 8192]) == ["5.00122070312e-01", "5.00366210938e-01"]


def test_values_that_round_up_a_decade():
    assert_formats_as_python(decade_carries())
    assert formatted([9.999999999995e-3, 1 - 2.0**-53]) == [
        "1.00000000000e-02", "1.00000000000e+00",
    ]


def test_zeros_subnormals_nan_and_infinities():
    assert_formats_as_python(special())
    assert formatted([-0.0, np.copysign(np.nan, -1.0), -np.inf]) == [
        "-0.00000000000e+00", "nan", "-inf",
    ]


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_hypothesis_floats(values):
    assert_formats_as_python(values)


# numpy's x86-64 dispatch settings: AVX-512 loops off, and the AVX2 loops
# off as well. Each names the features the child must lose.
DISPATCH = {
    "avx512_off": ("X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX AVX512_CLX AVX512_CNL", "X86_V4"),
    "avx2_off": (
        "X86_V3 X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX AVX512_CLX AVX512_CNL", "X86_V3 X86_V4"
    ),
}

CHILD = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from qmaxent.cli import _float_cells
off = [name for name in sys.argv[3].split() if __cpu_features__.get(name)]
if off:
    sys.exit(f"still on: {off}")
values = np.load(sys.argv[1])
open(sys.argv[2], "wb").write(_float_cells(values).tobytes())
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch settings"
)
@pytest.mark.parametrize("setting", sorted(DISPATCH))
def test_formatter_bytes_do_not_depend_on_the_cpu(setting, tmp_path):
    rng = np.random.default_rng(11)
    values = np.concatenate([
        10.0 ** rng.uniform(-40, 60, 4 * 10**4) * rng.choice([-1.0, 1.0], 4 * 10**4),
        rng.integers(0, 2**64, 10**4, dtype=np.uint64).view(float),
        powers_of_ten(), ties(rng), decade_carries(), special(),
    ])
    assert len(values) > 10**5
    np.save(tmp_path / "values.npy", values)
    disabled, lost = DISPATCH[setting]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "values.npy"), str(tmp_path / "cells"), lost],
        env=env, check=True, timeout=120,
    )
    cells = np.frombuffer((tmp_path / "cells").read_bytes(), np.uint8).reshape(len(values), -1)
    assert_formats_as_python(values, cells)


MODELS = ("twoq_a", "twoq_b", "twoq_c", "threeq_a")
BACKENDS = {
    "exact": "backend exact\n",
    "shots": "backend shots\nshots 8192\nseed 3\n",
    "noisy_mitigated": "backend noisy\nshots 8192\np01 0.02\np10 0.04\nmitigate true\nseed 3\n",
}


# A 4-qubit model, so that a K column holds two-digit values.
FOURQ = "qubits 4\nh 0\nh 1\ncx 0 2\nrx(theta) 3\ncx 1 3\nry(theta/2) 2\n"
FOURQ_TARGETS = {"fourq-k9_16": "k_targets 9,16\n", "fourq-every_k": ""}


def sweep_configs(tmp_path):
    """The bundled sweep configs, one config per model and backend, and
    the 4-qubit model's exact sweeps at K = 9, 16 and at every K."""
    configs = {name: CONFIGS / name
               for name in ("sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt")}
    for model in MODELS:
        for backend, settings in BACKENDS.items():
            path = tmp_path / f"{model}_{backend}.txt"
            path.write_text(f"circuit {model}\ntheta_steps 21\n{settings}")
            configs[f"{model}-{backend}"] = path
    (tmp_path / "fourq.qc").write_text(FOURQ)
    for name, targets in FOURQ_TARGETS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(f"circuit fourq.qc\ntheta_steps 21\n{targets}")
        configs[name] = path
    return configs


@pytest.mark.parametrize(
    "name",
    ["sweep_exact.txt", "sweep_noisy_mitigated.txt", "caseab_shots.txt",
     *(f"{m}-{b}" for m in MODELS for b in BACKENDS), *FOURQ_TARGETS],
)
def test_sweep_and_caseab_bytes_are_the_row_template_bytes(name, tmp_path):
    cfg = load_config(sweep_configs(tmp_path)[name])
    sweep = run_sweep(cfg)
    for emit, reference, points in (
        (emit_csv, reference_emit_csv, sweep),
        (emit_caseab_csv, reference_emit_caseab_csv, run_case_ab(cfg)),
    ):
        emit(points, tmp_path / "got.csv")
        reference(points, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_heatmap_bytes_are_the_row_template_bytes(tmp_path):
    params = load_heatmap_config(CONFIGS / "heatmap.txt")
    scan = heatmap_scan(
        params["lam11"], params["re_lam1k"], lam_kk=params["lam_kk"],
        im_lam1k=params["im_lam1k"], dim_n=params["dim_n"], index_k=params["index_k"],
    )
    emit_heatmap_csv(scan, tmp_path / "got.csv")
    reference_emit_heatmap_csv(scan, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
