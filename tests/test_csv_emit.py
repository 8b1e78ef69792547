"""The CSV emit writes every value as ``'%.11e'`` does, from numpy.

- ``cli._write_csv``, the emitter behind every sweep, case A/B and
  heatmap CSV, writes the text of ``'%.11e' % v`` for random 64-bit
  patterns, the neighbours of every power of ten, 12-digit rounding ties
  and the values around them, values that round up to the next decade,
  signed zeros, subnormals, NaN and infinities, and hypothesis floats,
  each value a row of a one-column CSV.
- It writes the same bytes with numpy's AVX-512 and AVX2 loops switched
  off (``NPY_DISABLE_CPU_FEATURES``), in a child process.
- Every kind of cell, a float of the numpy path, each kind written by
  Python's formatting, an integer of one to four digits and a bool, has
  the bytes of the row template in the first, a middle and the last
  column, where its separator differs.
- ``emit_csv``, ``emit_caseab_csv`` and ``emit_heatmap_csv`` write the
  bytes of the row-template emit (``conftest.reference_emit_*``) on the
  bundled configs and on every bundled model under each backend.
- The emit of a 201-theta ``threeq_a`` sweep, and the completion chain
  (``maxent._complete_and_solve``) of that sweep, keep their traced peak
  heaps under a bound.
"""

import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    reference_emit_caseab_csv,
    reference_emit_csv,
    reference_emit_heatmap_csv,
    reference_write_columns,
)
from hypothesis import given
from hypothesis import strategies as st

import qmaxent.cli as cli
import qmaxent.maxent as maxent
from qmaxent.cli import (
    ExperimentConfig,
    _write_csv,
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


def csv_text(values) -> str:
    """The text ``_write_csv`` writes for ``values`` as a one-column CSV
    under the header "x"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        _write_csv("x", (np.asarray(values, dtype=float).ravel(),), path)
        return path.read_bytes().decode()


def formatted(values) -> list[str]:
    """The text ``_write_csv`` gives each value."""
    return csv_text(values).splitlines()[1:]


def assert_formats_as_python(values, got=None) -> None:
    """``got``, by default the one-column CSV ``_write_csv`` writes for
    ``values``, holds the text ``'%.11e'`` gives each value."""
    values = np.asarray(values, dtype=float).ravel()
    got = csv_text(values) if got is None else got
    want = "x\n" + "".join(map("%.11e\n".__mod__, values.tolist()))
    if got != want:
        wrong = [
            (v.hex(), g, w)
            for v, g, w in zip(values.tolist(), got.splitlines()[1:], want.splitlines()[1:])
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
from qmaxent.cli import _write_csv
off = [name for name in sys.argv[3].split() if __cpu_features__.get(name)]
if off:
    sys.exit(f"still on: {off}")
_write_csv("x", (np.load(sys.argv[1]),), sys.argv[2])
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
        [sys.executable, "-c", CHILD, str(tmp_path / "values.npy"), str(tmp_path / "x.csv"), lost],
        env=env, check=True, timeout=120,
    )
    assert_formats_as_python(values, (tmp_path / "x.csv").read_bytes().decode())


# Six rows of each kind of cell. The fallback kinds are those Python's
# formatting writes: NaN, the infinities, a 3-digit exponent (a power of
# ten beyond 10^44) and a 12-digit rounding tie.
CELL_KINDS = {
    "float": np.array([0.25, -1.5e-7, 3.141592653589793, 6.02214076e23, -0.0, 0.0]),
    "nan": np.array([np.nan, -np.nan, np.nan, np.nan, -np.nan, np.nan]),
    "inf": np.array([np.inf, -np.inf, -np.inf, np.inf, np.inf, -np.inf]),
    "exponent_3": np.array([1e-300, -2.5e150, 5e-324, -np.finfo(float).max, 1e100, -1e-100]),
    "tie": np.array([4097 / 8192, -4097 / 8192, 4099 / 8192, 1234567890125.0, -9876543210125.0,
                     0.5001220703125]),
    "int": np.array([0, 9, 10, 99, 100, 9999]),
    "bool": np.array([True, False, False, True, True, False]),
}
FALLBACK_KINDS = ("nan", "inf", "exponent_3", "tie")
FILLER = np.array([1.0, -2.0, 0.125, 7e-3, -9e9, 0.5])


@pytest.mark.parametrize("place", [0, 2, 4])
@pytest.mark.parametrize("kind", sorted(CELL_KINDS))
def test_every_cell_kind_has_the_row_template_bytes_in_every_column(
    kind, place, tmp_path, monkeypatch
):
    columns = [FILLER, CELL_KINDS["int"], FILLER * 3, CELL_KINDS["bool"], -FILLER]
    columns[place] = CELL_KINDS[kind]
    header = "a,b,c,d,e"
    fallbacks = []
    monkeypatch.setattr(cli, "_fmt", lambda v: fallbacks.append(v) or f"{v:.11e}")
    _write_csv(header, tuple(columns), tmp_path / "got.csv")
    # Each fallback kind is written by Python's formatting, and only it.
    assert len(fallbacks) == (6 if kind in FALLBACK_KINDS else 0)
    reference_write_columns(header, columns, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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


# The traced peak of the emit below, in KiB: 1447 before the buffer emit
# (a cells array, a byte matrix and its ``tobytes`` copy, and about ten
# full-size temporaries of the formatter), 787 with it. One more live
# (rows, columns) array of float64 adds 110 KiB.
EMIT_PEAK_KIB = 880


def test_the_emit_of_a_dense_sweep_keeps_its_peak_heap_small(tmp_path):
    """A command's peak heap is time: the pages beyond what the allocator
    keeps are faulted in afresh by each command."""
    sweep = run_sweep(ExperimentConfig("threeq_a", theta_steps=201))
    assert len(sweep) == 1407
    emit_csv(sweep, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        emit_csv(sweep, tmp_path / "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < EMIT_PEAK_KIB * 1024, f"traced peak {peak / 1024:.0f} KiB"


# The traced peak of the completion chain of the sweep below, in KiB:
# 1006 when each kernel took its moduli afresh and computed both branches
# of every np.where, 918 with moduli taken once and branches masked; the
# bound is the first plus 10%, so masked copies cannot grow the heap.
CHAIN_PEAK_KIB = 1107


def test_the_completion_chain_of_a_dense_sweep_keeps_its_peak_heap_small(monkeypatch):
    chain, peaks = maxent._complete_and_solve, []

    def traced(*args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = chain(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(maxent, "_complete_and_solve", traced)
    assert len(run_sweep(ExperimentConfig("threeq_a", theta_steps=201))) == 1407
    assert len(peaks) == 1
    assert peaks[0] < CHAIN_PEAK_KIB * 1024, f"traced peak {peaks[0] / 1024:.0f} KiB"
