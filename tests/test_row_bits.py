"""A row's bits do not depend on the stack it is computed in.

A sweep computes every theta's state as one row of a (T, 2^n) stack, and
every basis's distribution as one (T, 2^n) stack of a (bases, T, 2^n)
block. The CSV bytes then equal those of one theta or one basis at a
time only if a row's values do not depend on T, on its place in the
stack, or on the other stacks of the block. The gate products and the
noise product are BLAS calls (``zgemm`` and ``dgemm``), and OpenBLAS
picks its kernel at run time, so each check runs in a child process
under three kernels (``OPENBLAS_CORETYPE``), skipped where the CPU lacks
the kernel's instructions or the child cannot confirm the kernel.
"""

import ctypes
import glob
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

# Each OpenBLAS kernel, the numpy CPU features it needs and the core names
# OpenBLAS reports for it (scipy-openblas reports the Prescott setting as
# Katmai, the kernel it runs).
KERNELS = {
    "SkylakeX": (("AVX512_SKX",), ("SkylakeX",)),
    "Haswell": (("AVX2", "FMA3"), ("Haswell",)),
    "Prescott": (("SSE3",), ("Prescott", "Katmai")),
}

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from test_row_bits import openblas_kernel, row_mismatches
kernel = openblas_kernel()
if kernel is None:
    print("unknown")
    sys.exit(0)
print(kernel)
for mismatch in row_mismatches():
    print("mismatch", mismatch)
"""


def openblas_kernel():
    """The core name of numpy's OpenBLAS, or None where it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def _stack(rng, rows, n):
    """Normalized random rows with signed zeros in both parts."""
    states = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    states.real[:, ::3] = -0.0
    states.imag[:, 1::4] = 0.0
    return states


def row_mismatches():
    """Every case where a row computed in a stack differs in any bit from
    the same row computed alone: ``_apply_1q`` with a fixed gate and with
    one rotation per row, for n = 1..6 and several stack sizes, and
    ``_Readout.distribution`` of a block against one call per stack."""
    from qmaxent import circuit, sampler
    from qmaxent.circuit import Gate

    rng = np.random.default_rng(23)
    fixed = [circuit._matrix_1q(g) for g in (
        Gate("h", (0,)), Gate("x", (0,)), Gate("rz", (0,), -math.pi / 2), Gate("ry", (0,), 0.731),
    )]
    found = []
    for n in range(1, 7):
        for rows in (1, 2, 7, 37, 201):
            states = _stack(rng, rows, n)
            for kind in ("rx", "ry", "rz"):
                per_row = circuit._rotation_matrices(kind, rng.uniform(-7.0, 7.0, rows))
                for qubit in range(n):
                    got = circuit._apply_1q(states, per_row, qubit, n)
                    alone = [circuit._apply_1q(s, u, qubit, n) for s, u in zip(states, per_row)]
                    if got.tobytes() != np.array(alone).tobytes():
                        found.append(f"{kind} per row, n={n}, rows={rows}, qubit={qubit}")
            for i, u in enumerate(fixed):
                for qubit in range(n):
                    got = circuit._apply_1q(states, u, qubit, n)
                    alone = [circuit._apply_1q(s, u, qubit, n) for s in states]
                    if got.tobytes() != np.array(alone).tobytes():
                        found.append(f"fixed gate {i}, n={n}, rows={rows}, qubit={qubit}")
        noise = sampler.ReadoutNoise.uniform(0.02, 0.04, n)
        for shots, model in ((None, None), (None, noise), (100, None), (100, noise)):
            readout = sampler._Readout(n, shots, model, None)
            for bases, rows in ((1, 1), (3, 7), (26, 21)):
                block = _stack(rng, bases * rows, n).reshape(bases, rows, 2**n)
                got = readout.distribution(block)
                alone = [readout.distribution(stack) for stack in block]
                if got.tobytes() != np.array(alone).tobytes():
                    found.append(
                        f"distribution, n={n}, shots={shots}, noise={model is not None}, "
                        f"block={block.shape}"
                    )
    return found


def test_rows_match_in_this_process():
    assert row_mismatches() == []


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 OpenBLAS kernels"
)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_row_bits_do_not_depend_on_the_stack(kernel):
    features, names = KERNELS[kernel]
    missing = [f for f in features if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"the CPU lacks {missing}")
    env = {
        **os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
    }
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)],
        env=env, check=True, timeout=300, capture_output=True, text=True,
    )
    first, *mismatches = child.stdout.splitlines()
    if first == "unknown":
        pytest.skip("cannot read the kernel numpy's OpenBLAS runs")
    assert first in names
    assert mismatches == []
