"""Properties of the library's boundaries on generated inputs.

- The circuit and record parsers either parse a text or raise a
  TomographyError subclass, never another exception; ``qmaxent sweep``
  and ``qmaxent caseab`` on generated config text exit 0, 2 or 3 and
  never print a traceback.
- The parse-once circuit parser gives the gates, angle bits and errors of
  a parser that tokenizes the text on every call, on the first call and
  on a repeated one.
- The closed-form inverse reproduces every feasible record through the
  forward map: interior records, rank-one minors, and records whose
  populations sum to within 1e-9 of 1, moved off that boundary by the
  completion's rescale (``maxent._rescale``). Every rank-one minor is
  flagged near-singular.
- The closed form agrees with the independent Newton oracle on every
  record that fixes its multipliers: one whose density matrix has no
  eigenvalue below 1e-6. On a rank-one or saturated record the multipliers
  run off to infinity, and the forward map is flat enough there that
  distinct finite multipliers reproduce the record to Newton's 1e-9
  residual, so no agreement is defined.
- The feasibility projection puts raw estimates inside the record
  invariants, before and after the saturation rescale, so the array solve
  path need not check them again; and that path gives the bits, flags and
  errors of the chain ``_project``, ``_rescale``, then the public
  ``solve_lagrange`` of the rescaled record, on estimates at every edge of
  the feasible set.
"""

import cmath
import contextlib
import io
import math
import struct

from conftest import newton_lagrange, reference_parse_circuit
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import TomographyError, cli, load_record, maxent, parse_circuit
from qmaxent.maxent import MeasurementRecord, density_from_lagrange, solve_lagrange

# Tokens of both text formats, with numbers at and past their edges.
NUMBERS = [
    "0", "1", "2", "3", "7", "-1", "0.5", "1e308", "1e-320", "nan", "inf", "-inf", "2.5", "0x1",
]
CIRCUIT_WORDS = ["qubits", "h", "x", "cx", "cz", "rx", "ry", "rz", "#", "theta", "pi"]
ANGLES = ["pi/2", "2*theta", "theta/0", "pi*", "1e308*1e308", "nan", "-theta", "", "(", "pi/theta"]
QUBITS = ["0", "1", "1", "2", "-1", "x"]
RECORD_VALUES = {  # plausible values, some out of range
    "n": st.sampled_from(["4", "8", "16", "3", "x"]),
    "k": st.sampled_from(["2", "3", "4", "1", "9"]),
    "x11": st.floats(-0.01, 0.7).map(repr),
    "re_x1k": st.floats(-0.2, 0.2).map(repr),
    "im_x1k": st.floats(-0.2, 0.2).map(repr),
    "xkk": st.floats(0.0, 0.3).map(repr),
}
VALID_GATES = [
    "h 0", "x 1", "cx 0 1", "cz 1 0", "rx(theta) 0", "ry(pi/2) 1", "rz(-2*theta) 0", "# note", "",
]
texts = st.text(max_size=6)


@st.composite
def damaged_lines(draw) -> str:
    kind = draw(st.sampled_from(["gate", "gate", "rotation", "words", "text"]))
    if kind == "gate":
        gate = draw(st.sampled_from(["h", "x", "cx", "cz"]))
        arity = draw(st.sampled_from([1, 2, 2, 3]))
        return " ".join([gate, *(draw(st.sampled_from(QUBITS)) for _ in range(arity))])
    if kind == "rotation":
        gate = draw(st.sampled_from(["rx", "ry", "rz"]))
        angle = draw(st.sampled_from(ANGLES + NUMBERS))
        return f"{gate}({angle}) {draw(st.sampled_from(QUBITS))}"
    if kind == "text":
        return draw(st.text(max_size=12))
    words = st.sampled_from(CIRCUIT_WORDS + NUMBERS)
    return " ".join(draw(st.lists(words, min_size=1, max_size=4)))


@st.composite
def circuit_texts(draw) -> str:
    """A valid two-qubit circuit with a few lines, the header among them,
    damaged now and then."""
    lines = ["qubits 2", *draw(st.lists(st.sampled_from(VALID_GATES), max_size=5))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        bad_headers = st.sampled_from(["qubits 0", "qubits x", "qubits 9"])
        lines[at] = draw(st.one_of(damaged_lines(), bad_headers))
    return "\n".join(lines)


@st.composite
def record_texts(draw) -> str:
    """Every record key once with a value that may be out of range, up to
    two values that are not plausible numbers, and now and then a key
    dropped, repeated or unknown."""
    values = {key: draw(plausible) for key, plausible in RECORD_VALUES.items()}
    for key in draw(st.lists(st.sampled_from(list(RECORD_VALUES)), max_size=2)):
        values[key] = draw(st.one_of(st.sampled_from(NUMBERS), texts))
    lines = [f"{key} {value}" for key, value in values.items()]
    damage = draw(st.sampled_from(["none"] * 4 + ["drop", "repeat", "unknown"]))
    if damage == "drop":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif damage == "repeat":
        lines.append(draw(st.sampled_from(lines)))
    elif damage == "unknown":
        lines.append(f"bogus {draw(texts)}")
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=600)
@given(circuit_texts(), st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)))
def test_circuit_text_parses_or_raises_a_toolkit_error(text, theta):
    try:
        parse_circuit(text, theta=theta)
    except TomographyError:
        pass


def _parse_outcome(parse, text, theta):
    try:
        c = parse(text, theta)
    except TomographyError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return c.num_qubits, [
        (g.kind, g.targets, None if g.angle is None else struct.pack("<d", g.angle))
        for g in c.gates
    ]


@settings(max_examples=600)
@given(
    circuit_texts(),
    st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
)
def test_circuit_text_parses_as_the_reference_parser_does(text, theta):
    want = _parse_outcome(reference_parse_circuit, text, theta)
    assert _parse_outcome(parse_circuit, text, theta) == want
    assert _parse_outcome(parse_circuit, text, theta) == want


@settings(max_examples=600)
@given(record_texts())
def test_record_text_parses_or_raises_a_toolkit_error(text):
    try:
        load_record(text)
    except TomographyError:
        pass


# Config values: a valid one first, then damaged ones. The circuit files
# are written beside the config.
CONFIG_VALUES = {
    "circuit": ["twoq_a", "threeq_a", "one.qc", "bad.qc", "missing.qc", "twoq_a x"],
    "theta_start": ["-1.5", "0", "nan", "1e308", "-1e308", "x"],
    "theta_stop": ["3", "0", "inf", "1e308", "-1e308", "1e-320"],
    "theta_steps": ["2", "1", "0", "-2", "2.5", "x"],
    "k_targets": ["2,3", "4", "8", "9", "1", "2,2", "x", ","],
    "backend": ["exact", "shots", "noisy", "quantum"],
    "shots": ["50", "1", "0", "-5", "2.5", "x", "9223372036854775808"],
    "p01": ["0.02", "0.5", "0.6", "-0.1", "nan"],
    "p10": ["0.04", "0.5", "0", "x"],
    "mitigate": ["true", "false", "yes", "maybe"],
    "seed": ["7", "0", "-1", "1.5", "x"],
}
CIRCUIT_FILES = {
    "one.qc": "qubits 1\nrx(theta) 0\n",
    "bad.qc": "qubits 2\nrx(theta 0\n",
}
BACKEND_KEYS = {
    "exact": ["circuit", "theta_steps"],
    "shots": ["circuit", "theta_steps", "backend", "shots"],
    "noisy": ["circuit", "theta_steps", "backend", "shots", "mitigate"],
}


@st.composite
def config_texts(draw) -> str:
    """A config that runs, with some keys added, dropped or damaged, and
    perhaps a line that is no ``key value`` pair."""
    backend = draw(st.sampled_from(sorted(BACKEND_KEYS)))
    values = {key: CONFIG_VALUES[key][0] for key in BACKEND_KEYS[backend]}
    values["circuit"] = draw(st.sampled_from(["twoq_a", "threeq_a"]))
    values["backend"] = backend
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=3)):
        values[key] = draw(st.sampled_from(CONFIG_VALUES[key]))
    for key in draw(st.lists(st.sampled_from(sorted(values)), max_size=1)):
        del values[key]
    lines = [f"{key} {value}" for key, value in values.items()]
    lines += draw(st.lists(st.sampled_from(["# note", "", "junk", "out", "seed 1"]), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=150)
@given(config_texts(), st.sampled_from(["sweep", "caseab"]))
def test_config_text_exits_0_2_or_3_without_a_traceback(tmp_path_factory, text, command):
    directory = tmp_path_factory.mktemp("config")
    for name, circuit_text in CIRCUIT_FILES.items():
        (directory / name).write_text(circuit_text)
    config = directory / "run.txt"
    config.write_text(text)
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        code = cli.main(["--out", str(directory / "out.csv"), command, str(config)])
    assert code in (0, 2, 3)
    assert "Traceback" not in output.getvalue()


@st.composite
def feasible_minors(
    draw, kinds=("interior", "rank_one", "saturated", "near_saturated"), min_eigenvalue=0.0
) -> tuple[MeasurementRecord, bool]:
    """A complete record from the interior to the edges of the feasible
    set, already moved off the x11 + xKK = 1 boundary where it sits on it,
    and whether its minor was built with rank one. The smaller eigenvalue
    of an interior minor is at least ``min_eigenvalue``."""
    n = draw(st.sampled_from([4, 8, 16]))
    k = draw(st.integers(2, n))
    kind = draw(st.sampled_from(kinds))
    if kind == "saturated":
        total = 1.0 - draw(st.floats(0.0, 1e-12))
    elif kind == "near_saturated":
        total = 1.0 - draw(st.floats(1e-12, 1e-9))
    else:
        total = draw(st.floats(0.01, 0.99))
    smaller = 0.0 if kind == "rank_one" else draw(st.floats(0.0, 0.5))
    # Minor = U diag(total - small, small) U*, U a rotation with a phase.
    small = max(smaller * total, min_eigenvalue)
    angle = draw(st.floats(0.0, math.pi / 2))
    phase = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    c, s = math.cos(angle), math.sin(angle)
    big = total - small
    x11 = big * c * c + small * s * s
    xkk = big * s * s + small * c * c
    x1k = (big - small) * c * s * phase.conjugate()
    rescaled, _ = maxent._rescale(*maxent._arrays(x11, x1k, xkk))
    return MeasurementRecord(n, k, *(v.item() for v in rescaled)), small == 0.0


def feasible_records(**kwargs):
    return feasible_minors(**kwargs).map(lambda minor: minor[0])


def deviation(rho, mr: MeasurementRecord) -> float:
    """How far the block of a density lies from a record's values."""
    k = mr.index_k - 1
    return max(
        abs(rho[0, 0].real - mr.x_11), abs(rho[0, k] - mr.x_1k), abs(rho[k, k].real - mr.x_kk)
    )


@settings(max_examples=800)
@given(feasible_minors())
def test_closed_form_reproduces_every_feasible_record(minor):
    mr, rank_one = minor
    ls = solve_lagrange(mr)
    assert deviation(density_from_lagrange(ls), mr) <= 1e-8
    assert ls.near_singular or not rank_one


# Interior records have 1 - x11 - xKK >= 0.01, so the N - 2 unconstrained
# eigenvalues are at least 0.01 / 14 as well.
@settings(max_examples=300)
@given(feasible_records(kinds=("interior",), min_eigenvalue=1e-6))
def test_closed_form_agrees_with_newton(mr):
    newton = newton_lagrange(mr)
    closed = solve_lagrange(mr)
    assert abs(closed.lam_11 - newton.lam_11) <= 1e-6
    assert abs(closed.lam_1k - newton.lam_1k) <= 1e-6
    assert abs(closed.lam_kk - newton.lam_kk) <= 1e-6


# Populations in and just outside [0, 1], with x11 -> 0 among them.
POPULATIONS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-0.05, 1.05),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 1.0, -1e-9, -1e-12, 1 + 1e-12, 1 + 1e-9]),
)
# Offsets from an edge: x11 + xKK from 1, |x1K| from sqrt(x11 xKK).
NUDGES = st.one_of(
    st.sampled_from([0.0, 1e-16, -1e-16, 1e-12, -1e-12, 1e-9, -1e-9]),
    st.floats(-1e-9, 1e-9),
)


@st.composite
def raw_estimates(draw) -> tuple[int, int, float, complex, float]:
    """(N, K, x11, x1K, xKK) as a noisy backend may estimate them: inside,
    on and just past the edges of the feasible set."""
    n = draw(st.sampled_from([4, 8, 16]))
    k = draw(st.integers(2, n))
    x11 = draw(POPULATIONS)
    if draw(st.booleans()):
        xkk = 1.0 - x11 + draw(NUDGES)
    else:
        xkk = draw(POPULATIONS)
    if draw(st.booleans()):
        modulus = math.sqrt(max(x11, 0.0) * max(xkk, 0.0)) * (1.0 + draw(NUDGES))
    else:
        modulus = draw(st.floats(0.0, 1.1))
    phase = draw(st.floats(0.0, 2 * math.pi))
    x1k = draw(
        st.sampled_from([
            modulus * cmath.exp(1j * phase), complex(modulus, 0.0),
            complex(-modulus, -0.0), complex(0.0, modulus),
        ])
    )
    return n, k, x11, x1k, xkk


def _bits(*values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _solve_outcome(solve):
    """A solve's multipliers and flag as bits, or its error's type and message."""
    try:
        ls = solve()
    except TomographyError as exc:
        return type(exc), str(exc)
    return _bits(ls.lam_11, ls.lam_1k.real, ls.lam_1k.imag, ls.lam_kk), ls.near_singular


@settings(max_examples=800)
@given(raw_estimates())
def test_projection_is_feasible_and_the_float_path_is_the_public_chain(estimate):
    n, k, x11, x1k, xkk = estimate
    points = maxent._arrays(x11, x1k, xkk)
    modulus = maxent._modulus(points[1])
    projected = maxent._project(*points, modulus)
    # The records check the invariants of the projected and rescaled values.
    record = MeasurementRecord(n, k, *(v.item() for v in projected))
    rescaled, _ = maxent._rescale(*projected)
    rescaled = MeasurementRecord(n, k, *(v.item() for v in rescaled))
    x11, x1k, xkk = (v.item() for v in projected)
    assert _bits(x11, x1k.real, x1k.imag, xkk) == _bits(
        record.x_11, record.x_1k.real, record.x_1k.imag, record.x_kk
    )

    chain = _solve_outcome(lambda: solve_lagrange(rescaled))
    try:
        completed, lams, near_singular, _ = maxent._complete_and_solve(n, *points, modulus)
    except TomographyError as exc:
        assert (type(exc), str(exc)) == chain
        return
    completed = [v.item() for v in completed]
    assert _bits(completed[0], completed[1].real, completed[1].imag, completed[2]) == _bits(
        x11, x1k.real, x1k.imag, xkk
    )
    lam_11, lam_1k, lam_kk = (v.item() for v in lams)
    assert (_bits(lam_11, lam_1k.real, lam_1k.imag, lam_kk), near_singular.item()) == chain
