"""The library and the command line agree on every record file.

``reconstruct(load_record(text))`` and ``qmaxent reconstruct FILE`` share
one completion and saturation policy, so they end in the same outcome
class: success and exit 0, InfeasibleRecordError and exit 3, ParseError
or ValidationError and exit 2.
"""

import cmath
import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import InfeasibleRecordError, ValidationError, load_record, reconstruct
from qmaxent.cli import main

REQUIRED = ("n", "k", "x11", "re_x1k", "im_x1k")

fractions = st.floats(0.0, 1.0)
phases = st.floats(0.0, 2 * math.pi).map(lambda a: cmath.exp(1j * a))


@st.composite
def record_fields(draw) -> dict:
    """Fields of one record, from the interior to the edges of the
    feasible set."""
    n = draw(st.sampled_from([4, 8]))
    k = draw(st.integers(2, n))
    x11 = draw(st.floats(1e-6, 1.0))
    kind = draw(st.sampled_from(["interior", "incomplete", "rank_one", "saturated", "pure"]))
    if kind == "saturated":
        # a measured x_kk with x11 + xKK within 1e-12 of 1
        xkk = max(0.0, 1.0 - x11 - draw(st.floats(0.0, 1e-12)))
    elif kind == "pure":
        # amplitudes a_0, a_K of a pure state; x_kk is left to prediction,
        # and with no third amplitude the completion saturates
        xkk = draw(st.one_of(st.just(1.0), fractions)) * (1.0 - x11)
    else:
        xkk = draw(fractions) * (1.0 - x11) * 0.999
    scale = 1.0 if kind in ("rank_one", "pure") else draw(fractions)
    x1k = scale * math.sqrt(x11 * xkk) * draw(phases)
    fields = {"n": n, "k": k, "x11": x11, "re_x1k": x1k.real, "im_x1k": x1k.imag}
    if kind not in ("incomplete", "pure"):
        fields["xkk"] = xkk
    return fields


@st.composite
def record_texts(draw) -> str:
    fields = draw(record_fields())
    damage = draw(st.sampled_from(["none", "none", "non_finite", "missing_key"]))
    if damage == "non_finite":
        key = draw(st.sampled_from(sorted(set(fields) - {"n", "k"})))
        fields[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif damage == "missing_key":
        del fields[draw(st.sampled_from(REQUIRED))]
    return "".join(f"{key} {value!r}\n" for key, value in fields.items())


def library_outcome(text: str) -> int:
    try:
        reconstruct(load_record(text))
    except InfeasibleRecordError:
        return 3
    except ValidationError:  # ParseError is one
        return 2
    return 0


def cli_outcome(text: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "record.txt"
        record.write_text(text)
        args = ["--out", str(Path(tmp) / "out.txt"), "reconstruct", str(record)]
        with contextlib.redirect_stderr(io.StringIO()):
            return main(args)


# Pure-state completions can exceed 1 - x11 by a rounding error, which
# the predictor clamps with a warning.
@pytest.mark.filterwarnings("ignore:predicted population")
@settings(max_examples=300)
@given(record_texts())
def test_library_and_cli_agree_on_outcome(text):
    assert library_outcome(text) == cli_outcome(text), text
