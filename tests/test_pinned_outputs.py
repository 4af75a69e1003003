"""The commands' outputs, pinned byte for byte.

pinned_outputs.json holds the SHA-256 digests of the default
``isoqec sweep`` CSV (seed 0), both ``verify`` stdouts, the ``figure2``
SVG and ``sweep --help``, the platform and the numpy and SciPy versions
that made them, and the CSV's closed-form columns as text.  On that
platform every digest must match and the columns must match as text;
elsewhere the digests are not compared (the digest test skips and says
so), and the closed-form columns must agree to a few ulp, since np.tan's
SIMD loop and libm may differ across CPUs and versions.  A mismatch
names the output or the column that moved.

A change that moves an output on purpose rewrites the pins with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and states its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from isoqec.cli import main

PINS = Path(__file__).with_name("pinned_outputs.json")
# n through cond18: the CSV columns before the Monte Carlo ones
CLOSED_FORM_COLUMNS = 13
ULPS = 4


def this_platform():
    return {"system": platform.system(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help
            rc = exc.code
    assert rc == 0, (argv, rc)
    return out.getvalue().encode()


def default_csv(tmp, workers):
    path = os.path.join(tmp, f"sweep{workers}.csv")
    _stdout(["sweep", "--csv", path, "--workers", str(workers)])
    return Path(path).read_bytes()


def outputs(tmp):
    """Each pinned output's bytes, by name."""
    svg = os.path.join(tmp, "figure2.svg")
    _stdout(["figure2", "--out", svg])
    # argparse wraps help at the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        sweep_help = _stdout(["sweep", "--help"])
    return {"sweep_csv": default_csv(tmp, 1),
            "verify_appendix": _stdout(["verify", "appendix"]),
            "verify_theorems": _stdout(["verify", "theorems"]),
            "figure2_svg": Path(svg).read_bytes(),
            "sweep_help": sweep_help}


def closed_form_columns(csv_bytes):
    """The CSV's closed-form columns, one text line per CSV line."""
    return [",".join(line.split(",")[:CLOSED_FORM_COLUMNS])
            for line in csv_bytes.decode().splitlines()]


def digests(got):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in got.items()}


def _agree(a, b, exact):
    if a == b or exact or a in ("true", "false"):
        return a == b
    x, y = float(a), float(b)
    return abs(x - y) <= ULPS * np.spacing(max(abs(x), abs(y)))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    return outputs(str(tmp_path_factory.mktemp("pinned")))


def test_digests(pins, got):
    if pins["platform"] != this_platform():
        pytest.skip(f"digests not compared: pinned on {pins['platform']}, "
                    f"running on {this_platform()}")
    now = digests(got)
    moved = [name for name in pins["digests"]
             if now.get(name) != pins["digests"][name]]
    assert moved == [], f"outputs that moved: {moved}"


def test_closed_form_columns(pins, got):
    # as text on the pinned platform, to a few ulp elsewhere
    exact = pins["platform"] == this_platform()
    want = [line.split(",") for line in pins["closed_form_columns"]]
    now = [line.split(",") for line in closed_form_columns(got["sweep_csv"])]
    assert now[0] == want[0]
    assert len(now) == len(want)
    moved = [name for j, name in enumerate(want[0])
             if not all(_agree(a[j], b[j], exact)
                        for a, b in zip(now[1:], want[1:]))]
    assert moved == [], f"closed-form columns that moved: {moved}"


@pytest.mark.parametrize("workers", [2, 3])
def test_default_sweep_csv_is_the_same_at_any_worker_count(
        got, tmp_path, workers):
    assert default_csv(str(tmp_path), workers) == got["sweep_csv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = outputs(tmp)
    PINS.write_text(json.dumps({
        "platform": this_platform(),
        "digests": digests(fresh),
        "closed_form_columns": closed_form_columns(fresh["sweep_csv"]),
    }, indent=1) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
