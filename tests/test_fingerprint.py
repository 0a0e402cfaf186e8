"""The fingerprint of the standard request grid: every request's bits and work, committed.

The grid is 7 setups x 3 solver configs x 22 (method, checkpoints) pairs,
462 requests: the ten methods at full storage and the four adjoints at 1, 4
and 16 checkpoints.  ``fingerprint.jsonl`` beside this file holds one row
per request, sorted by key, after a header naming the environment that
wrote it.  A row holds the gradient as ``float.hex``; accepted and rejected
steps, RHS and Jacobian calls and ``peak_stored_states``; every
``metadata`` entry, floats as hex; a digest of a forward method's
``sensitivity_trajectory`` bytes; or, for a request that raises, its type
and message.

Tier-1 rebuilds 98 rows, dopri5 at 1e-8 at full storage and on 4
checkpoints for every setup, the discrete adjoint on rk4 instead;
``SENSIKIT_FINGERPRINT=all`` rebuilds all of them.  Each row's work counts
and raised type are checked anywhere (``test_work``).  Its bits are numpy's,
libm's and the CPU's as much as sensikit's, so they are checked byte for
byte only in the environment the header names (``test_bits``); elsewhere
that check skips and names both environments.

Regenerating the file is a deliberate re-pin, after which ``git diff``
names the requests that moved::

    PYTHONPATH=src python tests/test_fingerprint.py
    PYTHONPATH=src python tests/test_fingerprint.py --reverse --out rows.jsonl

The second builds the grid in reverse order elsewhere; nothing carries over
between requests, so it writes the same bytes.
"""

import argparse
import hashlib
import json
import os
import platform
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import sensikit as sk
from sensikit.direct import METHODS
from shared import stripped, workloads

ROWS = Path(__file__).with_name("fingerprint.jsonl")


def _catalog(entry):
    return entry.problem, entry.loss


def _integrated():
    return sk.make_harmonic(0.2).problem, sk.IntegratedLoss(
        h=lambda u, th: 0.5 * u[0] * u[0],
        dh_du=lambda u, th: np.array([u[0], 0.0]),
        dh_dtheta=lambda u, th: np.zeros(1),
    )


SETUPS = {
    "harmonic-0.2": lambda: _catalog(sk.make_harmonic(0.2)),
    "harmonic-0.2-integrated": _integrated,
    "predprey-0.95": lambda: _catalog(sk.make_predprey(0.95)),
    "predprey-1": lambda: _catalog(sk.make_predprey(1.0)),
    "heat1d-16": lambda: _catalog(sk.make_heat1d(16)),
    "heat1d-16-stripped": lambda: (stripped(sk.make_heat1d(16).problem), sk.make_heat1d(16).loss),
    "diffusion-fit": lambda: workloads().diffusion_fit_problem(np.random.default_rng(7), 8),
}
CONFIGS = {
    "dopri5-1e-6": sk.SolverConfig(abstol=1e-6, reltol=1e-6),
    "dopri5-1e-8": sk.SolverConfig(abstol=1e-8, reltol=1e-8),
    "rk4-0.01": sk.SolverConfig(method="rk4", dt=0.01),
}
ADJOINTS = ("discrete_adjoint", "continuous_backsolve", "continuous_interpolating",
            "continuous_quadrature")
PAIRS = [(m, "full") for m in METHODS] + [(m, k) for m in ADJOINTS for k in ("1", "4", "16")]
GRID = sorted("|".join((s, c, m, k)) for s in SETUPS for c in CONFIGS for m, k in PAIRS)


def _tier1(key):
    _, config, method, storage = key.split("|")
    wanted = "rk4-0.01" if method == "discrete_adjoint" else "dopri5-1e-8"
    return config == wanted and storage in ("full", "4")


CHECKED = GRID if os.environ.get("SENSIKIT_FINGERPRINT") == "all" else list(filter(_tier1, GRID))


@cache
def _setup(name):
    return SETUPS[name]()


def _hex(x):
    """``x`` with every float as ``float.hex`` and arrays as nested lists."""
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return float(x).hex() if isinstance(x, float) else x


@cache
def row(key):
    """The fingerprint row of one request, named ``setup|config|method|checkpoints``."""
    setup, config, method, storage = key.split("|")
    problem, loss = _setup(setup)
    checkpoints = None if storage == "full" else int(storage)
    with warnings.catch_warnings():  # as pytest runs it (pyproject.toml), also from the command line
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = sk.gradient(problem, loss, method, CONFIGS[config], checkpoints=checkpoints)
        except Exception as err:  # a refusal is part of the fingerprint
            return {"raises": f"{type(err).__name__}: {err}"}
    s = res.stats
    out = {"gradient": _hex(res.gradient),
           "work": [s.accepted_steps, s.rejected_steps, s.rhs_evaluations,
                    s.jacobian_evaluations, res.peak_stored_states],
           "metadata": _hex(res.metadata)}
    if res.sensitivity_trajectory is not None:
        out["trajectory"] = hashlib.sha256(res.sensitivity_trajectory.tobytes()).hexdigest()[:16]
    return out


def environment():
    """What the bits depend on besides sensikit: Python's minor version (its
    float ``sum`` changed in 3.12), numpy, the C library behind ``math``, the
    machine and the CPU features numpy dispatches to here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    used = set(umath.__cpu_baseline__) | set(umath.__cpu_dispatch__)
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__,
            "libc": " ".join(platform.libc_ver()), "machine": platform.machine(),
            "cpu_features": sorted(f for f, on in umath.__cpu_features__.items() if on and f in used)}


def read(path=ROWS):
    """``(environment, {key: row})`` of a fingerprint file."""
    header, *lines = path.read_text().splitlines()
    rows = {}
    for line in lines:
        entry = json.loads(line)
        rows[entry.pop("request")] = entry
    return json.loads(header)["environment"], rows


def write(rows, path=ROWS):
    lines = [json.dumps({"environment": environment()})]
    lines += [json.dumps({"request": key, **rows[key]}) for key in sorted(rows)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def committed():
    return read()


@pytest.fixture(scope="module")
def pinned(committed):
    written, rows = committed
    here = environment()
    if written != here:
        pytest.skip(f"fingerprint.jsonl was written on {written}, this is {here}: "
                    "neither a byte match nor a mismatch can be told here")
    return rows


def test_the_file_holds_every_request_of_the_grid(committed):
    # a request added to or dropped from the grid is a re-pin too
    assert list(committed[1]) == GRID


def _work(entry):
    """What of a row holds in any environment: its work counts, or the type it raises."""
    return entry.get("work"), entry.get("raises", "").split(":")[0]


@pytest.mark.parametrize("key", CHECKED)
def test_work(key, committed):
    # the request, named by the test id, does its committed work or raises
    # its committed type; a count that moved elsewhere would mean a step
    # decision hangs on the last bits of the environment
    assert _work(row(key)) == _work(committed[1][key]), key


@pytest.mark.parametrize("key", CHECKED)
def test_bits(key, pinned):
    # the request reads its committed row byte for byte
    assert row(key) == pinned[key], key


def main(argv=None):
    parser = argparse.ArgumentParser(description="Build the fingerprint of the standard "
                                                 "request grid (a deliberate re-pin).")
    parser.add_argument("--out", type=Path, default=ROWS, help=f"default {ROWS.name} beside this file")
    parser.add_argument("--reverse", action="store_true",
                        help="build the requests in reverse order; the rows come out sorted")
    args = parser.parse_args(argv)
    write({key: row(key) for key in (GRID[::-1] if args.reverse else GRID)}, args.out)


if __name__ == "__main__":
    main()
