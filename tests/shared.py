"""Helpers more than one test file uses: the benchmark's workloads and stripped problems."""

import dataclasses
import importlib.util
import sys
from functools import cache
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@cache
def workloads():
    """``bench/workloads.py``, loaded read-only from its file.

    It is registered in ``sys.modules`` before it runs, as its dataclasses
    look their module up there.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stripped(problem):
    """``problem`` without its analytic Jacobians."""
    return dataclasses.replace(problem, rhs_jac_u=None, rhs_jac_theta=None)
