"""The package names that the benchmark under perfbench/ wraps.

The benchmark records spans and counts replicas by replacing module
attributes by name (``tracing.SPANS``, ``tracing.LEAVES`` and
``workloads.REPLICA_CALLS``).  A refactor that drops or renames one of
them ends a benchmark run with an error, and a check that stops calling
``simulate_tilde`` through the ``tilde`` module is no longer counted.
These tests read perfbench/ and change nothing in it.
"""

import sys
from pathlib import Path

import pytest

from conftest import STANDARD_X0
from parasitelab.harness import round_initial
from parasitelab.tilde import concentration_check, mean_identity_check, moment_bound_check

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_wrapped_names_resolve_to_callables():
    hooks = [(owner, attr) for owner, attr, *_ in tracing.SPANS + tracing.LEAVES]
    hooks += list(workloads.REPLICA_CALLS)
    for owner, attr in hooks:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


@pytest.mark.parametrize("check", [moment_bound_check, mean_identity_check,
                                   concentration_check])
def test_tilde_checks_count_every_replica(check, model61, sol61_T1):
    N = 30
    xi0 = round_initial(STANDARD_X0, N)
    with workloads.counting(workloads.REPLICA_CALLS) as calls:
        check(model61, xi0, N, 1.0, sol61_T1, 3, 5)
    assert calls[0] == 3
