"""Shared fixtures: a small full device stack (DRAM + flash + FTL + NVMe).

The profiles and the stack builder live in :mod:`repro.testkit.fixtures`
so examples and the workload fuzzer share them; this module re-exports
them for the test suite (existing tests import from ``tests.conftest``).
"""

import time

import pytest

from repro.engine import register_trial_kind
from repro.testkit.fixtures import (  # noqa: F401  (re-exported fixtures)
    FRAGILE,
    GRANITE,
    SMALL_DRAM,
    SMALL_FLASH,
    build_stack,
)


@pytest.fixture
def stack():
    return build_stack()


# -- scheduler soak trial kinds ------------------------------------------
# Registered here, not in production code: the pool forks its workers, so
# they inherit these registrations.


def _trial_sleep(trial):
    """Sleep for ``seconds`` — exercises the pool's per-trial timeout."""
    seconds = float(trial.params.get("seconds", 0.01))
    time.sleep(seconds)
    return {"slept": seconds}


def _trial_flaky(trial):
    """Fail the first ``fail_times`` attempts — exercises retry/backoff.

    Attempt state lives in the file at ``path`` (one line per attempt), so
    flakiness survives worker restarts and process boundaries.
    """
    path = trial.params["path"]
    fail_times = int(trial.params.get("fail_times", 1))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            attempts_so_far = len(handle.readlines())
    except FileNotFoundError:
        attempts_so_far = 0
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("attempt %d\n" % (attempts_so_far + 1))
    if attempts_so_far < fail_times:
        raise RuntimeError(
            "flaky trial failing on purpose (attempt %d)" % (attempts_so_far + 1)
        )
    return {"attempts_seen": attempts_so_far + 1}


register_trial_kind("sleep", _trial_sleep, replace=True)
register_trial_kind("flaky", _trial_flaky, replace=True)
