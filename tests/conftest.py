import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semdisc
from semdisc import Assignment, AssociationTable, capacity
from semdisc.errors import InfeasibleError, ValidationError


def random_table(rng, n_features, n_concepts, low=0.02, high=0.98):
    """Random valid association table with strictly interior values so
    every column sum is positive and noise sigmas are nonzero."""
    values = rng.uniform(low, high, size=(n_features, n_concepts))
    return AssociationTable.from_arrays(
        [f"f{i}" for i in range(n_features)],
        [f"c{j}" for j in range(n_concepts)],
        values,
    )


def brute_force_assignment(merit):
    """Reference solver: exhaustive enumeration of all injective mappings.

    Guards against factorial blowup (n <= 8, N <= 12). The first maximum
    in lexicographic feature-index order wins ties.
    """
    N, n = merit.values.shape
    if N < n:
        raise InfeasibleError(f"{N} features cannot cover {n} concepts")
    if n > 8 or N > 12:
        raise ValidationError(
            f"brute force guarded to n <= 8, N <= 12 (got n={n}, N={N})"
        )
    perms = np.array(
        list(itertools.permutations(range(N), n)), dtype=int
    )
    totals = merit.values[perms, np.arange(n)].sum(axis=1)
    rows = perms[int(np.argmax(totals))]
    return Assignment(
        concepts=merit.concepts.concepts,
        feature_ids=tuple(merit.library.ids[r] for r in rows),
        feature_indices=tuple(int(r) for r in rows),
        total_merit=float(merit.values[rows, np.arange(n)].sum()),
    )


def run_fresh(code, **env):
    """Run Python code in a new interpreter, which imports semdisc from
    this checkout and these test modules, with env added to the
    environment; fail if the code raises, else return its stdout."""
    paths = [str(Path(semdisc.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(paths)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, stdout=subprocess.PIPE, text=True
    ).stdout


def patch_usable_cpus(monkeypatch, count):
    """Give this process an affinity mask of count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_caller_reports(monkeypatch):
    """Count the scan reports computed in this process: return the list
    of pids that a wrapped capacity._scan_report appends to. Pool workers
    forked later inherit the wrapper but append to their own copy."""
    pids = []
    scan_report = capacity._scan_report

    def counted(*args):
        pids.append(os.getpid())
        return scan_report(*args)

    monkeypatch.setattr(capacity, "_scan_report", counted)
    return pids


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
