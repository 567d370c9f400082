"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke test runs every workload at tiny size in both modes through
run.py and requires every metric to be emitted with its unit, as a
number or marked absent. The others cover the pieces a later change to
semdisc can break without the CLI failing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def test_smoke_emits_every_metric():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert json.loads(out.stdout.splitlines()[-1]) == {"smoke_ok": True}


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    units = dict(layers.LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, units[name]) for name in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.LISTED)
    assert set(run.LISTED) <= set(run.workloads(smoke=False))


def test_inputs_depend_only_on_the_seed():
    a = inputs.association_values(3, 14)
    assert np.array_equal(a, inputs.association_values(3, 14))
    assert not np.array_equal(a, inputs.association_values(4, 14))
    assert a.min() >= inputs.LOW and a.max() <= inputs.HIGH
    sets = inputs.palette_concept_sets(3, 12, 6, 4)
    assert sets == inputs.palette_concept_sets(3, 12, 6, 4)
    assert len({tuple(s) for s in sets}) == 4


def test_missing_wrapped_name_reads_absent():
    records = [
        {
            "pid": 1,
            "spans": [["cli.main", 0.0, 1.0, -1, None]],
            "counts": {},
            "missing": ["semdisc.montecarlo._iteration_normals", "semdisc.model.AssociationTable.subset"],
        }
    ]
    metrics = layers.trace_metrics(records)
    assert metrics["montecarlo.philox_s"] is None
    assert metrics["montecarlo.iterations"] is None
    assert metrics["model.subset.calls"] is None
    assert metrics["capacity.max_capacity.calls"] == 0
    assert metrics["cli.self_s"] == 1.0


def test_import_times_partition_the_import():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |         scipy.special",
            "import time:        70 |        120 |       scipy.optimize",
            "import time:        30 |        150 |     semdisc.assignment",
            "import time:        40 |        490 |   semdisc",
            "import time:        10 |        500 | semdisc.cli",
        ]
    )
    times = layers.import_times(stderr)
    assert times == pytest.approx(
        {
            "setup.import.numpy_s": 300e-6,
            "setup.import.scipy_special_s": 50e-6,
            "setup.import.scipy_optimize_s": 70e-6,  # 120 minus scipy.special
            "setup.import.scipy_stats_s": 0.0,
            "setup.import.semdisc_s": 80e-6,  # the rest of the 500
        }
    )


def test_oracle_accepts_the_cli_and_rejects_a_changed_capacity(tmp_path):
    values = inputs.association_values(0, 5)
    csv_path = tmp_path / "table.csv"
    inputs.write_association_csv(csv_path, values)
    out = subprocess.run(
        [sys.executable, "-m", "semdisc.cli", "capacity", str(csv_path), "--all", "--k", "4", "--samples", "200"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(run.SRC)),
        check=True,
        timeout=120,
    ).stdout
    assert oracle.check_scan(out, values, 4, 200, 0, False) == []
    lines = out.splitlines()
    row = json.loads(lines[2])
    row["max_capacity"] += 0.005
    lines[2] = json.dumps(row).encode()
    errors = oracle.check_scan(b"\n".join(lines) + b"\n", values, 4, 200, 0, False)
    assert len(errors) == 1 and errors[0].startswith("row 2") and "max_capacity" in errors[0]
