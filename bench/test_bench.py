"""Self-test of the benchmark: tiny sizes of all four workloads, end to end.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from lattice_higgs.couplings import ModelParams  # noqa: E402

TINY = {
    "mc-r1": replace(
        workloads.McR1(), params=ModelParams(m=2, n=2, N=4, beta=1e-2, kappa=0.25),
        corner=(-1, -1), side=2, sweeps=40,
    ),
    "mc-r2": replace(workloads.McR2(), params=ModelParams(m=4, n=2, N=1, beta=1e-2, kappa=0.25)),
    "exact-r3": replace(workloads.ExactR3(), form_box=(2, 2, 1)),
    # appendix_sums needs K >= 50 and prediction() sides >= 7, so R1 itself is
    # the smallest point; --seconds 0 runs one op
    "bounds-r1": workloads.BoundsR1(),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, name, trace, configs=TINY):
    run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)], configs=configs)
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted(capsys, name):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, res = _run(capsys, name, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], float) for v in res["metrics"].values())
        assert "metric failed_ops_frac = 0.0 1" in lines
        env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
        assert env["seed"] == 3 and env["op"] and env["thread_pins"]["OMP_NUM_THREADS"] == "1"
    assert all(v["value"] > 0 for k, v in _run(capsys, name, 0)[1]["metrics"].items())


def test_wrong_reference_value_counts_as_failed_op(capsys):
    wrong = replace(workloads.BoundsR1(), golden=(1.9e-11, 7.402712443378321e-07))
    _, res = _run(capsys, "bounds-r1", 0, {"bounds-r1": wrong})
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 1, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-r1", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
