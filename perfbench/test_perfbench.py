"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from ledger import Ledger  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def tiny(name, trace=False, seed=3):
    run = measure.traced if trace else measure.measure
    return run(name, seed, 0.2, W.TINY)


def test_benchmark_json_matches_the_code():
    assert NAMES == list(W.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(measure.LAYER_UNITS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    result, report = tiny(name, trace)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["misses"] == [] and report["fingerprint_repeats"]


WRONG = {
    "explicit_n128": ("THM2_R", W.THM2_R + 1e-3),
    "multistart_n128": ("Y_BOUND_TOL", -1.0),
    "imex_2d": ("NEWTON_R_TOL", -1.0),
    "grid_1m": ("GRID_DRIFT_TOL", -1.0),
}


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_is_a_failed_operation(name, monkeypatch):
    constant, value = WRONG[name]
    monkeypatch.setattr(W, constant, value)
    result, report = tiny(name)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert report["misses"]


def test_a_raising_call_is_a_failed_operation():
    L = Ledger()
    assert L.call("x", "boom", lambda: 1 / 0, lambda r: None) is None
    assert L.attempted == 1 and L.misses[0].startswith("boom: raised ZeroDivisionError")


def test_multistart_counts_steps_when_estimate_Y_bypasses_run_flow(monkeypatch):
    _, watched = tiny("multistart_n128")
    monkeypatch.setattr(W, "watch_run_flow", lambda L, seen: contextlib.nullcontext())
    _, replayed = tiny("multistart_n128")
    assert replayed["steps_per_pass"] == watched["steps_per_pass"] > 0
    assert replayed["fingerprint"] == watched["fingerprint"]


def start_fields(name, seed):
    env = W.WORKLOADS[name].setup(W.TINY, seed, Ledger())
    if name == "explicit_n128":
        return env["thm2_u0"]
    if name == "imex_2d":
        return [env["u0"], env["torus_u0"]]
    if name == "grid_1m":
        return [env["u0"]]
    # estimate_Y draws its own start fields from the seed
    return [W.lognormal_field(env["man"], (seed, i)) for i in range(W.TINY.y_starts)]


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_fingerprint_and_start_fields(name):
    _, first = tiny(name, seed=5)
    _, again = tiny(name, seed=5)
    assert first["fingerprint"] == again["fingerprint"]
    for a, b in zip(start_fields(name, 5), start_fields(name, 5)):
        assert np.array_equal(a, b)
    for a, b in zip(start_fields(name, 5), start_fields(name, 6)):
        assert not np.array_equal(a, b)
    if name == "multistart_n128":
        _, other = tiny(name, seed=6)
        assert other["fingerprint"]["estimate_Y"] != first["fingerprint"]["estimate_Y"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_1m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
