"""Golden fingerprints: every case of scripts/record_golden.py must give
the bits recorded in tests/golden.json, compared exactly.

The bits depend on the numpy and scipy builds and on the SIMD kernels numpy
dispatches to, so the file records those too, and a mismatch fails naming
both sides rather than passing on a looser comparison.

The bits also depend on OpenBLAS's thread count, since OpenBLAS splits a
ddot of more than 10,000 terms (imex_s2_times_s1's edge energy has 10,272)
across threads.  conftest.py and the recording script both pin one thread.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_golden.py"
_spec = importlib.util.spec_from_file_location("record_golden", _SCRIPT)
record_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_golden)

GOLDEN = json.loads(record_golden.GOLDEN.read_text())


def test_golden_environment_and_cases_are_the_recorded_ones():
    here = record_golden.environment()
    assert here == GOLDEN["environment"], (
        f"tests/golden.json was recorded with {GOLDEN['environment']}, this is {here}")
    assert sorted(record_golden.CASES) == sorted(GOLDEN["cases"])


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_golden_case(name):
    want = GOLDEN["cases"][name]
    got = record_golden.CASES[name]()
    assert got == want, (
        f"{name} moved (recorded with {GOLDEN['environment']}, "
        f"this is {record_golden.environment()}): got {got}, want {want}")


def test_record_golden_reports_only_what_moved():
    old = {"same": {"steps": 5, "r_inf": float.hex(1.0)},
           "run": {"steps": 10, "stop": "Converged", "r_inf": float.hex(-2.0),
                   "field_sha256": "a", "trace_sha256": "b"},
           "gone": {}}
    new = {"same": {"steps": 5, "r_inf": float.hex(1.0)},
           "run": {"steps": 7, "stop": "Converged", "r_inf": float.hex(-2.0 - 3 * 2.0**-51),
                   "field_sha256": "c", "trace_sha256": "b"},
           "fresh": {}}
    assert record_golden.moves(old, new) == [
        "gone: removed",
        "run: steps -3, r_inf -3 ulps, field hash changed",
        "fresh: new case",
    ]
    assert record_golden._ordinal(0.0) == record_golden._ordinal(-0.0)
    assert record_golden._ordinal(5e-324) - record_golden._ordinal(-5e-324) == 2
