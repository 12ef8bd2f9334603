"""Golden-report regression fixtures: catch simulator drift explicitly.

``tests/golden/`` holds one canonical merged replay report per
registered execution system, plus ``repro run --format json`` reports
for DataFlower and the control-flow baseline under open-loop,
closed-loop and trace arrivals (all generated by
``tools/regen_golden.py``).  These tests re-run the exact scenarios and
compare byte-for-byte: any change to the simulator, metrics, or report
serialization must either be reverted or acknowledged by regenerating
the fixtures in the same commit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.common import system_names
from repro.loadgen.trace import run_trace
from repro.parallel.policy import get_shard_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "regen_golden", ROOT / "tools" / "regen_golden.py"
)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)

REGEN_HINT = (
    "golden report drifted; if the behavior change is intentional, run "
    "`PYTHONPATH=src python tools/regen_golden.py` and commit the "
    "updated fixtures with the change"
)


def test_every_registered_system_has_a_fixture():
    """Adding a system without a golden fixture must fail loudly."""
    for system_name in system_names():
        path = regen_golden.golden_path(system_name)
        assert path.exists(), (
            f"no golden fixture for system {system_name!r}; run "
            f"tools/regen_golden.py"
        )


def test_no_orphaned_fixtures():
    expected = {regen_golden.golden_path(name).name for name in system_names()}
    expected.add(regen_golden.timer_path().name)
    expected |= {
        regen_golden.golden_run_path(*case).name
        for case in regen_golden.run_cases()
    }
    actual = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


@pytest.mark.parametrize("system_name", system_names())
def test_replay_report_matches_golden(system_name):
    path = regen_golden.golden_path(system_name)
    assert path.read_text() == regen_golden.golden_report(system_name), (
        f"{path.name}: {REGEN_HINT}"
    )


@pytest.mark.parametrize("system_name", system_names())
def test_golden_fixture_schema(system_name):
    """Fixtures stay valid strict JSON with the report's core schema."""
    report = json.loads(regen_golden.golden_path(system_name).read_text())
    assert report["system"] == system_name
    assert report["offered"] == len(regen_golden.golden_trace())
    assert set(report["tenants"]) == {"acme", "globex"}
    assert report["replay"]["policy"] == "tenant"
    assert report["replay"]["cells"] == 2


def test_timer_report_matches_golden():
    path = regen_golden.timer_path()
    assert path.read_text() == regen_golden.timer_report(), (
        f"{path.name}: {REGEN_HINT}"
    )


def test_timer_fixture_exercises_every_timer():
    """The timer-path scenario must keep its timers firing: sink entries
    spill at their TTL, idle containers are reaped at their keep-alive,
    and requests time out.  A fixture where none fire pins nothing."""
    spec = regen_golden.timer_spec()
    spills = recycles = timeouts = 0
    for key, cell_trace in get_shard_policy("tenant").split(
        regen_golden.timer_trace()
    ):
        resolved = spec.resolve(key, cell_trace)
        setup = spec.build_setup(cell_trace, key, resolved=resolved)
        result = run_trace(
            setup.system, cell_trace, default_app=spec.default_app,
            timeout_s=resolved.timeout_s,
        )
        spills += sum(
            engine.sink.spills for engine in setup.system.engines.values()
        )
        recycles += sum(
            pool.recycle_count
            for node in setup.system.cluster.workers
            for pool in node.pools
        )
        timeouts += sum(r.error == "timeout" for r in result.records)
    assert spills > 0
    assert recycles > 0
    assert timeouts > 0
    report = json.loads(regen_golden.timer_path().read_text())
    assert report["system"] == "dataflower"
    assert report["offered"] == len(regen_golden.timer_trace())
    assert 0 < report["completed"] < report["offered"]


RUN_CASES = pytest.mark.parametrize(
    "case",
    regen_golden.run_cases(),
    ids=lambda case: regen_golden.golden_run_path(*case).stem,
)


@RUN_CASES
def test_run_report_matches_golden(case):
    path = regen_golden.golden_run_path(*case)
    assert path.read_text() == regen_golden.golden_run_report(*case), (
        f"{path.name}: {REGEN_HINT}"
    )


@RUN_CASES
def test_run_fixture_schema(case):
    system_name, app, arrivals = case
    report = json.loads(regen_golden.golden_run_path(*case).read_text())
    assert report["system"] == system_name
    assert report["app"] == app
    assert report["arrivals"] == arrivals
    assert report["completed"] == report["offered"] > 0
    assert report["latency"]["count"] == report["completed"]
    # Only trace arrivals carry the tenant/workflow breakdowns.
    assert ("tenants" in report) == arrivals.startswith("trace:")
