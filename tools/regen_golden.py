#!/usr/bin/env python3
"""Regenerate the golden reports under ``tests/golden/``.

Each registered execution system gets one canonical replay fixture: the
merged JSON report of a small fixed trace (one app, two tenants)
replayed through the replay engine's serial fold.  ``repro run --format
json`` gets fixtures too, for the systems in :data:`RUN_SYSTEMS` under
each of :data:`RUN_SCENARIOS` (open loop, closed loop, trace arrivals).
One more DataFlower replay, the *timer-path* fixture, runs under
``examples/timer_paths.json``: its keep-alive, sink TTL and request
timeout are short enough that containers recycle, sink entries spill and
requests time out, so the simulator's timer paths are pinned too.
The comparator in ``tests/test_golden_reports.py`` re-runs the same
scenarios on every test run and diffs byte-for-byte, so any drift in the
simulator, the metrics layer, or the report serialization is caught
explicitly instead of silently absorbed.

Run after an *intentional* behavior change::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated fixtures together with the change that caused
them.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.experiments.common import system_names  # noqa: E402
from repro.loadgen.trace import InvocationTrace  # noqa: E402
from repro.metrics.report import render_json  # noqa: E402
from repro.parallel import ReplaySpec, run_parallel_replay  # noqa: E402
from repro.parallel.profiles import TenantConfig  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_APP = "wc"
GOLDEN_SEED = 7

#: The canonical scenario: two tenants, six requests, one app, with the
#: input-size/fanout/seed variety the report schema must round-trip.
GOLDEN_TRACE_CSV = """at_s,tenant,app,input_bytes,fanout,seed
0.0,acme,wc,1MB,2,0
0.5,globex,wc,2MB,,1
1.0,acme,wc,,4,2
1.5,globex,wc,1MB,2,3
2.5,acme,wc,2MB,,4
3.0,globex,wc,,,5
"""


def golden_trace() -> InvocationTrace:
    return InvocationTrace.from_csv(GOLDEN_TRACE_CSV, name="golden")


def golden_report(system_name: str) -> str:
    """The canonical serialized report for one system (trailing newline)."""
    spec = ReplaySpec(
        system_name=system_name, default_app=GOLDEN_APP, seed=GOLDEN_SEED
    )
    result = run_parallel_replay(golden_trace(), spec, workers=1)
    return render_json(result.to_dict()) + "\n"


def golden_path(system_name: str) -> Path:
    return GOLDEN_DIR / f"replay_{system_name}__{GOLDEN_APP}.json"


#: The tenant config that makes every timer fire: a 2 s keep-alive, a
#: 0.3 s sink TTL with proactive release off, and a 0.6 s request timeout.
TIMER_CONFIG = ROOT / "examples" / "timer_paths.json"
TIMER_TRACE = ROOT / "examples" / "traces" / "timer_paths.csv"


def timer_trace() -> InvocationTrace:
    """Four bursts of ten ``wc`` requests 0.5 s apart, starting 8 s
    apart (so containers idle past the keep-alive between bursts), the
    two tenants alternating."""
    return InvocationTrace.load(TIMER_TRACE)


def timer_spec() -> ReplaySpec:
    return ReplaySpec(
        system_name="dataflower", default_app=GOLDEN_APP, seed=GOLDEN_SEED
    ).with_tenant_config(TenantConfig.load(TIMER_CONFIG))


def timer_report() -> str:
    """The timer-path replay's serialized report (trailing newline)."""
    result = run_parallel_replay(timer_trace(), timer_spec(), workers=1)
    return render_json(result.to_dict()) + "\n"


def timer_path() -> Path:
    return GOLDEN_DIR / f"replay_dataflower__{GOLDEN_APP}__timers.json"


#: Systems whose ``repro run`` reports are pinned: DataFlower and the
#: centralized control-flow baseline it is compared against.
RUN_SYSTEMS = ("dataflower", "production")

#: ``(app, --arrivals)`` scenarios for the ``repro run`` fixtures.  The
#: trace path is relative to the repo root (it is echoed into the
#: report's ``arrivals`` field, so it must not depend on the checkout).
RUN_SCENARIOS = (
    ("wc", "constant:60:20"),
    ("wc", "closed:4:20"),
    ("ml_ensemble", "trace:examples/traces/sample_trace.json"),
)


def run_cases():
    """Every ``(system, app, arrivals)`` the run fixtures cover."""
    return [
        (system_name, app, arrivals)
        for system_name in RUN_SYSTEMS
        for app, arrivals in RUN_SCENARIOS
    ]


def golden_run_report(system_name: str, app: str, arrivals: str) -> str:
    """The ``repro run --format json`` output for one case (trailing
    newline), run from the repo root so the trace path resolves."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = cli_main([
                "run", "--system", system_name, "--app", app,
                "--arrivals", arrivals, "--format", "json",
            ])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(
            f"repro run {system_name}/{app}/{arrivals} exited {code}"
        )
    return out.getvalue()


def golden_run_path(system_name: str, app: str, arrivals: str) -> Path:
    kind = arrivals.split(":", 1)[0]
    return GOLDEN_DIR / f"run_{system_name}__{app}__{kind}.json"


def main(argv=None) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for system_name in system_names():
        path = golden_path(system_name)
        path.write_text(golden_report(system_name))
        print(f"[wrote {path.relative_to(ROOT)}]")
    path = timer_path()
    path.write_text(timer_report())
    print(f"[wrote {path.relative_to(ROOT)}]")
    for case in run_cases():
        path = golden_run_path(*case)
        path.write_text(golden_run_report(*case))
        print(f"[wrote {path.relative_to(ROOT)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
