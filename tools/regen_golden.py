#!/usr/bin/env python3
"""Regenerate the golden replay reports under ``tests/golden/``.

Each registered execution system gets one canonical fixture: the merged
JSON report of a small fixed trace (one app, two tenants) replayed
through the replay engine's serial fold.  The comparator in
``tests/test_golden_reports.py`` re-runs the same scenario on every test
run and diffs byte-for-byte, so any drift in the simulator, the metrics
layer, or the report serialization is caught explicitly instead of
silently absorbed.

Run after an *intentional* behavior change::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated fixtures together with the change that caused
them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.common import system_names  # noqa: E402
from repro.loadgen.trace import InvocationTrace  # noqa: E402
from repro.metrics.report import render_json  # noqa: E402
from repro.parallel import ReplaySpec, run_parallel_replay  # noqa: E402

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


def main(argv=None) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for system_name in system_names():
        path = golden_path(system_name)
        path.write_text(golden_report(system_name))
        print(f"[wrote {path.relative_to(ROOT)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
