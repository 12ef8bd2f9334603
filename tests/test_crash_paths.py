"""Container crashes at every function of every app, against a fixture.

Each scenario deploys one app on DataFlower, submits four requests at
t=0 and crashes a container of one function three ways: the busy
container at the crash time, again 10 ms later, and the first moment one
is executing.  The fixture holds, per scenario, the exception ``env.run``
raised, or the crashes, each request's end time and error, every retried
task and a SHA-256 of all request and task records (floats exact, as
JSON writes them), so any change to the crash, abort and ReDo paths
shows up record by record.

Regenerate after an intentional behaviour change::

    PYTHONPATH=src python tests/test_crash_paths.py

and list every changed entry, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DataFlowerConfig,
    DataFlowerSystem,
    Environment,
    FailureInjector,
    RequestSpec,
    round_robin,
)
from repro.apps import get_app

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "crash_paths.json"
APPS = ("wc", "img", "vid", "svd", "ml_ensemble", "etl")
CRASH_TIMES = (0.05, 0.3, 0.8, 1.5, 3.0)
REQUESTS = 4


def scenario_ids():
    return [
        f"{app}/{function}@{at}"
        for app in APPS
        for function in get_app(app).build().functions
        for at in CRASH_TIMES
    ]


def run_scenario(scenario_id: str) -> dict:
    app_name, rest = scenario_id.split("/")
    function, at = rest.split("@")
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    system = DataFlowerSystem(env, cluster, DataFlowerConfig(max_retries=3))
    app = get_app(app_name)
    workflow = app.build()
    system.deploy(workflow, round_robin(workflow, cluster.workers))
    injector = FailureInjector(system)
    injector.crash_function_container_at(workflow.name, function, float(at))
    injector.crash_function_container_at(
        workflow.name, function, float(at) + 0.01
    )
    injector.crash_when_busy(workflow.name, function)
    dones = [
        system.submit(
            workflow.name,
            RequestSpec(
                f"r{index}",
                input_bytes=app.default_input_bytes,
                fanout=app.default_fanout,
            ),
        )
        for index in range(REQUESTS)
    ]
    try:
        env.run(until=env.all_of(dones))
    except Exception as exc:  # the outcome under test, raised or not
        return {"raised": f"{type(exc).__name__}: {exc}"}
    records = [dataclasses.asdict(record) for record in system.records]
    return {
        "crashes": [list(crash) for crash in injector.log.crashes],
        "redo_count": system.redo_count,
        "requests": [
            [record["request_id"], record["end_time"], record["error"]]
            for record in records
        ],
        "retries": [
            [record["request_id"], task["task_id"], task["retries"]]
            for record in records
            for task in record["tasks"]
            if task["retries"]
        ],
        "records_sha256": hashlib.sha256(
            json.dumps(records, sort_keys=True).encode()
        ).hexdigest(),
    }


def generate() -> dict:
    return {scenario: run_scenario(scenario) for scenario in scenario_ids()}


def _expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario():
    assert sorted(_expected()) == sorted(scenario_ids())


@pytest.mark.parametrize("scenario", scenario_ids())
def test_crash_scenario_matches_fixture(scenario):
    outcome = json.loads(json.dumps(run_scenario(scenario)))
    assert outcome == _expected()[scenario]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(scenario)}: {json.dumps(outcome, sort_keys=True)}"
        for scenario, outcome in generate().items()
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
