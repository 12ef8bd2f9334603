"""Fault-tolerance tests: crashes, ReDo, exactly-once, keep-alive guard."""

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


def build(app_name="wc", **cfg):
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    system = DataFlowerSystem(env, cluster, DataFlowerConfig(**cfg))
    app = get_app(app_name)
    workflow = app.build()
    system.deploy(workflow, round_robin(workflow, cluster.workers))
    return env, cluster, system, app, workflow


def submit(system, app, workflow, rid="r1", fanout=None):
    return system.submit(
        workflow.name,
        RequestSpec(
            rid,
            input_bytes=app.default_input_bytes,
            fanout=fanout or app.default_fanout,
        ),
    )


def test_crash_mid_execution_redoes_and_completes():
    env, cluster, system, app, workflow = build("vid")
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, "vid_transcode")
    done = submit(system, app, workflow)
    record = env.run(until=done)
    assert injector.log.crashes, "injection never fired"
    assert record.completed, record.error
    assert system.redo_count >= 1
    assert any(t.retries > 0 for t in record.tasks)


def test_crash_recovers_with_exactly_once_delivery():
    env, cluster, system, app, workflow = build("wc")
    injector = FailureInjector(system)
    injector.crash_function_container_at(workflow.name, "wordcount_start", 1.0)
    done = submit(system, app, workflow)
    record = env.run(until=done)
    assert record.completed
    # No sink saw a datum twice in a way that woke a task twice: each task
    # record has exactly one execution window.
    for task in record.tasks:
        assert task.exec_end >= task.exec_start


def test_data_plane_interrupt_resumes_from_checkpoint():
    env, cluster, system, app, workflow = build("vid", retry_delay_s=0.01)
    injector = FailureInjector(system)
    injector.cancel_random_flow_at(1.5)
    done = submit(system, app, workflow)
    record = env.run(until=done)
    assert record.completed
    # Either the interrupt hit a pipe (restart logged) or nothing was
    # in flight at that instant; when it hit, recovery must be seamless.
    if injector.log.flow_cancellations:
        assert system.router.checkpoint_restarts >= 1


def test_exhausted_retries_fail_the_request():
    env, cluster, system, app, workflow = build("wc", max_retries=0)
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, "wordcount_start")
    done = submit(system, app, workflow)
    record = env.run(until=done)
    assert injector.log.crashes, "injection never fired"
    assert record.failed
    assert "retries" in (record.error or "")


def test_unrelated_requests_survive_a_crash():
    env, cluster, system, app, workflow = build("wc")
    injector = FailureInjector(system)
    events = [submit(system, app, workflow, rid=f"r{i}") for i in range(5)]
    injector.crash_function_container_at(workflow.name, "wordcount_count", 1.2)
    env.run(until=env.all_of(events))
    completed = [r for r in system.records if r.completed]
    assert len(completed) == 5  # every request finishes despite the crash


def test_keep_alive_guard_blocks_recycle_while_dlu_pending():
    env, cluster, system, app, workflow = build("wc")
    # A container with a fake pending DLU must not be recyclable.
    done = submit(system, app, workflow)
    env.run(until=done)
    deployment = system.deployment(workflow.name)
    pool = deployment.dispatcher("wordcount_start").pool
    container = pool.containers[0]
    from repro.core.dlu import DLU

    dlu = container.dlu or DLU(env, container, system.router)
    dlu.pending = 1
    assert not system.recycle_guard(container)
    dlu.pending = 0
    assert system.recycle_guard(container)


def test_no_partial_data_triggering():
    """A slow push must not trigger the consumer before data completes."""
    env, cluster, system, app, workflow = build("vid")
    done = submit(system, app, workflow)
    record = env.run(until=done)
    graph_tasks = {t.task_id: t for t in record.tasks}
    # merge cannot start executing before every transcode finished
    # computing (its data cannot be complete before that).
    merge = graph_tasks["vid_merge"]
    for tid, task in graph_tasks.items():
        if tid.startswith("vid_transcode"):
            assert merge.exec_start >= task.exec_end - 1e-9


def test_crash_of_idle_container_is_harmless():
    env, cluster, system, app, workflow = build("wc")
    done = submit(system, app, workflow)
    record = env.run(until=done)
    deployment = system.deployment(workflow.name)
    pool = deployment.dispatcher("wordcount_merge").pool
    container = pool.containers[0]
    system.crash_container(container)
    assert not container.alive
    # A fresh request still works (new container cold-starts).
    done2 = submit(system, app, workflow, rid="r2")
    record2 = env.run(until=done2)
    assert record2.completed


def test_two_crashes_in_one_instant_abort_the_flu_once():
    env, cluster, system, app, workflow = build("wc")
    crash = system.crash_container
    system.crash_container = lambda container: (crash(container),
                                                crash(container))
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, "wordcount_start")
    record = env.run(until=submit(system, app, workflow))
    assert injector.log.crashes
    assert record.completed, record.error
    assert system.redo_count == 1
    assert record.task("wordcount_start").retries == 1


def test_crashed_flu_leaves_its_inputs_for_the_redo():
    """The aborted FLU's in-flight fetch must not release the input that
    its ReDo fetches again (it used to raise KeyError out of run)."""
    env, cluster, system, app, workflow = build("etl")
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, "etl_ingest")
    record = env.run(until=submit(system, app, workflow, rid="r0"))
    assert injector.log.crashes
    assert record.completed, record.error
    assert record.task("etl_ingest").retries == 1


@pytest.mark.parametrize(
    "app_name,consumer,producer",
    [("ml_ensemble", "ens_vote", "ens_preprocess"),
     ("svd", "svd_merge", "svd_split")],
)
def test_fan_in_consumer_crash_backtracks_a_shared_producer_once(
    app_name, consumer, producer
):
    """A crashed fan-in consumer backtracks each producer branch; the
    producer they share is ReDone once, and the request completes (it
    used to hang waiting for inputs counted twice)."""
    env, cluster, system, app, workflow = build(app_name)
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, consumer)
    record = env.run(until=submit(system, app, workflow, rid="r0"))
    assert injector.log.crashes
    assert record.completed, record.error
    assert record.task(producer).retries == 1


def test_failed_fetch_raises_out_of_run(monkeypatch):
    from repro.core.sink import WaitMatchMemory

    fetch = WaitMatchMemory.fetch
    monkeypatch.setattr(
        WaitMatchMemory, "fetch",
        lambda self, key, *args: fetch(self, ("no-such",) + key[1:], *args),
    )
    env, cluster, system, app, workflow = build("wc")
    done = submit(system, app, workflow)
    with pytest.raises(KeyError, match="no entry"):
        env.run(until=done)


def _once_run(env, task_record):
    """An event that fires once ``task_record`` shows a finished run."""
    fired = env.event()

    def poll():
        if task_record.exec_end > 0:
            fired.succeed()
        else:
            env.call_later(0.001, poll)

    env.call_soon(poll)
    return fired


def test_two_redos_that_find_an_input_lost_wait_for_it_once():
    """Each ReDo that finds an input released marks it undelivered; the
    task must still wait for that input once, not once per ReDo."""
    env, cluster, system, app, workflow = build("wc")
    started = []
    execute = system._execute_request

    def capture(deployment, state, finish):
        started.append((deployment, state))
        execute(deployment, state, finish)

    system._execute_request = capture
    done = submit(system, app, workflow)
    deployment, state = started[0]
    entry = next(task for task in state.graph.tasks if task.is_entry)
    env.run(until=_once_run(env, state.task_record(entry.task_id)))
    assert not done.triggered  # the entry ran and its input was released
    system._redo_task(deployment, state, entry, ("exec", 1))
    system._redo_task(deployment, state, entry, ("bt", 1))
    assert state.plane.waiting_count(entry) == 1
    record = env.run(until=done)
    assert record.completed, record.error


def test_crashed_container_cpu_interval_ends_at_the_crash():
    """A crash closes the container's CPU busy interval at the crash
    instant; the aborted compute's finish adds nothing later."""
    env, cluster, system, app, workflow = build("vid")
    injector = FailureInjector(system)
    injector.crash_when_busy(workflow.name, "vid_transcode")
    pools = [d.pool for d in system.deployment(workflow.name).dispatchers.values()]
    recycled = []
    for pool in pools:
        recycle = pool.recycle
        pool.recycle = lambda c, recycle=recycle: (
            recycled.append(c), recycle(c)
        )
    record = env.run(until=submit(system, app, workflow))
    env.run()
    assert record.completed, record.error
    (crashed,) = [c for c in recycled if c.function_name == "vid_transcode"
                  and c.recycled_at == injector.log.crashes[0][0]]
    cpu = crashed.intervals.labelled("cpu")
    assert cpu and max(end for _, end in cpu) == crashed.recycled_at


def test_aborted_flu_stops_copying_its_inputs():
    """An FLU aborted while it loads its input from the sink cancels the
    copy: no ``sink-fetch`` flow stays on the node's memory bus."""
    env, cluster, system, app, workflow = build("wc")
    injector = FailureInjector(system)
    injector.crash_when_busy(
        workflow.name, "wordcount_start", check_interval_s=0.0005
    )
    system.submit(workflow.name, RequestSpec("r1", input_bytes=400e6, fanout=4))
    while not injector.log.crashes:
        env.step()
    crashed_at, _ = injector.log.crashes[0]
    node = system.deployment(workflow.name).node_of("wordcount_start")
    env.run(until=crashed_at + 0.001)
    assert not [f for f in node.membus.flows if f.label == "sink-fetch"]
