"""Tests for pipe connectors, the DLU daemon, and checkpointed retries."""

import pytest

from repro.cluster import Cluster, ClusterConfig, ContainerPool, ContainerSpec
from repro.core.config import DataFlowerConfig
from repro.core.dlu import DLU
from repro.core.pipes import PipeRouter
from repro.sim import Environment


def make_env(**config_overrides):
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    config = DataFlowerConfig(**config_overrides)
    router = PipeRouter(env, cluster, config)
    pool = ContainerPool(
        env, cluster.workers[0], "f", ContainerSpec(memory_mb=512),
        cold_start_s=0.0, env_setup_s=0.0,
    )
    container = env.run(until=pool.start_new())
    return env, cluster, router, container


def pushed(env, router, *args, **kwargs):
    """``router.push`` as an event: it fires with the outcome, or fails
    with the error that abandoned the push."""
    result = env.event()

    def then(outcome, error):
        if error is None:
            result.succeed(outcome)
        else:
            result.fail(error)

    router.push(*args, then=then, **kwargs)
    return result


def run_push(env, router, container, src, dst, nbytes, compute_delay=0.0):
    compute_done = env.event()
    outcome = {}

    def compute(env):
        if compute_delay:
            yield env.timeout(compute_delay)
        compute_done.succeed()

    def pusher(env):
        result = yield pushed(
            env, router, container, src, dst, nbytes, compute_done, label="t"
        )
        outcome["result"] = result
        outcome["at"] = env.now

    env.process(compute(env))
    proc = env.process(pusher(env))
    env.run(until=proc)
    return outcome


def test_small_data_uses_socket():
    env, cluster, router, container = make_env()
    out = run_push(env, router, container, cluster.workers[0], cluster.workers[1], 8_000)
    assert out["result"].transport == "socket"
    assert router.socket_pushes == 1
    assert out["at"] == pytest.approx(0.0008)


def test_local_pipe_for_same_node():
    env, cluster, router, container = make_env()
    node = cluster.workers[0]
    out = run_push(env, router, container, node, node, 1e6)
    assert out["result"].transport == "local-pipe"
    assert router.local_pushes == 1


def test_cross_node_stream_respects_container_cap():
    env, cluster, router, container = make_env()
    nbytes = 10e6
    out = run_push(env, router, container, cluster.workers[0], cluster.workers[1], nbytes)
    assert out["result"].transport == "stream-pipe"
    # 512 MB container -> 20 MB/s cap.
    assert out["at"] == pytest.approx(nbytes / container.spec.net_bytes_per_s, rel=1e-3)


def test_push_completion_gated_on_compute():
    env, cluster, router, container = make_env()
    out = run_push(
        env, router, container, cluster.workers[0], cluster.workers[1],
        1e6, compute_delay=5.0,
    )
    # Transfer takes ~0.05 s but the datum is complete only at compute end.
    assert out["at"] == pytest.approx(5.0)


def test_checkpoint_restart_resumes_not_restarts():
    env, cluster, router, container = make_env(
        checkpoint_fraction=0.25, retry_delay_s=0.0
    )
    nbytes = 20e6  # 1s at 20 MB/s
    compute_done = env.event()
    compute_done.succeed()
    done = {}

    def pusher(env):
        result = yield pushed(
            env, router, container, cluster.workers[0], cluster.workers[1],
            nbytes, compute_done, label="ckpt",
        )
        done["at"] = env.now
        done["restarts"] = result.checkpoint_restarts

    def interrupter(env):
        yield env.timeout(0.6)  # 60% transferred; checkpoint floor = 50%
        router.cancel_container_flows(container, "injected")

    env.process(pusher(env))
    env.process(interrupter(env))
    env.run()
    assert done["restarts"] == 1
    # Remaining 50% takes 0.5 s from t=0.6 -> total 1.1 s (not 1.6).
    assert done["at"] == pytest.approx(1.1, rel=1e-2)


def test_cancelled_push_with_token_raises_to_caller():
    from repro.cluster.network import FlowCancelled

    env, cluster, router, container = make_env()
    compute_done = env.event()
    compute_done.succeed()
    token = [False]
    failures = []

    def pusher(env):
        try:
            yield pushed(
                env, router, container, cluster.workers[0], cluster.workers[1],
                20e6, compute_done, label="dead", cancel_token=token,
            )
        except FlowCancelled:
            failures.append(env.now)

    def killer(env):
        yield env.timeout(0.3)
        token[0] = True
        router.cancel_container_flows(container, "crash")

    env.process(pusher(env))
    env.process(killer(env))
    env.run()
    assert failures == [0.3]


def test_dlu_pending_counts_and_callbacks():
    env, cluster, router, container = make_env()
    dlu = DLU(env, container, router)
    assert container.dlu is dlu
    compute_done = env.event()
    compute_done.succeed()
    delivered = []

    dlu.push(
        cluster.workers[0], cluster.workers[1], 1e6, compute_done,
        label="d", cancel_token=[False],
        on_delivered=lambda: delivered.append(env.now),
    )
    assert dlu.pending == 1
    assert not dlu.idle
    env.run()
    assert delivered and dlu.pending == 0
    assert dlu.idle
    assert dlu.pushed_bytes == pytest.approx(1e6)


def test_dlu_abandoned_callback_on_crash():
    env, cluster, router, container = make_env()
    dlu = DLU(env, container, router)
    compute_done = env.event()
    compute_done.succeed()
    token = [False]
    outcomes = []

    dlu.push(
        cluster.workers[0], cluster.workers[1], 20e6, compute_done,
        label="d", cancel_token=token,
        on_delivered=lambda: outcomes.append("delivered"),
        on_abandoned=lambda: outcomes.append("abandoned"),
    )

    def killer(env):
        yield env.timeout(0.2)
        token[0] = True
        router.cancel_container_flows(container)

    env.process(killer(env))
    env.run()
    assert outcomes == ["abandoned"]
    assert dlu.pending == 0


def test_zero_byte_push_is_socket_and_instant():
    env, cluster, router, container = make_env()
    out = run_push(env, router, container, cluster.workers[0], cluster.workers[1], 0.0)
    assert out["result"].transport == "socket"


def test_config_validation():
    with pytest.raises(ValueError):
        DataFlowerConfig(checkpoint_fraction=0.0).validate()
    with pytest.raises(ValueError):
        DataFlowerConfig(pressure_alpha=0).validate()
    with pytest.raises(ValueError):
        DataFlowerConfig(sink_ttl_s=0).validate()
    with pytest.raises(ValueError):
        DataFlowerConfig(max_retries=-1).validate()
    DataFlowerConfig().validate()
