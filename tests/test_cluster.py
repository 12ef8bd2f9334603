"""Tests for nodes, specs, containers, pools, disks, and storage."""

import pytest

from repro.sim import Environment
from repro.cluster import (
    BUSY,
    Cluster,
    ClusterConfig,
    ContainerPool,
    ContainerSpec,
    IDLE,
    InsufficientResources,
    MB,
    RECYCLED,
    ScalingPolicy,
)


def make_cluster(**overrides):
    env = Environment()
    cluster = Cluster(env, ClusterConfig(**overrides))
    return env, cluster


def make_pool(env, node, keep_alive_s=900.0, spec=None, recycle_guard=None):
    return ContainerPool(
        env,
        node,
        function_name="f",
        spec=spec or ContainerSpec(memory_mb=128),
        cold_start_s=0.5,
        env_setup_s=0.3,
        keep_alive_s=keep_alive_s,
        recycle_guard=recycle_guard,
    )


# -- spec ---------------------------------------------------------------------


def test_spec_paper_baseline():
    spec = ContainerSpec(memory_mb=128)
    assert spec.cpu_cores == pytest.approx(0.1)
    assert spec.net_bytes_per_s == pytest.approx(40e6 / 8)


def test_spec_scales_linearly():
    small = ContainerSpec(memory_mb=128)
    large = small.scaled_to(640)
    assert large.cpu_cores == pytest.approx(0.5)
    assert large.net_bytes_per_s == pytest.approx(5 * small.net_bytes_per_s)


def test_spec_rejects_nonpositive_memory():
    with pytest.raises(ValueError):
        ContainerSpec(memory_mb=0)


def test_custom_scaling_policy():
    policy = ScalingPolicy(cores_per_base=0.2, mbps_per_base=80.0)
    spec = ContainerSpec(memory_mb=128, scaling=policy)
    assert spec.cpu_cores == pytest.approx(0.2)
    assert spec.net_bytes_per_s == pytest.approx(80e6 / 8)


# -- node ledger ----------------------------------------------------------------


def test_node_reserve_release_roundtrip():
    env, cluster = make_cluster()
    node = cluster.workers[0]
    node.reserve(2.0, 1024 * MB)
    assert node.cores_used == pytest.approx(2.0)
    node.release(2.0, 1024 * MB)
    assert node.cores_used == pytest.approx(0.0)
    assert node.memory_used == pytest.approx(0.0)


def test_node_over_reservation_raises():
    env, cluster = make_cluster(worker_cores=1.0)
    node = cluster.workers[0]
    with pytest.raises(InsufficientResources):
        node.reserve(2.0, MB)


def test_node_memory_integral_tracks_reservation():
    env, cluster = make_cluster()
    node = cluster.workers[0]

    def scenario(env):
        node.reserve(1.0, 512 * MB)
        yield env.timeout(10.0)
        node.release(1.0, 512 * MB)
        yield env.timeout(10.0)

    env.process(scenario(env))
    env.run()
    assert node.memory_usage.integral() == pytest.approx(512 * MB * 10.0)


# -- containers and pools ---------------------------------------------------------


def test_cold_start_takes_boot_plus_setup():
    env, cluster = make_cluster()
    pool = make_pool(env, cluster.workers[0])
    ready = pool.start_new()
    container = env.run(until=ready)
    assert env.now == pytest.approx(0.8)
    assert container.state == IDLE
    assert pool.cold_starts == 1


def test_checkout_checkin_cycle():
    env, cluster = make_cluster()
    pool = make_pool(env, cluster.workers[0])
    container = env.run(until=pool.start_new())
    pool.checkout(container)
    assert container.state == BUSY
    pool.checkin(container)
    assert container.state == IDLE
    assert container.invocations_served == 1


def test_checkout_busy_container_rejected():
    env, cluster = make_cluster()
    pool = make_pool(env, cluster.workers[0])
    container = env.run(until=pool.start_new())
    pool.checkout(container)
    with pytest.raises(RuntimeError):
        pool.checkout(container)


def test_keep_alive_recycles_idle_container():
    env, cluster = make_cluster()
    node = cluster.workers[0]
    pool = make_pool(env, node, keep_alive_s=100.0)
    container = env.run(until=pool.start_new())
    env.run(until=env.now + 150.0)
    assert container.state == RECYCLED
    assert pool.size == 0
    assert node.cores_used == pytest.approx(0.0)


def test_keep_alive_resets_on_use():
    env, cluster = make_cluster()
    pool = make_pool(env, cluster.workers[0], keep_alive_s=100.0)
    container = env.run(until=pool.start_new())

    def use(env):
        yield env.timeout(90.0)
        pool.checkout(container)
        yield env.timeout(50.0)
        pool.checkin(container)

    env.process(use(env))
    env.run(until=200.0)
    assert container.state == IDLE  # idle clock restarted at t=140
    env.run(until=300.0)
    assert container.state == RECYCLED


def test_recycle_guard_defers_recycling():
    env, cluster = make_cluster()
    holds = {"pending": True}
    pool = make_pool(
        env,
        cluster.workers[0],
        keep_alive_s=10.0,
        recycle_guard=lambda c: not holds["pending"],
    )
    container = env.run(until=pool.start_new())
    env.run(until=15.0)
    assert container.state == IDLE  # guard refused the recycle

    holds["pending"] = False
    env.run(until=30.0)
    assert container.state == RECYCLED


def test_compute_scales_with_cpu_share():
    env, cluster = make_cluster()
    pool = make_pool(env, cluster.workers[0], spec=ContainerSpec(memory_mb=256))
    container = env.run(until=pool.start_new())
    start = env.now

    def work(env):
        yield container.compute(1.0)

    env.run(until=env.process(work(env)))
    # 256 MB -> 0.2 cores; 1 core-second takes 5 wall seconds.
    assert env.now - start == pytest.approx(5.0)
    assert container.intervals.labelled("cpu")


def test_pool_admission_limit():
    env, cluster = make_cluster(worker_memory_gb=0.25)  # fits two 128MB containers
    pool = make_pool(env, cluster.workers[0])
    env.run(until=pool.start_new())
    env.run(until=pool.start_new())
    assert not pool.can_start_new()
    with pytest.raises(InsufficientResources):
        pool.start_new()


# -- disk and storage ----------------------------------------------------------------


def test_disk_write_takes_latency_plus_bandwidth():
    env, cluster = make_cluster(
        disk_write_bps=100e6, disk_op_latency_s=0.01
    )
    disk = cluster.workers[0].disk
    done = disk.write(100e6)
    env.run(until=done)
    assert env.now == pytest.approx(1.01)
    assert disk.bytes_written == 100e6


def test_backend_store_put_get_roundtrip():
    env, cluster = make_cluster(
        storage_service_bps=10e6, storage_op_latency_s=0.0
    )
    store = cluster.storage
    node = cluster.workers[0]
    key = ("req1", "funA", "out")
    env.run(until=store.put(key, 10e6, via=[node.egress]))
    assert env.now == pytest.approx(1.0)
    env.run(until=store.get(key, via=[node.ingress]))
    assert env.now == pytest.approx(2.0)
    assert store.put_count == 1 and store.get_count == 1


def test_backend_store_get_missing_key():
    env, cluster = make_cluster()
    with pytest.raises(KeyError):
        cluster.storage.get(("nope",), via=[])


def test_backend_store_contention_slows_ops():
    env, cluster = make_cluster(
        storage_service_bps=10e6, storage_op_latency_s=0.0
    )
    store = cluster.storage
    node = cluster.workers[0]
    a = store.put(("a",), 10e6, via=[node.egress])
    b = store.put(("b",), 10e6, via=[node.egress])
    env.run(until=env.all_of([a, b]))
    # Two puts share the 10 MB/s service channel -> 2 s total.
    assert env.now == pytest.approx(2.0)


def test_memory_channel_copy():
    env, cluster = make_cluster(membus_bps=1e9, membus_latency_s=0.001)
    channel = cluster.memory_channel(cluster.workers[0])
    env.run(until=channel.copy(1e9))
    assert env.now == pytest.approx(1.001)


def test_cluster_validation():
    with pytest.raises(ValueError):
        ClusterConfig(worker_count=0).validate()
    with pytest.raises(ValueError):
        ClusterConfig(storage_service_bps=0).validate()


def test_cluster_node_lookup():
    env, cluster = make_cluster()
    assert cluster.node("worker2").name == "worker2"
    with pytest.raises(KeyError):
        cluster.node("worker99")
