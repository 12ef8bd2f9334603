"""Tests for the Wait-Match Memory data sink."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.sink import EntryState, WaitMatchMemory
from repro.sim import Environment


def make_sink(ttl_s=10.0, proactive=True, passive=True):
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    node = cluster.workers[0]
    sink = WaitMatchMemory(
        env, node, cluster, ttl_s=ttl_s,
        proactive_release=proactive, passive_expire=passive,
    )
    return env, cluster, node, sink


KEY = ("req1", "taskA", "data0")


def test_deposit_accounts_cache_memory():
    env, cluster, node, sink = make_sink()
    assert sink.deposit(KEY, 1000.0)
    assert node.cache_usage.level == pytest.approx(1000.0)
    assert sink.is_present(KEY)
    assert sink.entry_count() == 1


def test_duplicate_deposit_rejected():
    env, cluster, node, sink = make_sink()
    assert sink.deposit(KEY, 1000.0)
    assert not sink.deposit(KEY, 1000.0)
    assert sink.duplicate_deposits == 1
    assert node.cache_usage.level == pytest.approx(1000.0)


def test_negative_deposit_rejected():
    env, cluster, node, sink = make_sink()
    with pytest.raises(ValueError):
        sink.deposit(KEY, -5.0)


def test_fetch_copies_through_membus():
    env, cluster, node, sink = make_sink()
    sink.deposit(KEY, 10e6)
    done = sink.fetch(KEY)
    env.run(until=done)
    # membus latency 0.2ms + 10 MB over 4 GB/s.
    assert env.now == pytest.approx(0.0002 + 10e6 / 4e9, rel=1e-3)


def test_fetch_missing_key_raises():
    env, cluster, node, sink = make_sink()
    done = sink.fetch(KEY)
    with pytest.raises(KeyError):
        env.run(until=done)


def test_proactive_release_frees_memory():
    env, cluster, node, sink = make_sink()
    sink.deposit(KEY, 1000.0)
    sink.release(KEY)
    assert node.cache_usage.level == pytest.approx(0.0)
    assert not sink.is_present(KEY)
    assert sink.releases == 1


def test_release_is_idempotent():
    env, cluster, node, sink = make_sink()
    sink.deposit(KEY, 1000.0)
    sink.release(KEY)
    sink.release(KEY)
    assert sink.releases == 1
    assert node.cache_usage.level == pytest.approx(0.0)


def test_non_proactive_mode_keeps_entry_until_request_cleanup():
    env, cluster, node, sink = make_sink(proactive=False, passive=False)
    sink.deposit(KEY, 1000.0)
    sink.release(KEY)
    assert sink.is_present(KEY)  # lingers like FaaSFlow's cache
    sink.release_request("req1")
    assert not sink.is_present(KEY)
    assert node.cache_usage.level == pytest.approx(0.0)


def test_passive_expire_spills_to_disk():
    env, cluster, node, sink = make_sink(ttl_s=5.0)
    sink.deposit(KEY, 1e6)
    env.run(until=6.0)
    entry = sink._lookup(KEY)
    assert entry.state is EntryState.SPILLED
    assert sink.spills == 1
    assert node.cache_usage.level == pytest.approx(0.0)
    assert node.disk.bytes_written == pytest.approx(1e6)


def test_fetch_proactively_releases_entry():
    """§7: data is freed as soon as the destination FLU has received it."""
    env, cluster, node, sink = make_sink(ttl_s=5.0)
    sink.deposit(KEY, 1e6)
    done = sink.fetch(KEY)
    env.run(until=done)
    assert not sink.is_present(KEY)
    assert node.cache_usage.level == pytest.approx(0.0)
    env.run(until=10.0)
    assert sink.spills == 0  # released data never expires


def test_fetched_entry_lingers_without_proactive_release():
    env, cluster, node, sink = make_sink(ttl_s=5.0, proactive=False)
    sink.deposit(KEY, 1e6)
    done = sink.fetch(KEY)
    env.run(until=done)
    env.run(until=10.0)
    entry = sink._lookup(KEY)
    assert entry.state is EntryState.IN_MEMORY  # fetched data stays fresh
    assert sink.spills == 0


def test_spilled_entry_fetch_reads_disk():
    env, cluster, node, sink = make_sink(ttl_s=1.0)
    sink.deposit(KEY, 1e6)
    env.run(until=2.0)
    reads_before = node.disk.bytes_read
    done = sink.fetch(KEY)
    env.run(until=done)
    assert node.disk.bytes_read == reads_before + 1e6


def test_release_after_spill_does_not_double_count():
    env, cluster, node, sink = make_sink(ttl_s=1.0)
    sink.deposit(KEY, 1e6)
    env.run(until=2.0)  # spilled: cache already freed
    sink.release(KEY)
    assert node.cache_usage.level == pytest.approx(0.0)
    assert not sink.is_present(KEY)


def test_multi_level_index_isolation():
    env, cluster, node, sink = make_sink()
    sink.deposit(("r1", "t1", "d1"), 10)
    sink.deposit(("r1", "t1", "d2"), 20)
    sink.deposit(("r1", "t2", "d1"), 30)
    sink.deposit(("r2", "t1", "d1"), 40)
    assert sink.entry_count() == 4
    sink.release_request("r1")
    assert sink.entry_count() == 1
    assert sink.is_present(("r2", "t1", "d1"))


def test_resident_bytes_tracks_memory_entries_only():
    env, cluster, node, sink = make_sink(ttl_s=1.0, proactive=False)
    sink.deposit(("r1", "t", "mem"), 100)
    sink.deposit(("r2", "t", "spill"), 200)
    # Fetch the first so it cannot expire; let the second spill.
    done = sink.fetch(("r1", "t", "mem"))
    env.run(until=done)
    env.run(until=2.0)
    assert sink.resident_bytes() == pytest.approx(100)


def test_ttl_validation():
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    with pytest.raises(ValueError):
        WaitMatchMemory(env, cluster.workers[0], cluster, ttl_s=0)
