"""Unit tests for tenant profiles (`repro.parallel.profiles` + spec resolution)."""

import pytest

from repro.loadgen.trace import InvocationTrace
from repro.parallel import (
    ReplaySpec,
    TenantConfig,
    TenantProfile,
    TenantProfileError,
    run_parallel_replay,
)
from repro.parallel.profiles import parse_yaml_lite

TWO_TENANT_CSV = """at_s,tenant,app,input_bytes,fanout,seed
0.0,acme,wc,1MB,2,0
0.5,globex,wc,1MB,2,1
1.5,acme,wc,,,2
2.0,globex,wc,,,3
"""


@pytest.fixture()
def trace():
    return InvocationTrace.from_csv(TWO_TENANT_CSV, name="two")


# -- parsing ------------------------------------------------------------------


def test_profile_from_payload_parses_sizes_and_numbers():
    profile = TenantProfile.from_payload(
        "acme",
        {
            "system": "faasflow",
            "placement": "hashed",
            "timeout_s": 30,
            "input_bytes": "2MB",
            "fanout": "4",
            "system_overrides": {"cold_start_s": 0.2},
            "cluster": {"worker_count": 4},
        },
    )
    assert profile.system == "faasflow"
    assert profile.timeout_s == 30.0
    assert profile.input_bytes == 2 * 1024 * 1024
    assert profile.fanout == 4
    assert profile.cluster_overrides == {"worker_count": 4}
    assert not profile.is_empty()
    assert TenantProfile().is_empty()


@pytest.mark.parametrize("payload, fragment", [
    ({"sistem": "dataflower"}, "unknown profile keys"),
    ({"timeout_s": -1}, "timeout_s"),
    ({"fanout": 0}, "fanout"),
    ({"input_bytes": "-3MB"}, "input_bytes"),
    ({"system_overrides": [1]}, "mapping"),
    ("not-a-dict", "mapping"),
])
def test_bad_profile_payloads_name_the_tenant(payload, fragment):
    with pytest.raises(TenantProfileError) as excinfo:
        TenantProfile.from_payload("acme", payload)
    assert "'acme'" in str(excinfo.value)
    assert fragment in str(excinfo.value)


def test_tenant_config_schema_rejects_unknown_top_level():
    with pytest.raises(TenantProfileError):
        TenantConfig.from_payload({"defaults": {}})
    with pytest.raises(TenantProfileError):
        TenantConfig.from_payload({"tenants": ["acme"]})
    with pytest.raises(TenantProfileError):
        TenantConfig.from_payload([])


def test_tenant_config_load_json_and_yaml(tmp_path):
    (tmp_path / "cfg.json").write_text(
        '{"default": {"system": "dataflower"}, '
        '"tenants": {"acme": {"system": "faasflow"}}}'
    )
    (tmp_path / "cfg.yaml").write_text(
        "default:\n"
        "  system: dataflower\n"
        "tenants:\n"
        "  acme:\n"
        "    system: faasflow\n"
    )
    from_json = TenantConfig.load(tmp_path / "cfg.json")
    from_yaml = TenantConfig.load(tmp_path / "cfg.yaml")
    assert from_json == from_yaml
    assert from_json.tenants["acme"].system == "faasflow"


def test_tenant_config_load_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{nope")
    with pytest.raises(TenantProfileError):
        TenantConfig.load(path)


def test_tenant_config_to_payload_round_trips():
    """The wire form the serve control plane ships to remote workers
    must rebuild the identical config through from_payload."""
    config = TenantConfig.from_payload({
        "default": {"system": "dataflower", "fanout": 3},
        "tenants": {
            "acme": {
                "system": "faasflow",
                "placement": "hashed",
                "timeout_s": 30,
                "input_bytes": "2MB",
                "system_overrides": {"cold_start_s": 0.2},
                "cluster": {"worker_count": 4},
                "max_concurrent_runs": 2,
            },
            "globex": {},
        },
    })
    assert TenantConfig.from_payload(config.to_payload()) == config
    # The payload is pure JSON scalars/containers (it crosses the wire).
    import json

    json.loads(json.dumps(config.to_payload()))
    # Empty layers serialize to the empty schema and still round-trip.
    assert TenantConfig().to_payload() == {}
    assert TenantConfig.from_payload(TenantConfig().to_payload()) \
        == TenantConfig()


# -- YAML-lite ----------------------------------------------------------------


def test_yaml_lite_scalars_comments_and_nesting():
    payload = parse_yaml_lite(
        "# top comment\n"
        "default:\n"
        "  system: dataflower\n"
        "  timeout_s: 30.5\n"
        "tenants:\n"
        "  acme:\n"
        "    system: 'faasflow'\n"
        "    fanout: 4\n"
        "    cluster:\n"
        "      worker_count: 2\n"
        "\n"
        "  globex:\n"
        "    placement: hashed  # inline comment\n"
    )
    assert payload == {
        "default": {"system": "dataflower", "timeout_s": 30.5},
        "tenants": {
            "acme": {
                "system": "faasflow",
                "fanout": 4,
                "cluster": {"worker_count": 2},
            },
            "globex": {"placement": "hashed"},
        },
    }


@pytest.mark.parametrize("text", [
    "- item\n",
    "just words\n",
    "a: 1\n   b: 2\n",          # indentation under a scalar
    "a:\n  b: 1\n    c: 2\n",   # deeper without a pending key
    "a:\n\tb: 1\n",             # tab indentation
])
def test_yaml_lite_rejects_out_of_subset(text):
    with pytest.raises(TenantProfileError):
        parse_yaml_lite(text)


def test_yaml_lite_quoted_hash_is_not_a_comment():
    payload = parse_yaml_lite(
        "a: \"foo#bar\"\n"
        "b: 'x # y'  # real comment\n"
    )
    assert payload == {"a": "foo#bar", "b": "x # y"}


def test_yaml_lite_empty_block_becomes_none():
    assert parse_yaml_lite("a:\nb: 1\n") == {"a": None, "b": 1}
    assert parse_yaml_lite("a:\n") == {"a": None}


# -- validation ---------------------------------------------------------------


def test_validate_flags_unknown_system_by_tenant_name():
    config = TenantConfig(tenants={"acme": TenantProfile(system="fooflow")})
    with pytest.raises(TenantProfileError) as excinfo:
        config.validate("dataflower", "round_robin")
    assert "tenant 'acme'" in str(excinfo.value)
    assert "unknown system" in str(excinfo.value)


def test_validate_flags_unknown_placement_by_tenant_name():
    config = TenantConfig(tenants={"acme": TenantProfile(placement="warp")})
    with pytest.raises(TenantProfileError) as excinfo:
        config.validate("dataflower", "round_robin")
    assert "tenant 'acme'" in str(excinfo.value)
    assert "placement" in str(excinfo.value)


def test_validate_flags_bad_system_overrides_for_resolved_system():
    config = TenantConfig(
        tenants={
            "acme": TenantProfile(
                system="faasflow", system_overrides={"no_such_knob": 1}
            )
        }
    )
    with pytest.raises(TenantProfileError) as excinfo:
        config.validate("dataflower", "round_robin")
    assert "no_such_knob" in str(excinfo.value)
    assert "'faasflow'" in str(excinfo.value)


def test_validate_flags_badly_typed_system_override_values():
    """A string where a float belongs must fail at validation time, not
    mid-replay inside a worker process."""
    config = TenantConfig(
        tenants={
            "acme": TenantProfile(system_overrides={"cold_start_s": "fast"})
        }
    )
    with pytest.raises(TenantProfileError) as excinfo:
        config.validate("dataflower", "round_robin")
    assert "tenant 'acme'" in str(excinfo.value)
    assert "cold_start_s" in str(excinfo.value)
    # Ints are fine where floats belong; bools are not.
    TenantConfig(
        tenants={"acme": TenantProfile(system_overrides={"cold_start_s": 1})}
    ).validate("dataflower", "round_robin")
    with pytest.raises(TenantProfileError):
        TenantConfig(
            tenants={
                "acme": TenantProfile(system_overrides={"cold_start_s": True})
            }
        ).validate("dataflower", "round_robin")
    # Optional[int] fields accept None and ints.
    TenantConfig(
        tenants={
            "acme": TenantProfile(
                system_overrides={"container_memory_mb": 512}
            )
        }
    ).validate("dataflower", "round_robin")
    with pytest.raises(TenantProfileError):
        TenantConfig(
            tenants={
                "acme": TenantProfile(
                    system_overrides={"container_memory_mb": "big"}
                )
            }
        ).validate("dataflower", "round_robin")


def test_validate_flags_bad_cluster_overrides():
    config = TenantConfig(
        tenants={"acme": TenantProfile(cluster_overrides={"worker_count": 0})}
    )
    with pytest.raises(TenantProfileError):
        config.validate("dataflower", "round_robin")
    config = TenantConfig(
        tenants={"acme": TenantProfile(cluster_overrides={"nodes": 3})}
    )
    with pytest.raises(TenantProfileError) as excinfo:
        config.validate("dataflower", "round_robin")
    assert "cluster" in str(excinfo.value)


def test_validate_accepts_good_config():
    config = TenantConfig(
        default=TenantProfile(system="dataflower"),
        tenants={
            "acme": TenantProfile(
                system="faasflow",
                placement="offset:1",
                system_overrides={"cold_start_s": 0.2},
                cluster_overrides={"worker_count": 4},
            )
        },
    )
    config.validate("dataflower", "round_robin")  # does not raise


# -- resolution ---------------------------------------------------------------


def test_resolution_precedence_tenant_over_default_over_base():
    spec = ReplaySpec(
        system_name="dataflower",
        timeout_s=60.0,
        default_profile=TenantProfile(system="sonic", timeout_s=40.0),
        tenant_profiles={"acme": TenantProfile(timeout_s=20.0)},
    )
    acme = spec.resolve("acme")
    assert acme.system == "sonic"        # inherited from the default layer
    assert acme.timeout_s == 20.0        # tenant layer wins
    assert acme.source == "tenant"
    other = spec.resolve("unlisted")
    assert other.system == "sonic"
    assert other.timeout_s == 40.0
    assert other.source == "default"
    assert ReplaySpec().resolve("x").source == "base"


def test_switching_systems_drops_stale_overrides():
    spec = ReplaySpec(
        system_name="dataflower",
        system_overrides={"pressure_threshold": 5},
        tenant_profiles={
            "acme": TenantProfile(
                system="faasflow", system_overrides={"cold_start_s": 0.1}
            ),
            "globex": TenantProfile(system_overrides={"cold_start_s": 0.1}),
        },
    )
    acme = spec.resolve("acme")
    assert acme.system_overrides == {"cold_start_s": 0.1}
    globex = spec.resolve("globex")  # same system: base overrides survive
    assert globex.system_overrides == {
        "pressure_threshold": 5, "cold_start_s": 0.1,
    }


def test_cluster_overrides_produce_distinct_cluster_config():
    spec = ReplaySpec(
        tenant_profiles={
            "acme": TenantProfile(cluster_overrides={"worker_count": 5})
        }
    )
    assert spec.resolve("acme").cluster_config.worker_count == 5
    assert spec.resolve("other").cluster_config.worker_count == 3


def test_mixed_tenant_cell_falls_back_to_default(trace):
    """A cell holding several tenants (timeslice sharding) cannot take a
    per-tenant profile; it resolves through the default layer."""
    spec = ReplaySpec(
        default_app="wc",
        default_profile=TenantProfile(timeout_s=25.0),
        tenant_profiles={"acme": TenantProfile(system="faasflow")},
    )
    resolved = spec.resolve("slice000000", trace)  # trace has two tenants
    assert resolved.system == "dataflower"
    assert resolved.timeout_s == 25.0
    assert resolved.source == "default"
    # A single-tenant sub-trace resolves by its tenant, whatever the key.
    acme_only = InvocationTrace(
        events=[e for e in trace.events if e.tenant == "acme"], name="acme"
    )
    assert spec.resolve("slice000000", acme_only).system == "faasflow"


def test_with_tenant_config_round_trip():
    config = TenantConfig(
        default=TenantProfile(timeout_s=30.0),
        tenants={"acme": TenantProfile(system="sonic")},
    )
    spec = ReplaySpec(default_app="wc").with_tenant_config(config)
    assert spec.has_profiles
    assert spec.resolve("acme").system == "sonic"
    assert spec.resolve("x").timeout_s == 30.0
    empty = ReplaySpec().with_tenant_config(TenantConfig())
    assert not empty.has_profiles


# -- seeds --------------------------------------------------------------------


def test_homogeneous_cell_seed_matches_legacy_derivation():
    """Specs without profiles keep the pre-profile seed values, so golden
    reports and existing replays are unchanged."""
    from repro.parallel.policy import stable_hash

    spec = ReplaySpec(seed=3)
    assert spec.cell_seed("a") == stable_hash("replay-seed:3:a")


def test_profile_that_changes_system_changes_cell_seed():
    base = ReplaySpec(seed=3)
    hetero = ReplaySpec(
        seed=3, tenant_profiles={"a": TenantProfile(system="faasflow")}
    )
    assert hetero.cell_seed("a") != base.cell_seed("a")
    assert hetero.cell_seed("b") == base.cell_seed("b")
    # A profile that changes no system/placement keeps the seed stable.
    timeout_only = ReplaySpec(
        seed=3, tenant_profiles={"a": TenantProfile(timeout_s=10.0)}
    )
    assert timeout_only.cell_seed("a") == base.cell_seed("a")


# -- end-to-end ---------------------------------------------------------------


def test_heterogeneous_replay_tags_tenants_and_stays_invariant(trace):
    """ISSUE acceptance: two tenants on different systems + placements,
    merged report bit-identical at workers 1/2/4."""
    spec = ReplaySpec(
        default_app="wc",
        seed=7,
        tenant_profiles={
            "acme": TenantProfile(system="faasflow", placement="hashed"),
            "globex": TenantProfile(system="sonic", placement="offset:1"),
        },
    )
    reports = [
        run_parallel_replay(trace, spec, workers=workers).to_dict()
        for workers in (1, 2, 4)
    ]
    assert all(report == reports[0] for report in reports[1:])
    report = reports[0]
    assert report["tenants"]["acme"]["profile"]["system"] == "faasflow"
    assert report["tenants"]["acme"]["profile"]["placement"] == "hashed"
    assert report["tenants"]["globex"]["profile"]["system"] == "sonic"
    assert report["replay"]["profiles"]["acme"]["source"] == "tenant"
    # The headline system field names what actually ran.
    assert report["system"] == "faasflow+sonic"


def test_engine_rejects_profiles_under_non_tenant_policy(trace):
    """The guard lives in the engine, not just the CLI: under another
    partition the same tenant could replay under different profiles
    depending on which cells it shares, and the merged tags would lie."""
    spec = ReplaySpec(
        default_app="wc",
        tenant_profiles={"acme": TenantProfile(system="faasflow")},
    )
    with pytest.raises(ValueError, match="tenant.*shard policy"):
        run_parallel_replay(trace, spec, policy="timeslice:1")
    # Without profiles, any policy remains fine.
    run_parallel_replay(
        trace, ReplaySpec(default_app="wc"), policy="timeslice:1"
    )


def test_homogeneous_replay_reports_carry_no_profile_noise(trace):
    report = run_parallel_replay(
        trace, ReplaySpec(default_app="wc"), workers=1
    ).to_dict()
    assert "profiles" not in report["replay"]
    assert "profile" not in report["tenants"]["acme"]


def test_profiles_change_results_only_for_their_tenant(trace):
    base = run_parallel_replay(
        trace, ReplaySpec(default_app="wc", seed=7), workers=1
    ).to_dict()
    hetero = run_parallel_replay(
        trace,
        ReplaySpec(
            default_app="wc",
            seed=7,
            tenant_profiles={"acme": TenantProfile(system="faasflow")},
        ),
        workers=1,
    ).to_dict()
    # globex's world is untouched by acme's profile.
    assert (
        hetero["tenants"]["globex"]["latency"]
        == base["tenants"]["globex"]["latency"]
    )
    # acme replays on a different system and sees different latencies.
    assert (
        hetero["tenants"]["acme"]["latency"]
        != base["tenants"]["acme"]["latency"]
    )
