"""End-to-end tests for the unified ``repro`` CLI."""

import json

import pytest

from repro.cli import CliError, main, parse_arrivals
from repro.loadgen.arrivals import RateSegment

SAMPLE_TRACE = """
{
  "events": [
    {"at_s": 0.0, "tenant": "a"},
    {"at_s": 0.5, "tenant": "b", "input_bytes": "1MB"},
    {"at_s": 1.0, "tenant": "a", "fanout": 2}
  ]
}
"""


# -- arrivals spec parsing ----------------------------------------------------


def test_parse_constant():
    kind, schedule = parse_arrivals("constant:60:30")
    assert kind == "open"
    assert schedule == [RateSegment(30.0, 60.0)]


def test_parse_burst():
    kind, schedule = parse_arrivals("burst:10:100:60:30")
    assert kind == "open"
    assert [s.rate_rpm for s in schedule] == [10.0, 100.0]


def test_parse_closed():
    assert parse_arrivals("closed:8:20") == ("closed", (8, 20.0))


def test_parse_trace(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    kind, trace = parse_arrivals(f"trace:{path}")
    assert kind == "trace"
    assert len(trace) == 3


@pytest.mark.parametrize("spec", [
    "constant:60",          # missing duration
    "burst:1:2:3",          # missing one value
    "trace:",               # no path
    "trace:/no/such/file.json",
    "warp:1:2",             # unknown kind
])
def test_bad_specs_rejected(spec):
    with pytest.raises(CliError):
        parse_arrivals(spec)


# -- subcommands --------------------------------------------------------------


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "usage: repro" in capsys.readouterr().out


def test_apps_lists_all_registered(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    for name in ("img", "vid", "svd", "wc", "ml_ensemble", "etl"):
        assert name in out


def test_systems_lists_registry(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    for name in ("dataflower", "faasflow", "sonic", "production"):
        assert name in out


def test_experiments_without_id_lists(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out and "fig19" in out


def test_run_table_report(capsys):
    code = main(["run", "--app", "wc", "--arrivals", "constant:30:10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "run report" in out
    assert "throughput_rpm" in out
    assert "latency.p99_s" in out


def test_run_json_schema(capsys):
    code = main([
        "run", "--app", "ml_ensemble", "--system", "dataflower",
        "--arrivals", "constant:30:10", "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["app"] == "ml_ensemble"
    assert report["system"] == "dataflower"
    assert report["workflow"] == "ml_ensemble"
    assert report["offered"] == 5
    assert report["completed"] == 5
    assert set(report["latency"]) == {
        "count", "mean_s", "p50_s", "p99_s", "sigma_s", "max_s",
    }
    assert report["usage"]["memory_gbs"] > 0
    assert report["usage"]["memory_gbs_per_request"] > 0


def test_run_trace_json_has_tenants(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    code = main([
        "run", "--app", "etl", "--arrivals", f"trace:{path}",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["offered"] == 3
    assert report["completed"] == 3
    assert set(report["tenants"]) == {"a", "b"}
    assert report["workflows"]["etl"]["completed"] == 3


def test_run_trace_respects_fanout_override(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"events": [{"at_s": 0.0}]}')
    code = main([
        "run", "--app", "wc", "--arrivals", f"trace:{path}",
        "--fanout", "7", "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] == 1


def test_run_trace_rejects_poisson(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    code = main([
        "run", "--app", "wc", "--arrivals", f"trace:{path}", "--poisson",
    ])
    assert code == 2
    assert "--poisson" in capsys.readouterr().err


def test_run_closed_loop(capsys):
    code = main([
        "run", "--app", "img", "--arrivals", "closed:2:5",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["completed"] > 0
    assert report["failure_rate"] == 0.0


def test_run_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main([
        "run", "--app", "wc", "--arrivals", "constant:30:6",
        "--format", "json", "--output", str(out_path),
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["app"] == "wc"


def test_run_unknown_app_fails(capsys):
    assert main(["run", "--app", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_run_bad_arrivals_fails(capsys):
    assert main(["run", "--app", "wc", "--arrivals", "warp:9"]) == 2
    assert "arrivals" in capsys.readouterr().err


def test_replay_table_report(capsys):
    from pathlib import Path

    trace = Path(__file__).parent.parent / "examples/traces/mixed_tenants.csv"
    code = main(["replay", str(trace), "--workers", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sharded replay report" in out
    assert "events_per_s" in out
    assert "acme" in out  # per-tenant breakdown survives the merge


def test_replay_worker_count_invariant_json(tmp_path, capsys):
    """--workers 4 and --workers 1 print the same merged report."""
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    reports = []
    for workers in ("1", "4"):
        code = main([
            "replay", str(path), "--app", "wc", "--workers", workers,
            "--format", "json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        parallel = report.pop("parallel")
        assert parallel["workers"] == int(workers)
        assert "shards" not in parallel and "stream" not in parallel
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["replay"] == {"policy": "tenant", "cells": 2}
    assert set(reports[0]["tenants"]) == {"a", "b"}


def test_replay_appless_trace_needs_app(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    assert main(["replay", str(path)]) == 2
    assert "--app" in capsys.readouterr().err


def test_replay_rejects_bad_flags(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(SAMPLE_TRACE)
    assert main(["replay", str(path), "--app", "wc", "--workers", "0"]) == 2
    assert main(["replay", str(path), "--app", "wc", "--policy", "warp"]) == 2
    assert main(["replay", "/no/such/trace.json", "--app", "wc"]) == 2
    # The batched-engine knobs are gone: argparse rejects them.
    for removed in (["--shards", "2"], ["--stream"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(path), "--app", "wc", *removed])
        assert exit_info.value.code == 2
    capsys.readouterr()


TENANT_CONFIG = """
{
  "default": {"placement": "round_robin"},
  "tenants": {
    "a": {"system": "faasflow", "placement": "hashed"},
    "b": {"system": "sonic", "placement": "offset:1", "timeout_s": 30}
  }
}
"""


def _write_tenant_fixtures(tmp_path):
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    config_path = tmp_path / "profiles.json"
    config_path.write_text(TENANT_CONFIG)
    return trace_path, config_path


def test_replay_tenant_config_tags_report(tmp_path, capsys):
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path), "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tenants"]["a"]["profile"] == {
        "system": "faasflow", "placement": "hashed", "source": "tenant",
    }
    assert report["replay"]["profiles"]["b"]["system"] == "sonic"
    assert report["replay"]["profiles"]["b"]["timeout_s"] == 30.0


def test_replay_tenant_config_echoes_profile_table(tmp_path, capsys):
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tenant profiles" in out
    assert "faasflow" in out and "hashed" in out
    assert "sharded replay report" in out


def test_replay_tenant_config_shard_invariant(tmp_path, capsys):
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    reports = []
    for workers in ("1", "4"):
        code = main([
            "replay", str(trace_path), "--app", "wc", "--workers", workers,
            "--tenant-config", str(config_path), "--format", "json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("parallel")
        reports.append(report)
    assert reports[0] == reports[1]


def test_replay_tenant_config_unknown_system_fails_fast(tmp_path, capsys):
    """ISSUE satellite: a bad profile dies at the CLI with the tenant's
    name, not deep inside a worker process."""
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    config_path = tmp_path / "bad.json"
    config_path.write_text('{"tenants": {"a": {"system": "fooflow"}}}')
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "tenant 'a'" in err
    assert "unknown system 'fooflow'" in err


def test_replay_tenant_config_unknown_placement_fails_fast(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    config_path = tmp_path / "bad.json"
    config_path.write_text('{"tenants": {"a": {"placement": "warp"}}}')
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "tenant 'a'" in err
    assert "placement" in err


def test_replay_tenant_config_requires_tenant_policy(tmp_path, capsys):
    """Profiles key on tenant cells; other partitions would make the
    echoed profile table lie about what actually ran."""
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path), "--policy", "timeslice:30",
    ])
    assert code == 2
    assert "--policy tenant" in capsys.readouterr().err


def test_run_tenant_config_still_rejects_poisson(tmp_path, capsys):
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    code = main([
        "run", "--app", "wc", "--arrivals", f"trace:{trace_path}",
        "--tenant-config", str(config_path), "--poisson",
    ])
    assert code == 2
    assert "--poisson" in capsys.readouterr().err


def test_replay_tenant_config_bad_json_names_path_once(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    config_path = tmp_path / "bad.json"
    config_path.write_text("{nope")
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(config_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err
    assert err.count(str(config_path)) == 1


def test_replay_tenant_config_missing_file(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(tmp_path / "nope.json"),
    ])
    assert code == 2
    assert "tenant config not found" in capsys.readouterr().err
    # A directory (or any other unreadable path) gets the clean CLI
    # error too, not a raw traceback.
    code = main([
        "replay", str(trace_path), "--app", "wc",
        "--tenant-config", str(tmp_path),
    ])
    assert code == 2
    assert "tenant config" in capsys.readouterr().err


def test_replay_rejects_bad_base_placement(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    trace_path.write_text(SAMPLE_TRACE)
    code = main([
        "replay", str(trace_path), "--app", "wc", "--placement", "warp",
    ])
    assert code == 2
    assert "placement" in capsys.readouterr().err


def test_run_tenant_config_requires_trace_arrivals(tmp_path, capsys):
    config_path = tmp_path / "profiles.json"
    config_path.write_text(TENANT_CONFIG)
    code = main([
        "run", "--app", "wc", "--arrivals", "constant:30:5",
        "--tenant-config", str(config_path),
    ])
    assert code == 2
    assert "--tenant-config requires trace arrivals" in (
        capsys.readouterr().err
    )


def test_run_trace_with_tenant_config(tmp_path, capsys):
    trace_path, config_path = _write_tenant_fixtures(tmp_path)
    code = main([
        "run", "--app", "wc", "--arrivals", f"trace:{trace_path}",
        "--tenant-config", str(config_path), "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["app"] == "wc"
    assert report["tenants"]["a"]["profile"]["system"] == "faasflow"
    code = main([
        "run", "--app", "wc", "--arrivals", f"trace:{trace_path}",
        "--tenant-config", str(config_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "tenant profiles" in out and "run report" in out


def test_example_tenant_config_validates_and_runs(capsys):
    from pathlib import Path

    root = Path(__file__).parent.parent
    code = main([
        "replay", str(root / "examples/traces/mixed_tenants.csv"),
        "--tenant-config", str(root / "examples/tenant_profiles.json"),
        "--workers", "2", "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tenants"]["acme"]["profile"]["system"] == "faasflow"
    assert report["tenants"]["initech"]["profile"]["source"] == "tenant"


def test_synth_writes_reproducible_csv(tmp_path, capsys):
    args = [
        "synth", "--tenants", "3", "--duration-s", "10", "--mean-rpm", "30",
        "--apps", "wc", "--seed", "9",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()
    from repro.loadgen.trace import InvocationTrace

    trace = InvocationTrace.from_csv(first.read_text())
    assert len(trace) > 0
    assert trace.apps() == ["wc"]


def test_synth_seed_changes_trace(tmp_path, capsys):
    base = ["synth", "--tenants", "2", "--duration-s", "10", "--mean-rpm",
            "30", "--apps", "wc"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(base + ["--seed", "1", "--output", str(a)]) == 0
    assert main(base + ["--seed", "2", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() != b.read_text()


def test_synth_stdout_json_and_bad_args(capsys):
    code = main(["synth", "--tenants", "2", "--duration-s", "5",
                 "--mean-rpm", "20", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "synthetic"
    assert main(["synth", "--tenants", "0"]) == 2
    assert main(["synth", "--apps", "nope"]) == 2
    capsys.readouterr()


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "wf.dsl"
    path.write_text("""
workflow_name: tiny
dataflows:
  tiny_only:
    compute: base=0.01
    output: fixed=1KB
    output_datas:
      output:
        type: NORMAL
        destination: $USER
""")
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "tiny_only" in out


def test_validate_rejects_broken_dsl(tmp_path, capsys):
    path = tmp_path / "bad.dsl"
    path.write_text("""
workflow_name: broken
dataflows:
  broken_a:
    compute: base=0.01
    output_datas:
      out:
        type: NORMAL
        destination: broken_missing
""")
    assert main(["validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such.dsl"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_experiments_runs_one(capsys):
    code = main(["experiments", "fig13", "--scale", "0.25"])
    assert code == 0
    assert "fig13" in capsys.readouterr().out


def test_example_dsl_validates(capsys):
    from pathlib import Path

    dsl = Path(__file__).parent.parent / "examples" / "pipeline.dsl"
    assert main(["validate", str(dsl)]) == 0


def test_sample_traces_replay(capsys):
    from pathlib import Path

    traces = Path(__file__).parent.parent / "examples" / "traces"
    code = main([
        "run", "--app", "wc",
        "--arrivals", f"trace:{traces / 'mixed_tenants.csv'}",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0
    assert set(report["tenants"]) == {"acme", "globex", "initech"}
