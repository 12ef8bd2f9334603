"""``repro replay --metrics-out``: one-shot Prometheus text dumps.

The flag gives scrapeless runs (CI jobs, ad-hoc benchmarks) the same
telemetry ``repro serve`` exposes at ``GET /metrics`` — and because the
counters are folded from the same cells the report is merged from, the
totals must *equal* the report, not merely correlate with it.
"""

import json
import re

from repro.cli import main

RE_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def _parse_prometheus(text):
    """name -> {labels-string-or-'' : float} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = RE_SAMPLE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        name, labels, value = match.groups()
        samples.setdefault(name, {})[labels or ""] = float(value)
    return samples


def _replay(tmp_path, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    trace_path = tmp_path / "trace.json"
    report_path = tmp_path / "report.json"
    metrics_path = tmp_path / "metrics.prom"
    assert main([
        "synth", "--tenants", "4", "--duration-s", "20", "--mean-rpm", "60",
        "--seed", "5", "--output", str(trace_path),
    ]) == 0
    assert main([
        "replay", str(trace_path), "--app", "wc", "--seed", "7",
        "--format", "json", "--output", str(report_path),
        "--metrics-out", str(metrics_path), *extra,
    ]) == 0
    report = json.loads(report_path.read_text())
    samples = _parse_prometheus(metrics_path.read_text())
    return report, samples


def test_metrics_out_counter_totals_equal_the_report(tmp_path):
    report, samples = _replay(tmp_path)

    cells = sum(samples["repro_cells_completed_total"].values())
    assert cells == report["parallel"]["cells"] == 4

    requests = sum(samples["repro_tenant_requests_total"].values())
    assert requests == report["offered"]

    # Per-tenant counters match the report's per-tenant breakdown.
    for tenant, stats in report["tenants"].items():
        label = f'{{tenant="{tenant}"}}'
        assert samples["repro_tenant_requests_total"][label] == (
            stats["offered"]
        ), tenant

    # Latency histograms summarize exactly the completed requests.
    latency_counts = {
        labels: value
        for labels, value in samples[
            "repro_tenant_request_latency_seconds_count"
        ].items()
    }
    assert sum(latency_counts.values()) == report["completed"]


def test_metrics_out_is_identical_across_worker_counts(tmp_path):
    """Scheduling never leaks into the dump: the same trace at
    different parallelism exposes byte-identical counter text (wall
    -clock histograms excluded — they measure the run, not the data)."""
    _, serial = _replay(tmp_path / "a")
    _, parallel = _replay(tmp_path / "b", extra=["--workers", "4"])
    for name in (
        "repro_cells_completed_total",
        "repro_tenant_requests_total",
        "repro_tenant_request_latency_seconds_count",
        "repro_tenant_request_latency_seconds_sum",
    ):
        assert serial[name] == parallel[name], name
