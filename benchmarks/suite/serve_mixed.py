"""The serve-mixed workload: closed-loop local and remote runs.

``repro serve --port 0 --workers 2 --journal <out>`` and one ``repro
worker --server URL --quiet`` run as child processes.  Two client
threads of this process each loop for the measured window: POST the
run body, follow ``/events`` to the terminal event, GET the report.
Client A runs locally; client B adds ``"workers": "remote"``, so its
cells go to the fleet.  The loop is closed because serve callers wait
for their report.

Every per-layer number is read from outside: client round trips, the
events each run streams, and ``/metrics`` counters before and after the
window.  Waits inside the server (queue, lease) are not measured: event
envelopes carry no server time, and a client that connects to
``/events`` after they happened receives them all in one read.  Event
streams are followed with ``validate=False`` so a run whose ``seq``
goes backwards (a known journal/lease ordering bug) is counted in
``serve.seq_inversions_per_run`` instead of failing; every envelope
still passes ``validate_event``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

from repro.metrics.report import render_json
from repro.metrics.telemetry import validate_event
from repro.serve.client import ServeClient

#: ``repro serve --workers``: job worker threads, one per client.
JOB_WORKERS = 2
#: Server + worker launches per run; ``setup_s`` is their median.
SETUPS = 3
_TERMINAL = ("report", "degraded", "error", "interrupted")
_PR_SET_PDEATHSIG = 1


def _parent_death_signal():
    """A ``preexec_fn`` that SIGTERMs the child if this process dies,
    so a benchmark killed mid-run leaves no server behind (Linux)."""
    if not sys.platform.startswith("linux"):
        return None
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int

    def preexec() -> None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)

    return preexec


@dataclass
class RunSample:
    """What one client observed of one run."""

    remote: bool
    ok: bool = False
    error: Optional[str] = None
    latency_s: float = 0.0
    submit_s: float = 0.0
    report_fetch_s: float = 0.0
    events: int = 0
    cells: int = 0
    seq_inversions: int = 0
    offered: int = 0


class Fleet:
    """One ``repro serve`` and one ``repro worker``, as child processes."""

    def __init__(self, root: Path, pidfile: Path) -> None:
        self.pidfile = pidfile
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
        )
        self.preexec = _parent_death_signal()
        self.server: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.url = ""

    def _spawn(self, args: List[str], stdout) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=self.env, stdout=stdout, stderr=subprocess.DEVNULL,
            text=True, preexec_fn=self.preexec,
        )
        live = [p.pid for p in (self.server, self.worker, proc) if p]
        self.pidfile.write_text(json.dumps(live) + "\n")
        return proc

    def start(self, journal: Path) -> float:
        """Launch both; returns seconds until ``/healthz`` answers and
        the worker has registered."""
        started = time.monotonic()
        self.server = self._spawn(
            ["serve", "--port", "0", "--workers", str(JOB_WORKERS),
             "--journal", str(journal)],
            stdout=subprocess.PIPE,
        )
        line = self.server.stdout.readline()
        match = re.search(r"listening on (\S+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.url = match.group(1)
        self.worker = self._spawn(
            ["worker", "--server", self.url, "--quiet"],
            stdout=subprocess.DEVNULL,
        )
        ServeClient(self.url, timeout_s=10.0).healthz()
        deadline = started + 60.0
        while time.monotonic() < deadline:
            with urllib.request.urlopen(self.url + "/v1/workers", timeout=10) as r:
                if json.load(r)["workers"]:
                    return time.monotonic() - started
            time.sleep(0.01)
        raise RuntimeError("repro worker did not register within 60 s")

    def stop(self) -> float:
        """Stop worker and server; returns the server's peak RSS in MB.

        The worker is signalled first so that, when the server closes
        its long-poll connection, the worker exits instead of retrying.
        """
        peak_mb = 0.0
        for proc in (self.worker, self.server):
            if proc is not None and proc.returncode is None:
                proc.send_signal(signal.SIGTERM)
        for proc in (self.server, self.worker):
            if proc is None or proc.returncode is not None:
                continue
            usage = _reap(proc, grace_s=10.0)
            if proc is self.server:
                peak_mb = usage.ru_maxrss / 1024.0
            if proc.stdout is not None:
                proc.stdout.close()
        self.server = self.worker = None
        self.pidfile.unlink(missing_ok=True)
        return peak_mb


def _reap(proc: subprocess.Popen, grace_s: float):
    """Wait for a signalled child, SIGKILL it after ``grace_s``; returns
    its resource usage (``os.wait4``, which ``Popen.wait`` drops)."""
    deadline = time.monotonic() + grace_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def refuse_if_running(pidfile: Path) -> None:
    """Refuse to start while a server or worker of an earlier run lives."""
    try:
        pids = json.loads(pidfile.read_text())
    except FileNotFoundError:
        return
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:
            pass
        alive.append(pid)
    if alive:
        raise SystemExit(
            f"refusing to start: repro serve/worker processes {alive} from "
            f"an earlier run are still alive (see {pidfile})"
        )
    pidfile.unlink()


def _one_run(client: ServeClient, body: dict, remote: bool,
             reference: str) -> RunSample:
    """POST, follow ``/events`` to the terminal event, GET the report;
    raises on anything that makes the run a failed operation."""
    sample = RunSample(remote=remote)
    t_post = time.monotonic()
    run_id = client.submit(body)
    t_posted = time.monotonic()
    sample.submit_s = t_posted - t_post
    previous_seq = -1
    terminal = t_terminal = None
    for envelope in client.events(run_id, validate=False):
        validate_event(envelope)
        sample.events += 1
        if envelope["seq"] <= previous_seq:
            sample.seq_inversions += 1
        previous_seq = envelope["seq"]
        kind = envelope["event"]
        if kind == "cell":
            sample.cells += 1
        elif kind in _TERMINAL:
            terminal, t_terminal = kind, time.monotonic()
    if terminal != "report":
        raise RuntimeError(f"run {run_id} ended with {terminal!r}")
    snapshot = client.status(run_id)
    sample.report_fetch_s = time.monotonic() - t_terminal
    sample.latency_s = t_terminal - t_post
    report = snapshot["report"]
    digest = hashlib.sha256(render_json(report).encode("utf-8")).hexdigest()
    if digest != reference:
        raise RuntimeError(f"run {run_id} report sha256 {digest[:12]} != "
                           f"reference {reference[:12]}")
    sample.offered = report["offered"]
    sample.ok = True
    return sample


def _client_loop(url: str, body: dict, remote: bool, reference: str,
                 deadline: float, out: List[RunSample]) -> None:
    client = ServeClient(url, timeout_s=60.0)
    while time.monotonic() < deadline:
        try:
            out.append(_one_run(client, body, remote, reference))
        except Exception as exc:  # noqa: BLE001 - counted; the loop goes on
            out.append(RunSample(remote=remote,
                                 error=f"{type(exc).__name__}: {exc}"))


def _scrape(url: str) -> Dict[str, float]:
    values = {}
    for line in ServeClient(url).metrics_text().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def _percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile; 0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return quantiles(values, n=100, method="inclusive")[p - 1]


def _median(values: List[float]) -> float:
    return median(values) if values else 0.0


def run(root: Path, out_dir: Path, body: dict, reference: str,
        seconds: float) -> dict:
    """Measure one window; returns samples and metrics by name."""
    pidfile = out_dir / "serve-mixed.pids"
    refuse_if_running(pidfile)
    run_dir = out_dir / "serve-mixed"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    fleet = Fleet(root, pidfile)
    setups = []
    try:
        for attempt in range(SETUPS):
            setups.append(fleet.start(run_dir / f"journal-{attempt}.jsonl"))
            if attempt < SETUPS - 1:
                fleet.stop()
        before = _scrape(fleet.url)
        local_samples: List[RunSample] = []
        remote_samples: List[RunSample] = []
        started = time.monotonic()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(fleet.url, body, False, reference, deadline,
                      local_samples),
                daemon=True,
            ),
            threading.Thread(
                target=_client_loop,
                args=(fleet.url, dict(body, workers="remote"), True,
                      reference, deadline, remote_samples),
                daemon=True,
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.monotonic() - started
        after = _scrape(fleet.url)
    finally:
        peak_mb = fleet.stop()
    samples = local_samples + remote_samples

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    good = [s for s in samples if s.ok]
    local = [s.latency_s for s in good if not s.remote]
    remote = [s.latency_s for s in good if s.remote]
    remote_cells = sum(s.cells for s in good if s.remote)
    executes = delta('repro_run_phase_seconds_count{phase="execute"}')
    runs = len(good) or 1
    metrics = {
        "setup_s": median(setups),
        "events_per_s": sum(s.offered for s in good) / elapsed,
        "latency_p50_s": _median(local),
        "peak_rss_mb": peak_mb,
        "serve.runs_per_s": len(good) / elapsed,
        "serve.local_runs": len(local),
        "serve.local_run_p90_s": _percentile(local, 90),
        "serve.remote_runs": len(remote),
        "serve.remote_run_p50_s": _median(remote),
        "serve.remote_run_p80_s": _percentile(remote, 80),
        "serve.submit_s": _median([s.submit_s for s in good]),
        "serve.report_fetch_s": _median([s.report_fetch_s for s in good]),
        "serve.server_execute_s": (
            delta('repro_run_phase_seconds_sum{phase="execute"}') / executes
            if executes else 0.0
        ),
        "serve.journal_fsyncs_per_run":
            delta("repro_journal_fsyncs_total") / runs,
        "serve.events_per_run": sum(s.events for s in good) / runs,
        "serve.seq_inversions_per_run":
            sum(s.seq_inversions for s in good) / runs,
        "worker.leases_per_cell": (
            delta("repro_leases_granted_total") / remote_cells
            if remote_cells else 0.0
        ),
        "worker.lease_expired": delta("repro_leases_expired_total"),
    }
    return {
        "metrics": metrics,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "errors": [s.error for s in samples if s.error][:5],
        "runs_with_inversions": {
            "local": sum(1 for s in good if s.seq_inversions and not s.remote),
            "remote": sum(1 for s in good if s.seq_inversions and s.remote),
        },
    }
