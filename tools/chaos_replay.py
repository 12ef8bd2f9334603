#!/usr/bin/env python3
"""Chaos harness: SIGKILL replay workers mid-cell, assert report identity.

The crash-identity property, end to end on real processes::

    PYTHONPATH=src python tools/chaos_replay.py                  # CI smoke
    PYTHONPATH=src python tools/chaos_replay.py --kill 2 --workers 3
    PYTHONPATH=src python tools/chaos_replay.py --mode kill-worker
    PYTHONPATH=src python tools/chaos_replay.py --log /tmp/faults.json

``--mode pool`` (the default) exercises the local work-stealing pool:
it synthesizes a deterministic multi-tenant trace, replays it once on
the fault-free serial executor to get the *control* report, then
replays it on ``--workers`` pool processes under a
:class:`~repro.parallel.resilience.HostFaultPlan` that SIGKILLs the
worker process on the first attempt of the ``--kill`` first
sorted cells.  The faulted run must recover (pool rebuilt, in-flight
cells resubmitted, killed cells retried) and produce a report whose
canonical rendering is SHA-256-identical to the control.

``--mode kill-worker`` exercises the remote fleet instead: it boots a
real ``repro serve --journal`` control plane plus two real ``repro
worker`` subprocesses, submits a ``"workers": "remote"`` run, SIGKILLs
one worker while the control plane shows it holding a cell lease, and
asserts the lease expires, the survivor finishes the run, and the
merged report is SHA-256-identical to the fault-free control — with no
cell journaled twice (see ``docs/workers.md``).

A machine-readable fault log (``--log``) records the control hash and
every run's verdict; CI uploads it as an artifact when the identity
check fails.  Exit status: 0 all identical, 1 any mismatch.

See ``docs/robustness.md`` for the failure model this exercises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.loadgen.trace import synthesize_trace  # noqa: E402
from repro.metrics.report import render_json  # noqa: E402
from repro.parallel import (  # noqa: E402
    FaultSpec,
    HostFaultPlan,
    ReplaySpec,
    RetryPolicy,
    run_parallel_replay,
)


def report_sha256(result) -> str:
    """The canonical rendering's hash — the identity the harness asserts."""
    return hashlib.sha256(
        render_json(result.to_dict()).encode("utf-8")
    ).hexdigest()


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_kill_worker_mode(args) -> int:
    """SIGKILL a real ``repro worker`` holding a lease; assert identity.

    Topology: one ``repro serve --journal`` control plane, two ``repro
    worker`` subprocesses, one remote run.  The victim is frozen
    (SIGSTOP) only once the control plane's ``GET /v1/workers`` shows it
    holding a lease — then killed, so the kill provably lands mid-cell.
    """
    import os
    import re
    import shutil
    import signal
    import subprocess
    import tempfile
    import time
    import urllib.request

    listening = re.compile(r"listening on (http://[0-9.]+:\d+)")
    worker_banner = re.compile(r"repro worker (w-\d+) serving")

    def request(url, body=None, timeout=10):
        data = None if body is None else json.dumps(body).encode()
        req = urllib.request.Request(
            url, data=data,
            headers={"Content-Type": "application/json"} if body else {},
        )
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read())

    def poll(predicate, timeout_s, what):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            value = predicate()
            if value is not None:
                return value
            time.sleep(0.02)
        raise RuntimeError(f"timed out after {timeout_s}s waiting for {what}")

    synth = {
        "tenants": args.tenants, "duration_s": args.duration_s,
        "mean_rpm": args.mean_rpm, "apps": [args.app], "seed": args.seed,
    }
    body = {
        "app": args.app, "seed": args.seed, "workers": "remote",
        "synth": synth,
    }
    trace = synthesize_trace(**synth)
    spec = ReplaySpec(default_app=args.app, seed=args.seed)
    control = run_parallel_replay(trace, spec, workers=1)
    control_sha = report_sha256(control)
    print(f"control: {control.offered} events, {control.cell_count} cells, "
          f"sha256 {control_sha[:16]}…")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )

    def spawn(argv):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )

    workdir = Path(tempfile.mkdtemp(prefix="chaos-kill-worker-"))
    journal_path = workdir / "journal"
    serve = spawn([
        "serve", "--port", "0", "--workers", "1",
        "--journal", str(journal_path),
        "--lease-timeout-s", str(args.lease_timeout_s),
    ])
    workers = []
    run_record = {"mode": "kill-worker", "identical": False}
    try:
        match = listening.search(serve.stdout.readline() or "")
        if not match:
            raise RuntimeError("repro serve printed no listening banner")
        base = match.group(1)

        by_id = {}
        for _ in range(2):
            proc = spawn(["worker", "--server", base, "--poll-s", "1"])
            workers.append(proc)
            match = worker_banner.search(proc.stdout.readline() or "")
            if not match:
                raise RuntimeError("repro worker printed no banner")
            by_id[match.group(1)] = proc

        run_id = request(f"{base}/v1/runs", body)["id"]

        def journaled_cells():
            # The cell lines of the run's event log, its one file.
            run_file = journal_path / f"{run_id}.ndjson"
            if not run_file.exists():
                return []
            keys = []
            for line in run_file.read_text(errors="replace").split("\n")[:-1]:
                try:
                    envelope = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if envelope.get("event") == "cell":
                    keys.append(envelope["cell"])
            return keys

        poll(lambda: journaled_cells() or None, 60, "first journaled cell")

        def freeze_lease_holder():
            snap = request(f"{base}/v1/workers")
            for worker in snap["workers"]:
                if worker["leases"] and worker["id"] in by_id:
                    proc = by_id[worker["id"]]
                    os.kill(proc.pid, signal.SIGSTOP)
                    held = all(
                        any(
                            w["id"] == worker["id"] and w["leases"]
                            for w in request(
                                f"{base}/v1/workers"
                            )["workers"]
                        )
                        for _ in range(2)
                    )
                    if held:
                        return worker["id"], proc
                    os.kill(proc.pid, signal.SIGCONT)
            return None

        victim_id, victim = poll(
            freeze_lease_holder, 60, "a worker holding a lease"
        )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
        print(f"SIGKILLed {victim_id} while it held a cell lease")

        def finished():
            snap = request(f"{base}/v1/runs/{run_id}")
            return snap if snap["status"] not in (
                "queued", "running"
            ) else None

        snap = poll(finished, 300, "the remote run to finish")
        if snap["status"] != "done":
            raise RuntimeError(
                f"remote run ended {snap['status']}: {snap.get('error')}"
            )
        sha = _sha_text(render_json(snap["report"]))
        identical = sha == control_sha
        cells = journaled_cells()
        dupes = len(cells) - len(set(cells))
        run_record = {
            "mode": "kill-worker",
            "victim": victim_id,
            "report_sha256": sha,
            "identical": identical,
            "cells_journaled": len(cells),
            "journal_duplicates": dupes,
        }
        verdict = "identical" if identical else "MISMATCH"
        print(f"kill-worker: survivor finished the run, "
              f"sha256 {sha[:16]}… [{verdict}]; "
              f"{len(cells)} cells journaled, {dupes} duplicate(s)")
        failed = (not identical) or dupes
    finally:
        for proc in [serve, *workers]:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)

    log = {
        "trace": {**synth, "events": control.offered},
        "control_sha256": control_sha,
        "runs": [run_record],
        "identical": run_record.get("identical", False),
    }
    args.log.parent.mkdir(parents=True, exist_ok=True)
    args.log.write_text(json.dumps(log, indent=2) + "\n")
    print(f"[fault log: {args.log}]")
    if failed:
        # The work directory stays for inspection (CI uploads it).
        print("FAIL: the recovered remote run diverged from control",
              file=sys.stderr)
        print(f"[work directory kept: {workdir}]", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)
    print("OK: the recovered remote report is byte-identical to the control")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SIGKILL replay workers mid-cell; assert the recovered "
        "report is SHA-256-identical to the fault-free control"
    )
    parser.add_argument("--tenants", type=int, default=6,
                        help="synthetic trace tenants (default: 6)")
    parser.add_argument("--duration-s", type=float, default=20.0,
                        help="synthetic trace length (default: 20)")
    parser.add_argument("--mean-rpm", type=float, default=40.0,
                        help="mean per-tenant rate (default: 40)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace + replay seed (default: 0)")
    parser.add_argument("--app", default="wc",
                        help="app for every synthetic event (default: wc)")
    parser.add_argument("--workers", type=int, default=2,
                        help="replay worker processes (default: 2)")
    parser.add_argument("--kill", type=int, default=1, metavar="N",
                        help="cells whose first attempt SIGKILLs its "
                        "worker (default: 1)")
    parser.add_argument("--max-attempts", type=int, default=4,
                        help="retry budget per cell (default: 4)")
    parser.add_argument("--log", type=Path,
                        default=Path("chaos_fault_log.json"),
                        help="machine-readable fault log "
                        "(default: chaos_fault_log.json)")
    parser.add_argument("--mode", choices=["pool", "kill-worker"],
                        default="pool",
                        help="pool: SIGKILL local replay workers via a "
                        "fault plan (default); kill-worker: boot a real "
                        "control plane + 2 'repro worker' processes and "
                        "SIGKILL one mid-cell (see docs/workers.md)")
    parser.add_argument("--lease-timeout-s", type=float, default=6.0,
                        help="kill-worker mode: the control plane's cell "
                        "lease deadline (default: 6)")
    args = parser.parse_args(argv)
    if args.kill < 0:
        parser.error("--kill must be >= 0")
    if args.kill > args.tenants:
        parser.error("--kill cannot exceed --tenants")
    if args.lease_timeout_s <= 0:
        parser.error("--lease-timeout-s must be > 0")
    if args.mode == "kill-worker":
        return run_kill_worker_mode(args)

    trace = synthesize_trace(
        tenants=args.tenants,
        duration_s=args.duration_s,
        mean_rpm=args.mean_rpm,
        apps=[args.app],
        seed=args.seed,
    )
    spec = ReplaySpec(default_app=args.app, seed=args.seed)
    victims = sorted(trace.tenants())[: args.kill]
    retry = RetryPolicy(max_attempts=args.max_attempts, backoff_base_s=0.01)
    plan = HostFaultPlan(faults=tuple(
        FaultSpec(kind="kill", cell=cell, attempt=1) for cell in victims
    ))

    control = run_parallel_replay(trace, spec, workers=1)
    control_sha = report_sha256(control)
    print(f"control: {control.offered} events, {control.cell_count} cells, "
          f"sha256 {control_sha[:16]}…")

    result = run_parallel_replay(
        trace, spec, workers=args.workers, retry=retry, fault_plan=plan,
    )
    sha = report_sha256(result)
    identical = sha == control_sha
    verdict = "identical" if identical else "MISMATCH"
    print(f"pool: recovered from {len(victims)} worker kill(s), "
          f"sha256 {sha[:16]}… [{verdict}]")

    log = {
        "trace": {
            "tenants": args.tenants,
            "duration_s": args.duration_s,
            "mean_rpm": args.mean_rpm,
            "seed": args.seed,
            "app": args.app,
            "events": control.offered,
        },
        "faults": plan.to_payload(),
        "retry": {"max_attempts": args.max_attempts},
        "control_sha256": control_sha,
        "runs": [{
            "workers": args.workers,
            "report_sha256": sha,
            "identical": identical,
        }],
        "identical": identical,
    }
    args.log.parent.mkdir(parents=True, exist_ok=True)
    args.log.write_text(json.dumps(log, indent=2) + "\n")
    print(f"[fault log: {args.log}]")
    if not identical:
        print("FAIL: recovered report diverged from control",
              file=sys.stderr)
        return 1
    print("OK: the recovered report is byte-identical to the control")
    return 0


if __name__ == "__main__":
    sys.exit(main())
