"""The ``GET /dashboard`` page: one self-contained static HTML file.

No build step, no JS dependencies, no external assets — the page is a
Python string the handler serves with ``text/html``.  Everything it
shows it discovers at runtime through the documented API:

- ``GET /v1/runs`` for the run picker (newest first, auto-refreshed),
- ``GET /v1/apps`` for the workflow DAG definitions,
- ``GET /v1/runs/<id>/events`` tailed via ``fetch`` + ReadableStream —
  the same NDJSON stream ``serve/client.py`` consumes, keepalive
  comment lines and all,
- ``GET /metrics`` polled for the worker-pool gauges.

The page validates each event's schema version (:data:`~repro.metrics.\
telemetry.SCHEMA_VERSION` is baked in at render time) and surfaces a
banner instead of silently misrendering a stream from a different
build.

Design notes: colors are the skill-validated reference palette —
categorical slots assigned to tenants in fixed first-seen order (never
cycled; tenants beyond eight fold into a muted "other" series), status
colors reserved for run/cell state, all text in ink tokens, light and
dark from the same ramps.  Every tenant row is direct-labeled, so the
sub-3:1 light-mode slots lean on text, not hue.  The DAG view colors
the topological *wavefront*: cell progress is per-tenant, not
per-function, so node state is the completed fraction mapped over the
topological order — an honest approximation, labeled as such in
``docs/observability.md``.
"""

from __future__ import annotations

import json

from ..metrics.telemetry import SCHEMA_VERSION, event_kinds

__all__ = ["dashboard_html"]


def dashboard_html() -> str:
    """The dashboard page with the current schema constants baked in."""
    return (
        _PAGE
        .replace("__SCHEMA_VERSION__", json.dumps(SCHEMA_VERSION))
        .replace("__EVENT_KINDS__", json.dumps(event_kinds()))
    )


_PAGE = r"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro serve — live runs</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --page: #f9f9f7;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --text-muted: #898781;
    --grid: #e1e0d9;
    --baseline: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
    --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
    --series-7: #4a3aa7; --series-8: #e34948;
    --status-good: #0ca30c;
    --status-warning: #fab219;
    --status-serious: #ec835a;
    --status-critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --page: #0d0d0d;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --text-muted: #898781;
      --grid: #2c2c2a;
      --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
      --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
      --series-7: #9085e9; --series-8: #e66767;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; background: var(--page); color: var(--text-primary);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  header {
    display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap;
    padding: 14px 20px 10px;
  }
  header h1 { font-size: 16px; margin: 0; font-weight: 650; }
  header .sub { color: var(--text-muted); font-size: 12px; }
  header select {
    font: inherit; color: var(--text-primary); background: var(--surface-1);
    border: 1px solid var(--border); border-radius: 6px; padding: 3px 8px;
  }
  #banner {
    display: none; margin: 0 20px; padding: 8px 12px; border-radius: 6px;
    background: var(--status-critical); color: #fff; font-size: 13px;
  }
  main {
    display: grid; gap: 14px; padding: 14px 20px 24px;
    grid-template-columns: repeat(auto-fit, minmax(340px, 1fr));
  }
  figure.card {
    margin: 0; background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 10px; padding: 14px 16px;
  }
  figure.card figcaption {
    font-size: 13px; font-weight: 650; margin-bottom: 2px;
  }
  figure.card .caption-sub {
    font-size: 12px; color: var(--text-muted); margin-bottom: 10px;
  }
  .stat-row { display: flex; gap: 22px; flex-wrap: wrap; margin-bottom: 10px; }
  .stat .v {
    font-size: 26px; font-weight: 650; color: var(--text-primary);
  }
  .stat .k { font-size: 11px; color: var(--text-muted); }
  .track {
    height: 10px; border-radius: 5px; background: var(--grid);
    overflow: hidden; margin: 4px 0 2px;
  }
  .track .fill {
    height: 100%; border-radius: 5px; background: var(--series-1);
    width: 0%; transition: width .3s;
  }
  .track .fill.workers { background: var(--series-3); }
  .tenant-row {
    display: grid; grid-template-columns: 14px 110px 1fr 64px;
    align-items: center; gap: 8px; padding: 3px 0;
  }
  .tenant-row .swatch {
    width: 10px; height: 10px; border-radius: 3px;
    border: 2px solid var(--surface-1);
  }
  .tenant-row .name {
    font-size: 12px; color: var(--text-secondary);
    overflow: hidden; text-overflow: ellipsis; white-space: nowrap;
  }
  .tenant-row .val {
    font-size: 12px; color: var(--text-secondary); text-align: right;
    font-variant-numeric: tabular-nums;
  }
  svg text { font: 10px system-ui, sans-serif; fill: var(--text-muted); }
  table.tbl {
    width: 100%; border-collapse: collapse; font-size: 12px;
    color: var(--text-secondary); font-variant-numeric: tabular-nums;
  }
  table.tbl th {
    text-align: left; font-weight: 600; color: var(--text-muted);
    border-bottom: 1px solid var(--grid); padding: 3px 6px 3px 0;
  }
  table.tbl td { padding: 3px 6px 3px 0; border-bottom: 1px solid var(--grid); }
  #tooltip {
    position: fixed; display: none; pointer-events: none; z-index: 10;
    background: var(--text-primary); color: var(--surface-1);
    font-size: 12px; padding: 4px 8px; border-radius: 6px;
    max-width: 280px;
  }
  .legend { display:flex; gap:14px; font-size:11px; color:var(--text-muted);
            margin-top: 8px; flex-wrap: wrap; }
  .legend .chip { display:inline-block; width:9px; height:9px;
                  border-radius:3px; margin-right:4px; }
</style>
</head>
<body>
<header>
  <h1>repro serve</h1>
  <span class="sub">live run telemetry</span>
  <label class="sub" for="run-picker">run</label>
  <select id="run-picker"></select>
  <span class="sub" id="run-status"></span>
</header>
<div id="banner"></div>
<main>
  <figure class="card">
    <figcaption>Run progress</figcaption>
    <div class="caption-sub" id="progress-sub">waiting for a run…</div>
    <div class="stat-row">
      <div class="stat"><div class="v" id="stat-cells">–</div>
        <div class="k">cells folded</div></div>
      <div class="stat"><div class="v" id="stat-completed">–</div>
        <div class="k">requests completed</div></div>
      <div class="stat"><div class="v" id="stat-failed">–</div>
        <div class="k">requests failed</div></div>
    </div>
    <div class="track"><div class="fill" id="progress-fill"></div></div>
    <div class="caption-sub" id="progress-label"></div>
  </figure>

  <figure class="card">
    <figcaption>Worker pool</figcaption>
    <div class="caption-sub">from <code>/metrics</code>, 2s poll</div>
    <div class="stat-row">
      <div class="stat"><div class="v" id="stat-inflight">–</div>
        <div class="k">jobs in flight</div></div>
      <div class="stat"><div class="v" id="stat-queued">–</div>
        <div class="k">jobs queued</div></div>
      <div class="stat"><div class="v" id="stat-workers">–</div>
        <div class="k">job workers</div></div>
    </div>
    <div class="track"><div class="fill workers" id="worker-fill"></div></div>
    <div class="caption-sub" id="worker-label"></div>
  </figure>

  <figure class="card">
    <figcaption>Remote fleet</figcaption>
    <div class="caption-sub">cell leases to <code>repro worker</code>
      processes (<code>--workers remote</code> runs)</div>
    <div class="stat-row">
      <div class="stat"><div class="v" id="stat-fleet">–</div>
        <div class="k">workers registered</div></div>
      <div class="stat"><div class="v" id="stat-leases">–</div>
        <div class="k">leases granted</div></div>
      <div class="stat"><div class="v" id="stat-expired">–</div>
        <div class="k">leases expired</div></div>
    </div>
    <div class="caption-sub" id="fleet-label">no remote workers yet</div>
  </figure>

  <figure class="card" style="grid-column: 1 / -1;">
    <figcaption>Per-tenant cells</figcaption>
    <div class="caption-sub">
      p50 latency sparkline per folded cell · right column: cell
      requests/s (completed ÷ cell wall-clock)
    </div>
    <div id="tenants"></div>
  </figure>

  <figure class="card" style="grid-column: 1 / -1;">
    <figcaption>Workflow DAG</figcaption>
    <div class="caption-sub" id="dag-sub">
      declared data edges, topological order; node state approximates
      the run's completed-cell fraction as a wavefront
    </div>
    <div id="dag" style="overflow-x:auto;"></div>
    <div class="legend">
      <span><span class="chip" style="background:var(--status-good)"></span>
        done</span>
      <span><span class="chip" style="background:var(--status-warning)"></span>
        active</span>
      <span><span class="chip" style="background:var(--grid)"></span>
        pending</span>
    </div>
  </figure>

  <figure class="card" style="grid-column: 1 / -1;">
    <figcaption>Event log</figcaption>
    <div class="caption-sub">last 12 events (table view of the stream)</div>
    <table class="tbl"><thead>
      <tr><th>seq</th><th>event</th><th>detail</th></tr>
    </thead><tbody id="log"></tbody></table>
  </figure>
</main>
<div id="tooltip"></div>
<script>
"use strict";
const SCHEMA_VERSION = __SCHEMA_VERSION__;
const EVENT_KINDS = new Set(__EVENT_KINDS__);
const SERIES = ["--series-1","--series-2","--series-3","--series-4",
                "--series-5","--series-6","--series-7","--series-8"];

const $ = (id) => document.getElementById(id);
const css = (name) =>
  getComputedStyle(document.documentElement).getPropertyValue(name).trim();

// -- shared tooltip ----------------------------------------------------------
const tip = $("tooltip");
document.addEventListener("mousemove", (e) => {
  if (tip.style.display === "block") {
    tip.style.left = (e.clientX + 12) + "px";
    tip.style.top = (e.clientY + 12) + "px";
  }
});
function hover(el, text) {
  el.addEventListener("mouseenter", () => {
    tip.textContent = typeof text === "function" ? text() : text;
    tip.style.display = "block";
  });
  el.addEventListener("mouseleave", () => { tip.style.display = "none"; });
}

// -- state -------------------------------------------------------------------
let state = null;        // per-run view model
let follower = null;     // AbortController of the active stream
let workflows = {};      // app name -> workflow def
function freshState(runId) {
  return {
    runId, status: "queued", cellsTotal: 0, cellsDone: 0,
    offered: 0, completed: 0, failed: 0, app: null,
    tenants: new Map(),  // name -> {slot, points:[{lat, rps, cell}], last}
    log: [],
  };
}

function banner(msg) {
  const el = $("banner");
  el.style.display = msg ? "block" : "none";
  el.textContent = msg || "";
}

// Fixed first-seen slot assignment; ninth tenant onward folds to muted.
function tenantSeries(name) {
  let t = state.tenants.get(name);
  if (!t) {
    const slot = state.tenants.size;
    t = { slot, points: [], last: null };
    state.tenants.set(name, t);
  }
  return t;
}
const tenantColor = (t) =>
  t.slot < SERIES.length ? `var(${SERIES[t.slot]})` : "var(--text-muted)";

// -- rendering ---------------------------------------------------------------
function sparkline(points, color) {
  const w = 220, h = 26, pad = 2;
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("viewBox", `0 0 ${w} ${h}`);
  svg.setAttribute("width", w); svg.setAttribute("height", h);
  const vals = points.map((p) => p.lat);
  const max = Math.max(...vals, 1e-9), min = Math.min(...vals, 0);
  const x = (i) => points.length < 2
    ? w / 2 : pad + (i * (w - 2 * pad)) / (points.length - 1);
  const y = (v) => h - pad - ((v - min) / (max - min || 1)) * (h - 2 * pad);
  const base = document.createElementNS(svg.namespaceURI, "line");
  base.setAttribute("x1", 0); base.setAttribute("x2", w);
  base.setAttribute("y1", h - 1); base.setAttribute("y2", h - 1);
  base.setAttribute("stroke", "var(--baseline)");
  svg.appendChild(base);
  if (points.length > 1) {
    const line = document.createElementNS(svg.namespaceURI, "polyline");
    line.setAttribute("points",
      points.map((p, i) => `${x(i)},${y(p.lat)}`).join(" "));
    line.setAttribute("fill", "none");
    line.setAttribute("stroke", color);
    line.setAttribute("stroke-width", "2");
    line.setAttribute("stroke-linejoin", "round");
    svg.appendChild(line);
  }
  const i = points.length - 1;
  const dot = document.createElementNS(svg.namespaceURI, "circle");
  dot.setAttribute("cx", x(i)); dot.setAttribute("cy", y(points[i].lat));
  dot.setAttribute("r", 3); dot.setAttribute("fill", color);
  dot.setAttribute("stroke", "var(--surface-1)");
  dot.setAttribute("stroke-width", "2");
  svg.appendChild(dot);
  // One oversized hit target per point (>= 8px), tooltip per mark.
  points.forEach((p, idx) => {
    const hit = document.createElementNS(svg.namespaceURI, "rect");
    hit.setAttribute("x", x(idx) - 5); hit.setAttribute("y", 0);
    hit.setAttribute("width", 10); hit.setAttribute("height", h);
    hit.setAttribute("fill", "transparent");
    hover(hit, () =>
      `cell ${p.cell}: p50 ${fmtS(p.lat)} · ${p.rps.toFixed(1)} req/s`);
    svg.appendChild(hit);
  });
  return svg;
}

const fmtS = (s) => s >= 1 ? s.toFixed(2) + " s" : (s * 1000).toFixed(0) + " ms";

function renderTenants() {
  const host = $("tenants");
  host.textContent = "";
  for (const [name, t] of state.tenants) {
    if (!t.points.length) continue;
    const row = document.createElement("div");
    row.className = "tenant-row";
    const sw = document.createElement("span");
    sw.className = "swatch"; sw.style.background = tenantColor(t);
    const label = document.createElement("span");
    label.className = "name"; label.textContent = name;
    const val = document.createElement("span");
    val.className = "val";
    val.textContent = t.last.rps.toFixed(1) + "/s";
    row.appendChild(sw); row.appendChild(label);
    row.appendChild(sparkline(t.points, tenantColor(t)));
    row.appendChild(val);
    host.appendChild(row);
  }
}

function renderProgress() {
  $("stat-cells").textContent =
    `${state.cellsDone}${state.cellsTotal ? " / " + state.cellsTotal : ""}`;
  $("stat-completed").textContent = state.completed;
  $("stat-failed").textContent = state.failed;
  const frac = state.cellsTotal ? state.cellsDone / state.cellsTotal : 0;
  $("progress-fill").style.width = (frac * 100).toFixed(1) + "%";
  $("progress-label").textContent =
    `${state.offered} offered · ${(frac * 100).toFixed(0)}% of cells folded`;
  $("progress-sub").textContent = `${state.runId} — ${state.status}`;
  $("run-status").textContent = state.status;
}

function renderLog() {
  const body = $("log");
  body.textContent = "";
  for (const e of state.log.slice(-12)) {
    const tr = document.createElement("tr");
    for (const cell of [e.seq, e.event, e.detail]) {
      const td = document.createElement("td");
      td.textContent = cell;
      tr.appendChild(td);
    }
    body.appendChild(tr);
  }
}

function renderDag() {
  const host = $("dag");
  host.textContent = "";
  const wf = state.app && workflows[state.app];
  if (!wf) {
    $("dag-sub").textContent = "no workflow definition for this run";
    return;
  }
  const names = wf.functions.map((f) => f.name);
  const index = new Map(names.map((n, i) => [n, i]));
  // Layer = longest path from entry, walked in topological order.
  const depth = new Map(names.map((n) => [n, 0]));
  for (const f of wf.functions) {
    for (const e of f.edges) {
      for (const to of e.to) {
        if (!index.has(to)) continue;  // $USER sink
        depth.set(to, Math.max(depth.get(to), depth.get(f.name) + 1));
      }
    }
  }
  const cols = [];
  for (const n of names) {
    const d = depth.get(n);
    (cols[d] = cols[d] || []).push(n);
  }
  const colW = 150, rowH = 46, nodeW = 112, nodeH = 26, pad = 14;
  const width = cols.length * colW + pad;
  const height = Math.max(...cols.map((c) => c.length)) * rowH + pad;
  const pos = new Map();
  cols.forEach((col, ci) => col.forEach((n, ri) => {
    pos.set(n, { x: pad + ci * colW, y: pad + ri * rowH });
  }));
  const frac = state.cellsTotal ? state.cellsDone / state.cellsTotal : 0;
  const wavefront = frac * names.length;
  const fill = (i) =>
    i + 1 <= wavefront ? "var(--status-good)"
      : (i < wavefront || (i === Math.floor(wavefront) &&
         state.status === "running")) ? "var(--status-warning)"
      : "var(--grid)";
  const mark = (i) => i + 1 <= wavefront ? "✓"
    : (i <= wavefront && state.status === "running") ? "●" : "";
  const svg = document.createElementNS("http://www.w3.org/2000/svg", "svg");
  svg.setAttribute("viewBox", `0 0 ${width} ${height}`);
  svg.setAttribute("width", width); svg.setAttribute("height", height);
  for (const f of wf.functions) {
    const from = pos.get(f.name);
    for (const e of f.edges) {
      for (const to of e.to) {
        const dst = pos.get(to);
        if (!dst) continue;
        const p = document.createElementNS(svg.namespaceURI, "path");
        const x1 = from.x + nodeW, y1 = from.y + nodeH / 2;
        const x2 = dst.x, y2 = dst.y + nodeH / 2;
        const mx = (x1 + x2) / 2;
        p.setAttribute("d",
          `M ${x1} ${y1} C ${mx} ${y1}, ${mx} ${y2}, ${x2} ${y2}`);
        p.setAttribute("fill", "none");
        p.setAttribute("stroke",
          e.kind === "NORMAL" ? "var(--baseline)" : "var(--text-muted)");
        p.setAttribute("stroke-width", e.kind === "FOREACH" ? "2.5" : "1.5");
        if (e.kind === "SWITCH") p.setAttribute("stroke-dasharray", "4 3");
        hover(p, `${f.name} —${e.kind.toLowerCase()}→ ${to} (${e.data})`);
        svg.appendChild(p);
      }
    }
  }
  names.forEach((n, i) => {
    const { x, y } = pos.get(n);
    const g = document.createElementNS(svg.namespaceURI, "g");
    const rect = document.createElementNS(svg.namespaceURI, "rect");
    rect.setAttribute("x", x); rect.setAttribute("y", y);
    rect.setAttribute("rx", 6);
    rect.setAttribute("width", nodeW); rect.setAttribute("height", nodeH);
    rect.setAttribute("fill", fill(i));
    rect.setAttribute("stroke", "var(--border)");
    const label = document.createElementNS(svg.namespaceURI, "text");
    label.setAttribute("x", x + 8); label.setAttribute("y", y + 17);
    label.textContent = (mark(i) ? mark(i) + " " : "") + n;
    const done = i + 1 <= wavefront;
    label.setAttribute("fill",
      done ? "#ffffff" : "var(--text-secondary)");
    hover(g, `${n}${n === wf.entry ? " (entry)" : ""}`);
    g.appendChild(rect); g.appendChild(label);
    svg.appendChild(g);
  });
  host.appendChild(svg);
}

// -- event handling ----------------------------------------------------------
function detailOf(e) {
  switch (e.event) {
    case "cell":
      return `${e.cell}: ${e.completed}/${e.offered} in ${fmtS(e.wall_s)}`;
    case "progress":
      return `${e.cells_done}/${e.cells_total} cells`;
    case "counter": return `${e.name} = ${e.value}`;
    case "gauge":
      return `${e.name}${JSON.stringify(e.labels || {})} = ${e.value}`;
    case "error": return e.message;
    case "report": return `completed=${e.report.completed}`;
    case "degraded":
      return `completed=${e.report.completed}, `
        + `${e.failed_cells} cell(s) failed`;
    case "recovered": return `${e.cells_journaled} cells journaled`;
    case "lease":
      return `${e.cell} → ${e.worker} (attempt ${e.attempt})`;
    case "lease_expired":
      return `${e.cell} on ${e.worker}`
        + (e.requeued ? " — requeued" : " — attempts exhausted");
    default: return "";
  }
}

function onEvent(e) {
  if (!EVENT_KINDS.has(e.event)) {
    banner(`unknown event kind ${JSON.stringify(e.event)} on the stream`);
    return;
  }
  if (e.v !== SCHEMA_VERSION) {
    banner(`event schema v${e.v} does not match dashboard v${SCHEMA_VERSION}`);
    return;
  }
  state.log.push({ seq: e.seq, event: e.event, detail: detailOf(e) });
  switch (e.event) {
    case "queued":
      state.cellsTotal = (e.request.trace && e.request.trace.tenants) || 0;
      state.app = e.request.app || null;
      break;
    case "running": case "interrupted":
      state.status = e.event; break;
    case "cell": {
      const t = tenantSeries(e.cell);
      const p = {
        cell: e.cell,
        lat: e.latency ? e.latency.p50_s : 0,
        rps: e.wall_s > 0 ? e.completed / e.wall_s : 0,
      };
      t.points.push(p); t.last = p;
      if (t.points.length > 40) t.points.shift();
      break;
    }
    case "progress":
      state.cellsDone = e.cells_done; state.cellsTotal = e.cells_total;
      state.offered = e.offered; state.completed = e.completed;
      state.failed = e.failed;
      break;
    case "report": state.status = "done"; break;
    case "degraded": state.status = "degraded"; break;
    case "error": state.status = "failed"; break;
  }
  renderProgress(); renderTenants(); renderDag(); renderLog();
}

async function followRun(runId) {
  if (follower) follower.abort();
  follower = new AbortController();
  state = freshState(runId);
  banner("");
  renderProgress(); renderTenants(); renderDag(); renderLog();
  try {
    const resp = await fetch(`/v1/runs/${runId}/events`,
                             { signal: follower.signal });
    const reader = resp.body.getReader();
    const decoder = new TextDecoder();
    let buf = "";
    for (;;) {
      const { done, value } = await reader.read();
      if (done) break;
      buf += decoder.decode(value, { stream: true });
      const lines = buf.split("\n");
      buf = lines.pop();
      for (const line of lines) {
        if (!line || line.startsWith(":")) continue;  // keepalive comment
        onEvent(JSON.parse(line));
      }
    }
  } catch (err) {
    if (err.name !== "AbortError") banner(`event stream: ${err}`);
  }
}

// -- pollers -----------------------------------------------------------------
function parseMetric(text, name) {
  // Sums every series of `name` in Prometheus text exposition.
  let total = 0, seen = false;
  for (const line of text.split("\n")) {
    if (!line.startsWith(name) || line.startsWith("#")) continue;
    const rest = line.slice(name.length);
    if (rest[0] !== " " && rest[0] !== "{") continue;
    const v = parseFloat(line.slice(line.lastIndexOf(" ") + 1));
    if (!Number.isNaN(v)) { total += v; seen = true; }
  }
  return seen ? total : null;
}

async function pollMetrics() {
  try {
    const text = await (await fetch("/metrics")).text();
    const inflight = parseMetric(text, "repro_jobs_inflight") || 0;
    const queued = parseMetric(text, "repro_jobs_queued") || 0;
    const workers = parseMetric(text, "repro_job_workers") || 0;
    $("stat-inflight").textContent = inflight;
    $("stat-queued").textContent = queued;
    $("stat-workers").textContent = workers;
    const frac = workers ? inflight / workers : 0;
    $("worker-fill").style.width = (frac * 100).toFixed(1) + "%";
    $("worker-label").textContent =
      `${(frac * 100).toFixed(0)}% of the pool busy`;
    const fleet = parseMetric(text, "repro_workers_registered") || 0;
    const leases = parseMetric(text, "repro_leases_granted_total") || 0;
    const expired = parseMetric(text, "repro_leases_expired_total") || 0;
    const results = parseMetric(text, "repro_lease_results_total") || 0;
    $("stat-fleet").textContent = fleet;
    $("stat-leases").textContent = leases;
    $("stat-expired").textContent = expired;
    $("fleet-label").textContent = fleet || leases
      ? `${results} lease result(s) delivered`
      : "no remote workers yet";
  } catch (err) { /* next poll retries */ }
}

async function pollRuns() {
  try {
    const { runs } = await (await fetch("/v1/runs")).json();
    const picker = $("run-picker");
    const current = picker.value;
    const ids = runs.map((r) => r.id).reverse();  // newest first
    if (ids.join() !== [...picker.options].map((o) => o.value).join()) {
      picker.textContent = "";
      for (const id of ids) {
        const opt = document.createElement("option");
        opt.value = id; opt.textContent = id;
        picker.appendChild(opt);
      }
      if (ids.includes(current)) picker.value = current;
      else if (ids.length) { picker.value = ids[0]; followRun(ids[0]); }
    }
  } catch (err) { /* next poll retries */ }
}

async function boot() {
  try {
    const { apps } = await (await fetch("/v1/apps")).json();
    for (const app of apps) workflows[app.name] = app.workflow;
  } catch (err) { banner(`could not load /v1/apps: ${err}`); }
  $("run-picker").addEventListener("change", (e) => followRun(e.target.value));
  await pollRuns();
  pollMetrics();
  setInterval(pollMetrics, 2000);
  setInterval(pollRuns, 3000);
}
boot();
</script>
</body>
</html>
"""
