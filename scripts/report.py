#!/usr/bin/env python3
"""Fold a GossipTrust telemetry JSONL log into summary tables.

The benches write one JSON object per line when run with
`--telemetry <path>` (or GT_TELEMETRY=<path>).  This tool validates the
log and summarizes it per event type:

    python3 scripts/report.py run.jsonl
    python3 scripts/report.py run.jsonl --check          # validate only
    python3 scripts/report.py run.jsonl --group n,epsilon
    python3 scripts/report.py run.jsonl --event cycle --group n,epsilon
    python3 scripts/report.py run.jsonl --trace          # flight recorder
    python3 scripts/report.py serve.jsonl --serve        # live-service view
    python3 scripts/report.py campaign.jsonl --attacks   # adversarial matrix
    python3 scripts/report.py out.json --perfetto-check  # trace JSON gate

With --group, numeric fields of the selected event type are aggregated
per group key; e.g. grouping `cycle` records by (n, epsilon) reproduces
the Figure 3 table (mean gossip_steps per cell) from the log alone.

Mirrored causal-trace records (`trace` / `probe`, written when a bench
runs with both --telemetry and --trace) get extra validation: --check
enforces their schemas and per-trace-id sim-time monotonicity, and
--trace summarizes retransmission chains, drops by reason, fault
markers, and the convergence probe series.  --perfetto-check validates
an exported Chrome trace-event JSON instead of a JSONL log.

`serve` records (written by tools/repserved on shutdown) also get schema
enforcement under --check, and --serve renders the live-service view:
request rates per opcode (ops/s over the recorded uptime) and request
latency percentiles (p50/p99/p999) recovered from the log-bucket
histograms embedded in the record — no server access needed.

`attack` and `attack_campaign` records (written by tools/attack_campaign)
are schema-checked too, and --attacks renders the adversarial-campaign
view: the attack x alpha matrix (ranking error, malicious gain, power-node
capture) plus a detection scoreboard that fails the run when a seeded
attack went undetected or a clean control raised a manipulation anomaly.

Exit status: 0 on success, 1 on any invalid line or I/O error (so CI can
use `report.py log --check` as a schema gate).  No third-party deps.
"""

import argparse
import json
import math
import sys
from collections import OrderedDict


# Span kinds the C++ TraceSink mirrors into the JSONL log (kProbe records
# become consolidated `probe` records instead).
TRACE_KINDS = frozenset({
    "cycle", "gossip_step", "phase",
    "msg_send", "msg_deliver", "msg_drop",
    "ack_send", "ack_deliver", "ack_drop",
    "retransmit", "reclaim", "suspicion", "epoch_restart", "fault",
})


def _is_id(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_trace_fields(obj):
    """Schema check for a mirrored `trace` record; returns an error or None."""
    if not isinstance(obj.get("sim_time"), (int, float)):
        return "trace record: missing/invalid 'sim_time'"
    kind = obj.get("kind")
    if not isinstance(kind, str):
        return "trace record: missing/invalid 'kind'"
    if kind not in TRACE_KINDS:
        return f"trace record: unknown kind '{kind}'"
    for key in ("trace_id", "span_id", "parent_id"):
        if not _is_id(obj.get(key)):
            return f"trace record: missing/invalid '{key}'"
    return None


def validate_probe_fields(obj):
    """Schema check for a flight-recorder `probe` record."""
    for key in ("sim_time", "weight", "mass_residual", "delta_v",
                "score", "x_residual"):
        if not isinstance(obj.get(key), (int, float)):
            return f"probe record: missing/invalid '{key}'"
    for key in ("trace_id", "series", "node"):
        if not _is_id(obj.get(key)):
            return f"probe record: missing/invalid '{key}'"
    return None


# Single-field probe series names (ProbeField enum in src/trace/trace.hpp).
PROBE_FIELD_NAMES = frozenset({
    "weight", "mass_residual", "delta_v", "score", "x_residual",
    "rating_bias",
})


def validate_probe_field_fields(obj):
    """Schema check for a single-field `probe_field` record."""
    for key in ("sim_time", "value"):
        if not isinstance(obj.get(key), (int, float)):
            return f"probe_field record: missing/invalid '{key}'"
    for key in ("trace_id", "series", "node"):
        if not _is_id(obj.get(key)):
            return f"probe_field record: missing/invalid '{key}'"
    if obj.get("field") not in PROBE_FIELD_NAMES:
        return f"probe_field record: unknown field {obj.get('field')!r}"
    return None


# AttackKind names (src/attack/attack_plan.hpp) an `attack` record carries.
ATTACK_KINDS = frozenset({
    "ring_start", "ring_end", "sybil_leave", "sybil_rejoin",
    "defect_start", "defect_end", "liar_start", "liar_end",
    "withhold_start", "withhold_end",
})


def validate_attack_fields(obj):
    """Schema check for an AttackInjector `attack` marker record."""
    if not isinstance(obj.get("sim_time"), (int, float)):
        return "attack record: missing/invalid 'sim_time'"
    if not _is_id(obj.get("index")):
        return "attack record: missing/invalid 'index'"
    kind = obj.get("kind")
    if kind not in ATTACK_KINDS:
        return f"attack record: unknown kind {kind!r}"
    # AttackInjector emits `ring` for ring events and `node` otherwise; the
    # campaign driver's markers always carry `node` (the ring id for rings).
    if not _is_id(obj.get("node")) and not _is_id(obj.get("ring")):
        return "attack record: missing/invalid 'node'/'ring'"
    return None


def validate_attack_campaign_fields(obj):
    """Schema check for one `attack_campaign` matrix-cell record."""
    if not isinstance(obj.get("archetype"), str):
        return "attack_campaign record: missing/invalid 'archetype'"
    for key in ("alpha", "kendall_tau", "honest_rms_error", "malicious_gain",
                "capture_rate"):
        if not is_number(obj.get(key)):
            return f"attack_campaign record: missing/invalid '{key}'"
    for key in ("n", "cycles", "attackers", "attack_events"):
        if not _is_id(obj.get(key)):
            return f"attack_campaign record: missing/invalid '{key}'"
    if obj.get("detected") not in (0, 1):
        return "attack_campaign record: 'detected' must be 0 or 1"
    if not isinstance(obj.get("detected_types"), str):
        return "attack_campaign record: missing/invalid 'detected_types'"
    return None


# Counter fields a `serve` / `serve_metrics` record must carry
# (tools/repserved writes the whole family; report.py --serve/--live
# render rates from them).
SERVE_COUNTERS = (
    "serve_lookups", "serve_batch_lookups", "serve_batch_keys",
    "serve_ingests", "serve_stats", "serve_metrics_requests",
    "serve_health_requests", "serve_proto_errors", "serve_frames",
    "serve_bytes_in", "serve_bytes_out", "serve_lookup_bytes",
    "serve_batch_bytes", "serve_ingest_bytes", "serve_conns_opened",
    "serve_conns_closed", "serve_bp_pauses", "serve_bp_resumes",
    "serve_slow_frames",
)

# Where the event loop picked up each batch of ready events: a poll while
# requests were dense, or a blocking wait. Records from before the poll
# rule lack them, so they are checked only when present.
SERVE_LOOP_COUNTERS = ("serve_loop_polled", "serve_loop_woken")

# Latency histograms embedded in a `serve` record as nested objects.
SERVE_HISTOGRAMS = (
    "serve_lookup_seconds", "serve_batch_seconds", "serve_ingest_seconds",
)


def validate_serve_histogram(name, h):
    """Schema check for one embedded histogram object; error string or None."""
    if not isinstance(h, dict):
        return f"'{name}' must be an object"
    for key in ("count", "sum", "mean", "min", "max", "bucket_min", "growth"):
        if not is_number(h.get(key)):
            return f"'{name}': missing/invalid '{key}'"
    buckets = h.get("buckets")
    if not isinstance(buckets, list) or not buckets:
        return f"'{name}': missing/invalid 'buckets'"
    if any(not isinstance(b, int) or isinstance(b, bool) or b < 0
           for b in buckets):
        return f"'{name}': buckets must be non-negative integers"
    if sum(buckets) != h["count"]:
        return (f"'{name}': bucket sum {sum(buckets)} != count {h['count']}")
    if h["growth"] <= 1.0 or h["bucket_min"] <= 0:
        return f"'{name}': growth must be > 1 and bucket_min > 0"
    return None


def validate_serve_fields(obj, what="serve"):
    """Schema check for a `serve` / `serve_metrics` record."""
    if not is_number(obj.get("uptime_seconds")) or obj["uptime_seconds"] < 0:
        return f"{what} record: missing/invalid 'uptime_seconds'"
    present = tuple(k for k in SERVE_LOOP_COUNTERS if k in obj)
    for key in SERVE_COUNTERS + present:
        v = obj.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return f"{what} record: missing/invalid '{key}'"
    for key in SERVE_HISTOGRAMS:
        err = validate_serve_histogram(key, obj.get(key))
        if err:
            return f"{what} record: {err}"
    return None


# Fields a `serve_health` record carries (mirrors serve::HealthPayload,
# written by repserved's periodic exporter).
SERVE_HEALTH_FLAGS = ("fold_loop", "converged", "degraded")
SERVE_HEALTH_COUNTS = ("published_epoch", "ingest_backlog", "ingest_enqueued",
                       "staleness_frames", "refolds")
SERVE_HEALTH_NUMBERS = ("staleness_seconds", "mass_gap", "last_fold_seconds",
                        "uptime_seconds")


def validate_serve_health_fields(obj):
    """Schema check for a `serve_health` record; returns an error or None."""
    for key in SERVE_HEALTH_FLAGS:
        if obj.get(key) not in (0, 1):
            return f"serve_health record: '{key}' must be 0 or 1"
    for key in SERVE_HEALTH_COUNTS:
        if not _is_id(obj.get(key)):
            return f"serve_health record: missing/invalid '{key}'"
    for key in SERVE_HEALTH_NUMBERS:
        if not is_number(obj.get(key)) or obj[key] < 0:
            return f"serve_health record: missing/invalid '{key}'"
    return None


def validate_slow_frame_fields(obj):
    """Schema check for a handler `slow_frame` record."""
    for key in ("opcode", "bytes", "conn"):
        if not _is_id(obj.get(key)):
            return f"slow_frame record: missing/invalid '{key}'"
    if not is_number(obj.get("seconds")) or obj["seconds"] <= 0:
        return "slow_frame record: missing/invalid 'seconds'"
    return None


def histogram_percentile(h, pct):
    """Recovers an upper-bound percentile estimate from log buckets.

    buckets[0] is the underflow bin (< bucket_min), buckets[-1] the
    overflow bin; interior bucket i spans
    [bucket_min * growth^(i-1), bucket_min * growth^i).  Returns the upper
    edge of the bucket holding the requested rank — a <= growth-factor
    overestimate, which is the resolution the C++ histogram was built with.
    """
    total = h["count"]
    if total == 0:
        return math.nan
    rank = pct / 100.0 * total
    cum = 0
    buckets = h["buckets"]
    for i, b in enumerate(buckets):
        cum += b
        if cum >= rank and b > 0:
            if i == 0:
                return h["bucket_min"]
            if i == len(buckets) - 1:
                return h["max"]
            return h["bucket_min"] * h["growth"] ** i
    return h["max"]


def load(path):
    """Parses a JSONL file; returns (records, errors).

    Each record must be a JSON object with an `event` string, a numeric
    `ts`, and a non-negative integer `seq`.  Blank lines are invalid: the
    writer never emits them, so one indicates truncation or corruption.
    Mirrored causal-trace records (`trace` / `probe`) additionally get
    their type-specific schemas enforced.
    """
    records, errors = [], []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        return [], [f"{path}: {e}"]
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"line {lineno}: invalid JSON ({e})")
                continue
            if not isinstance(obj, dict):
                errors.append(f"line {lineno}: not a JSON object")
                continue
            if not isinstance(obj.get("event"), str):
                errors.append(f"line {lineno}: missing/invalid 'event'")
                continue
            if not isinstance(obj.get("ts"), (int, float)):
                errors.append(f"line {lineno}: missing/invalid 'ts'")
                continue
            seq = obj.get("seq")
            if not isinstance(seq, int) or seq < 0:
                errors.append(f"line {lineno}: missing/invalid 'seq'")
                continue
            schema_error = None
            if obj["event"] == "trace":
                schema_error = validate_trace_fields(obj)
            elif obj["event"] == "probe":
                schema_error = validate_probe_fields(obj)
            elif obj["event"] == "probe_field":
                schema_error = validate_probe_field_fields(obj)
            elif obj["event"] == "serve":
                schema_error = validate_serve_fields(obj)
            elif obj["event"] == "serve_metrics":
                schema_error = validate_serve_fields(obj, "serve_metrics")
            elif obj["event"] == "serve_health":
                schema_error = validate_serve_health_fields(obj)
            elif obj["event"] == "slow_frame":
                schema_error = validate_slow_frame_fields(obj)
            elif obj["event"] == "attack":
                schema_error = validate_attack_fields(obj)
            elif obj["event"] == "attack_campaign":
                schema_error = validate_attack_campaign_fields(obj)
            if schema_error:
                errors.append(f"line {lineno}: {schema_error}")
                continue
            records.append(obj)
    return records, errors


def check_trace_monotonic(records):
    """Sim-time monotonicity within each trace id.

    Trace records are mirrored when a span *completes*, stamped with the
    span's end time, so within one causal tree the mirrored sim_time
    stream must be non-decreasing.  A violation means the sink emitted
    out of causal order — a tracing bug worth failing CI over.
    """
    errors = []
    last = {}
    for r in records:
        if r["event"] != "trace":
            continue
        tid, t = r["trace_id"], r["sim_time"]
        prev = last.get(tid)
        if prev is not None and t < prev:
            errors.append(
                f"trace id {tid}: sim_time went backwards "
                f"({fmt(prev)} -> {fmt(t)} at kind '{r['kind']}')")
        last[tid] = t
    return errors


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class FieldStats:
    __slots__ = ("count", "total", "lo", "hi")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.lo = math.inf
        self.hi = -math.inf

    def add(self, v):
        self.count += 1
        self.total += v
        self.lo = min(self.lo, v)
        self.hi = max(self.hi, v)

    @property
    def mean(self):
        return self.total / self.count if self.count else math.nan


def numeric_fields(records):
    """Ordered {field: FieldStats} over top-level numeric fields."""
    stats = OrderedDict()
    for r in records:
        for k, v in r.items():
            if k in ("ts", "seq", "event") or not is_number(v):
                continue
            stats.setdefault(k, FieldStats()).add(float(v))
    return stats


def fmt(v):
    if v != v:  # NaN
        return "-"
    if abs(v) >= 1e7 or (v != 0 and abs(v) < 1e-3):
        return f"{v:.3e}"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def print_table(header, rows, out=sys.stdout):
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        out.write("  ".join(c.rjust(w) for c, w in zip(cells, widths)) + "\n")
    line(header)
    line(["-" * w for w in widths])
    for row in rows:
        line(row)


def summarize_events(records):
    by_event = OrderedDict()
    for r in records:
        by_event.setdefault(r["event"], []).append(r)
    for event, recs in by_event.items():
        print(f"\n== event: {event} ({len(recs)} records) ==")
        stats = numeric_fields(recs)
        if not stats:
            continue
        rows = [
            [k, str(s.count), fmt(s.mean), fmt(s.lo), fmt(s.hi), fmt(s.total)]
            for k, s in stats.items()
        ]
        print_table(["field", "count", "mean", "min", "max", "sum"], rows)


def summarize_grouped(records, event, group_keys):
    recs = [r for r in records if r["event"] == event]
    if not recs:
        print(f"no '{event}' records in log", file=sys.stderr)
        return False
    groups = OrderedDict()
    for r in recs:
        key = tuple(r.get(k) for k in group_keys)
        groups.setdefault(key, []).append(r)
    # Columns: group keys, record count, then mean of every numeric field
    # (group keys excluded) seen across all groups.
    all_fields = OrderedDict()
    for key_recs in groups.values():
        for k in numeric_fields(key_recs):
            if k not in group_keys:
                all_fields[k] = None
    header = list(group_keys) + ["records"] + [f"mean({k})" for k in all_fields]
    rows = []
    for key, key_recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        stats = numeric_fields(key_recs)
        row = [fmt(v) if is_number(v) else str(v) for v in key]
        row.append(str(len(key_recs)))
        for k in all_fields:
            row.append(fmt(stats[k].mean) if k in stats else "-")
        rows.append(row)
    print(f"\n== event: {event}, grouped by ({', '.join(group_keys)}) ==")
    print_table(header, rows)
    return True


def summarize_trace(records):
    """Flight-recorder view of the mirrored `trace` / `probe` records."""
    traces = [r for r in records if r["event"] == "trace"]
    probes = [r for r in records if r["event"] == "probe"]
    if not traces and not probes:
        print("no trace/probe records in log (run the bench with both "
              "--telemetry and --trace)", file=sys.stderr)
        return False

    by_kind = OrderedDict()
    for r in traces:
        by_kind.setdefault(r["kind"], []).append(r)
    print(f"\n== causal trace: {len(traces)} spans, {len(probes)} probes ==")
    if by_kind:
        print_table(["kind", "count"],
                    [[k, str(len(v))] for k, v in by_kind.items()])

    drops = [r for r in traces if r["kind"] in ("msg_drop", "ack_drop")]
    if drops:
        by_reason = OrderedDict()
        for r in drops:
            by_reason.setdefault(r.get("reason", "unknown"), []).append(r)
        print(f"\ndrops by reason ({len(drops)} total):")
        print_table(["reason", "count"],
                    [[k, str(len(v))] for k, v in by_reason.items()])

    retrans = by_kind.get("retransmit", [])
    if retrans:
        chains = OrderedDict()
        for r in retrans:
            chains.setdefault(r["trace_id"], []).append(r)
        rows = []
        for tid, rs in sorted(chains.items(),
                              key=lambda kv: -len(kv[1]))[:10]:
            rows.append([str(tid), str(len(rs)),
                         fmt(rs[0].get("node", -1)),
                         fmt(rs[0].get("peer", -1)),
                         fmt(min(r["sim_time"] for r in rs)),
                         fmt(max(r["sim_time"] for r in rs))])
        print(f"\nretransmission chains ({len(chains)} trace ids, "
              "longest first):")
        print_table(["trace_id", "retries", "from", "to", "t_first", "t_last"],
                    rows)

    faults = by_kind.get("fault", [])
    if faults:
        print(f"\nfault markers ({len(faults)}):")
        rows = [[fmt(r["sim_time"]), fmt(r.get("flags", -1)),
                 fmt(r.get("node", -1)), fmt(r.get("value", 0))]
                for r in faults]
        print_table(["sim_time", "kind_code", "node", "rate"], rows)

    if probes:
        series = OrderedDict()
        for r in probes:
            series.setdefault(r["series"], []).append(r)
        rows = []
        for sid, rs in series.items():
            dv = [abs(r["delta_v"]) for r in rs]
            res = [abs(r["mass_residual"]) for r in rs]
            rows.append([str(sid), str(len(rs)),
                         fmt(sum(dv) / len(dv)), fmt(max(dv)),
                         fmt(max(res))])
        print(f"\nconvergence probe series ({len(series)} sweeps):")
        print_table(
            ["sweep", "nodes", "mean|dV|", "max|dV|", "max|residual|"], rows)
    return True


def summarize_serve(records):
    """Live-service view of `serve` records (one per repserved shutdown)."""
    serves = [r for r in records if r["event"] == "serve"]
    if not serves:
        print("no serve records in log (run tools/repserved with "
              "--telemetry)", file=sys.stderr)
        return False

    for idx, r in enumerate(serves):
        uptime = r["uptime_seconds"]
        label = f" #{idx}" if len(serves) > 1 else ""
        print(f"\n== serve record{label}: uptime {fmt(uptime)}s ==")

        rate = lambda v: fmt(v / uptime) if uptime > 0 else "-"
        rows = [
            ["LOOKUP", str(r["serve_lookups"]), rate(r["serve_lookups"])],
            ["BATCH_LOOKUP", str(r["serve_batch_lookups"]),
             rate(r["serve_batch_lookups"])],
            ["  batch keys", str(r["serve_batch_keys"]),
             rate(r["serve_batch_keys"])],
            ["INGEST", str(r["serve_ingests"]), rate(r["serve_ingests"])],
            ["STATS", str(r["serve_stats"]), rate(r["serve_stats"])],
            ["frames (all)", str(r["serve_frames"]), rate(r["serve_frames"])],
        ]
        print_table(["opcode", "count", "ops/s"], rows)

        keys_served = r["serve_lookups"] + r["serve_batch_keys"]
        print(f"\nlookup keys served: {keys_served} "
              f"({rate(keys_served)} keys/s)")
        print(f"bytes in/out: {r['serve_bytes_in']} / {r['serve_bytes_out']}"
              f"  connections: {r['serve_conns_opened']} opened, "
              f"{r['serve_conns_closed']} closed"
              f"  protocol errors: {r['serve_proto_errors']}")
        if all(k in r for k in SERVE_LOOP_COUNTERS):
            polled, woken = r["serve_loop_polled"], r["serve_loop_woken"]
            share = fmt(polled / (polled + woken)) if polled + woken else "-"
            print(f"event-loop batches: {polled} polled, {woken} woken "
                  f"(polled share {share})")

        rows = []
        for key in SERVE_HISTOGRAMS:
            h = r[key]
            if h["count"] == 0:
                continue
            rows.append([
                key.removeprefix("serve_").removesuffix("_seconds"),
                str(h["count"]),
                fmt(h["mean"] * 1e6),
                fmt(histogram_percentile(h, 50.0) * 1e6),
                fmt(histogram_percentile(h, 99.0) * 1e6),
                fmt(histogram_percentile(h, 99.9) * 1e6),
                fmt(h["max"] * 1e6),
            ])
        if rows:
            print("\nper-request service time (us, from log buckets):")
            print_table(
                ["request", "count", "mean", "p50", "p99", "p999", "max"],
                rows)
    return True


def hist_delta(cur, prev):
    """Interval histogram from two cumulative `serve_metrics` snapshots."""
    d = dict(cur)
    if prev is not None and len(prev["buckets"]) == len(cur["buckets"]):
        d["buckets"] = [a - b for a, b in zip(cur["buckets"], prev["buckets"])]
        d["count"] = cur["count"] - prev["count"]
    return d


def summarize_live(records):
    """Timeline view of the periodic `serve_metrics` / `serve_health` /
    `slow_frame` stream a live repserved emits.

    Rates and percentiles come from *consecutive-snapshot deltas* (counter
    differences over the uptime difference, histogram-bucket differences
    for interval p50/p99/p999), so the table shows how the service behaved
    over time, not just the final cumulative totals.
    """
    metrics = [r for r in records if r["event"] == "serve_metrics"]
    healths = [r for r in records if r["event"] == "serve_health"]
    slows = [r for r in records if r["event"] == "slow_frame"]
    if not metrics:
        print("no serve_metrics records in log (run tools/repserved with "
              "--telemetry and a --metrics-interval > 0)", file=sys.stderr)
        return False

    rows = []
    for prev, cur in zip(metrics, metrics[1:]):
        dt = cur["uptime_seconds"] - prev["uptime_seconds"]
        if dt <= 0:
            continue
        rate = lambda k: fmt((cur[k] - prev[k]) / dt)
        d = hist_delta(cur["serve_batch_seconds"], prev["serve_batch_seconds"])
        if d["count"] == 0:  # no batch traffic: fall back to single lookups
            d = hist_delta(cur["serve_lookup_seconds"],
                           prev["serve_lookup_seconds"])
        rows.append([
            fmt(cur["uptime_seconds"]),
            rate("serve_lookups"), rate("serve_batch_keys"),
            rate("serve_ingests"), rate("serve_bytes_in"),
            fmt(histogram_percentile(d, 50.0) * 1e6),
            fmt(histogram_percentile(d, 99.0) * 1e6),
            fmt(histogram_percentile(d, 99.9) * 1e6),
        ])
    print(f"\n== live rate timeline ({len(metrics)} snapshots, "
          "batch-frame percentiles in us) ==")
    if rows:
        print_table(["t(s)", "lookup/s", "keys/s", "ingest/s", "bytes_in/s",
                     "p50", "p99", "p999"], rows)
    else:
        print("(need >= 2 serve_metrics snapshots for a timeline)")

    if healths:
        rows = [[
            fmt(r["uptime_seconds"]), str(r["published_epoch"]),
            str(r["ingest_backlog"]), str(r["staleness_frames"]),
            fmt(r["staleness_seconds"]), fmt(r["mass_gap"]),
            str(r["converged"]), str(r["degraded"]),
            fmt(r["last_fold_seconds"]),
        ] for r in healths]
        print(f"\n== health/staleness timeline ({len(healths)} snapshots) ==")
        print_table(["t(s)", "epoch", "backlog", "stale_frames", "stale_s",
                     "mass_gap", "conv", "degr", "fold_s"], rows)

    last = metrics[-1]
    print(f"\nbackpressure: {last['serve_bp_pauses']} pauses / "
          f"{last['serve_bp_resumes']} resumes"
          f"  slow frames: {last['serve_slow_frames']}"
          f"  log lines dropped: "
          f"{last.get('serve_log_lines_dropped', 0)}")
    if slows:
        worst = sorted(slows, key=lambda r: -r["seconds"])[:5]
        rows = [[fmt(r["opcode"]), str(r["bytes"]), str(r["conn"]),
                 fmt(r["seconds"] * 1e6)] for r in worst]
        print(f"\nslowest frames ({len(slows)} logged):")
        print_table(["opcode", "bytes", "conn", "us"], rows)
    return True


def summarize_attacks(records):
    """Adversarial-campaign view of `attack_campaign` / `attack` records."""
    cells = [r for r in records if r["event"] == "attack_campaign"]
    if not cells:
        print("no attack_campaign records in log (run tools/attack_campaign "
              "with --out)", file=sys.stderr)
        return False

    rows = []
    for r in cells:
        rows.append([
            r["archetype"], fmt(r["alpha"]), str(r["n"]), str(r["cycles"]),
            str(r["attackers"]), fmt(r["kendall_tau"]),
            fmt(r["honest_rms_error"]),
            fmt(r["malicious_gain"]) if r["malicious_gain"] >= 0 else "inf",
            fmt(r["capture_rate"]),
            "yes" if r["detected"] else "no",
            r["detected_types"] or "-",
        ])
    print(f"\n== attack campaign matrix ({len(cells)} cells) ==")
    print_table(["archetype", "alpha", "n", "cycles", "attackers", "tau",
                 "rms", "gain", "capture", "detect", "signatures"], rows)

    # Detection scoreboard: every attacked cell should be detected, every
    # clean control should not — the same contract the CI attack job gates.
    attacked = [r for r in cells if r["attackers"] > 0]
    clean = [r for r in cells if r["attackers"] == 0]
    missed = [r for r in attacked if not r["detected"]]
    false_pos = [r for r in clean if r["detected"]]
    print(f"\ndetection: {len(attacked) - len(missed)}/{len(attacked)} "
          f"attacked cells flagged, "
          f"{len(false_pos)}/{len(clean)} clean cells false-positive")
    for r in missed:
        print(f"  missed: {r['archetype']} alpha={fmt(r['alpha'])}")
    for r in false_pos:
        print(f"  false positive: {r['archetype']} alpha={fmt(r['alpha'])} "
              f"({r['detected_types']})")

    marks = [r for r in records if r["event"] == "attack"]
    if marks:
        by_kind = OrderedDict()
        for r in marks:
            by_kind.setdefault(r["kind"], []).append(r)
        print(f"\nattack events applied ({len(marks)} total):")
        print_table(["kind", "count"],
                    [[k, str(len(v))] for k, v in by_kind.items()])
    return not missed and not false_pos


# Event phases the exporter emits: complete spans, flow start/finish,
# instants, counters, metadata (B/E tolerated for hand-edited files).
PERFETTO_PHASES = frozenset({"X", "s", "f", "i", "C", "M", "B", "E"})


def perfetto_check(path):
    """Validates an exported Chrome trace-event JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 1
    errors = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        errors.append("top level must be an object with a 'traceEvents' list")
        events = []
    else:
        events = doc["traceEvents"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in PERFETTO_PHASES:
            errors.append(f"{where}: missing/unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing 'name'")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric 'ts'")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: 'X' event needs dur >= 0")
        if ph in ("s", "f") and "id" not in ev:
            errors.append(f"{where}: flow event needs an 'id'")
        if len(errors) >= 20:
            errors.append("... (stopping after 20 errors)")
            break
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    verdict = "OK" if not errors else "INVALID"
    print(f"{path}: {verdict} ({len(events)} trace events, "
          f"{len(errors)} errors)")
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("log", help="telemetry JSONL file (or Chrome trace JSON "
                                "with --perfetto-check)")
    ap.add_argument("--check", action="store_true",
                    help="validate only; print a one-line verdict")
    ap.add_argument("--event", default="cycle",
                    help="event type for --group (default: cycle)")
    ap.add_argument("--group", default=None, metavar="K1,K2",
                    help="comma-separated fields to group the --event "
                         "records by (e.g. n,epsilon)")
    ap.add_argument("--trace", action="store_true",
                    help="summarize mirrored trace/probe records "
                         "(flight-recorder view)")
    ap.add_argument("--serve", action="store_true",
                    help="summarize live-service `serve` records "
                         "(request rates + latency percentiles)")
    ap.add_argument("--live", action="store_true",
                    help="summarize periodic `serve_metrics`/`serve_health` "
                         "snapshots (rate/percentile/staleness timelines); "
                         "with --check, also require both record kinds to "
                         "be present")
    ap.add_argument("--attacks", action="store_true",
                    help="summarize adversarial-campaign records (matrix "
                         "table + detection scoreboard; exits 1 on a missed "
                         "attack or clean false positive)")
    ap.add_argument("--perfetto-check", action="store_true",
                    help="validate an exported Chrome trace-event JSON "
                         "instead of a JSONL log")
    args = ap.parse_args()

    if args.perfetto_check:
        return perfetto_check(args.log)

    records, errors = load(args.log)
    if not errors:
        errors += check_trace_monotonic(records)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if args.live and args.check:
        # The observability smoke gate: a "valid" log that never exported a
        # snapshot means the metrics plane silently failed — fail loudly.
        for kind in ("serve_metrics", "serve_health"):
            if not any(r["event"] == kind for r in records):
                errors.append(f"--live log has no {kind} records")
    if args.check:
        verdict = "OK" if not errors else "INVALID"
        print(f"{args.log}: {verdict} ({len(records)} records, "
              f"{len(errors)} errors)")
        return 1 if errors else 0
    if errors:
        return 1
    if not records:
        print(f"{args.log}: empty log", file=sys.stderr)
        return 1

    print(f"{args.log}: {len(records)} records")
    if args.trace:
        return 0 if summarize_trace(records) else 1
    if args.serve:
        return 0 if summarize_serve(records) else 1
    if args.live:
        return 0 if summarize_live(records) else 1
    if args.attacks:
        return 0 if summarize_attacks(records) else 1
    if args.group:
        keys = [k.strip() for k in args.group.split(",") if k.strip()]
        if not summarize_grouped(records, args.event, keys):
            return 1
    else:
        summarize_events(records)
    # Degraded cycles (gossip non-convergence; the engine fell back to the
    # previous reputation vector) are an operational red flag — surface the
    # count whenever the log carries cycle records.
    cycles = [r for r in records if r["event"] == "cycle"]
    if cycles:
        degraded = sum(1 for r in cycles if r.get("degraded"))
        print(f"\ndegraded cycles: {degraded}/{len(cycles)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
