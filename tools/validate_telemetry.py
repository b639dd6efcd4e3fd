#!/usr/bin/env python3
"""Validates telemetry artifacts emitted by song_cli / the obs exporters.

Stdlib-only. Five artifact kinds, any subset per invocation:

  validate_telemetry.py --trace out.trace.json \
                        --metrics-json out.metrics.json \
                        --metrics out.prom \
                        --statusz statusz.json \
                        --flight-recorder flight.json

Checks (see docs/observability.md for the formats):
  * Chrome trace: well-formed trace_event JSON; every "X" event carries
    pid/tid/ts/dur; each sampled query's per-iteration stage spans sum to
    its query span within 1%; the GPU timeline's stage spans sum to the
    kernel span within 1%; `otherData` carries the schema version and the
    breakdown seconds.
  * Metrics JSON: schema_version plus counters/gauges/histograms maps;
    histogram entries carry count/sum/min/max/p50/p95/p99 with ordered
    percentiles. When all four song.req.* stage histograms are present,
    their counts must be equal and sum(total_us) must telescope to
    sum(queue) + sum(batch_form) + sum(search) (per-record float rounding
    slack).
  * Prometheus text: every non-comment line is `name value`; every metric
    is preceded by a `# TYPE` declaration.
  * Flight recorder: schema_version/capacity (power of two)/
    total_recorded/records; each record's total_us telescopes to its three
    stages and its fields are typed and non-negative.
  * Statusz: the one-shot dump — command/status/build/simd/fault/serve
    sections plus embedded metrics + flight-recorder documents (each
    either null or valid per the rules above). The serve section (null
    for batch CLI runs, populated by song_server) must carry the queue /
    batching configuration and the outcome counters, and those counters
    must conserve: ok + shed + deadline + error never exceeds accepted,
    with exact equality once the server has drained (draining true, no
    live connections). Its batches dispatched inline on a reader are a
    subset of all batches: inline_dispatches <= batches.
  * song.serve.* metrics, when present in any metrics document: the
    outcome counters must exist alongside song.serve.accepted and obey
    the same conservation bound, and song.serve.inline_dispatches never
    exceeds song.serve.batches.

Exit code 0 = all artifacts valid, 1 = validation failure, 2 = usage.
"""

import argparse
import json
import math
import sys

REL_TOL = 0.01  # the 1% span-sum acceptance bound


class ValidationError(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise ValidationError(msg)


def close(a, b, rel=REL_TOL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


def validate_chrome_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    check(isinstance(doc, dict), "trace: top level must be an object")
    events = doc.get("traceEvents")
    check(isinstance(events, list) and events,
          "trace: missing/empty traceEvents")

    other = doc.get("otherData")
    check(isinstance(other, dict), "trace: missing otherData")
    for key in ("schema_version", "gpu", "num_queries", "num_traces",
                "kernel_seconds", "locate_seconds", "distance_seconds",
                "maintain_seconds", "htod_seconds", "dtoh_seconds"):
        check(key in other, f"trace: otherData missing {key!r}")
    check(other["schema_version"] == 1,
          f"trace: unknown schema_version {other['schema_version']}")

    # Stage attribution partitions the kernel time.
    stage_sum = (other["locate_seconds"] + other["distance_seconds"] +
                 other["maintain_seconds"])
    check(close(stage_sum, other["kernel_seconds"]),
          f"trace: otherData stage seconds sum {stage_sum:.6g} != "
          f"kernel_seconds {other['kernel_seconds']:.6g}")

    # Index spans: pid 1 holds the sampled query chains (tid = query id).
    query_spans = {}   # tid -> dur of the "query N" umbrella span
    stage_sums = {}    # tid -> sum of its locate/distance/maintain spans
    gpu_kernel_dur = None
    gpu_stage_sum = 0.0
    for ev in events:
        check(isinstance(ev, dict) and "ph" in ev,
              f"trace: malformed event {ev!r}")
        if ev["ph"] == "M":
            continue
        check(ev["ph"] == "X", f"trace: unexpected phase {ev['ph']!r}")
        for key in ("name", "pid", "tid", "ts", "dur"):
            check(key in ev, f"trace: X event missing {key!r}: {ev!r}")
        check(ev["dur"] >= 0, f"trace: negative duration in {ev!r}")
        if ev["pid"] == 0:
            if ev["name"] == "kernel":
                gpu_kernel_dur = ev["dur"]
            elif ev["name"] in ("locate", "distance", "maintain"):
                gpu_stage_sum += ev["dur"]
        elif ev["pid"] == 1:
            if ev["name"].startswith("query "):
                check(ev["tid"] not in query_spans,
                      f"trace: duplicate query span for tid {ev['tid']}")
                query_spans[ev["tid"]] = ev["dur"]
            elif ev["name"] in ("locate", "distance", "maintain"):
                stage_sums[ev["tid"]] = stage_sums.get(ev["tid"], 0.0) + \
                    ev["dur"]

    check(gpu_kernel_dur is not None, "trace: no GPU kernel span (pid 0)")
    check(close(gpu_stage_sum, gpu_kernel_dur),
          f"trace: GPU stage spans sum {gpu_stage_sum:.6g}us != kernel span "
          f"{gpu_kernel_dur:.6g}us")

    check(len(query_spans) == other["num_traces"],
          f"trace: {len(query_spans)} query spans but otherData says "
          f"{other['num_traces']} traces")
    for tid, dur in query_spans.items():
        got = stage_sums.get(tid, 0.0)
        check(close(got, dur),
              f"trace: query {tid} stage spans sum {got:.6g}us != query "
              f"span {dur:.6g}us (>{REL_TOL:.0%} off)")
    return len(query_spans)


SERVE_OUTCOME_COUNTERS = ("song.serve.outcome.ok", "song.serve.outcome.shed",
                          "song.serve.outcome.deadline",
                          "song.serve.outcome.error")

REQ_STAGE_HISTOGRAMS = ("song.req.queue_us", "song.req.batch_form_us",
                        "song.req.search_us")
REQ_TOTAL_HISTOGRAM = "song.req.total_us"
# Per-record total_us is a rounded float sum of three float stages; over N
# records the histogram sums (doubles of those floats) telescope to within
# this relative slack.
REQ_SUM_REL_TOL = 1e-3


def validate_metrics_doc(doc, label="metrics-json"):
    check(isinstance(doc, dict), f"{label}: top level must be an object")
    check(doc.get("schema_version") == 1,
          f"{label}: unknown schema_version {doc.get('schema_version')}")
    for section in ("counters", "gauges", "histograms"):
        check(isinstance(doc.get(section), dict),
              f"{label}: missing {section!r} object")
    for name, value in doc["counters"].items():
        check(isinstance(value, int) and value >= 0,
              f"{label}: counter {name!r} not a non-negative int")
    for name, value in doc["gauges"].items():
        check(isinstance(value, (int, float)),
              f"{label}: gauge {name!r} not numeric")
    for name, h in doc["histograms"].items():
        check(isinstance(h, dict),
              f"{label}: histogram {name!r} not an object")
        for key in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            check(key in h, f"{label}: histogram {name!r} missing {key!r}")
        if h["count"] > 0:
            check(h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"]
                  or close(h["min"], h["max"], rel=0.2),
                  f"{label}: histogram {name!r} percentiles out of "
                  f"order: {h}")

    # Serving-tier outcome conservation: when the server's counters are in
    # this document, every outcome bucket must exist and their sum can
    # never exceed accepted (requests still in flight account for any gap).
    counters = doc["counters"]
    if "song.serve.accepted" in counters:
        outcome_sum = 0
        for name in SERVE_OUTCOME_COUNTERS:
            check(name in counters,
                  f"{label}: song.serve.accepted present but {name!r} "
                  f"missing")
            outcome_sum += counters[name]
        check(outcome_sum <= counters["song.serve.accepted"],
              f"{label}: serve outcomes sum {outcome_sum} exceeds "
              f"accepted {counters['song.serve.accepted']}")
    if "song.serve.inline_dispatches" in counters:
        check("song.serve.batches" in counters,
              f"{label}: song.serve.inline_dispatches present but "
              f"song.serve.batches missing")
        check(counters["song.serve.inline_dispatches"] <=
              counters["song.serve.batches"],
              f"{label}: song.serve.inline_dispatches "
              f"{counters['song.serve.inline_dispatches']} exceeds "
              f"song.serve.batches {counters['song.serve.batches']}")

    # Request-lifecycle telescoping: the four song.req.* stage histograms
    # must agree on count, and total must be the sum of the three stages.
    hists = doc["histograms"]
    if REQ_TOTAL_HISTOGRAM in hists:
        total = hists[REQ_TOTAL_HISTOGRAM]
        stage_sum = 0.0
        for name in REQ_STAGE_HISTOGRAMS:
            check(name in hists,
                  f"{label}: {REQ_TOTAL_HISTOGRAM} present but {name!r} "
                  f"missing")
            check(hists[name]["count"] == total["count"],
                  f"{label}: {name!r} count {hists[name]['count']} != "
                  f"{REQ_TOTAL_HISTOGRAM} count {total['count']}")
            stage_sum += hists[name]["sum"]
        check(close(stage_sum, total["sum"], rel=REQ_SUM_REL_TOL),
              f"{label}: song.req stage sums {stage_sum:.6g} do not "
              f"telescope to total {total['sum']:.6g} "
              f"(>{REQ_SUM_REL_TOL:.2%} off)")

    return sum(len(doc[s]) for s in ("counters", "gauges", "histograms"))


def validate_metrics_json(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return validate_metrics_doc(doc)


def validate_flight_recorder_doc(doc, label="flight-recorder"):
    check(isinstance(doc, dict), f"{label}: top level must be an object")
    check(doc.get("schema_version") == 1,
          f"{label}: unknown schema_version {doc.get('schema_version')}")
    capacity = doc.get("capacity")
    check(isinstance(capacity, int) and capacity >= 2 and
          capacity & (capacity - 1) == 0,
          f"{label}: capacity {capacity!r} not a power of two >= 2")
    total = doc.get("total_recorded")
    check(isinstance(total, int) and total >= 0,
          f"{label}: total_recorded {total!r} not a non-negative int")
    records = doc.get("records")
    check(isinstance(records, list), f"{label}: missing records list")
    check(len(records) <= capacity,
          f"{label}: {len(records)} records exceed capacity {capacity}")
    check(len(records) <= total,
          f"{label}: {len(records)} records but only {total} ever recorded")
    for i, r in enumerate(records):
        check(isinstance(r, dict), f"{label}: record {i} not an object")
        for key in ("request_id", "options_digest", "snapshot_version",
                    "queue_us", "batch_form_us", "search_us", "total_us",
                    "status", "status_code", "degraded", "rejected"):
            check(key in r, f"{label}: record {i} missing {key!r}")
        check(isinstance(r["options_digest"], str) and
              r["options_digest"].startswith("0x"),
              f"{label}: record {i} options_digest not a hex string")
        for key in ("queue_us", "batch_form_us", "search_us", "total_us"):
            check(isinstance(r[key], (int, float)) and r[key] >= 0,
                  f"{label}: record {i} {key!r} negative or non-numeric")
        check(isinstance(r["status"], str) and r["status"],
              f"{label}: record {i} status not a non-empty string")
        check(isinstance(r["degraded"], bool) and
              isinstance(r["rejected"], bool),
              f"{label}: record {i} degraded/rejected not booleans")
        stage_sum = r["queue_us"] + r["batch_form_us"] + r["search_us"]
        check(close(stage_sum, r["total_us"], rel=REQ_SUM_REL_TOL) or
              close(stage_sum, 0.0),
              f"{label}: record {i} stages {stage_sum:.6g}us do not "
              f"telescope to total_us {r['total_us']:.6g}")
    return len(records)


def validate_flight_recorder(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return validate_flight_recorder_doc(doc)


def validate_serve_doc(doc, label="statusz.serve"):
    check(isinstance(doc, dict), f"{label}: not an object")
    for key in ("port", "connections", "queue_depth", "queue_capacity",
                "max_batch", "num_workers", "batches", "inline_dispatches",
                "accepted"):
        check(isinstance(doc.get(key), int) and doc[key] >= 0,
              f"{label}: {key!r} not a non-negative int: {doc.get(key)!r}")
    check(isinstance(doc.get("draining"), bool),
          f"{label}: draining not a boolean")
    check(doc["queue_depth"] <= doc["queue_capacity"],
          f"{label}: queue_depth {doc['queue_depth']} exceeds capacity "
          f"{doc['queue_capacity']}")
    check(doc["inline_dispatches"] <= doc["batches"],
          f"{label}: inline_dispatches {doc['inline_dispatches']} exceeds "
          f"batches {doc['batches']}")
    outcomes = doc.get("outcomes")
    check(isinstance(outcomes, dict), f"{label}: missing outcomes object")
    for key in ("ok", "shed", "deadline", "error"):
        check(isinstance(outcomes.get(key), int) and outcomes[key] >= 0,
              f"{label}: outcomes.{key} not a non-negative int")
    settled = sum(outcomes[k] for k in ("ok", "shed", "deadline", "error"))
    check(settled <= doc["accepted"],
          f"{label}: outcomes sum {settled} exceeds accepted "
          f"{doc['accepted']}")
    if doc["draining"] and doc["connections"] == 0:
        # Post-drain dump: every accepted request must have settled.
        check(settled == doc["accepted"],
              f"{label}: drained server leaked requests: accepted "
              f"{doc['accepted']} != settled {settled}")
    return 1


def validate_statusz(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    check(isinstance(doc, dict), "statusz: top level must be an object")
    check(doc.get("schema_version") == 1,
          f"statusz: unknown schema_version {doc.get('schema_version')}")
    check(isinstance(doc.get("command"), str),
          "statusz: missing command string")

    status = doc.get("status")
    check(isinstance(status, dict), "statusz: missing status object")
    check(isinstance(status.get("code"), int) and status["code"] >= 0,
          f"statusz: status.code {status.get('code')!r} not a "
          f"non-negative int")
    check(isinstance(status.get("name"), str) and status["name"],
          "statusz: status.name not a non-empty string")
    check("message" in status, "statusz: status.message missing")
    check((status["code"] == 0) == (status["name"] == "ok"),
          f"statusz: status.code {status['code']} inconsistent with "
          f"status.name {status['name']!r}")

    build = doc.get("build")
    check(isinstance(build, dict) and isinstance(build.get("describe"), str)
          and build["describe"],
          "statusz: build.describe not a non-empty string")

    simd = doc.get("simd")
    check(isinstance(simd, dict), "statusz: missing simd object")
    for key in ("cpu_tier", "active_tier"):
        check(isinstance(simd.get(key), str) and simd[key],
              f"statusz: simd.{key} not a non-empty string")

    fault = doc.get("fault")
    check(isinstance(fault, dict), "statusz: missing fault object")
    check(isinstance(fault.get("armed"), bool),
          "statusz: fault.armed not a boolean")
    check(isinstance(fault.get("spec"), str), "statusz: fault.spec missing")
    check(isinstance(fault.get("injected_total"), int) and
          fault["injected_total"] >= 0,
          "statusz: fault.injected_total not a non-negative int")
    check(isinstance(fault.get("sites"), dict),
          "statusz: fault.sites not an object")

    sections = 0
    check("serve" in doc, "statusz: serve section missing (may be null)")
    if doc["serve"] is not None:
        sections += validate_serve_doc(doc["serve"], label="statusz.serve")
    check("metrics" in doc, "statusz: metrics section missing (may be null)")
    if doc["metrics"] is not None:
        sections += validate_metrics_doc(doc["metrics"],
                                         label="statusz.metrics")
    check("flight_recorder" in doc,
          "statusz: flight_recorder section missing (may be null)")
    if doc["flight_recorder"] is not None:
        sections += validate_flight_recorder_doc(
            doc["flight_recorder"], label="statusz.flight_recorder")
    return sections


def validate_prometheus(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    check(lines, "metrics: empty Prometheus file")
    declared = set()
    samples = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            check(len(parts) >= 4 and parts[1] == "TYPE",
                  f"metrics:{lineno}: bad comment {line!r}")
            check(parts[3] in ("counter", "gauge", "summary", "histogram"),
                  f"metrics:{lineno}: unknown type {parts[3]!r}")
            declared.add(parts[2])
            continue
        parts = line.split()
        check(len(parts) == 2, f"metrics:{lineno}: expected 'name value', "
                               f"got {line!r}")
        name = parts[0].split("{", 1)[0]
        base = name
        for suffix in ("_sum", "_count"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        check(name in declared or base in declared,
              f"metrics:{lineno}: sample {name!r} has no # TYPE declaration")
        try:
            float(parts[1])
        except ValueError:
            raise ValidationError(
                f"metrics:{lineno}: non-numeric value {parts[1]!r}")
        samples += 1
    check(samples > 0, "metrics: no samples")
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace_event JSON file")
    parser.add_argument("--metrics-json", help="metrics JSON file")
    parser.add_argument("--metrics", help="Prometheus text file")
    parser.add_argument("--statusz", help="statusz one-shot dump JSON file")
    parser.add_argument("--flight-recorder",
                        help="flight recorder ring dump JSON file")
    args = parser.parse_args()
    if not (args.trace or args.metrics_json or args.metrics or args.statusz
            or args.flight_recorder):
        parser.error("nothing to validate: pass --trace, --metrics-json, "
                     "--metrics, --statusz and/or --flight-recorder")
    try:
        if args.trace:
            n = validate_chrome_trace(args.trace)
            print(f"OK {args.trace}: {n} sampled query chains, span sums "
                  f"within {REL_TOL:.0%}")
        if args.metrics_json:
            n = validate_metrics_json(args.metrics_json)
            print(f"OK {args.metrics_json}: {n} metrics")
        if args.metrics:
            n = validate_prometheus(args.metrics)
            print(f"OK {args.metrics}: {n} samples")
        if args.statusz:
            n = validate_statusz(args.statusz)
            print(f"OK {args.statusz}: {n} embedded metrics/records")
        if args.flight_recorder:
            n = validate_flight_recorder(args.flight_recorder)
            print(f"OK {args.flight_recorder}: {n} records")
    except (ValidationError, OSError, json.JSONDecodeError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
