#!/usr/bin/env python3
"""Performance gate for the BENCH_*.json micro-bench artifacts.

Compares candidate bench artifacts against committed baselines
(bench/baselines/) and fails when any cell regressed beyond the tolerance:

    bench_gate.py --baseline bench/baselines --candidate out/ \
                  [--tolerance 0.5] [--normalize] [--self-test]

Matching: baseline and candidate files pair up by their "bench" field; rows
pair up on every non-metric field (dim/metric/mode/tier, structure/size, ...).
The timing metric is auto-detected per row (ns_per_pair, ns_per_op, ...).

--normalize divides every candidate/baseline ratio by the median ratio
before applying the tolerance. CI machines differ from the machine that
recorded the baseline by a roughly uniform scalar; the median removes that
scalar so the gate tests the *shape* of the profile (one structure suddenly
2x slower) instead of absolute wall time. Use a generous --tolerance: these
are microsecond cells on shared runners.

--self-test verifies the gate's own discrimination: the baselines must pass
against themselves, and a synthesized candidate slowed by 2 x (1 +
tolerance) must fail. The planted factor follows the tolerance so it lands
strictly past the 1 + tolerance threshold at any tolerance. Exits 0 only if
both hold.

Exit codes: 0 = pass, 1 = regression detected (or self-test failure),
2 = usage / IO / schema error. Missing candidate rows or files warn and are
skipped — a partial run gates what it ran.
"""

import argparse
import copy
import json
import os
import statistics
import sys

METRIC_KEYS = ("ns_per_pair", "ns_per_code", "ns_per_op", "ns_per_query",
               "seconds")
# Derived ratios recomputed from the primary metric; never gated directly.
IGNORED_KEYS = ("speedup_vs_scalar",)


def fail_usage(msg):
    print("bench_gate: error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load_artifacts(path):
    """Returns {bench_name: doc} from a file or a directory of BENCH_*.json."""
    paths = []
    if os.path.isdir(path):
        paths = [
            os.path.join(path, f)
            for f in sorted(os.listdir(path))
            if f.startswith("BENCH_") and f.endswith(".json")
        ]
    elif os.path.isfile(path):
        paths = [path]
    else:
        fail_usage("no such file or directory: %s" % path)
    docs = {}
    for p in paths:
        try:
            with open(p) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            fail_usage("cannot parse %s: %s" % (p, e))
        if "bench" not in doc or "results" not in doc:
            fail_usage("%s lacks the bench/results fields" % p)
        docs[doc["bench"]] = doc
    if not docs:
        fail_usage("no BENCH_*.json artifacts under %s" % path)
    return docs


def metric_key(row):
    for k in METRIC_KEYS:
        if k in row:
            return k
    return None


def row_key(row):
    """Identity of a result row: every non-metric, non-derived field."""
    skip = set(METRIC_KEYS) | set(IGNORED_KEYS)
    return tuple(sorted((k, v) for k, v in row.items() if k not in skip))


def compare_bench(name, base_doc, cand_doc, tolerance, normalize):
    """Returns (regressions, compared) for one bench pair."""
    cand_rows = {}
    for row in cand_doc.get("results", []):
        cand_rows[row_key(row)] = row

    cells = []  # (label, base_value, cand_value)
    for row in base_doc.get("results", []):
        key = metric_key(row)
        if key is None:
            continue
        cand = cand_rows.get(row_key(row))
        label = ", ".join("%s=%s" % (k, v) for k, v in row_key(row))
        if cand is None or key not in cand:
            print("bench_gate: warning: %s: no candidate row for {%s}; "
                  "skipped" % (name, label))
            continue
        base_v, cand_v = float(row[key]), float(cand[key])
        if base_v <= 0.0:
            print("bench_gate: warning: %s: non-positive baseline for {%s}; "
                  "skipped" % (name, label))
            continue
        cells.append((label, base_v, cand_v))

    if not cells:
        return [], 0

    ratios = [c / b for _, b, c in cells]
    scale = statistics.median(ratios) if normalize else 1.0
    if scale <= 0.0:
        scale = 1.0

    regressions = []
    for (label, base_v, cand_v), ratio in zip(cells, ratios):
        adjusted = ratio / scale
        if adjusted > 1.0 + tolerance:
            regressions.append(
                "%s: {%s}: %.3f -> %.3f (%.2fx%s, tolerance %.2fx)"
                % (name, label, base_v, cand_v, adjusted,
                   ", median-normalized" if normalize else "",
                   1.0 + tolerance))
    if normalize:
        print("bench_gate: %s: %d cells, median ratio %.3f" %
              (name, len(cells), scale))
    return regressions, len(cells)


def run_gate(baseline, candidate_docs, tolerance, normalize):
    base_docs = load_artifacts(baseline)
    regressions = []
    compared = 0
    for name, base_doc in sorted(base_docs.items()):
        cand_doc = candidate_docs.get(name)
        if cand_doc is None:
            print("bench_gate: warning: no candidate artifact for bench "
                  "'%s'; skipped" % name)
            continue
        regs, n = compare_bench(name, base_doc, cand_doc, tolerance,
                                normalize)
        regressions.extend(regs)
        compared += n
    if compared == 0:
        fail_usage("no comparable cells between baseline and candidate")
    return regressions, compared


def self_test(baseline, tolerance, normalize):
    base_docs = load_artifacts(baseline)

    regs, compared = run_gate(baseline, base_docs, tolerance, normalize)
    if regs:
        print("bench_gate: SELF-TEST FAILED: baselines do not pass against "
              "themselves:", file=sys.stderr)
        for r in regs:
            print("  " + r, file=sys.stderr)
        return 1

    # Twice the threshold: a planted cell must land strictly past
    # 1 + tolerance, never on it.
    factor = 2.0 * (1.0 + tolerance)
    slowed = {}
    for name, doc in base_docs.items():
        doc2 = copy.deepcopy(doc)
        for row in doc2.get("results", []):
            key = metric_key(row)
            if key is not None:
                row[key] = float(row[key]) * factor
        slowed[name] = doc2
    regs, _ = run_gate(baseline, slowed, tolerance, normalize)
    if normalize:
        # A uniform slowdown is exactly what normalization forgives (it looks
        # like a slower machine); plant the slowdown in a quarter of the
        # cells instead, so the median stays ~1.0 and the planted cells
        # stand out as genuine shape changes.
        slowed = {}
        for name, doc in base_docs.items():
            doc2 = copy.deepcopy(doc)
            for i, row in enumerate(doc2.get("results", [])):
                key = metric_key(row)
                if key is not None and i % 4 == 0:
                    row[key] = float(row[key]) * factor
            slowed[name] = doc2
        regs, _ = run_gate(baseline, slowed, tolerance, normalize)
    if not regs:
        print("bench_gate: SELF-TEST FAILED: planted %.2fx slowdown was not "
              "detected" % factor, file=sys.stderr)
        return 1
    print("bench_gate: self-test OK over %d cells (pass on identity, fail "
          "on planted %.2fx)" % (compared, factor))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", required=True,
                    help="baseline BENCH_*.json file or directory")
    ap.add_argument("--candidate",
                    help="candidate BENCH_*.json file or directory")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="allowed fractional slowdown per cell (default 0.5 "
                         "= 1.5x)")
    ap.add_argument("--normalize", action="store_true",
                    help="divide ratios by their median (machine-speed "
                         "normalization)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate detects a planted 2x slowdown")
    args = ap.parse_args()
    if args.tolerance < 0:
        fail_usage("--tolerance must be >= 0")

    if args.self_test:
        sys.exit(self_test(args.baseline, args.tolerance, args.normalize))
    if not args.candidate:
        fail_usage("--candidate is required (or use --self-test)")

    regressions, compared = run_gate(args.baseline,
                                     load_artifacts(args.candidate),
                                     args.tolerance, args.normalize)
    if regressions:
        print("bench_gate: FAIL: %d of %d cells regressed beyond "
              "tolerance:" % (len(regressions), compared), file=sys.stderr)
        for r in regressions:
            print("  " + r, file=sys.stderr)
        sys.exit(1)
    print("bench_gate: OK: %d cells within tolerance" % compared)
    sys.exit(0)


if __name__ == "__main__":
    main()
