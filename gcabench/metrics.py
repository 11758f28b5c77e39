"""Turns one harness document of raw samples into the benchmark's metrics.

The harness (harness.cpp) measures; everything statistical happens here, on
its raw samples: medians, percentiles, the log-log compile slope, geometric
means, per-layer self times from the recorded spans, and the Chrome
trace-event export. These helpers are unit-tested in test_gcabench.py.
"""

import math
import statistics

# End-to-end metrics: (name, unit). Every workload reports every one;
# END_TO_END_DOC (printed by run.py --help) says what each means on each.
END_TO_END = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("compile_slope", "1"),
    ("check_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compiles_per_s", "1/s"),
    ("sim_comm_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("requests_per_s", "1/s"),
]

END_TO_END_DOC = """\
setup_s         median of the run's set-ups, the first at the start and
                the others spread over the run: input generation + warm-up
                compiles (synth-scale, paper-fig10); hot-set generation +
                server spawn until its first ping is answered + one
                warm-up request per hot source (serve-mix)
compile_s       median wall time to compile the workload's corpus once
                through the default pipeline: the n500..n4000 sweep, the
                38 Figure 10 points (comb), 32 request-sized programs
compile_slope   least-squares slope of log(compile wall) on log(entries)
                over the corpus programs
check_s         median time to a verdict: audit + verify + lint of the
                sweep plans; verifySchedule over the provenance points;
                recompiling the hot set and comparing it with every hot
                response the server sent
peak_rss_mb     peak resident memory of the process that compiles (the
                harness; the server for serve-mix)
compiles_per_s  compile operations per second of their own wall time:
                sweep compiles; Figure 10 points (comb + orig compile,
                lower, simulate); server compiles (cache misses) per
                second of the request window (after the warm-up)
sim_comm_ms     geometric mean over the 38 Figure 10 points (sizes moved by
                the seed) of the simulated comm time of the lowered comb
                plan; the same quantity on every workload, because on
                random synth programs it varies too much between seeds
                (log-std about 1 at 100 nests) to gate on
request_p50_ms  median latency of one operation: one compile of the whole
                sweep (its four sizes differ too much for a per-compile
                median to be stable); one client round trip (median over
                five consecutive slices of the samples of each slice's
                median, where there are enough); on paper-fig10 one point
                (comb + orig compile, lower, simulate), as the median over
                the 38 points of each point's median latency
request_p95_ms  95th percentile of the same samples, taken the same way.
                Not the 99th: over ten seeds on a shared 4-vCPU host the
                serve-mix p99 spread by up to 0.28 of its median (a slow
                phase of the host lengthened it by 40%), more than any
                bound allows; it is the per-layer serve.request_p99_ms
                (over the untraced requests of the traced run)
requests_per_s  operations per second: sweeps per second of sweep time;
                Figure 10 points per second of the measured window; ok
                responses per second of the request window
"""

# Per-layer metrics: (name, unit). Reported by the traced run (--trace 1):
# totals over one traced pass of the workload's corpus (times: the median
# over passes), for serve-mix over the traced phase of 1500 requests per
# client. A layer a workload does not exercise reads 0 there. info.* are
# informational facts about the host and build, not measurements.
LAYERS = ["frontend", "xform", "context", "core", "lower", "analysis",
          "runtime", "driver", "support"]

ALGORITHMS = ["direct", "sequential", "ring", "recursive-doubling",
              "recursive-halving", "binomial", "bine"]

PER_LAYER = (
    [("frontend.parse_s", "s"), ("frontend.source_bytes", "bytes"),
     ("xform.scalarize_s", "s"), ("xform.stmts_out", "count"),
     ("context.build_s", "s"), ("cfg.nodes", "count"), ("ssa.defs", "count"),
     ("core.placement_s", "s"), ("core.detect_s", "s"),
     ("core.earliest_latest_s", "s"), ("core.combine_rest_s", "s"),
     ("core.entries", "count"), ("core.groups", "count"),
     ("core.groups_per_entry", "1"), ("core.subset_eliminated", "count"),
     ("core.redundancy_eliminated", "count"),
     ("core.combined_groups", "count"), ("core.dom_queries", "count"),
     ("core.dom_queries_per_entry", "1"), ("core.pair_compares", "count"),
     ("core.slotset_merges", "count"),
     ("lower.lower_s", "s"), ("lower.groups", "count"),
     ("lower.fused_phases", "count")]
    + [("lower.algo." + a, "count") for a in ALGORITHMS]
    + [("analysis.audit_s", "s"), ("analysis.verify_s", "s"),
       ("analysis.lint_s", "s"), ("analysis.lint_baseline_s", "s"),
       ("analysis.verify_facts", "count"), ("analysis.verify_checks", "count"),
       ("analysis.violations", "count"),
       ("runtime.exec_build_s", "s"), ("runtime.simulate_s", "s"),
       ("runtime.verify_schedule_s", "s"), ("runtime.verify_checks", "count"),
       ("runtime.remote_reads", "count"), ("runtime.verify_failures", "count"),
       ("runtime.comm_ops", "count"), ("runtime.comm_bytes", "bytes"),
       ("runtime.comm_vs_orig", "1"), ("runtime.comm_lowered_vs_mono", "1"),
       ("serve.queue_wait_ms.p50", "ms"), ("serve.queue_wait_ms.p99", "ms"),
       ("serve.compile_ms.p50", "ms"), ("serve.compile_ms.p99", "ms"),
       ("serve.request_p99_ms", "ms"),
       ("serve.ok", "count"), ("serve.overloaded", "count"),
       ("serve.timeouts", "count"), ("serve.errors", "count"),
       ("cache.hits", "count"), ("cache.misses", "count"),
       ("cache.hit_ratio", "1"), ("cache.routine_hits", "count"),
       ("cache.routine_misses", "count"), ("cache.evictions", "count"),
       ("frame.bytes_in", "bytes"), ("frame.bytes_out", "bytes")]
    + [(layer + ".self_s", "s") for layer in LAYERS]
    + [("trace.overhead_pct", "%"), ("info.host_cores", "count"),
       ("info.release_build", "count"), ("info.src_tools_lines", "count")]
)

# Span name -> per-layer time metric (total per traced pass).
SPAN_TIMES = {
    "frontend.parse": "frontend.parse_s",
    "xform.scalarize": "xform.scalarize_s",
    "context.build": "context.build_s",
    "core.placement": "core.placement_s",
    "core.detect": "core.detect_s",
    "core.earliest_latest": "core.earliest_latest_s",
    "lower.lower": "lower.lower_s",
    "analysis.audit": "analysis.audit_s",
    "analysis.verify": "analysis.verify_s",
    "analysis.lint": "analysis.lint_s",
    "analysis.lint_baseline": "analysis.lint_baseline_s",
    "runtime.exec_build": "runtime.exec_build_s",
    "runtime.simulate": "runtime.simulate_s",
    "runtime.verify_schedule": "runtime.verify_schedule_s",
}


def median(xs):
    return statistics.median(xs)


def percentile(xs, p):
    """The p-th percentile of xs, interpolating linearly between the two
    nearest ranks (rank p/100 * (n - 1), counted from 0)."""
    s = sorted(xs)
    if not s:
        raise ValueError("percentile of no samples")
    r = p / 100.0 * (len(s) - 1)
    lo = math.floor(r)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (r - lo)


def blocked_percentile(xs, p, blocks=5):
    """The median over `blocks` consecutive slices of xs (in measurement
    order) of each slice's p-th percentile. A burst of host noise then moves
    one slice, not the result. Slices keep at least ten samples beyond the
    percentile; with too few samples this is percentile(xs, p)."""
    need = math.ceil(10 * 100.0 / (100.0 - p)) if p < 100 else len(xs)
    k = max(1, min(blocks, len(xs) // max(need, 1)))
    size = len(xs) // k
    return median([percentile(xs[i * size:(i + 1) * size], p)
                   for i in range(k)])


def quartile_spread(xs):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def slope(xs, ys):
    """Least-squares slope of ys on xs."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def union_length(intervals):
    """Total length covered by a set of [begin, end] intervals."""
    total = 0
    end = None
    for b, e in sorted(intervals):
        if end is None or b > end:
            total += e - b
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its children cover. spans: [name, layer, begin, end, parent, op, pass]
    lists (parent is an index into spans, -1 for a root). Returns a list of
    self times in span order."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)
    out = []
    for i, s in enumerate(spans):
        b, e = s[2], s[3]
        cover = [(max(b, spans[c][2]), min(e, spans[c][3]))
                 for c in children[i]]
        cover = [(cb, ce) for cb, ce in cover if ce > cb]
        out.append(e - b - union_length(cover))
    return out


def layer_self_seconds(spans):
    """Median over traced passes of each layer's summed self time, in s."""
    selfs = self_times(spans)
    per_pass = {}
    for s, t in zip(spans, selfs):
        per_pass.setdefault(s[6], {}).setdefault(s[1], 0)
        per_pass[s[6]][s[1]] += t
    out = {}
    for layer in LAYERS:
        vals = [p.get(layer, 0) * 1e-9 for p in per_pass.values()]
        out[layer] = median(vals) if vals else 0.0
    return out


def span_totals(spans):
    """Median over traced passes of the summed duration of each span name
    in SPAN_TIMES, in s."""
    per_pass = {}
    for s in spans:
        per_pass.setdefault(s[6], {}).setdefault(s[0], 0)
        per_pass[s[6]][s[0]] += s[3] - s[2]
    out = {}
    for name, metric in SPAN_TIMES.items():
        vals = [p.get(name, 0) * 1e-9 for p in per_pass.values()]
        out[metric] = median(vals) if vals else 0.0
    return out


def chrome_trace(spans):
    """Chrome trace-event JSON object for the spans (complete events, one
    lane per client or per traced pass)."""
    t0 = min((s[2] for s in spans), default=0)
    events = []
    for i, (name, layer, b, e, parent, op, pas) in enumerate(spans):
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1,
            "tid": 1 + (op // 1000000000 if layer in ("driver", "support",
                                                       "server") else pas),
            "ts": (b - t0) / 1000.0, "dur": (e - b) / 1000.0,
            "args": {"span": i, "parent": parent, "op": op, "pass": pas},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def end_to_end(raw):
    """The end-to-end metrics of one untraced run."""
    w = raw["workload"]
    ser = raw["series"]
    sc = raw["scalars"]
    points = sorted((k for k in ser if k.startswith("point_s.")),
                    key=lambda k: int(k.split(".")[1]))
    xs = [math.log(sc["entries." + k.split(".")[1]]) for k in points]
    ys = [math.log(median(ser[k])) for k in points]
    op_s = sum(ser["op_ms"]) * 1e-3
    latencies = ser["op_ms"]
    p50 = blocked_percentile(latencies, 50)
    p95 = blocked_percentile(latencies, 95)
    if w == "synth-scale":
        compiles_per_s = (sum(len(ser[k]) for k in points)
                          / sum(sum(ser[k]) for k in points))
        requests_per_s = len(ser["op_ms"]) / op_s
    elif w == "paper-fig10":
        compiles_per_s = len(ser["op_ms"]) / op_s
        requests_per_s = len(ser["op_ms"]) / sc["window_s"]
        # The points form clusters by program, and a percentile over the raw
        # samples falls between two of them; over the per-point medians it
        # falls on one point.
        typical = [median(ser["op_ms.%d" % i]) for i in range(len(points))]
        p50 = percentile(typical, 50)
        p95 = percentile(typical, 95)
    else:
        compiles_per_s = sc["server_misses"] / sc["window_s"]
        requests_per_s = sc["requests_ok"] / sc["window_s"]
    return {
        "setup_s": median(ser["setup_s"]),
        "compile_s": median(ser["sweep_s"]),
        "compile_slope": slope(xs, ys),
        "check_s": median(ser["check_s"]),
        "peak_rss_mb": sc["peak_rss_mb"],
        "compiles_per_s": compiles_per_s,
        "sim_comm_ms": geomean(ser["sim_comm_ms"]),
        "request_p50_ms": p50,
        "request_p95_ms": p95,
        "requests_per_s": requests_per_s,
    }


def per_layer(raw, info):
    """The per-layer metrics of one traced run; info supplies the host and
    build facts (info.*)."""
    sc = raw["scalars"]
    ser = raw["series"]
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name in out:
        if name in sc:
            out[name] = sc[name]
    spans = raw["spans"]
    out.update(span_totals(spans))
    out["core.combine_rest_s"] = (out["core.placement_s"]
                                  - out["core.detect_s"]
                                  - out["core.earliest_latest_s"])
    for layer, secs in layer_self_seconds(spans).items():
        out[layer + ".self_s"] = secs
    for key in ("queue_wait_ms", "compile_ms"):
        vals = ser.get("serve." + key, [])
        if vals:
            out["serve.%s.p50" % key] = percentile(vals, 50)
            out["serve.%s.p99" % key] = percentile(vals, 99)
    if raw["workload"] == "serve-mix":
        out["serve.request_p99_ms"] = blocked_percentile(ser["op_ms"], 99)
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    untraced = median(ser["overhead.untraced_s"])
    traced = median(ser["overhead.traced_s"])
    out["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    out.update(info)
    return out
