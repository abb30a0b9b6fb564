"""Turns one psync_perfbench report into the benchmark's checks and metrics.

The C++ binary only observes: set-up times, per-iteration wall times,
output digests and simulated statistics, verification records, spans and
probe values. Everything that judges or summarises those observations
lives here, as plain functions the tests in test_report.py exercise.
"""

import statistics

DEFAULT_SEED = 2026

# Table III reference values (paper) and this reproduction's mesh cells.
PAPER_MESH_CYCLES = {"tp1": 3_526_620, "tp4": 6_553_448}
PSCAN_CYCLES = 1_081_344

# "Within single precision": the transforms agree with the double
# precision oracle to a float's epsilon, 2^-23.
SINGLE_PRECISION = 2.0 ** -23

# The calibration kernel's time (median of 5) on the reference host, an
# "Intel(R) Xeon(R) Processor" with 4 vCPUs, RelWithDebInfo build. wall_s
# and setup_s are reported at that host speed; see end_to_end().
CAL_REF_S = 0.024

# Components whose self time is reported as a share of wall_s. A span's
# component is its name without the last segment ("core.sca.gather" ->
# "core.sca", "driver.point" -> "driver").
SHARE_COMPONENTS = ["bench", "driver", "core.psync_machine",
                    "core.mesh_machine", "core.sca", "dist", "serve"]

# Per-layer metrics the binary's probes measure (the same fixed shape on
# every workload); the rest come from the workload's own spans and records.
PROBES = ["core.sca.gather_ms", "core.sca.scatter_ms", "core.sca.slots_per_s",
          "mesh.uniform16_ms", "fft.butterflies_per_s", "fft.fft2d_ref_ms",
          "reliability.words_per_s", "reliability.retry_ratio",
          "driver.journal_append_ms", "driver.resume_ms",
          "serve.parse_request_ms"]


def unit(name):
    """A metric's unit, from its name's suffix."""
    if "_per_s" in name:
        return "1/s"
    for suffix, u in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"),
                      ("_ratio", "ratio"), ("_mb", "MiB")):
        if name.endswith(suffix):
            return u
    return "count"


# --- statistics ---------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def timing(values):
    """A timing as its median with the sample count; quartiles once there
    are enough samples for them to mean something."""
    out = {"median": median(values), "samples": len(values)}
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    return out


def cache_hit_ratio(hits, submitted):
    """Cache hits over the points submitted (not over points executed or
    looked up), so a cache that is never consulted reads 0."""
    return hits / submitted if submitted else 0.0


def paper_err_pct(tp1_cycles, tp4_cycles):
    """Mean |sim - paper| / paper over the two Table III mesh cells, in %."""
    errs = [abs(sim - PAPER_MESH_CYCLES[k]) / PAPER_MESH_CYCLES[k]
            for k, sim in (("tp1", tp1_cycles), ("tp4", tp4_cycles))]
    return 100.0 * sum(errs) / len(errs)


# --- spans ----------------------------------------------------------------

def parse_spans(raw):
    """[id, parent, iter, start, end, name] rows -> dicts."""
    return [{"id": r[0], "parent": r[1], "iter": r[2], "start": r[3],
             "end": r[4], "name": r[5]} for r in raw]


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the part its children cover.
    Children may nest or overlap one another (parallel workers); the
    overlap is counted once."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) -
            covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def component(name):
    parts = name.split(".")
    return ".".join(parts[:-1]) if len(parts) > 2 else parts[0]


def self_shares(spans):
    """Self time per component over the timed iterations, in % of the
    iterations' wall time. Parallel children can push the sum past 100."""
    timed = [s for s in spans if s["iter"] >= 0]
    wall = sum(s["end"] - s["start"] for s in timed
               if s["name"] == "bench.iteration")
    own = self_times(timed)
    shares = {}
    for s in timed:
        c = component(s["name"])
        shares[c] = shares.get(c, 0.0) + own[s["id"]]
    return {c: 100.0 * t / wall if wall else 0.0 for c, t in shares.items()}


def span_median_ms(spans, name, timed_only=True):
    return 1e3 * median([s["end"] - s["start"] for s in spans
                         if s["name"] == name
                         and (s["iter"] >= 0 or not timed_only)])


# --- output checks --------------------------------------------------------

def _shape_failures(workload, num):
    """Paper-band shape checks, valid for any seed."""
    f = []
    if workload == "paper_fft2d":
        if num.get("failed_points", 1) != 0:
            f.append("a point failed")
        if not num.get("psync_total_us", 1) < num.get("mesh_total_us", 0):
            f.append("P-sync not faster than the mesh")
        for k in ("max_err", "mesh_max_err"):
            if not num.get(k, 1.0) <= SINGLE_PRECISION:
                f.append(f"{k} {num.get(k)} beyond single precision")
    elif workload == "table3_transpose":
        if num.get("gather_clean") != 1:
            f.append("SCA stream not gap-free and collision-free")
        pred = num.get("pscan_predicted", 0)
        if num.get("pscan_cycles") != pred or not pred:
            f.append("PSCAN bus cycles differ from Eq. 23 x Eq. 24")
        else:
            m1 = num.get("tp1_cycles", 0) / pred
            m4 = num.get("tp4_cycles", 0) / pred
            if not 2.6 < m1 < 3.9:
                f.append(f"t_p=1 multiplier {m1:.2f} outside the paper band")
            if not 5.2 < m4 < 6.8:
                f.append(f"t_p=4 multiplier {m4:.2f} outside the paper band")
    elif workload == "psync_sweep":
        if num.get("failed_points", 1) != 0 or num.get("points") != 4:
            f.append("not all 4 points completed")
        if not num.get("max_err", 1.0) <= SINGLE_PRECISION:
            f.append(f"max_err {num.get('max_err')} beyond single precision")
    elif workload == "served_campaign":
        expect = {"cold_points": 48, "cold_executed": 48, "warm_points": 64,
                  "warm_cache_hits": 48, "warm_executed": 16}
        for k, v in expect.items():
            if num.get(k) != v:
                f.append(f"{k} = {num.get(k)}, expected {v}")
    return f


def _named_failures(workload, num):
    """The simulated statistics printed in the paper reproduction, at the
    default seed."""
    f = []
    if workload == "paper_fft2d":
        for k, v in (("psync_total_us", 978.95), ("mesh_total_us", 2900.18),
                     ("speedup", 2.96)):
            if round(num.get(k, 0.0), 2) != v:
                f.append(f"{k} {num.get(k)} != {v}")
    elif workload == "table3_transpose":
        for k, v in (("pscan_cycles", PSCAN_CYCLES), ("tp1_cycles", 3_211_266),
                     ("tp4_cycles", 6_356_994)):
            if num.get(k) != v:
                f.append(f"{k} {num.get(k)} != {v}")
    return f


def check(report, golden):
    """Judge every operation of a run. Returns (attempted, failures) where
    failures lists one message per failed operation.

    Each timed iteration is one operation: at the default seed its output
    digest must equal the golden one and its named statistics the paper
    reproduction's; at any other seed every iteration must produce the
    bytes the first one did. Shape checks apply at every seed. Each
    verification record (a second execution path) is one more operation:
    its rendered output must equal the iterations'."""
    workload = report["workload"]
    default_seed = report["seed"] == DEFAULT_SEED
    iterations = report["iterations"]
    first = next((r["text"] for r in iterations if not r["error"]), {})
    failures = []
    for i, rec in enumerate(iterations):
        f = [rec["error"]] if rec["error"] else []
        if not rec["error"]:
            out = rec["text"].get("output")
            if default_seed:
                if out != golden.get(workload):
                    f.append(f"output digest {out} != golden "
                             f"{golden.get(workload)}")
                f += _named_failures(workload, rec["num"])
            elif out != first.get("output"):
                f.append("output bytes differ from the first iteration's")
            f += _shape_failures(workload, rec["num"])
        if f:
            failures.append(f"iteration {i}: " + "; ".join(f))
    for rec in report["checks"]:
        f = [rec["error"]] if rec["error"] else []
        for k, v in rec["text"].items():
            if first.get(k) != v:
                f.append(f"{k} {v} != the iterations' {first.get(k)}")
        if f:
            failures.append(f"{rec['name']}: " + "; ".join(f))
    return len(iterations) + len(report["checks"]), failures


# --- metrics --------------------------------------------------------------

def speed_factor(report):
    """CAL_REF_S over the run's median calibration time: below 1 when the
    host ran slower than the reference."""
    return CAL_REF_S / median(report["calibration_s"])


def end_to_end(report):
    """Median seconds per iteration and per set-up, each scaled to the
    reference host speed by the two calibrations around it, and the peak
    resident set. Calibration i runs before set-up batch i and iteration
    i; the last one after the last iteration."""
    cal = report["calibration_s"]

    def at_ref(seconds, i):
        return seconds * CAL_REF_S / ((cal[i] + cal[i + 1]) / 2)

    return {
        "wall_s": median([at_ref(r["wall_s"], i)
                          for i, r in enumerate(report["iterations"])]),
        "setup_s": median([at_ref(s, i)
                           for i, batch in enumerate(report["setup_s"])
                           for s in batch]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report):
    """The traced run's per-layer metrics: span and record metrics from the
    timed iterations (0 where the workload never makes the call), then the
    probes."""
    spans = parse_spans(report["spans"])
    iters = [r for r in report["iterations"] if not r["error"]]

    def num_median(key, fn=None):
        vals = [fn(r["num"]) if fn else r["num"][key]
                for r in iters if key in r["num"]]
        return median(vals)

    def rate(tp, work):
        return num_median(f"{tp}_host_s",
                          lambda n: work(n) / n[f"{tp}_host_s"])

    shares = self_shares(spans)
    m = {f"{c}.self_pct": shares.get(c, 0.0) for c in SHARE_COMPONENTS}
    m.update({
        "driver.freeze_ms": span_median_ms(spans, "driver.freeze", False),
        "driver.input_ms": span_median_ms(spans, "driver.input"),
        "driver.render_ms": span_median_ms(spans, "driver.render", False),
        "driver.fsyncs": num_median("fsyncs"),
        "core.mesh_machine.fft2d_ms":
            span_median_ms(spans, "core.mesh_machine.fft2d"),
        "core.mesh_machine.transpose_tp1_ms":
            span_median_ms(spans, "core.mesh_machine.transpose_tp1"),
        "core.mesh_machine.transpose_tp4_ms":
            span_median_ms(spans, "core.mesh_machine.transpose_tp4"),
        "core.psync_machine.run_ms":
            span_median_ms(spans, "core.psync_machine.run"),
        "dist.restarts": sum(r["num"].get("restarts", 0) for r in iters),
        "dist.steals": sum(r["num"].get("steals", 0) for r in iters),
        "serve.start_ms": span_median_ms(spans, "serve.start"),
        "serve.submit_rtt_cold_ms": span_median_ms(spans, "serve.submit_cold"),
        "serve.submit_rtt_warm_ms": span_median_ms(spans, "serve.submit_warm"),
        "serve.cache_hit_ratio": num_median(
            "warm_points",
            lambda n: cache_hit_ratio(n["warm_cache_hits"], n["warm_points"])),
        "serve.cold_s": num_median("cold_s"),
        "serve.warm_s": num_median("warm_s"),
        "trace.wall_s": end_to_end(report)["wall_s"],
        "bench.calibration_ms": 1e3 * median(report["calibration_s"]),
    })
    for tp in ("tp1", "tp4"):
        m[f"mesh.router_cycles_per_s.{tp}"] = rate(
            tp, lambda n, tp=tp: n[f"{tp}_cycles"] * n["routers"])
        m[f"mesh.flit_hops_per_s.{tp}"] = rate(
            tp, lambda n, tp=tp: n[f"{tp}_link_traversals"])
    session = [c["wall_s"] for c in report["checks"]
               if c["name"] == "session_run" and c["wall_s"] > 0]
    dist_ms = span_median_ms(spans, "dist.run_distributed")
    m["dist.leader_overhead_ms"] = (dist_ms - 1e3 * session[0]
                                    if dist_ms and session else 0.0)
    for k in PROBES:
        m[k] = report["probes"].get(k, 0.0)
    return m


def details(report):
    """Workload-specific figures printed beside the metrics."""
    iters = [r for r in report["iterations"] if not r["error"]]
    d = {"speed_factor": speed_factor(report),
         "raw_wall_s": timing([r["wall_s"] for r in report["iterations"]]),
         "raw_setup_s": timing([s for b in report["setup_s"] for s in b]),
         "calibration_s": timing(report["calibration_s"])}
    if report["workload"] == "table3_transpose" and iters:
        d["paper_err_pct"] = paper_err_pct(iters[0]["num"]["tp1_cycles"],
                                           iters[0]["num"]["tp4_cycles"])
    if report["workload"] == "served_campaign":
        d["cold_s"] = timing([r["num"]["cold_s"] for r in iters])
        d["warm_s"] = timing([r["num"]["warm_s"] for r in iters])
    return d
