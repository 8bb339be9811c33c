#!/usr/bin/env python3
"""loadbench: end-to-end socket benchmark for fsr_serve.

    python3 loadbench/run.py --workload frontend-small --seed 1 --seconds 10 --trace 0

Builds fsr_serve and the benchmark programs from source (Release), makes the
workload's request stream from --seed, answers it once in stdin mode
(`fsr_serve --threads 1`) for reference bytes, then drives
`fsr_serve --listen 127.0.0.1:0` over TCP loopback with loadgen and checks
every response against the reference. The last stdout line is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (a separate traced run; see README.md).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # write nothing next to the sources
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ANALYSIS_KINDS = ["analyze-safety", "ground-truth", "repair", "simulate", "emulate"]
SETUPS = 2                  # set-ups in each round; setup_s is the median of all
ROUNDS = 4                  # closed+open rounds per run; timing metrics take the
                            # best round
OPEN_WINDOW_SAMPLES = 200   # open-loop window; its p99 is its 198th-fastest sample


def fail(message):
    print(f"loadbench: {message}", file=sys.stderr)
    sys.exit(1)


def report_failure(message):
    """Ends the run as one failed operation, with correct=false."""
    print("  failure: " + message)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    sys.exit(0)


def build(build_root):
    """Builds fsr_serve, loadgen and layer_replay; returns their paths."""
    out = build_root / "loadbench"
    out.mkdir(parents=True, exist_ok=True)
    log = build_root / "loadbench-build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j4", "--target",
                  "fsr_serve", "loadgen", "layer_replay", "spp_inline"])
    with open(log, "w") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(step)}")
    return {"fsr_serve": out / "fsr" / "fsr_serve", "loadgen": out / "loadgen",
            "layer_replay": out / "layer_replay", "spp_inline": out / "spp_inline"}


def reference(binaries, w, run_dir):
    """Stdin-mode answers to every unique line, cached by input and binary."""
    serve = binaries["fsr_serve"]
    text = "".join(line + "\n" for line in w.unique)
    st = serve.stat()
    key = hashlib.sha256(f"{text}{st.st_size}{st.st_mtime_ns}".encode()).hexdigest()[:16]
    cached = run_dir.parent / f"reference-{key}.jsonl"
    if not cached.exists():
        proc = subprocess.run([str(serve), "--threads", "1"], input=text,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode not in (0, 1):
            fail(f"reference run exited {proc.returncode}: {proc.stderr[-500:]}")
        cached.write_text(proc.stdout)
    lines = cached.read_text().splitlines()
    problems = []
    if len(lines) != len(w.unique):
        problems.append(f"reference has {len(lines)} lines for {len(w.unique)} requests")
    else:
        for line, invalid in zip(lines, w.invalid):
            if ('"error": ' in line) != invalid:
                problems.append(("unexpected error: " if not invalid else
                                 "expected an error: ") + line[:200])
    (run_dir / "reference.jsonl").write_text("\n".join(lines) + "\n")
    return problems


def prepare(w, run_dir):
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "unique.jsonl").write_text("".join(line + "\n" for line in w.unique))
    (run_dir / "stream.txt").write_text("\n".join(map(str, w.stream)) + "\n")


def loadgen(binaries, w, run_dir, seed, closed_s, open_s, shards=None,
            setups=SETUPS, server_args=(), timings=False):
    cmd = [str(binaries["loadgen"]), "--server", str(binaries["fsr_serve"]),
           "--dir", str(run_dir), "--shards", str(shards or w.shards),
           "--depth", str(w.depth), "--closed-s", str(closed_s),
           "--open-s", str(open_s), "--rate", str(w.open_rate),
           "--seed", str(seed), "--setups", str(setups)]
    if w.ids:
        cmd.append("--ids")
    if timings:
        cmd.append("--timings")
    for arg in server_args:
        cmd += ["--server-arg", arg]
    steal_before = host_cpu_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"loadgen exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    (steal0, total0), (steal1, total1) = steal_before, host_cpu_ticks()
    result["host_steal_pct"] = (steal1 - steal0) / max(1, total1 - total0) * 100
    return result


def host_cpu_ticks():
    """(steal, total) CPU ticks of the whole machine, from /proc/stat.
    Steal is time the hypervisor gave to someone else; latency runs with
    high steal measure the host more than the server."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def split(w, seconds):
    """(closed-loop seconds, open-loop seconds) of one run."""
    return seconds * w.closed_share, seconds * (1 - w.closed_share)


def percentile(values, q):
    """Nearest-rank percentile; failures are stored as 1e300."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def lag_p99(open_):
    """How late the open-loop sender ran against its schedule, p99 in ms."""
    return percentile(open_["lag_ms"], 99) if open_["lag_ms"] else 0.0


def counters(stats_line):
    return stats_line["stats"]["metrics"] if stats_line else {}


def service(stats_line):
    return stats_line["stats"]["service"] if stats_line else {}


def delta(phase, name):
    before, after = counters(phase["stats_before"]), counters(phase["stats_after"])
    value = after.get(name, 0) - before.get(name, 0)
    return value if isinstance(value, (int, float)) else 0


def service_delta(phase, name):
    return service(phase["stats_after"]).get(name, 0) - service(phase["stats_before"]).get(name, 0)


def phase_counts(result):
    phases = {"preheat": result["preheat"], "warmup": result["warmup"],
              "closed": result["closed"], "open": result["open"]}
    return {name: (p["sent"], p["ok"], p["failed"]) for name, p in phases.items()}


def closed_windows(closed):
    """Per closed-loop window: (correct answers per second, server CPU us
    per correct answer)."""
    marks = closed["marks"]
    windows = []
    for (t0, ok0, l0, w0), (t1, ok1, l1, w1) in zip(marks, marks[1:]):
        answered = ok1 - ok0
        windows.append((answered / (t1 - t0),
                        ((l1 + w1) - (l0 + w0)) / max(1, answered) * 1e6))
    return windows


def open_windows(open_):
    """The open-loop latencies in scheduled-send order, cut into windows
    of OPEN_WINDOW_SAMPLES requests (the last window takes the remainder)."""
    ordered = [ms for _, ms in sorted(zip(open_["scheduled_s"], open_["latency_ms"]))]
    count = max(1, len(ordered) // OPEN_WINDOW_SAMPLES)
    return [ordered[i * OPEN_WINDOW_SAMPLES:(i + 1) * OPEN_WINDOW_SAMPLES if i + 1 < count
                    else len(ordered)] for i in range(count)]


def round_metrics(r):
    """One round's timing metrics, each a median over the round's windows."""
    closed = closed_windows(r["closed"])
    latency = open_windows(r["open"])
    return {
        "throughput_rps": statistics.median(tp for tp, _ in closed),
        "latency_p50_ms": statistics.median(percentile(v, 50) for v in latency),
        "latency_p99_ms": statistics.median(percentile(v, 99) for v in latency),
        "cpu_us_per_req": statistics.median(cpu for _, cpu in closed),
    }


def end_to_end(rounds):
    """The gated metrics of one run: each timing metric is the best round's.
    Host load only ever makes a round slower, and it came in phases of tens
    of seconds, so the best of several short rounds is the one the host
    disturbed least."""
    per_round = [round_metrics(r) for r in rounds]
    best = {name: (max if name == "throughput_rps" else min)(m[name] for m in per_round)
            for name in per_round[0]}
    units = {"throughput_rps": "req/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
             "cpu_us_per_req": "us"}
    metrics = {name: (value, units[name]) for name, value in best.items()}
    metrics["peak_rss_mb"] = (max(r["hwm_end_kb"] for r in rounds) / 1024.0, "MiB")
    metrics["setup_s"] = (statistics.median(s for r in rounds for s in r["setup_s"]), "s")
    return metrics, per_round


# ------------------------------------------------------------ traced run --

# The kind of a service.execute span, from its first child span. (The
# span's own "kind" arg renders as `true`: obs::Span::arg picks its bool
# overload for a const char* value.)
CHILD_KIND = {"repair.run": "repair", "safety.analyze": "analyze-safety",
              "sat.analyze": "ground-truth", "sat.solve_scratch": "ground-truth",
              "sim.run": "simulate"}


def span_self_times(trace_path):
    """Per span name: [count, total ms, self ms]; the same for
    service.execute per request kind."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            by_tid[e["tid"]].append(e)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    execute_by_kind = defaultdict(lambda: [0, 0.0, 0.0])

    def add(row, event, child):
        row[0] += 1
        row[1] += event["dur"] / 1e3
        row[2] += max(0.0, event["dur"] - child) / 1e3

    def close(entry):
        event, child, first_child = entry
        add(totals[event["name"]], event, child)
        if event["name"] == "service.execute":
            kind = event.get("args", {}).get("kind")
            if not isinstance(kind, str):
                kind = CHILD_KIND.get(first_child, "emulate/failed" if first_child is None else "?")
            add(execute_by_kind[kind], event, child)

    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child time, first child name]
        for e in spans:
            while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= e["ts"]:
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
                if stack[-1][2] is None:
                    stack[-1][2] = e["name"]
            stack.append([e, 0.0, None])
        while stack:
            close(stack.pop())
    return totals, execute_by_kind


def read_timings(path):
    rows = []
    with open(path) as f:
        for line in f:
            phase, kind, warm, shard, wall, error = line.rstrip("\n").split("\t")
            kind = kind.strip('"')
            if kind not in ANALYSIS_KINDS or not wall or error == "1":
                continue
            rows.append((phase, kind, warm == "1", int(shard) if shard else -1, float(wall)))
    return rows


# Which in-program span is missing when service.execute self time is large.
MISSING_SPAN = {
    "analyze-safety": "spp::algebra_from_spp and the analyzer set-up run before "
                      "safety.analyze with no span (want safety.translate)",
    "ground-truth": "session lookup and StableSatSession build run outside sat.analyze "
                    "(want session.build)",
    "repair": "session lookup and the strict-gate session build run before repair.run "
              "(want session.build)",
    "simulate": "fingerprint() and option set-up before sim.run have no span",
    "emulate/failed": "no child span: emulate_spp has no span at all (want emulate.run); "
                      "requests failing validation land here too",
}


def traced(binaries, w, run_dir, seed, seconds):
    # Two server runs (untraced and traced) share the run's seconds.
    closed_s, open_s = split(w, seconds / 2)
    lines = []
    say = lines.append

    base = loadgen(binaries, w, run_dir, seed, closed_s, open_s, setups=1)
    trace_file = run_dir / "server-trace.json"
    tr = loadgen(binaries, w, run_dir, seed, closed_s, open_s, setups=1, timings=True,
                 server_args=["--timings", "--trace-out", str(trace_file)])
    replay_proc = subprocess.run(
        [str(binaries["layer_replay"]), "--dir", str(run_dir), "--shards", str(w.shards),
         "--seconds", str(max(1.0, seconds / 4)),
         "--trace-out", str(run_dir / "replay-spans.json")],
        capture_output=True, text=True, timeout=120)
    if replay_proc.returncode != 0:
        fail(f"layer_replay exited {replay_proc.returncode}: {replay_proc.stderr[-1000:]}")
    rp = json.loads(replay_proc.stdout)
    spans, execute_by_kind = span_self_times(trace_file)
    trace_file.unlink()
    timing_rows = read_timings(run_dir / "timings.tsv")

    closed = base["closed"]
    closed_ok = max(1, closed["ok"])
    requests = max(1, closed["ok"] + base["open"]["ok"])
    m = {}

    def put(name, value, unit, base_text=""):
        m[name] = (value, unit)
        say(f"  {name:38s} {value:14.6f} {unit:8s} {base_text}")

    say(f"per-layer metrics ({w.name}; /proc and stats from the untraced run, "
        f"wall_ms and spans from the --timings --trace-out run, call timings from "
        f"the in-process replay of {rp['lines']} lines)")
    put("netserve.loop_cpu_share", closed["loop_cpu_s"] / closed["wall_s"], "share",
        f"loop CPU {closed['loop_cpu_s']:.3f} s / wall {closed['wall_s']:.3f} s")
    put("netserve.frame_us", rp["frame_us"], "us", f"mean over {rp['lines']} lines")
    put("netserve.backpressure_stalls", delta(closed, "net.backpressure_stalls"), "count",
        "closed-loop phase")
    put("netserve.bytes_out_per_req", delta(closed, "net.bytes_out") / closed_ok, "B",
        f"over {closed['ok']} requests")
    put("api.json_parse_us", rp["json_parse_us"], "us")
    put("api.parse_request_us", rp["parse_request_us"], "us")
    put("api.resolve_us", rp["parse_request_us"] - rp["json_parse_us"], "us",
        "parse_request minus json_parse")
    put("api.fingerprint_us", rp["fingerprint_us"], "us", f"over {rp['submitted']} requests")
    put("api.render_us", rp["render_us"], "us")
    queue_wait = rp["queue_wait_ms"]
    put("api.queue_wait_ms.p50", percentile(queue_wait, 50) if queue_wait else 0.0, "ms",
        f"replay with {w.shards} in flight, {len(queue_wait)} samples")
    put("api.queue_wait_ms.p99", percentile(queue_wait, 99) if queue_wait else 0.0, "ms")
    walls = defaultdict(list)
    for _, kind, _, _, wall in timing_rows:
        walls[kind].append(wall)
    for kind in ANALYSIS_KINDS:
        values = walls.get(kind, [])
        for q in (50, 99):
            put(f"api.execute_ms.{kind}.p{q}", percentile(values, q) if values else 0.0, "ms",
                f"{len(values)} samples")
    put("api.worker_busy_share",
        closed["workers_cpu_s"] / (closed["wall_s"] * w.shards), "share",
        f"worker CPU {closed['workers_cpu_s']:.3f} s / ({closed['wall_s']:.3f} s x {w.shards})")
    shard_load = Counter()
    for phase, _, _, shard, wall in timing_rows:
        if phase == "closed" and shard >= 0:
            shard_load[shard] += wall
    loads = [shard_load.get(s, 0.0) for s in range(w.shards)]
    mean_load = sum(loads) / len(loads)
    put("api.shard_load_max_over_mean", max(loads) / mean_load if mean_load else 0.0, "ratio",
        "per-shard wall_ms " + "/".join(f"{x:.0f}" for x in loads))
    analysis = len(timing_rows)
    warm = sum(1 for row in timing_rows if row[2])
    put("api.warm_hit_ratio", warm / analysis if analysis else 0.0, "ratio",
        f"{warm} warm of {analysis} analysis responses")
    put("api.sessions_built_per_kreq", service_delta(closed, "sessions_built") / closed_ok * 1e3,
        "1/kreq", f"{service_delta(closed, 'sessions_built')} built")
    put("api.sessions_evicted_per_kreq",
        service_delta(closed, "sessions_evicted") / closed_ok * 1e3, "1/kreq",
        f"{service_delta(closed, 'sessions_evicted')} evicted")
    put("api.rss_growth_kb_per_kreq",
        (base["rss_end_kb"] - base["rss_after_warmup_kb"]) / requests * 1e3, "kB/kreq",
        f"VmRSS {base['rss_after_warmup_kb']} -> {base['rss_end_kb']} kB over {requests} requests")
    put("smt.checks_per_req", delta(closed, "smt.checks") / closed_ok, "1/req")
    put("smt.engine_rebuilds_per_req", delta(closed, "smt.engine_rebuilds") / closed_ok, "1/req")
    smt_self = spans["safety.analyze"][2] + spans["smt.check"][2]
    smt_requests = len(walls.get("analyze-safety", [])) + len(walls.get("repair", []))
    put("smt.check_ms", smt_self / smt_requests if smt_requests else 0.0, "ms",
        f"self ms of safety.analyze+smt.check per analyze-safety/repair request ({smt_requests})")
    put("sat.conflicts_per_req", delta(closed, "sat.conflicts") / closed_ok, "1/req")
    put("sat.propagations_per_req", delta(closed, "sat.propagations") / closed_ok, "1/req")
    hits, encoded = delta(closed, "sat.group_cache_hits"), delta(closed, "sat.groups_encoded")
    put("sat.group_cache_hit_ratio", hits / (hits + encoded) if hits + encoded else 0.0, "ratio",
        f"{hits} hits, {encoded} encoded")
    runs = delta(closed, "repair.runs")
    for name in ("candidates_checked", "solver_checks", "oracle_queries"):
        put(f"repair.{name}_per_run", delta(closed, f"repair.{name}") / runs if runs else 0.0,
            "1/run", f"over {runs} runs")
    count, total, _ = spans["repair.run"]
    put("repair.run_ms", total / count if count else 0.0, "ms", f"{count} repair.run spans")
    sims = delta(closed, "sim.runs")
    put("sim.messages_per_run", delta(closed, "sim.messages") / sims if sims else 0.0, "1/run",
        f"over {sims} runs")
    count, total, _ = spans["sim.run"]
    put("sim.run_ms", total / count if count else 0.0, "ms", f"{count} sim.run spans")
    put("emulate.execute_ms.p99", m["api.execute_ms.emulate.p99"][0], "ms")
    ex_count, ex_total, ex_self = spans["service.execute"]
    put("service.execute_unattributed_share", ex_self / ex_total if ex_total else 0.0, "share",
        f"{ex_self:.1f} of {ex_total:.1f} ms in {ex_count} service.execute spans")
    base_tp = statistics.median(tp for tp, _ in closed_windows(closed))
    traced_tp = statistics.median(tp for tp, _ in closed_windows(tr["closed"]))
    put("obs.trace_overhead_pct", (base_tp / traced_tp - 1) * 100 if traced_tp else 0.0, "%",
        f"{base_tp:.0f} req/s untraced vs {traced_tp:.0f} traced")
    put("gen.lag_ms.p99", lag_p99(base["open"]), "ms", "open-loop sender lateness")
    put("host.steal_pct", base["host_steal_pct"], "%", "CPU time the hypervisor took")

    # Where the time went: per-request means along the request path, as a
    # share of the open-loop mean latency.
    e2e_us = base["open"]["latency_mean_ms"] * 1e3
    per_req = max(1, sum(c for c, _, _ in execute_by_kind.values()))
    rows = [("netserve.frame (replay)", rp["frame_us"]),
            ("api.json_parse (replay)", rp["json_parse_us"]),
            ("api.resolve (replay)", rp["parse_request_us"] - rp["json_parse_us"]),
            ("api.fingerprint (replay)", rp["fingerprint_us"]),
            ("service.queue_wait (replay)", m["api.queue_wait_ms.p50"][0] * 1e3)]
    for name, (count, total, self_ms) in sorted(spans.items()):
        if name != "service.execute" and self_ms > 0:
            rows.append((f"{name} self (trace)", self_ms * 1e3 / per_req))
    rows.append(("service.execute self, no child span (trace)", ex_self * 1e3 / per_req))
    rows.append(("api.render (replay)", rp["render_us"]))
    attributed = sum(us for _, us in rows)
    say("")
    say(f"where the time went ({w.name}): per-request mean, share of the open-loop "
        f"mean latency {e2e_us:.1f} us")
    for name, us in rows:
        say(f"  {name:48s} {us:10.2f} us {us / e2e_us * 100 if e2e_us else 0:6.1f}%")
    say(f"  {'unattributed: socket I/O, poll loop, queueing behind other':48s} "
        f"{e2e_us - attributed:10.2f} us "
        f"{(e2e_us - attributed) / e2e_us * 100 if e2e_us else 0:6.1f}%")
    say("    requests, kernel loopback and client (no in-program span covers them)")

    say("")
    front_us = rp["frame_us"] + rp["parse_request_us"] + rp["fingerprint_us"] + rp["render_us"]
    loop_us = closed["loop_cpu_s"] / closed_ok * 1e6
    say(f"front-end ceiling: loop thread busy {m['netserve.loop_cpu_share'][0] * 100:.1f}% "
        f"of wall; {loop_us:.2f} us loop CPU per request, of which frame+parse+resolve+"
        f"fingerprint+render account for {front_us:.2f} us "
        f"({rp['json_parse_us']:.2f} parse / "
        f"{rp['parse_request_us'] - rp['json_parse_us']:.2f} resolve / "
        f"{rp['render_us']:.2f} render)")
    if loop_us > front_us:
        say(f"  the other {loop_us - front_us:.2f} us is socket read/write, poll and Connection "
            "bookkeeping: missing in-program spans netserve.read / netserve.write")
    else:
        say("  the replay's calls account for all of the loop's CPU; the loop thread's "
            "share of wall time is what caps throughput")
    say("service.execute with no child span, by kind:")
    for kind, (count, total, self_ms) in sorted(execute_by_kind.items()):
        share = self_ms / total if total else 0.0
        say(f"  {kind:15s} {count:7d} spans  {share * 100:5.1f}% unattributed  "
            f"{MISSING_SPAN.get(kind, '')}")

    counts = {"untraced": phase_counts(base), "traced": phase_counts(tr)}
    failures = base["failures"] + tr["failures"]
    exits = [base["server_exit"], tr["server_exit"]]

    if w.name == "engine-mixed":
        say("")
        say("shard scaling (informational, closed loop, not gated):")
        for shards in (1, 2, 3):
            r = loadgen(binaries, w, run_dir, seed, closed_s / 2, 0, shards=shards, setups=1)
            counts[f"shards-{shards}"] = phase_counts(r)
            failures += r["failures"]
            exits.append(r["server_exit"])
            tp = statistics.median(x for x, _ in closed_windows(r["closed"]))
            say(f"  --shards {shards}: {tp:9.1f} req/s")
    return m, counts, failures, exits, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binaries = build(build_root)

    w = workloads.WORKLOADS[args.workload](args.seed)
    if w.inline_random:
        proc = subprocess.run([str(binaries["spp_inline"])], capture_output=True, text=True,
                              input="".join(line + "\n" for line in w.unique), timeout=120)
        if proc.returncode != 0:
            fail(f"spp_inline exited {proc.returncode}: {proc.stderr[-500:]}")
        w.unique = proc.stdout.splitlines()
    run_dir = build_root / "loadbench-run" / w.name
    prepare(w, run_dir)
    counts, total, pool, problems = workloads.check_mix(w)
    print(f"workload {w.name} seed {args.seed}: stream sha256 {workloads.stream_hash(w)}, "
          f"{len(w.stream)} lines over {len(w.unique)} distinct, {pool} instances, "
          f"shards {w.shards}, {'ids' if w.ids else 'no ids'}")
    print(f"  why: {w.why}")
    print("  kind mix: " + ", ".join(f"{k} {counts.get(k, 0) / total:.3f} (declared {v:.3f})"
                                     for k, v in w.mix.items()))
    problems += reference(binaries, w, run_dir)

    if args.trace:
        metrics, phase_table, failures, exits, lines = traced(
            binaries, w, run_dir, args.seed, args.seconds)
    else:
        closed_s, open_s = split(w, args.seconds / ROUNDS)
        rounds = [loadgen(binaries, w, run_dir, args.seed * ROUNDS + r, closed_s, open_s)
                  for r in range(ROUNDS)]
        metrics, per_round = end_to_end(rounds)
        phase_table = {f"round-{r + 1}": phase_counts(x) for r, x in enumerate(rounds)}
        failures = [f for x in rounds for f in x["failures"]]
        exits = [x["server_exit"] for x in rounds]
        windows = [x for r in rounds for x in open_windows(r["open"])]
        closed_windows_n = sum(len(r["closed"]["marks"]) - 1 for r in rounds)
        lines = [f"{ROUNDS} rounds, each a fresh server, each timing metric from the best round; "
                 f"closed loop: 4 connections x {w.depth} in flight for {closed_s:g} s a round, "
                 f"throughput and CPU are medians over {closed_windows_n} windows in all; open "
                 f"loop: Poisson {w.open_rate:g} req/s for {open_s:g} s a round, latency "
                 f"percentiles are medians over {len(windows)} windows of "
                 f"{min(map(len, windows))}+ samples ({sum(map(len, windows))} in all; "
                 "generator lag p99 " + "/".join(f"{lag_p99(r['open']):.3f}" for r in rounds)
                 + f" ms); set-up median of {SETUPS} a round: "
                 + ", ".join(f"{s:.3f}" for r in rounds for s in r["setup_s"]) + " s",
                 "host steal " + "/".join(f"{r['host_steal_pct']:.1f}" for r in rounds)
                 + "% of CPU time (above about 3%, latency reflects the host more than the "
                 "server)"]
        for name, (value, unit) in metrics.items():
            rounds_text = " / ".join(f"{m[name]:.4g}" for m in per_round) if name in per_round[0] else ""
            lines.append(f"  {name:16s} {value:14.6f} {unit:6s} {rounds_text}")
    for line in lines:
        print(line)

    attempted = failed = 0
    for run, phases in phase_table.items():
        for phase, (sent, ok, bad) in phases.items():
            print(f"  {run:9s} {phase:7s} sent {sent:7d}  ok {ok:7d}  failed {bad}")
            attempted += sent
            failed += bad
    for failure in failures:
        print("  failure: " + failure)
    for problem in problems:
        print("  problem: " + problem)
    if any(status != 0 for status in exits):
        problems.append(f"server exit status {exits}")
    correct = failed == 0 and not problems and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as timeout:
        # loadgen gives up on a silent server after 30 s, so this is a hang
        # of a benchmark program itself (subprocess.run has killed it).
        report_failure(f"{Path(timeout.cmd[0]).name} did not finish within "
                       f"{timeout.timeout:g} s")
