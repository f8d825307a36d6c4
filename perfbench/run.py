#!/usr/bin/env python3
"""Whole-suite benchmark of palu-figures' scenario engine.

Run from the repository root:

    python3 perfbench/run.py --workload suite-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

A run builds perfbench-worker (the Go files beside this script) into
.bench_build/ and starts it once per phase, each phase a fresh process
whose wall time, CPU time and peak RSS are read from outside:

  set-up   populate an empty PTRC window cache with every window the
           workload declares (SETUPS times; setup_s is their median);
  passes   the workload's scenarios through the engine with palu-figures'
           default configuration over the populated cache, repeated
           until --seconds of passes have run (at least one);
  --trace  instead of passes, traced passes: the same pass with a span
           around every Scenario.Run, then the workload's layer calls
           re-issued on the same inputs under layer spans.

The host's speed drifts: on a shared 2-CPU VM the same pass took from 1.5
to 4.2 s within an hour, CPU time moving with it and no time stolen. So
an untraced run also times a probe (a fixed standard-library workload no
program change can touch) before every timed phase and after the last,
and reports wall_s, cpu_s and setup_s scaled by PROBE_REF over the run's
median probe time: seconds at the speed where the probe takes PROBE_REF.
The raw samples and probe times are kept in the result file.

Every pass's artifacts are checked, one operation per scenario: at seed 1
against the committed out/; at other seeds, scenarios whose inputs move
with the seed against a cold-cache reference run of them, and every
other scenario against the committed out/. The last stdout line is the
result object; every sample, its median, quartiles and range, and the
traced run's spans are written to .bench_results/.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_run")
RESULTS = os.path.join(ROOT, ".bench_results")
WORKER = os.path.join(BUILD, "perfbench-worker")
COMMITTED = os.path.join(ROOT, "out")

# Selection tokens per workload (palu-figures -only syntax; none = the
# full registry). "selfcheck" is the small workload of --self-check.
WORKLOADS = {
    "suite-warm": [],
    "traffic-warm": ["table1", "fig1", "fig3"],
    "selfcheck": ["table1", "fig1", "validation"],
}

# Reference probe time: the probe's median on the 2-CPU VM the bounds
# were set on.
PROBE_REF = 0.5

# Set-ups per untraced run. Each records every window of the workload,
# about 10 s on a 2-CPU machine, so more would not fit the run budget.
SETUPS = 2

# Scenarios whose inputs move with the suite seed. Every other
# scenario's inputs are fixed by the paper's published site seeds, so its
# artifacts must equal the committed out/ at any seed.
SEEDED = {"table1", "fig1", "fig2", "modelsel/palu-observed", "validation",
          "recovery", "invariance", "baseline", "directed", "weighted"}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "alloc_mb": "MiB",
              "peak_rss_mb": "MiB"}
SCALED = ("wall_s", "cpu_s", "setup_s")

# Layer spans of the traced run, each reported as its self time. Only the
# layers that mirror work inside a pass count toward trace.coverage_frac:
# generate and record mirror the set-up, and decode and reduce split the
# fused replay that stream.replay already counts.
PASS_LAYERS = ["stream.replay", "spmat.matrix", "spmat.merge", "palu.sample",
               "zipfmand.fit", "model.fit.zm", "model.fit.zm-mle",
               "model.fit.csn", "model.fit.plaw", "model.fit.palu",
               "model.fit.lognormal", "model.fit.truncplaw", "model.select",
               "powerlaw.compare", "estimate.estimate", "zipfmand.pooled",
               "palu.curve", "plotio.write"]
OTHER_LAYERS = ["netgen.generate", "tracestore.record", "tracestore.decode",
                "stream.reduce"]

# Which end-to-end metric each layer should move, on which workload.
# Written into every result file next to the numbers it predicts.
PREDICTIONS = {
    "scenario.*": "wall_s on suite-warm and traffic-warm",
    "netgen.generate_s, netgen.packets": "setup_s on suite-warm and traffic-warm",
    "tracestore.record_s, tracestore.archive_bytes, tracestore.compress_ratio":
        "setup_s on suite-warm and traffic-warm",
    "tracestore.decode_s, tracestore.read_bytes": "wall_s on traffic-warm",
    "stream.replay_s, stream.reduce_s, stream.windows, stream.packets":
        "wall_s on traffic-warm (and suite-warm, at a smaller share)",
    "model.*, zipfmand.fit_s, estimate.estimate_s, powerlaw.compare_s":
        "wall_s and cpu_s on suite-warm; traffic-warm should not move",
    "palu.curve_s, zipfmand.pooled_s, palu.sample_s":
        "wall_s and cpu_s on suite-warm; traffic-warm should not move",
    "plotio.write_s, plotio.bytes, plotio.files": "wall_s on suite-warm",
    "spmat.matrix_s, spmat.merge_s": "wall_s on traffic-warm and suite-warm",
}


def layer_metric(layer):
    """model.fit.zm -> model.fit_s.zm, netgen.generate -> netgen.generate_s."""
    parts = layer.split(".")
    parts[1] += "_s"
    return ".".join(parts)


PER_LAYER = dict(
    {layer_metric(l): "s" for l in PASS_LAYERS + OTHER_LAYERS},
    **{
        "scenario.span_s": "s", "scenario.parked_s": "s",
        "scenario.replays_saved": "count", "scenario.replayed_packets": "count",
        "scenario.recorded_packets": "count", "scenario.cache_hit_ratio": "ratio",
        "netgen.packets": "count", "tracestore.archive_bytes": "bytes",
        "tracestore.compress_ratio": "ratio", "tracestore.read_bytes": "bytes",
        "stream.windows": "count", "stream.packets": "count",
        "model.fits": "count", "model.fit_failures": "count",
        "plotio.bytes": "bytes", "plotio.files": "count",
        "trace.coverage_frac": "ratio", "trace.unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })


class WorkerError(Exception):
    pass


def go_env():
    """Keep every file the Go toolchain writes inside the checkout."""
    env = {k: v for k, v in os.environ.items() if k != "GOFLAGS"}
    env.update(GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               GOTMPDIR=os.path.join(BUILD, "tmp"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off")
    return env


def build():
    for need in ("go.mod", "internal", "out"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise WorkerError(f"{ROOT} holds no {need}: not a repository checkout")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", WORKER, "."], cwd=HERE, env=go_env(),
                              stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        raise WorkerError(f"go build: {err}") from err
    if proc.returncode != 0:
        raise WorkerError("go build failed")


def spawn(args, log):
    """Run the worker to completion; return (result, wall_s, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen([WORKER] + args, stdout=subprocess.PIPE, stderr=log)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}; see {log.name}")
    return json.loads(out.decode().strip().splitlines()[-1]), wall, usage


def probe(log):
    """One probe time, in seconds (see probe.go)."""
    return spawn(["probe"], log)[0]["probe_s"]


def sections(path):
    """Split a summary.txt into {title: body}."""
    out, title = {}, None
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except OSError:
        return out
    for line in lines:
        if line.startswith("== ") and line.endswith(" =="):
            title = line[3:-3]
            out[title] = []
        elif title is not None:
            out[title].append(line)
    # A section ends at the next header or at the end of the file, so
    # trailing blank lines depend only on where the section falls.
    return {t: "\n".join(body).rstrip("\n") for t, body in out.items()}


def read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


class Checker:
    """Counts a pass's failed operations: one per scenario whose run
    errored or whose artifacts or summary section differ from the
    reference."""

    def __init__(self, scens, refs):
        self.scens, self.refs = scens, refs
        self.ref_sections = {d: sections(os.path.join(d, "summary.txt"))
                             for d in set(refs.values()) if d}

    def failures(self, out, errors):
        got = sections(os.path.join(out, "summary.txt"))
        bad = []
        for s in self.scens:
            name, ref = s["name"], self.refs[s["name"]]
            if name in errors:
                bad.append(f"{name}: {errors[name]}")
            elif ref is None:
                bad.append(f"{name}: the reference run failed")
            elif got.get(s["title"]) != self.ref_sections[ref].get(s["title"]):
                bad.append(f"{name}: summary section differs")
            else:
                diff = [f for f in s["outputs"]
                        if read(os.path.join(out, f)) != read(os.path.join(ref, f))]
                if diff:
                    bad.append(f"{name}: {', '.join(diff)} differs")
        return bad


def references(scens, seed, work, log):
    """Reference directory per scenario (None when it cannot be made)."""
    refs = {s["name"]: COMMITTED for s in scens}
    seeded = [s["name"] for s in scens if s["name"] in SEEDED]
    if seed == 1 or not seeded:
        return refs
    ref = os.path.join(work, "reference")
    args = ["pass", "-seed", str(seed), "-cache", os.path.join(work, "reference-cache"),
            "-out", ref]
    for name in seeded:
        args += ["-only", name]
    res, _, _ = spawn(args, log)
    for name in seeded:
        refs[name] = None if name in res["failures"] else ref
    return refs


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_sample(spans, res):
    """One traced iteration's per-layer metrics."""
    selfs = self_times(spans)
    layer = collections.defaultdict(float)
    for s in spans:
        if s.get("layer"):
            layer[s["layer"]] += selfs[s["id"]]
    wall = next(s["end"] - s["start"] for s in spans if s["name"] == "pass")
    m = {layer_metric(l): layer[l] for l in PASS_LAYERS + OTHER_LAYERS}
    covered = sum(layer[l] for l in PASS_LAYERS)
    cache, counts = res["pass"]["cache"], res["counts"]
    lookups = cache["Hits"] + cache["Misses"]
    m.update({
        "scenario.span_s": layer["scenario"],
        "scenario.parked_s": layer["scenario"] - wall,
        "scenario.replays_saved": cache["ReplaysSaved"],
        "scenario.replayed_packets": cache["ReplayedPackets"],
        "scenario.recorded_packets": cache["RecordedPackets"],
        "scenario.cache_hit_ratio": cache["Hits"] / lookups if lookups else 0.0,
        "netgen.packets": counts["netgen_packets"],
        "tracestore.archive_bytes": counts["archive_bytes"],
        "tracestore.compress_ratio":
            counts["raw_bytes"] / counts["archive_bytes"] if counts["archive_bytes"] else 0.0,
        "tracestore.read_bytes": counts["read_bytes"],
        "stream.windows": counts["windows"],
        "stream.packets": counts["packets"],
        "model.fits": counts["fits"],
        "model.fit_failures": counts["fit_failures"],
        "plotio.bytes": counts["write_bytes"],
        "plotio.files": counts["write_files"],
        "trace.coverage_frac": covered / wall,
        "trace.unattributed_s": wall - covered,
        "trace.overhead_frac": res["overhead_s"] / wall,
    })
    return m


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "samples": values}


def run(workload, seed, seconds, trace, corrupt=None):
    build()
    tag = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "scratch"))
    os.makedirs(RESULTS, exist_ok=True)
    t0 = time.perf_counter()
    spans = [{"id": 0, "parent": -1, "name": "run", "start": 0.0}]
    samples = collections.defaultdict(list)
    probes = []
    attempted, failed, failures = 0, 0, []
    with open(os.path.join(RESULTS, tag + ".log"), "w") as log:
        try:
            base = ["-seed", str(seed)]
            for tok in WORKLOADS[workload]:
                base += ["-only", tok]
            scens = spawn(["list"] + base, log)[0]["scenarios"]
            checker = Checker(scens, references(scens, seed, work, log))
            cache = None
            for i in range(1 if trace else SETUPS):
                if cache:
                    shutil.rmtree(cache)
                if not trace:
                    probes.append(probe(log))
                cache = os.path.join(work, f"cache{i}")
                start = time.perf_counter() - t0
                _, wall, _ = spawn(["setup", "-cache", cache] + base, log)
                samples["setup_s"].append(wall)
                spans.append({"id": len(spans), "parent": 0, "name": "setup",
                              "start": start, "end": start + wall})
            measured, n = 0.0, 0
            while n == 0 or measured < seconds:
                out = os.path.join(work, f"out{n}")
                args = ["-cache", cache, "-out", out] + base
                if trace:
                    span_file = os.path.join(work, f"spans{n}.json")
                    start = time.perf_counter() - t0
                    res, wall, _ = spawn(["trace", "-scratch", os.path.join(work, "scratch"),
                                          "-spans", span_file] + args, log)
                    with open(span_file) as f:
                        traced = json.load(f)
                    for name, value in layer_sample(traced, res).items():
                        samples[name].append(value)
                    offset = len(spans)
                    for s in traced:
                        spans.append(dict(s, id=s["id"] + offset, start=s["start"] + start,
                                          end=s["end"] + start,
                                          parent=s["parent"] + offset if s["parent"] >= 0 else 0))
                    errors = res["pass"]["failures"]
                else:
                    probes.append(probe(log))
                    res, wall, usage = spawn(["pass"] + args, log)
                    samples["wall_s"].append(wall)
                    samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
                    samples["peak_rss_mb"].append(usage.ru_maxrss / 1024)
                    samples["alloc_mb"].append(res["alloc_bytes"] / 2**20)
                    errors = res["failures"]
                measured += wall
                if corrupt:
                    path = os.path.join(out, corrupt)
                    with open(path, "r+b") as f:
                        first = f.read(1)
                        f.seek(0)
                        f.write(bytes([first[0] ^ 0xFF]))
                bad = checker.failures(out, errors)
                attempted += len(scens)
                failed += len(bad)
                failures += bad
                shutil.rmtree(out)
                n += 1
            if probes:
                probes.append(probe(log))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    spans[0]["end"] = time.perf_counter() - t0
    units = PER_LAYER if trace else END_TO_END
    scale = PROBE_REF / statistics.median(probes) if probes else 1.0
    summary = {name: dict(summarize([v * scale if name in SCALED else v for v in samples[name]]),
                          unit=unit)
               for name, unit in units.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "iterations": n, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": summary, "predictions": PREDICTIONS}
    if probes:
        record["probe_s"] = summarize(probes)
        record["raw"] = {name: summarize(samples[name]) for name in SCALED}
    if trace:
        record["spans"] = [dict(s, workload=workload, run=tag) for s in spans]
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    for line in failures[:5]:
        print("failed:", line, file=sys.stderr)
    if len(failures) > 5:
        print(f"failed: ... {len(failures) - 5} more in {tag}.json", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                        for name, m in summary.items()}}


def self_check():
    """Run the small workload both ways and once with a corrupted
    artifact: every metric BENCHMARK.json names must print with its
    unit, and the corruption must count as a failed operation."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = run("selfcheck", 1, 1, trace)
        want = {m["name"]: m["unit"] for m in manifest[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
        if not res["correct"] or res["failed"] or not res["attempted"]:
            problems.append(f"trace {trace}: {res['failed']} of {res['attempted']} operations failed")
    res = run("selfcheck", 1, 1, 0, corrupt="figure1_quantities.csv")
    if res["correct"] or res["failed"] < 1:
        problems.append("a corrupted figure1_quantities.csv was not counted as failed")
    for p in problems:
        print("self-check:", p, file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            ap.error("--workload is required")
        print(json.dumps(run(args.workload, args.seed, args.seconds, args.trace)))
    except WorkerError as err:
        print("perfbench:", err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
