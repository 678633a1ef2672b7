"""satforge benchmark: search, certify and audit workloads.

Usage, from the root of a checkout:

    python3 satbench/run.py --workload {search,certify,audit} --seed N \\
        --seconds S --trace {0,1} [--scale {full,smoke}]

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the run exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with no tracing, corrected for
the machine's speed at the time (see ``speed.py``).  ``--trace 1``
alternates untraced passes with passes in which satforge's layer boundaries
are wrapped (see ``spans.py``), and reports per-layer self times and exact
counts; the spans of the first traced pass are written to
``.satbench-out/``.  Both print an environment line, one summary line per
metric, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 whenever that
line was printed; ``correct`` says whether every output passed its oracle.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".satbench-out"

# set-up launches before measuring, by scale, and how many more are spread
# over the measured seconds (between operations)
SETUP_LAUNCHES = {"full": 3, "smoke": 1}
SPREAD_LAUNCHES = 12

# layers reported by self time, and layers reported by call count
SELF_TIMES = (
    "search.canonical_form", "graph.with_edge", "graph.from_graph6",
    "graph.find_path", "graph.contains_cycle", "graph.paths_between",
    "graph.bfs_levels", "kernels.has_path", "kernels.has_cycle",
    "kernels.saturation_scan", "saturation.check_saturated",
    "saturation.theta_classes", "discharging.choose_root",
    "discharging.initial_charge", "discharging.stage_one",
    "discharging.stage_two",
)
CALLS = (
    "search.canonical_form", "graph.with_edge", "graph.find_path",
    "kernels.has_path", "kernels.saturation_scan", "saturation.reduce_t2",
)
BRANCH_COUNTS = ("branch_full", "branch_no_good_root", "branch_delta_ge3", "flagged")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_satforge():
    if not (SRC / "satforge" / "__init__.py").is_file():
        raise BenchError(f"satforge sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import satforge

    where = Path(satforge.__file__).resolve().parent
    if where != (SRC / "satforge").resolve():
        raise BenchError(f"imported satforge from {where}, not from {SRC}")
    return satforge


def environment(satforge):
    """What ran: interpreter, cores, kernel backend, optional deps, commit.
    Aborts when SATFORGE_BACKEND names a backend that did not load."""
    backend = satforge.kernels.BACKEND
    wanted = os.environ.get("SATFORGE_BACKEND", "").lower()
    if wanted and wanted != backend:
        raise BenchError(f"SATFORGE_BACKEND={wanted} was requested but the "
                         f"{backend} backend is active")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "numpy": _imports("numpy"),
        "numba": _imports("numba"),
        "commit": _git_commit(),
    }


def _imports(name):
    try:
        __import__(name)
    except ImportError:
        return False
    return True


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetupProbe:
    """Fresh interpreters that import satforge and its CLI and finish
    first-call set-up (``setup_probe.py``).  One untimed launch compiles the
    bytecode; the timed ones are spread over the run, so that a short burst
    of load from other processes cannot cover all of them.  Each is corrected
    for the machine's speed by a reference launch just before it
    (``speed.REF_LAUNCH``)."""

    def __init__(self, launches, spread_s):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
        self.ref = [sys.executable, "-c", speed.REF_LAUNCH]
        self.walls, self.stages = [], []
        self.interval = spread_s / SPREAD_LAUNCHES if spread_s else None
        self.next = 0.0
        for cmd in (self.ref, self.cmd):
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        for _ in range(launches):
            self.launch()

    def launch(self):
        t0 = perf_counter()
        subprocess.run(self.ref, check=True, capture_output=True, timeout=120)
        t1 = perf_counter()
        done = subprocess.run(self.cmd, check=True, capture_output=True, text=True,
                              timeout=120)
        wall = perf_counter() - t1
        self.walls.append((wall, wall * speed.REF_LAUNCH_S / (t1 - t0)))
        self.stages.append(json.loads(done.stdout))
        self.next = perf_counter() + (self.interval or 0)

    def between_ops(self):
        if self.interval and perf_counter() >= self.next:
            self.launch()

    def wall_s(self, corrected=True):
        return statistics.median(w[corrected] for w in self.walls)

    def stage_s(self, key):
        return statistics.median(s[key] for s in self.stages)


def run_pass(wl, tracer=None, between_ops=None, machine=None):
    """Every input once: per-op (start, end, seconds) with the oracle and any
    speed bursts excluded, failure reasons and the workload's exact counts."""
    latencies, reasons, counts = [], [], Counter()
    for item in wl.items:
        if tracer:
            tracer.on = True
        if machine:
            stolen = machine.stolen
            machine.active = True
        t0 = perf_counter()
        try:
            out = wl.op(item)
        except Exception as exc:  # a failed operation, counted and reported
            out, reason = None, f"{type(exc).__name__}: {exc}"
        else:
            reason = None
        t1 = perf_counter()
        if machine:
            machine.active = False
            latencies.append((t0, t1, t1 - t0 - (machine.stolen - stolen)))
        else:
            latencies.append((t0, t1, t1 - t0))
        if tracer:
            tracer.on = False
        if reason is None:
            try:
                reason = wl.check(item, out)
            except Exception as exc:
                reason = f"oracle error {type(exc).__name__}: {exc}"
        if reason:
            reasons.append(reason)
        else:
            wl.tally(out, counts)
        if between_ops:
            between_ops()
    return latencies, reasons, counts


def measure(wl, seconds, probe, machine):
    """Untraced passes, sampling the machine's speed, until `seconds` have
    passed; at least one."""
    passes = []
    deadline = perf_counter() + seconds
    machine.sample()  # so that even a run of very short operations has one
    with machine.sampling():
        while not passes or perf_counter() < deadline:
            passes.append(run_pass(wl, between_ops=probe.between_ops, machine=machine))
    return passes


def measure_traced(wl, seconds, package):
    """Alternating untraced and traced passes until `seconds` have passed;
    returns both lists and the tracer of the first traced pass."""
    import spans

    plain, traced, first = [], [], None
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(run_pass(wl))
        tracer = spans.Tracer()
        with tracer.installed(package):
            traced.append(run_pass(wl, tracer) + (tracer.layers(),))
        first = first or tracer
    return plain, traced, first


def end_to_end(wl, passes, probe, machine):
    """Each input's median speed-corrected latency over the passes; solve
    time is their sum.  The uncorrected sum is printed beside it."""
    typical = [statistics.median(machine.corrected(*p[0][i]) for p in passes)
               for i in range(len(wl.items))]
    raw_s = sum(statistics.median(p[0][i][2] for p in passes)
                for i in range(len(wl.items)))
    solve_s = sum(typical)
    if len(typical) > 1:
        cuts = statistics.quantiles(typical, n=100, method="inclusive")
        p50, p95 = cuts[49], cuts[94]
    else:
        p50 = p95 = typical[0]
    samples = f"{len(typical)} inputs, median of {len(passes)} passes each"
    return {
        "setup_s": (probe.wall_s(), "s", f"median of {len(probe.walls)} fresh interpreters, "
                    f"uncorrected {probe.wall_s(corrected=False)} s"),
        "solve_s": (solve_s, "s", f"{samples}, uncorrected {raw_s} s, "
                    f"{len(machine.durations)} speed samples"),
        "graphs_per_s": (wl.graphs_per_op * len(typical) / solve_s, "1/s",
                         f"{wl.graphs_per_op * len(typical)} graphs per pass"),
        "graph_ms_p50": (p50 * 1e3, "ms", samples),
        "graph_ms_p95": (p95 * 1e3, "ms", samples),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process"),
    }


def per_layer(wl, plain, traced, probe):
    counts = traced[0][2]
    layers = traced[0][3]

    def row(layer):
        return layers.get(layer, {"calls": 0, "self_s": 0.0, "hits": 0})

    def self_s(layer):
        return statistics.median(t[3].get(layer, {}).get("self_s", 0.0) for t in traced)

    out = {}
    for layer in SELF_TIMES:
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    for layer in CALLS:
        out[f"{layer}.calls"] = (row(layer)["calls"], "count")
    canon = row("search.canonical_form")["calls"]
    has_path = row("kernels.has_path")
    searching = "nodes" in counts
    out["search.dedup_ratio"] = (counts["classes"] / canon if canon else 0.0, "ratio")
    out["search.nodes"] = (counts["nodes"], "count")
    out["search.ck_rejections"] = (has_path["hits"] if searching else 0, "count")
    out["kernels.has_path.hit_ratio"] = (
        has_path["hits"] / has_path["calls"] if has_path["calls"] else 0.0, "ratio")
    scans = row("kernels.saturation_scan")["calls"]
    out["kernels.scans_per_audit"] = (
        scans / counts["audits"] if counts["audits"] else 0.0, "calls/audit")
    out["kernels.import_s"] = (probe.stage_s("kernels_import_s"), "s")
    out["discharging.checks.self_s"] = (self_s("discharging.audit"), "s")
    for key in BRANCH_COUNTS:
        out[f"discharging.{key}"] = (counts[key], "count")
    # best pass of each kind, so that bursts of load from other tenants drop out
    plain_s = min(sum(op[2] for op in p[0]) for p in plain)
    traced_s = min(sum(op[2] for op in t[0]) for t in traced)
    out["trace_overhead_frac"] = (traced_s / plain_s - 1, "fraction")
    return out


def write_trace(name, seed, env, metrics, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "metrics": metrics, "spans": tracer.spans()}, fh)
    return path


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    args = ap.parse_args(argv)

    try:
        satforge = load_satforge()
        env = environment(satforge)
    except BenchError as exc:
        print(f"satbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))

    wl = workloads.WORKLOADS[args.workload](satforge, args.seed, args.scale)
    probe = SetupProbe(SETUP_LAUNCHES[args.scale],
                       None if args.trace or args.scale == "smoke" else args.seconds)
    for item in wl.warmup:
        wl.op(item)

    if args.trace:
        plain, traced, tracer = measure_traced(wl, args.seconds, satforge)
        passes = plain + [t[:3] for t in traced]
        metrics = per_layer(wl, plain, traced, probe)
        exact = [(t[2], {k: (v["calls"], v["hits"]) for k, v in t[3].items()})
                 for t in traced]
        deterministic = all(e == exact[0] for e in exact)
    else:
        machine = speed.Speed()
        passes = measure(wl, args.seconds, probe, machine)
        metrics = end_to_end(wl, passes, probe, machine)
        deterministic = True

    attempted = sum(len(p[0]) for p in passes)
    reasons = [r for p in passes for r in p[1]]
    for reason in reasons[:5]:
        print(f"FAILED {reason}")
    if not deterministic:
        print("FAILED exact counts differ between traced passes")
    print(f"failed_frac = {len(reasons) / attempted} ({len(reasons)}/{attempted} operations)")
    for name, (value, unit, *note) in metrics.items():
        print(f"{name} = {value} {unit}" + (f" ({note[0]})" if note else ""))
    result = {name: {"value": value, "unit": unit}
              for name, (value, unit, *_) in metrics.items()}
    if args.trace:
        print(f"spans written to {write_trace(wl.name, args.seed, env, result, tracer)}")
    print(json.dumps({"correct": not reasons and deterministic, "attempted": attempted,
                      "failed": len(reasons), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
