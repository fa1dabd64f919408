"""hbcells benchmark: exact-arithmetic workloads, timed and traced.

Run from the repository root:

    python3 perfbench/run.py --workload chart_roundtrip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

An untraced run (``--trace 0``) sets up the workload (a fresh ``hbcells``
import plus input generation), then repeats whole passes over the items, in
the order the seed gives them, for about ``--seconds`` seconds, setting up
once more after each pass, and reports the end-to-end metrics.  Their times
are scaled to a reference host speed, which a calibration unit timed while
the items run measures (see ``hostspeed.py``); the plain wall-clock figures
are printed and kept in the result file too.  A traced run
(``--trace 1``) makes a spanned pass between two untraced ones, then a
profiled pass, and reports the per-layer metrics; its counts repeat exactly.
Every item is checked against an independent oracle, and the outputs of the
first pass are digested and compared with ``perfbench/digests.json``; a
workload without a recorded digest fails.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a JSON result file and, for traced runs, the spans are written
under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
import types
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SRC_PKG = os.path.join(SRC, "hbcells")
RESULTS = os.path.join(BENCH_DIR, "results")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

sys.path.insert(0, BENCH_DIR)

import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import LAYERS, PROFILED_FUNCTIONS, Tracer, profile  # noqa: E402
from workloads import CALLS, MEASURES, WORKLOADS  # noqa: E402

MIN_SETUPS = 9
# Tail percentile over a pass's items: the highest level with at least ten
# items beyond it (the maximum when the pass is too small for any).
TAIL_LEVELS = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Spanned calls reported per function; MEASURES adds counts to some.
SPANNED = (
    "staircase.enumerate_staircases",
    "hilbert_burch.random_cell_matrix",
    "hilbert_burch.cell_matrix_from_parameters",
    "hilbert_burch.minors_ideal",
    "hilbert_burch.canonical_matrix",
    "hilbert_burch.cell_kinds_of_ideal",
    "groebner.buchberger_reduced",
    "groebner.graded_beta0_profile",
    "betti.betti_numbers",
    "betti.stratum_descriptor",
    "generic_cells.generic_family",
    "generic_cells.buchberger_equations",
    "generic_cells.eliminate_linear",
    "census.brute_force_ideal_count",
)
RATIOS = (
    # name, numerator, denominator
    ("generic_cells.eliminated_ratio", "generic_cells.eliminate_linear.eliminated",
     "generic_cells.eliminate_linear.params_in"),
    ("census.accept_ratio", "census.brute_force_ideal_count.accepted",
     "census.brute_force_ideal_count.points"),
)
# Failures are blamed on the module of the driver call that produced them;
# ``digest`` counts outputs that differ between passes or from the reference.
FAIL_LAYERS = tuple(CALLS) + ("driver", "digest")
TRACE_TIMES = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
               "profile.wall_s", "profile.overhead_s")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_coverage")):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def per_layer_names():
    names = []
    for span in SPANNED:
        names += [f"{span}.calls", f"{span}.busy_s"]
        names += [f"{span}.{m}" for m in MEASURES.get(span, ((), None))[0]]
    names += [name for name, _, _ in RATIOS]
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += [f"{module}.{qualname}.calls" for module, qualname in PROFILED_FUNCTIONS]
    names += [f"{layer}.failed" for layer in FAIL_LAYERS]
    names += list(TRACE_TIMES) + ["trace.span_coverage"]
    return names


PER_LAYER = tuple((name, _unit(name)) for name in per_layer_names())


# ---------------------------------------------------------------------------
# the library under test

def import_hbcells():
    """Import hbcells afresh from ``src/`` and return its modules by name."""
    for name in [n for n in sys.modules if n == "hbcells" or n.startswith("hbcells.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("hbcells")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != SRC_PKG:
        raise ImportError(f"hbcells was imported from {pkg.__file__}, not {SRC_PKG}")
    return {name[len("hbcells."):]: module for name, module in sys.modules.items()
            if name.startswith("hbcells.")}


def library(modules, tracer=None):
    """The namespace the workloads call through; spanned when ``tracer`` is given."""
    lib = types.SimpleNamespace(CellKind=modules["hilbert_burch"].CellKind)
    for module, names in CALLS.items():
        for name in names:
            fn = getattr(modules[module], name)
            setattr(lib, name, fn if tracer is None else tracer.wrap(f"{module}.{name}", fn))
    return lib


def blame(exc):
    """Module of the driver call an exception came out of ('driver' if none)."""
    tb = exc.__traceback__
    while tb is not None:
        filename = os.path.abspath(tb.tb_frame.f_code.co_filename)
        if os.path.dirname(filename) == SRC_PKG:
            return os.path.splitext(os.path.basename(filename))[0]
        tb = tb.tb_next
    return "driver"


# ---------------------------------------------------------------------------
# passes

class Outcomes:
    """What the passes of one run produced: timings, failures, output hashes."""

    def __init__(self):
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.failed_by = {}
        self.hashes = None
        self.errors = []
        # With a HostSpeed: for each entry of ``times``, the range of the
        # calibration samples taken during it (empty for most items).
        self.speed_at = []

    def fail(self, layers):
        self.failed += 1
        for layer in set(layers):
            self.failed_by[layer] = self.failed_by.get(layer, 0) + 1


def run_pass(workload, lib, items, log, tracer=None, speed=None):
    """Run every item once; returns the pass's wall time in seconds.

    With ``speed``, whose timer samples while the pass runs, the time the
    samples took during an item is taken out of the item's time.
    """
    hashes = []
    start = perf_counter()
    for index, item in enumerate(items):
        if speed is not None:
            first, spent = len(speed.samples), speed.spent
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin(f"item.{item.kind}", index, item)
        try:
            out, failed = workload.run_item(lib, item)
            text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        except Exception as exc:  # one bad item must not abort the run
            failed = [blame(exc)]
            text = f"error: {type(exc).__name__}: {exc}"
            if len(log.errors) < 5:
                log.errors.append(traceback.format_exc())
        if tracer is not None:
            tracer.end(error=bool(failed))
        elapsed = perf_counter() - t0
        if speed is not None:
            elapsed -= speed.spent - spent
            log.speed_at.append((first, len(speed.samples)))
        log.times.append(elapsed / item.calls)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if log.hashes is not None and digest != log.hashes[index]:
            failed = failed + ["digest"]
        if failed:
            log.fail(failed)
        log.attempted += 1
        hashes.append(digest)
    wall = perf_counter() - start
    if log.hashes is None:
        log.hashes = hashes
    return wall


def pass_digest(items, hashes):
    """Order-free digest of one pass: sorted (input key, output hash) pairs."""
    pairs = sorted([json.dumps(item.key, separators=(",", ":")), h]
                   for item, h in zip(items, hashes))
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def check_digest(workload, items, log):
    """Compare the first pass's digest with the recorded one; a mismatch fails."""
    digest = pass_digest(items, log.hashes)
    with open(DIGESTS) as fh:
        reference = json.load(fh).get(workload.name)
    if reference != digest:
        log.fail(["digest"])
    return {"digest": digest, "reference": reference, "digest_match": reference == digest}


def percentile(sorted_values, level):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_values) * level // 100) - 1)
    return sorted_values[int(k)]


def tail(sorted_values):
    n = len(sorted_values)
    for level in TAIL_LEVELS:
        k = -(-n * level // 100)
        if n - k >= 10:
            return level, percentile(sorted_values, level)
    return 100.0, sorted_values[-1]


# ---------------------------------------------------------------------------
# the two kinds of run

def timed_run(workload, seed, seconds):
    speed = HostSpeed()
    setups = []  # (wall seconds, index of the first sample after the set-up)

    def set_up():
        gc.collect()
        for _ in range(hostspeed.WINDOW // 2):
            speed.sample()
        t0 = perf_counter()
        lib = library(import_hbcells())
        items = workload.setup(lib, seed)
        setups.append((perf_counter() - t0, len(speed.samples)))
        for _ in range(hostspeed.WINDOW // 2):
            speed.sample()
        gc.collect()
        return lib, items

    lib, items = set_up()
    log = Outcomes()
    weight = sum(item.weight for item in items)
    passes = 0
    start = perf_counter()
    while True:
        with speed:
            pass_s = run_pass(workload, lib, items, log, speed=speed)
        passes += 1
        if passes == 1:
            # The memory of one set-up and one pass.  Each later set-up
            # leaves the heap a little more fragmented, so the high-water
            # mark at the end would grow with the number of passes.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # One more set-up after each pass spreads the set-up samples over
        # the run like the item repeats; the passes keep using ``lib``.
        set_up()
        wall = perf_counter() - start
        if wall + pass_s / 2 >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        set_up()

    def timing(setup_times, item_times):
        # Each item is timed by the median of its repeats, one per pass, so
        # a burst of host slowness or speed during one pass does not move it.
        n = len(items)
        typical = [statistics.median(item_times[i::n]) for i in range(n)]
        level, tail_s = tail(sorted(typical))
        return level, {
            "setup_s": statistics.median(setup_times),
            "items_per_s": weight / sum(typical),
            "item_p50_ms": statistics.median(typical) * 1e3,
            "item_tail_ms": tail_s * 1e3,
        }

    level, metrics = timing([t * speed.scale(k, k) for t, k in setups],
                            [t * speed.scale(*k) for t, k in zip(log.times, log.speed_at)])
    metrics["peak_rss_mb"] = peak_rss_mb
    _, wall_metrics = timing([t for t, _ in setups], log.times)
    details = {"passes": passes, "items_per_pass": len(items), "item_unit": workload.unit,
               "tail_percentile": level, "host_speed": speed.speed(),
               "calibration_samples": len(speed.samples),
               "wall": wall_metrics, "setup_samples_wall_s": [t for t, _ in setups],
               "wall_s": wall, "failed_frac": log.failed / log.attempted}
    details.update(check_digest(workload, items, log))
    return log, metrics, details, None


def traced_run(workload, seed):
    tracer = Tracer(MEASURES)
    modules = import_hbcells()
    raw, spanned = library(modules), library(modules, tracer)
    tracer.begin("setup")
    items = workload.setup(spanned, seed)
    tracer.end()
    gc.collect()

    log = Outcomes()
    # Untraced passes on both sides of the spanned one cancel a steady drift
    # of the host's speed out of the overhead.
    before = run_pass(workload, raw, items, log)
    first_span = len(tracer.spans)
    traced = run_pass(workload, spanned, items, log, tracer)
    covered = sum(end - start for _, start, end, parent, _, _ in tracer.spans[first_span:]
                  if parent is not None)
    untraced = (before + run_pass(workload, raw, items, log)) / 2
    t0 = perf_counter()
    rollup = profile(lambda: run_pass(workload, raw, items, log), modules, SRC_PKG, BENCH_DIR)
    profiled = perf_counter() - t0

    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    for name, (calls, busy) in tracer.call_stats().items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.busy_s"] = busy
    for name, value in tracer.counts.items():
        if name in metrics:
            metrics[name] = value
    for name, num, den in RATIOS:
        metrics[name] = metrics[num] / metrics[den] if metrics[den] else 0
    metrics.update(rollup)
    for layer, count in log.failed_by.items():
        metrics[f"{layer}.failed"] = count
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.span_coverage": covered / traced,
        "profile.wall_s": profiled,
        "profile.overhead_s": profiled - untraced,
    })
    details = {"passes": 4, "items_per_pass": len(items),
               "failed_frac": log.failed / log.attempted}
    details.update(check_digest(workload, items, log))
    return log, metrics, details, tracer


# ---------------------------------------------------------------------------
# environment and output

def git_sha():
    """HEAD's commit from ``.git`` without running git (None outside a checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    lines = 0
    for name in os.listdir(SRC_PKG):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PKG, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    return {
        "git_sha": git_sha(),
        "src_lines": lines,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "seed": seed,
    }


def run_one(args):
    workload = WORKLOADS[args.workload]
    if args.trace:
        log, metrics, details, tracer = traced_run(workload, args.seed)
        units = dict(PER_LAYER)
    else:
        log, metrics, details, tracer = timed_run(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    correct = log.failed == 0
    result = {"correct": correct, "attempted": log.attempted, "failed": log.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": workload.name, "why": workload.why,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(args.seed), "details": details,
                   "errors": log.errors, **result}, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(tracer.rows(), fh)

    for name, unit in units.items():
        print(f"{workload.name:16} {name:48} {metrics[name]:>14.6g} {unit}")
    print(f"{workload.name:16} {'failed_frac':48} {details['failed_frac']:>14.6g} ratio")
    if "tail_percentile" in details:
        for name, value in details["wall"].items():
            print(f"{workload.name:16} {'wall.' + name:48} {value:>14.6g} {units[name]}")
        print(f"{workload.name:16} item times are each item's median of "
              f"{details['passes']} passes; item_tail_ms is "
              f"p{details['tail_percentile']:g} of {details['items_per_pass']} items; "
              f"times are scaled to the reference host, this one ran at "
              f"{details['host_speed']:.3f} of its speed")
    print(f"{workload.name:16} digest {details['digest'][:16]} "
          f"reference {'match' if details['digest_match'] else 'MISMATCH'}")
    for text in log.errors:
        print(text, file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Run each workload in its own fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no hbcells sources at {SRC_PKG}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
