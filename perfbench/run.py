"""Benchmark harness for reebforge.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is descent_battery, reeb_graph_mesh or cli_session; ``all`` runs each
in a fresh process and ends with one table of the end-to-end metrics.  The package is imported from the
checkout's ``src`` directory.  One process, no threads, closed loop: each op
starts when the one before it ends.

The run executes ``seconds // nominal batch time`` batches (at least one)
of the workload's fixed op list, so every run of a workload makes the same
number of ops.  Outputs are checked after each op, outside the timed region.
Timed end-to-end metrics are in seconds of the reference machine (see
SpeedClock); the raw times are printed beside them.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones untraced, per-layer ones with ``--trace 1``).
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("descent_battery", "reeb_graph_mesh", "cli_session")
SETUP_PROBES = 10
# What reference_work takes on the reference machine: a 2-vCPU VM with
# Python 3.11.7, in its fast phase.  Timed end-to-end metrics are given in
# seconds of that machine (see SpeedClock).
REFERENCE_S = 0.0035
# How often SpeedClock samples the reference speed while a block runs.
SAMPLE_PERIOD_S = 0.2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def source_fingerprint():
    """Digest of the program and the benchmark, so that drift is only
    reported between traced runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tail_stat(latencies):
    """Latency at the highest percentile that still has >= 10 ops beyond it.

    Returns (value, percentile, op count); with 10 ops or fewer there is no
    such percentile and the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Tally:
    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.by_op = {}
        self.walls = []
        self.attempted = 0
        self.failures = []

    def add(self, op_id, dt, raw_dt, problem):
        self.latencies.append(dt)
        self.raw_latencies.append(raw_dt)
        self.by_op.setdefault(op_id, []).append(dt)
        self.attempted += 1
        if problem:
            self.failures.append(f"{op_id}: {problem}")


def reference_work():
    """Fixed pure-Python work that calls nothing in reebforge: tuple keys in
    a dict and a set, a union-find, Fraction arithmetic and a sort, the kinds
    of work the package's hot loops do."""
    parent = list(range(512))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen, counts = set(), {}
    for i in range(4000):
        a, b = (i * 7919) % 512, (i * 104729 + i // 3) % 512
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        counts[key[0] % 31] = counts.get(key[0] % 31, 0) + 1
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction((-1) ** i, i + 1) * Fraction(i, 3)
    return len(sorted(seen, key=lambda k: (k[1], k[0]))), total, len(counts)


def reference_time():
    """Seconds that reference_work takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Times a block in raw seconds and in seconds of the reference machine.

    The shared VM this benchmark was defined on switches, every few seconds,
    between a fast phase and one 1.5-1.7 times slower, whatever runs in the
    benchmark's process; so a run's raw time depends on how much of it fell
    in the slow phase.  The clock runs reference_work at the block's start
    and end and, from a SIGALRM handler, every SAMPLE_PERIOD_S while the
    block runs, and scales each stretch between two samples by
    REFERENCE_S / (mean reference time at its ends).  The samples' own time
    is left out of both figures.  With ``sample=False`` it is a plain timer.
    """

    def __init__(self, sample=True):
        self.sample = sample

    def __enter__(self):
        self.marks = []
        if self.sample:
            signal.signal(signal.SIGALRM, self._mark)
        self._mark()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._mark()
        stretches = [(b[0] - a[1], (a[2] + b[2]) / 2) for a, b in zip(self.marks, self.marks[1:])]
        self.raw_s = sum(dt for dt, _ in stretches)
        self.ref_s = (sum(dt * REFERENCE_S / ref for dt, ref in stretches)
                      if self.sample else self.raw_s)
        return False

    def _mark(self, *_):
        start = time.perf_counter()
        ref = reference_time() if self.sample else 0.0
        self.marks.append((start, time.perf_counter(), ref))


def run_op(op, tally, recorder=None, normalize=False):
    """Run, time and check one op; return its time, in reference seconds
    when ``normalize`` is set."""
    # A full collection first, outside the timed region: otherwise young
    # collections inside an op rescan whatever earlier ops and the inputs
    # left in the young generations, and an op's time depends on its
    # position in the batch (on a 2-vCPU machine, a first pass over the
    # battery ran 23% slower than a second pass over the same maps).
    gc.collect()
    problem = out = None
    clock = SpeedClock(sample=normalize)
    try:
        with clock:
            if recorder is None:
                out = op.run()
            else:
                with recorder.op(op.id):
                    out = op.run()
    except Exception as exc:  # an escaped exception is a failed op
        problem = f"exception escaped: {type(exc).__name__}: {str(exc)[:200]}"
    dt, raw_dt = clock.ref_s, clock.raw_s
    if problem is None:
        try:
            problem = op.check(out)
        except Exception as exc:  # malformed output, e.g. stdout that is not JSON
            problem = f"output check raised {type(exc).__name__}: {str(exc)[:200]}"
    del out
    tally.add(op.id, dt, raw_dt, problem)
    return dt


def run_batch(workload, state, tally, rejects, between=None):
    wall = 0.0
    for op in workload.ops(state):
        wall += run_op(op, tally, normalize=True)
        if between:
            between(tally.attempted)
    for op in workload.reject_ops(state):
        run_op(op, rejects)
    tally.walls.append(wall)


def probe_setup(name, seed):
    """Set-up time of a fresh process: imports plus input generation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    src_pkg = ROOT / "src" / "reebforge" / "__init__.py"
    if not src_pkg.is_file():
        return fail(f"no package source at {src_pkg.relative_to(ROOT)}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    try:
        with SpeedClock(sample=not args.trace) as clock:
            import workloads
            import reebforge

            workload = workloads.WORKLOADS[args.workload]()
            state = workload.setup(args.seed, workdir)
        if Path(reebforge.__file__).resolve().parent != src_pkg.parent.resolve():
            return fail(f"imported reebforge from {reebforge.__file__}, not from this checkout")
        setup_main = (clock.ref_s, clock.raw_s)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        if args.trace:
            result = traced_run(args, workload, state, workdir)
        else:
            result = untraced_run(args, workload, state, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(args, workload, state, setup_main):
    end_to_end, _ = metric_specs()
    batches = max(1, int(args.seconds // workload.nominal_batch_s))
    tally, rejects = Tally(), Tally()
    # The set-up probes run between ops, spread evenly over the timed phase,
    # so that their median samples the machine across the whole run.
    total = batches * len(workload.ops(state))
    probe_at = {round((k + 1) * total / SETUP_PROBES) for k in range(SETUP_PROBES)}
    setups = [setup_main]

    def between(done):
        if done in probe_at:
            setups.append(probe_setup(args.workload, args.seed))

    for b in range(batches):
        if b:
            state = workload.refresh(state)
        run_batch(workload, state, tally, rejects, between)
    del state
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tail, pct, n = tail_stat(tally.latencies)
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": sum(tally.walls),
        "op_p50_s": statistics.median(tally.latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = len(tally.failures)
    failed_share = failed / tally.attempted
    gated = {m["name"]: m["unit"] for m in end_to_end}
    print(f"workload {args.workload}  seed {args.seed}  batches {batches}  "
          f"ops {tally.attempted}  (one process, no threads, closed loop)")
    values["failed_share"] = failed_share
    raw_setup = statistics.median(raw for _, raw in setups)
    lines = [
        ("setup_s", "s", f"median of {len(setups)} set-ups in fresh processes; "
                         f"raw {raw_setup:.6f} s"),
        ("wall_s", "s", f"all {tally.attempted} ops: {batches} batch(es) of "
                        f"{tally.attempted // batches}; raw {sum(tally.raw_latencies):.6f} s"),
        ("op_p50_s", "s", f"median of {n} ops; printed, not gated"),
        ("op_tail_s", "s", f"p{pct:.1f} of {n} ops; printed, not gated"),
        ("failed_share", "", f"{failed} of {tally.attempted} ops; printed, not gated"),
        ("peak_rss_mb", "MB", "this process"),
    ]
    print("  times in seconds of the reference machine; raw: as measured here")
    for name, unit, note in lines:
        print(f"  {name:<13} {values[name]:>12.6f} {unit:<3} {note}")
    report_failures(tally.failures, rejects)
    write_details(args, {
        "values": values, "setups": setups, "walls": tally.walls,
        "latencies": tally.latencies, "raw_latencies": tally.raw_latencies,
        "tail_percentile": pct, "ops": n,
        "by_op": tally.by_op, "failures": tally.failures,
        "rejects": {"attempted": rejects.attempted, "failures": rejects.failures},
    })
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in gated.items()},
    }


def traced_run(args, workload, state, workdir):
    """One batch untraced and one traced, interleaved op by op.

    Each op runs once untraced and once, on its own fresh copy of the
    inputs, with the span recorder installed.  Pairs alternate which side
    goes first, so slow drifts of the machine and any first-run effect fall
    on both sides alike.  The traced side's set-up is traced too.
    """
    import tracing

    _, per_layer = metric_specs()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        with recorder.op("setup"):
            traced_state = workload.setup(args.seed, workdir)
    finally:
        recorder.uninstall()

    tally, rejects = Tally(), Tally()
    traced, traced_rejects = Tally(), Tally()
    wall_untraced = wall_traced = 0.0
    pairs = [
        (zip(workload.ops(state), workload.ops(traced_state)), tally, traced),
        (zip(workload.reject_ops(state), workload.reject_ops(traced_state)), rejects,
         traced_rejects),
    ]
    for ops, plain, under in pairs:
        for i, (op, traced_op) in enumerate(ops):
            if i % 2 == 0:
                dt = run_op(op, plain)
            recorder.install()
            try:
                dt_traced = run_op(traced_op, under, recorder)
            finally:
                recorder.uninstall()
            if i % 2 == 1:
                dt = run_op(op, plain)
            if plain is tally:
                wall_untraced += dt
                wall_traced += dt_traced
    del state, traced_state

    names = [m["name"] for m in per_layer]
    values = tracing.layer_metrics(recorder, names)
    values["trace.overhead_s"] = wall_traced - wall_untraced
    values["cli.reject_failed"] = len(traced_rejects.failures)
    counts = {m["name"] for m in per_layer if m["unit"] != "s"}
    drift = check_drift(args, {k: values[k] for k in sorted(counts)})

    units = {m["name"]: m["unit"] for m in per_layer}
    print(f"workload {args.workload}  seed {args.seed}  traced: 1 untraced + 1 traced batch  "
          f"wall_s untraced {wall_untraced:.6f} s, traced {wall_traced:.6f} s")
    for name in names:
        if values[name]:
            print(f"  {name:<44} {values[name]:>16.6f} {units[name]}")
    failures = tally.failures + traced.failures
    report_failures(failures, traced_rejects)
    write_details(args, {
        "values": values, "count_drift": drift, "fingerprint": source_fingerprint(),
        "spans": recorder.dump(),
    }, trace=True)
    return {
        "correct": not failures and not drift,
        "attempted": tally.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }


def report_failures(failures, rejects):
    for problem in failures:
        print(f"  FAILED {problem}")
    if rejects.attempted:
        print(f"  reject ops: {len(rejects.failures)} of {rejects.attempted} failed "
              "(tallied apart from the workload's ops; see perfbench/NOTES.md)")
        for problem in dict.fromkeys(rejects.failures):
            print(f"    {problem}")


def write_details(args, payload, trace=False):
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if trace else "run"
    path = OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def check_drift(args, counts):
    """Compare counts with the previous traced run of the same workload,
    seed and source; report and return the number that differ.

    Returns None, and says so, when there is no such run to compare with:
    drift is then unverified, which is not the same as no drift.
    """
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    previous = None
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    if previous is None or previous.get("fingerprint") != source_fingerprint():
        print("  count drift unverified: no earlier traced run of this workload, seed and "
              "source; run the same command again to compare")
        return None
    drift = [k for k, v in counts.items() if previous["values"].get(k) != v]
    for k in drift:
        print(f"  DRIFT {k}: {previous['values'].get(k)} before, {counts[k]} now")
    if not drift:
        print(f"  counts match the previous traced run ({len(counts)} counts)")
    return len(drift)


def run_all(args):
    """Each workload in its own fresh process; one table at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if not args.trace:
        names = ["setup_s", "wall_s", "op_p50_s", "op_tail_s", "failed_share", "peak_rss_mb"]
        units = ["s", "s", "s", "s", "", "MB"]
        print(f"{'workload':<16}" + "".join(f"{n:>16}" for n in names))
        for w in results:
            with open(OUT_DIR / f"run-{w}-seed{args.seed}.json", encoding="utf-8") as fh:
                values = json.load(fh)["values"]
            print(f"{w:<16}" + "".join(
                f"{values[n]:>12.4f} {u:<3}" for n, u in zip(names, units)))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
