"""simdoa benchmark: three workloads through the package's public API.

    python3 bench/run.py --workload fit-4x4 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. Workloads and their gates are in ``workloads.py``. With
``--trace 0`` a run reports the end-to-end metrics:

- ``ops_per_s``: median rate over the timed chunks of whole units run for
  ``--seconds``, each chunk's rate normalized by the speed probe in
  ``probe.py``.
- ``setup_s``: median of seven set-ups, each the import of simdoa plus
  input building in a fresh interpreter, normalized like the chunks by the
  workload's probe kernel running inside that interpreter.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it runs untraced units for half of ``--seconds``,
checks the tracer on a tiny instance of every workload, runs set-up plus
one unit traced, then the same unit untraced as the overhead's base, and
reports the per-function and per-layer metrics of ``tracer.py``, plus the
untraced units' median raw rate (``bench.raw_ops_per_s``) and the speed
probe's median kernel time (``bench.probe_median_s``), so a change in
``ops_per_s`` can be split into the program's part and the probe's. Spans go
to ``.bench_out/spans-<workload>-seed<n>.csv.gz`` and a record of every
run, with the environment and raw rates, to
``.bench_out/run-<workload>-seed<n>-trace<t>.json``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
An op fails when it raises or its unit fails a gate. On seed 0 the
outputs of the first unit must also match ``bench/reference.json``, data
recorded from the commit that defined the benchmark; the run record's
``units[0].outputs`` has the same shape.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7

# numpy is loaded before the clock starts because the probe needs it; the
# package cannot change its import cost anyway
_SETUP_CHILD = """\
import statistics, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import probe
with probe.SpeedProbe(sys.argv[6], interval=0.01) as speed:
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]), sys.argv[5])
    wall = time.perf_counter() - t0
print(wall - speed.spent, statistics.median(speed.samples))
"""


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "machine": platform.machine(),
    }


def time_setup(workload, seed, workdir):
    """Import plus ``build`` in fresh interpreters, each normalized by its own probe."""
    times = []
    for i in range(SETUP_REPEATS):
        child_dir = workdir / f"setup-{i}"
        child_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), workload.name,
             str(seed), str(child_dir), workload.probe_kernel],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        net_s, probe_s = map(float, proc.stdout.split()[-2:])
        times.append(net_s * probe.REFERENCE_S / probe_s)
    return times


def measure(workload, inputs, seconds, workdir, timer):
    """Whole units until ``seconds`` have passed (at least one)."""
    units = []
    end = time.perf_counter() + seconds
    while not units or time.perf_counter() < end:
        units.append(workload.run_unit(inputs, len(units), workdir, timer))
    return units


def total_seconds(timer):
    return sum(secs for _, secs, _ in timer.chunks)


def self_check(tracer, workloads, workdir):
    """Tiny instance of every workload: predicted calls present, idle ones zero."""
    problems = []
    for w in workloads.WORKLOADS.values():
        tiny = w.tiny()
        tiny_dir = workdir / f"tiny-{w.name}"
        tiny_dir.mkdir()
        tracer.reset()
        tiny.run_unit(tiny.build(DEFAULT_SEED, str(tiny_dir)), 0, str(tiny_dir),
                      probe.ChunkTimer())
        problems += [f"{w.name}: {p}" for p in tracer.check_prediction(w.name)]
    tracer.reset()
    return problems


def check_reference(workload, seed, unit):
    """Compare the first unit's outputs with the pinned ones (default seed only)."""
    if seed != DEFAULT_SEED:
        return None
    refs = json.loads(REFERENCE.read_text())
    if workload.name not in refs:
        return False
    return workload.matches_reference(unit.outputs, refs[workload.name])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simdoa" / "__init__.py").is_file():
        print(f"error: no simdoa sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import simdoa
    if Path(simdoa.__file__).resolve().parent != SRC / "simdoa":
        print(f"error: imported simdoa from {simdoa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    record = {"workload": workload.name, "op": workload.op, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}
    try:
        result = _run(args, workload, workloads, tracing, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["result"] = result
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _run(args, workload, workloads, tracing, workdir, record):
    problems = []
    if args.trace == 0:
        record["setup_s"] = time_setup(workload, args.seed, workdir)
    inputs = workload.build(args.seed, str(workdir))
    gate_ok, gate_msg = workload.setup_gate(args.seed)
    record["setup_gate"] = gate_msg
    if not gate_ok:
        problems.append(f"setup gate: {gate_msg}")

    seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
    speed = probe.SpeedProbe(workload.probe_kernel)
    timer = probe.ChunkTimer(speed)
    with speed:
        units = measure(workload, inputs, seconds, str(workdir), timer)
    raw = probe.raw_rates(timer.chunks)
    record.update(chunks=timer.chunks, raw_ops_per_s=statistics.median(raw),
                  probe_samples=len(speed.samples),
                  probe_median_s=statistics.median(speed.samples) if speed.samples else None)

    if args.trace == 1:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            problems += self_check(tracer, workloads, workdir)
            traced_dir = workdir / "traced"
            traced_dir.mkdir()
            traced_timer = probe.ChunkTimer()
            tracer.reset()
            t0 = time.perf_counter()
            traced = workload.run_unit(workload.build(args.seed, str(traced_dir)), 0,
                                       str(traced_dir), traced_timer)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        problems += [f"prediction: {p}" for p in tracer.check_prediction(workload.name)]
        # the same unit again untraced, right after, is the overhead's base
        again_dir = workdir / "again"
        again_dir.mkdir()
        again_timer = probe.ChunkTimer()
        again = workload.run_unit(workload.build(args.seed, str(again_dir)), 0,
                                  str(again_dir), again_timer)
        overhead = (total_seconds(traced_timer) / total_seconds(again_timer) - 1.0) * 100.0
        tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz")
        units += [traced, again]
        metrics = tracer.metrics(wall, overhead)
        metrics["bench.raw_ops_per_s"] = {"value": record["raw_ops_per_s"], "unit": "1/s"}
        metrics["bench.probe_median_s"] = {"value": record["probe_median_s"], "unit": "s"}
    else:
        metrics = {
            "ops_per_s": {"value": statistics.median(probe.normalized_rates(timer.chunks)),
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    ref_ok = check_reference(workload, args.seed, units[0])
    if ref_ok is False:
        problems.append("outputs of the first unit differ from reference.json")
        failed += units[0].attempted - units[0].failed
    if problems and failed == 0:
        failed = attempted
    record.update(
        units=[{"attempted": u.attempted, "failed": u.failed, "outputs": u.outputs,
                "notes": u.notes} for u in units],
        reference_match=ref_ok, problems=problems)
    for p in problems + [n for u in units for n in u.notes]:
        print(f"bench: {p}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
