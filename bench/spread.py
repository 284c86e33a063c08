"""Write bench/baseline.json: every workload's metrics over ten seeds, plus one traced run.

    python3 bench/spread.py

Each workload runs untraced on seeds 1-10 for BENCHMARK.json's
``run_seconds``, then once traced on seed 0. Spread is (q3 - q1) / median
with the quartiles of ``statistics.quantiles(values, n=4)``. The file also
holds the environment and the tracer's prediction table.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "baseline.json"
SEEDS = range(1, 11)
TRACE_SEED = 0

# The ROADMAP's hand-timed baseline for the same per-op work, in ms.
ROADMAP_MS_PER_OP = {"fit-4x4": ("4x4 train iteration", 11.2),
                     "mc-bound-4x4": ("4x4 T=8x8 Monte Carlo trial with the bound", 7.7)}
ROADMAP_NOTE = ("ms_per_op is the median raw (unnormalized) rate of these runs. The ROADMAP "
                "figures are single hand timings on the same kind of VM, whose speed drifts "
                "by tens of percent within minutes (raw mc-bound-4x4 rates ranged about "
                "80-130 trials/s, paired-2x2 about 660-1130 pairs/s), so agreement within "
                "that range is all a raw comparison can show; compare normalized ops_per_s "
                "across commits instead.")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracer
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(SEEDS)
    summary = {"seconds": seconds, "runs": len(seeds), "workloads": {}}
    for name, w in workloads.WORKLOADS.items():
        results = [run_once(name, seed, seconds, 0) for seed in seeds]
        metrics = {m: summarize([r["metrics"][m]["value"] for r in results])
                   for m in results[0]["metrics"]}
        records = [json.loads((ROOT / ".bench_out" / f"run-{name}-seed{seed}-trace0.json")
                              .read_text()) for seed in seeds]
        raw = summarize([rec["raw_ops_per_s"] for rec in records])
        entry = {"why": w.why, "op": w.op,
                 "seeds": seeds,
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": metrics,
                 "raw_ops_per_s": raw}
        summary["environment"] = records[0]["environment"]
        ms = 1000.0 / raw["median"]
        entry["ms_per_op"] = ms
        if name in ROADMAP_MS_PER_OP:
            what, roadmap_ms = ROADMAP_MS_PER_OP[name]
            entry["roadmap"] = {"what": what, "ms_per_op": roadmap_ms,
                                "ratio_to_roadmap": ms / roadmap_ms}
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}"
              f"/{entry['attempted']} ms/op={ms:.3f}")
        for m, s in metrics.items():
            print(f"  {m:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {100 * s['spread']:.2f}%")
        print(f"  raw_ops_per_s  median {raw['median']:.5g}  spread {100 * raw['spread']:.2f}%")
        traced = run_once(name, TRACE_SEED, seconds, 1)
        entry["traced"] = {"seed": TRACE_SEED, "correct": traced["correct"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"  traced: correct={traced['correct']} overhead "
              f"{traced['metrics']['tracer.overhead_pct']['value']:.1f}%")
        summary["workloads"][name] = entry

    summary["roadmap_note"] = ROADMAP_NOTE
    summary["predictions"] = {
        key: {"kind": kind, "called_on": list(called), "moves": metric,
              "moves_on": list(moves_on)}
        for key, (kind, called, metric, moves_on) in tracer.FUNCTIONS.items()}
    summary["predictions"].update({
        key: {"kind": "ratio", "of": fn_key, "moves": metric, "moves_on": list(moves_on)}
        for key, (fn_key, _observe, metric, moves_on) in tracer.RATIOS.items()})
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
