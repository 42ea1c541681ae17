"""Run the benchmark over several seeds, summarise, compare, and write the baseline.

    python3 perfbench/sweep.py run --workloads sim-scalar,cli-short --seeds 1-10 --out perfbench/results/set-a
    python3 perfbench/sweep.py compare perfbench/results/set-a perfbench/results/set-b
    python3 perfbench/sweep.py baseline perfbench/results/set-a --commit <id> [--stage]
    python3 perfbench/sweep.py stage [--env openblas_1_thread]

``run`` calls run.py once per (workload, seed), in that order, with the
``run_seconds`` of BENCHMARK.json, and writes ``summary.json``: per
workload and metric the values, the median and the quartiles of
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median.
``compare`` prints both medians per metric against the metric's bound and
flags any run whose environment fingerprint differs from the others.
``baseline`` writes perfbench/baseline.json from a summary; ``--stage``
adds the single-thread kernel stage split of alamouti/QPSK at 35 dB, which
``stage`` measures in one environment, beside the ROADMAP's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BENCH_DIR, RESULTS_DIR, ROOT  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else float("inf"),
    }


def cmd_run(args) -> int:
    spec = _spec()
    seconds = spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}, "fingerprints": {}}
    status = 0
    for workload in args.workloads.split(","):
        per_metric: dict = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            report_file = RESULTS_DIR / f"{workload}-seed{seed}-trace0.json"
            shutil.copy(report_file, out / report_file.name)
            summary["fingerprints"][f"{workload}/{seed}"] = json.loads(report_file.read_text())["fingerprint"]["id"]
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        stats = {name: summarise(vals) for name, vals in per_metric.items()}
        summary["workloads"][workload] = stats
        for name, st in stats.items():
            flag = "" if st["spread"] < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"  {workload:13s} {name:12s} median {st['median']:.6g}  spread {st['spread']:.4f}  bound {bounds[name]}{flag}")
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    if len(set(summary["fingerprints"].values())) > 1:
        print(f"WARNING: runs have different fingerprints: {summary['fingerprints']}")
    return status


def cmd_compare(args) -> int:
    spec = _spec()
    a = json.loads((Path(args.a) / "summary.json").read_text())
    b = json.loads((Path(args.b) / "summary.json").read_text())
    fps = set(a["fingerprints"].values()) | set(b["fingerprints"].values())
    if len(fps) > 1:
        print(f"WARNING: fingerprints differ between or within the sets ({sorted(fps)}); "
              "the comparison mixes environments")
    worse = 0
    for m in spec["end_to_end"]:
        for workload in a["workloads"]:
            if workload not in b["workloads"] or m["name"] not in a["workloads"][workload]:
                continue
            ma = a["workloads"][workload][m["name"]]["median"]
            mb = b["workloads"][workload][m["name"]]["median"]
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "  WORSE beyond bound" if change > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:13s} {m['name']:12s} {ma:12.6g} -> {mb:12.6g}  worse by {change:+.4f} (bound {m['bound']}){flag}")
    return 1 if worse else 0


# the ROADMAP's stage baseline of the same shape, us/trial: simulate 0.77 of
# which the draw is 0.57, decode 0.49, count 0.06, 1.59 in all (the ROADMAP's
# total, larger than the sum of its stages)
ROADMAP_STAGE_SPLIT = {"draw": 0.57, "synth": 0.20, "decode": 0.49, "count": 0.06, "total": 1.59}
STAGE_ENVIRONMENTS = {"blas_threads_unset": {}, "openblas_1_thread": {"OPENBLAS_NUM_THREADS": "1"}}


def stage_split() -> dict:
    """Single-thread kernel stage split of alamouti/QPSK at 35 dB, chunk 131072, traced and untraced."""
    import time

    import run
    from harness import import_program
    from tracing import Tracer, layer_metrics

    dstc = import_program()
    cfg = dstc.SimConfig(
        code=dstc.alamouti(), constellation=dstc.Constellation.qpsk(), snr_db=(35.0,),
        trials=(8 * 131072,), seed=7, chunk=131072, threads=1,
    )  # fmt: skip
    dstc.monte_carlo_ber(cfg)
    t0 = time.perf_counter()
    dstc.monte_carlo_ber(cfg)
    untraced = (time.perf_counter() - t0) / cfg.trials[0] * 1e6
    tracer = Tracer()
    tracer.install()
    try:
        dstc.monte_carlo_ber(cfg)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer, run.sim_calibration(dstc, tracer.captured))
    keys = ("draw", "synth", "decode", "count")
    split = {k: m[f"relay_channel_sim.{k}_us_per_trial"] for k in keys}
    split["total"] = sum(split.values())
    split["untraced_total"] = untraced
    return split


def cmd_stage(args) -> int:
    from harness import unset_blas_thread_vars

    unset_blas_thread_vars()
    os.environ.update(STAGE_ENVIRONMENTS[args.env])
    print(json.dumps(stage_split()))
    return 0


def stage_baseline(repeats: int = 3) -> dict:
    """Median stage split over fresh processes, alternating BLAS thread variables unset and one OpenBLAS thread."""
    runs: dict = {env: [] for env in STAGE_ENVIRONMENTS}
    for _ in range(repeats):
        for env in STAGE_ENVIRONMENTS:
            cmd = [sys.executable, "perfbench/sweep.py", "stage", "--env", env]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            runs[env].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = {"shape": f"alamouti/qpsk 35 dB, chunk 131072, 1 thread, 8 chunks, median of {repeats} processes"}
    out["roadmap_us_per_trial"] = ROADMAP_STAGE_SPLIT
    for env, splits in runs.items():
        out[f"us_per_trial_{env}"] = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return out


def cmd_baseline(args) -> int:
    summary = json.loads((Path(args.summary) / "summary.json").read_text())
    baseline = {
        "commit": args.commit,
        "gated_workloads": [w["name"] for w in _spec()["workloads"]],
        "run_seconds": summary["seconds"],
        "seeds_per_workload": {w: len(next(iter(s.values()))["values"]) for w, s in summary["workloads"].items()},
        "fingerprints": sorted(set(summary["fingerprints"].values())),
        "claim": None,
        "end_to_end": {
            w: {name: {k: st[k] for k in ("median", "q1", "q3", "spread")} for name, st in stats.items()}
            for w, stats in summary["workloads"].items()
        },
    }
    path = BENCH_DIR / "baseline.json"
    if args.stage:
        baseline["stage_split"] = stage_baseline()
    elif path.exists():
        baseline["stage_split"] = json.loads(path.read_text()).get("stage_split")
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default="sim-scalar,sim-diagonal,analyze-scan,cli-short")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p = sub.add_parser("stage")
    p.add_argument("--env", choices=tuple(STAGE_ENVIRONMENTS), default="blas_threads_unset")
    p = sub.add_parser("baseline")
    p.add_argument("summary")
    p.add_argument("--commit", required=True)
    p.add_argument("--stage", action="store_true")
    args = parser.parse_args()
    commands = {"run": cmd_run, "compare": cmd_compare, "stage": cmd_stage, "baseline": cmd_baseline}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
