"""dstc benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload sim-scalar --seed 1 --seconds 22 --trace 0

Workloads: sim-scalar, sim-diagonal, analyze-scan, cli-short (see
perfbench/README.md). With ``--trace 0`` the workload's operations run
untraced in whole passes until ``--seconds`` have passed, and the
end-to-end metrics are reported. With ``--trace 1`` one pass runs, each
operation untraced and then traced, followed by the kernel replays, and the
per-layer metrics are reported, with the tracing overhead.

Every result is checked. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
report (fingerprint, drift calibration, sample counts, spans) goes to
perfbench/results/. Exit status: 0 when every operation was correct, 1
when a check failed, 2 when the program could not be set up (no result
line is printed then).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402  (numpy must not load before the environment is set)
    BENCH_DIR,
    RESULTS_DIR,
    ROOT,
    THREADS,
    SetupError,
    drift_calibration,
    fingerprint,
    import_program,
    peak_rss_mb,
    quantile,
    unset_blas_thread_vars,
)

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "relay_channel_sim.draw_us_per_trial": "us",
    "relay_channel_sim.synth_us_per_trial": "us",
    "relay_channel_sim.decode_us_per_trial": "us",
    "relay_channel_sim.decode_share": "frac",
    "relay_channel_sim.count_us_per_trial": "us",
    "relay_channel_sim.decode_peak_mb": "MB",
    "relay_channel_sim.decode_bytes_per_trial_computed": "B",
    "relay_channel_sim.kernel_init_s": "s",
    "relay_channel_sim.thread_busy_frac": "frac",
    "relay_channel_sim.speedup_2t": "x",
    "relay_channel_sim.chunks": "count",
    "relay_channel_sim.self_s": "s",
    "diversity_analyzer.enumerate_s": "s",
    "diversity_analyzer.scan_s": "s",
    "diversity_analyzer.scan_us_per_pair": "us",
    "diversity_analyzer.pairs_scanned_computed": "count",
    "diversity_analyzer.group_scan_s": "s",
    "diversity_analyzer.rotation_s": "s",
    "diversity_analyzer.self_s": "s",
    "dmg_analysis.sample_s": "s",
    "dmg_analysis.samples_per_s": "1/s",
    "dmg_analysis.ks_s": "s",
    "dmg_analysis.outage_s": "s",
    "dmg_analysis.self_s": "s",
    "constraint_checker.verify_s": "s",
    "constraint_checker.self_s": "s",
    "code_library.build_s": "s",
    "code_library.bundle_io_s": "s",
    "code_library.self_s": "s",
    "cli.self_ms_per_call": "ms",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.stage_cover_frac": "frac",
}

SETUP_PROBES = 15
WARMUP_S = 2.0
PROBE_TIMEOUT_S = 120


class Ledger:
    """Counts of operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op, around=None):
        """Run and check one operation; returns (seconds, result), seconds None on failure."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            if around is None:
                out = op.run()
            else:
                with around(op):
                    out = op.run()
            dt = time.perf_counter() - t0
            problems = op.check(out)
        except Exception as exc:  # one failing operation must not end the run
            traceback.print_exc(file=sys.stderr)
            dt, out, problems = None, None, [f"{op.label}: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            dt = None
        return dt, out


def probe_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes: start until the workload is ready to run."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate()
        finally:
            watchdog.cancel()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SetupError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def warm_up(ops, ledger: Ledger) -> None:
    """Run operations untimed until ``WARMUP_S`` have passed, so that idle CPUs are awake."""
    start, i = time.perf_counter(), 0
    while i == 0 or time.perf_counter() - start < WARMUP_S:
        ledger.execute(ops[i % len(ops)])
        i += 1


def run_timed(ops, seconds: float, ledger: Ledger):
    """Whole passes until ``seconds`` have passed; returns (op, seconds, pass index) samples."""
    samples, passes = [], 0
    start = time.perf_counter()
    while True:
        for op in ops:
            dt, _ = ledger.execute(op)
            if dt is not None:
                samples.append((op, dt, passes))
        passes += 1
        if time.perf_counter() - start >= seconds:
            return samples, passes


def end_to_end_metrics(samples, passes, setup_times) -> tuple[dict, dict]:
    """Metric values and their sample counts.

    ``work_per_s`` is the median over passes of each pass's work per second.
    """
    times = [dt for _, dt, _ in samples]
    values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb()}
    counts = {"setup_s": len(setup_times), "peak_rss_mb": 1, "work_per_s": passes}
    rates = []
    for p in range(passes):
        in_pass = [(op, dt) for op, dt, q in samples if q == p]
        if in_pass:
            rates.append(sum(op.work for op, _ in in_pass) / sum(dt for _, dt in in_pass))
    values["work_per_s"] = statistics.median(rates) if rates else 0.0
    values["op_ms_p50"] = quantile(times, 0.5) * 1e3 if times else 0.0
    values["op_ms_p90"] = quantile(times, 0.9) * 1e3 if times else 0.0
    counts["op_ms_p50"] = counts["op_ms_p90"] = len(times)
    return values, counts


def _draw_seconds_per_trial(cfg) -> float:
    """Standalone Philox draw of the kernel's block shape (codeword index + one normal block)."""
    import numpy as np

    code = cfg.code
    n = max(1, min(cfg.chunk, max(cfg.trials)))
    width = 1 + 2 * code.N + code.K + code.N * code.K + code.T
    size = cfg.constellation.size**code.K
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        rng.integers(0, size, n)
        rng.standard_normal((n, 2 * width))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / n


def sim_calibration(dstc, captured) -> dict:
    """What the spans of the simulations cannot give, from untraced replays of the same inputs."""
    import tracemalloc

    from tracing import Tracer

    rcs = dstc.relay_channel_sim
    calib = {"draw_s_per_trial": {}, "threads": {}, "t1_s": 0.0, "t2_s": 0.0}
    calib.update(decode_peak_bytes=0, decode_bytes_per_trial=0)
    distinct, memory_done = {}, set()
    for sid, cfg in captured:
        key = (cfg.code.name, cfg.constellation.name, cfg.snr_db, cfg.trials, cfg.chunk, cfg.seed, cfg.partial_csi)
        if key not in distinct:
            distinct[key] = (cfg, _draw_seconds_per_trial(cfg))
        calib["draw_s_per_trial"][sid] = distinct[key][1]
        calib["threads"][sid] = cfg.threads
    for cfg, _ in distinct.values():
        for threads, slot in ((1, "t1_s"), (THREADS, "t2_s")):
            t0 = time.perf_counter()
            rcs.monte_carlo_ber(replace(cfg, threads=threads))
            calib[slot] += time.perf_counter() - t0
        mem_key = (cfg.code.name, cfg.constellation.name, cfg.chunk)
        if mem_key in memory_done:
            continue
        memory_done.add(mem_key)
        one_chunk = replace(cfg, snr_db=cfg.snr_db[:1], trials=(min(cfg.chunk, cfg.trials[0]),), threads=1)
        probe = Tracer(memory_spans={"_Kernel.decode_batch"})
        probe.install()
        tracemalloc.start()
        try:
            rcs.monte_carlo_ber(one_chunk)
        finally:
            tracemalloc.stop()
            probe.uninstall()
        peak = max((b for _, b in probe.memory), default=0)
        calib["decode_peak_bytes"] = max(calib["decode_peak_bytes"], peak)
        calib["decode_bytes_per_trial"] = max(calib["decode_bytes_per_trial"], peak / one_chunk.trials[0])
    return calib


def run_traced(dstc, ops, ledger: Ledger):
    """One pass, each operation untraced and then traced; then the kernel replays.

    Running the untraced and traced copies back to back keeps the machine's
    drift out of the tracing overhead.
    """
    from tracing import END, NAME, OP, START, Tracer, layer_metrics, union_length

    tracer = Tracer()
    untraced, traced = {}, {}
    for i, op in enumerate(ops):
        untraced[i] = ledger.execute(op)[0]
        tracer.op_id = i
        tracer.install()
        try:
            traced[i] = ledger.execute(op, around=lambda op: tracer.span(f"op {op.label}", "bench"))[0]
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, sim_calibration(dstc, tracer.captured))
    both = [i for i in untraced if untraced[i] and traced.get(i)]
    base = sum(untraced[i] for i in both)
    metrics["trace.overhead_frac"] = sum(traced[i] for i in both) / base - 1.0 if base else 0.0
    # each operation's kernel chunk spans against the same operation's untraced time
    covered = base_sim = 0.0
    for i in both:
        chunks = [(r[START], r[END]) for r in tracer.spans if r[OP] == i and r[NAME] == "_Kernel.run_chunk"]
        if chunks:
            covered += union_length(chunks)
            base_sim += untraced[i]
    metrics["trace.stage_cover_frac"] = covered / base_sim if base_sim else 0.0
    return metrics, tracer


def benchmark(workload_name, seed, seconds, trace, unset_env, reference=None, tiny=False, probes=SETUP_PROBES):
    """One benchmark run. Returns the report; raises SetupError if the program cannot be set up."""
    t_start = time.perf_counter()
    try:
        dstc = import_program()
    except ImportError as exc:
        raise SetupError(f"cannot import the program: {exc}") from exc
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; known: {', '.join(WORKLOADS)}")
    if reference is None:
        reference = json.loads((BENCH_DIR / "reference.json").read_text())
    report = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace}
    workload = WORKLOADS[workload_name](dstc, seed, reference, tiny=tiny)
    ledger = Ledger()
    try:
        try:
            workload.setup()
        except Exception as exc:
            raise SetupError(f"workload set-up failed: {type(exc).__name__}: {exc}") from exc
        report["setup_inprocess_s"] = time.perf_counter() - t_start
        workload.plan()
        ledger.attempted += len(workload.refused)
        ledger.failed += len(workload.refused)
        ledger.problems.extend(workload.refused)
        ops = workload.ops()
        warm_up(ops, ledger)
        report["fingerprint"] = fingerprint(unset_env)
        report["calibration"] = drift_calibration()
        if trace:
            metrics, tracer = run_traced(dstc, ops, ledger)
            report["units"] = {name: PER_LAYER[name] for name in metrics}
            report["spans"] = tracer.to_json()
            report["nesting_problems"] = tracer.nesting_problems()
        else:
            # half of the set-up probes before the timed passes and half after,
            # so that they sample the machine across the whole run
            setup_times = probe_setup(workload_name, seed, probes // 2)
            samples, passes = run_timed(ops, seconds, ledger)
            setup_times += probe_setup(workload_name, seed, probes - probes // 2)
            metrics, counts = end_to_end_metrics(samples, passes, setup_times)
            report["units"] = dict(END_TO_END)
            report["counts"] = counts
            report["passes"] = passes
            report["setup_probe_s"] = setup_times
            by_label = {}
            for op, dt, _ in samples:
                by_label.setdefault(op.label, []).append(dt)
            report["op_seconds"] = by_label
    finally:
        workload.close()
    report["work_unit"] = workload.work_unit
    report["aliases"] = workload.aliases
    report["metrics"] = metrics
    report["attempted"], report["failed"] = ledger.attempted, ledger.failed
    report["problems"] = ledger.problems
    report["correct"] = ledger.failed == 0 and ledger.attempted > 0
    return report


def print_report(report: dict) -> None:
    fp, cal = report["fingerprint"], report["calibration"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  fingerprint {fp['id']}")
    print(
        f"env: blas {fp['blas']} ({fp['blas_threads']} threads), nproc {fp['nproc']}, cpu {fp['cpu']}, "
        f"python {fp['python']}, numpy {fp['numpy']}, unset {sorted(fp['unset_env']) or 'none'}"
    )
    print(
        f"drift calibration (not a metric): gemm256 {cal['gemm256_ms']:.3f} ms ({cal['gemm256_gflops']:.2f} GFLOP/s), "
        f"philox {cal['philox_ns_per_normal']:.2f} ns/normal"
    )
    counts = report.get("counts", {})
    for name, value in report["metrics"].items():
        unit = report["units"][name]
        alias = report["aliases"].get(name)
        extra = f"  [{alias}, {report['work_unit']}]" if alias else ""
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"metric {name} = {value:.6g} {unit}{n}{extra}")
    if report["workload"] == "analyze-scan" and not report["trace"]:
        per_pass = sum(sum(v) for v in report["op_seconds"].values()) / max(report["passes"], 1)
        print(f"metric analyze_s = {per_pass:.6g} s  (n={report['passes']}, mean time of one pass of the codebook list)")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"metric failed_frac = {frac:.6g} frac  (n={report['attempted']})")
    if report.get("spans", {}).get("absent"):
        print(f"absent hooks: {', '.join(report['spans']['absent'])}")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")


def result_line(report: dict) -> str:
    metrics = {name: {"value": value, "unit": report["units"][name]} for name, value in report["metrics"].items()}
    return json.dumps(
        {"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}
    )


def exit_code(report: dict) -> int:
    return 0 if report["correct"] else 1


def main(argv=None) -> int:
    unset_env = unset_blas_thread_vars()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = benchmark(args.workload, args.seed, args.seconds, args.trace, unset_env)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print_report(report)
    print(f"report written to {out.relative_to(ROOT)}")
    print(result_line(report))
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
