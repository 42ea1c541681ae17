"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

Checks that every workload, untraced and traced, prints every metric that
BENCHMARK.json names, with its unit; that the traced run's spans nest,
each child inside its parent; that the correctness gate trips on an
injected wrong reference, on the tiny runs and on a full-size run at the
default seed, whose counts are pinned; and that the benchmark refuses to
run, without printing a result, in a directory holding only
BENCHMARK.json and perfbench/. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BENCH_DIR, DEFAULT_SEED, ROOT, WORK_DIR, unset_blas_thread_vars  # noqa: E402

unset_blas_thread_vars()

import run  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_run(workload: str, trace: int, reference=None) -> tuple[dict, str]:
    report = run.benchmark(workload, 3, 0, trace, {}, reference=reference, tiny=True, probes=1)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        run.print_report(report)
        print(run.result_line(report))
    return report, text.getvalue()


def check_metrics(workload: str, trace: int, report: dict, text: str, spec_metrics: list) -> None:
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{workload} trace {trace}: result keys")
    expect(set(result["metrics"]) == {m["name"] for m in spec_metrics}, f"{workload} trace {trace}: metric names")
    for m in spec_metrics:
        printed = any(line.startswith(f"metric {m['name']} = ") and f" {m['unit']}" in line for line in lines)
        entry = result["metrics"].get(m["name"], {})
        ok = printed and entry.get("unit") == m["unit"] and isinstance(entry.get("value"), (int, float))
        expect(ok, f"{workload} trace {trace}: {m['name']} printed with unit {m['unit']}")
    if trace == 0:
        for name in ("setup_s", "work_per_s", "op_ms_p50"):
            expect(result["metrics"][name]["value"] > 0, f"{workload}: {name} is positive")
    expect(report["correct"] and not report["problems"], f"{workload} trace {trace}: correct {report['problems']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    layers_run = {
        "sim-scalar": ("relay_channel_sim",),
        "sim-diagonal": ("relay_channel_sim",),
        "analyze-scan": ("diversity_analyzer",),
        "cli-short": ("relay_channel_sim", "diversity_analyzer", "dmg_analysis", "constraint_checker", "code_library", "cli"),
    }
    for workload in layers_run:
        for trace in (0, 1):
            report, text = tiny_run(workload, trace)
            check_metrics(workload, trace, report, text, spec["per_layer" if trace else "end_to_end"])
            if trace:
                spans = report["spans"]["spans"]
                expect(bool(spans), f"{workload}: spans recorded")
                expect(not report["nesting_problems"], f"{workload}: spans nest {report['nesting_problems'][:3]}")
                expect(any(s[5] is not None for s in spans), f"{workload}: some spans have parents")
                for layer in layers_run[workload]:
                    expect(report["metrics"][f"{layer}.self_s"] > 0, f"{workload}: layer {layer} has self time")

    tampered = copy.deepcopy(reference)
    tampered["analysis"]["clifford4/qpsk"]["min_rank"] = 3
    tampered["cli"]["construct --family alamouti --out alamouti.json"]["sha256"] = "0" * 64
    tampered["rates"]["alamouti/qpsk@25dB"]["cw"] = tampered["rates"]["alamouti/qpsk@25dB"]["trials"]
    for workload in ("analyze-scan", "cli-short", "sim-scalar"):
        report, _ = tiny_run(workload, 0, reference=tampered)
        tripped = not report["correct"] and report["failed"] > 0 and run.exit_code(report) != 0
        expect(tripped, f"{workload}: gate trips on a wrong reference ({report['problems'][:1]})")

    # the pinned path: the default seed at full size, one pass, exact counts against the reference
    report = run.benchmark("sim-scalar", DEFAULT_SEED, 0, 0, {}, reference=reference, probes=1)
    expect(report["correct"], f"sim-scalar at the default seed matches reference.json {report['problems'][:1]}")
    tampered = copy.deepcopy(reference)
    tampered["sim"]["alamouti@35dB"]["bits"] += 1  # inside the statistical band: only the exact check can see it
    report = run.benchmark("sim-scalar", DEFAULT_SEED, 0, 0, {}, reference=tampered, probes=1)
    exact = [p for p in report["problems"] if p.startswith("alamouti@35dB: bits = ")]
    tripped = not report["correct"] and report["failed"] > 0 and exact and exact == report["problems"]
    expect(tripped and run.exit_code(report) != 0, f"sim-scalar: pinned gate trips on a wrong count ({report['problems'][:2]})")

    bare = WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    cmd = [sys.executable, *spec["command"][1:], "--workload", "cli-short", "--seed", "1", "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    expect(proc.returncode != 0 and "correct" not in proc.stdout, f"refuses without the program (exit {proc.returncode})")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
