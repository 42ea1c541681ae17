"""Regenerate perfbench/reference.json from the program as it is now.

    python3 perfbench/pin.py

Pins, at the default seed, every simulation point's error counts, every
analysis result and every CLI call's exit code and canonical output
sha256; and measures the long-run error rates that the statistical band
checks at other seeds compare against (seed 987654321, used by no
workload). Run it only when a change is meant to alter the program's
outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BENCH_DIR, DEFAULT_SEED, THREADS, import_program, unset_blas_thread_vars  # noqa: E402

RATE_SEED = 987654321
# (family, snr_db) -> trials of the long reference run
RATE_POINTS = {
    ("alamouti", 10.0): 1_000_000,
    ("alamouti", 20.0): 2_000_000,
    ("alamouti", 25.0): 4_000_000,
    ("alamouti", 30.0): 4_000_000,
    ("alamouti", 35.0): 4_000_000,
    ("clifford4", 10.0): 1_000_000,
    ("clifford4", 20.0): 2_000_000,
    ("cod8", 10.0): 64_000,
    ("cod8", 15.0): 64_000,
    ("cuw8", 10.0): 8_000,
    ("cuw8", 15.0): 8_000,
}
CHUNKS = {"cuw8": 128, "cod8": 1024}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    unset_blas_thread_vars()
    dstc = import_program()
    from workloads import FAMILIES, WORKLOADS, rate_key

    reference = {"default_seed": DEFAULT_SEED, "rate_seed": RATE_SEED, "sim": {}, "analysis": {}, "cli": {}, "rates": {}}
    qpsk = dstc.Constellation.qpsk()
    for (family, snr), trials in RATE_POINTS.items():
        cfg = dstc.SimConfig(
            code=FAMILIES[family](dstc),
            constellation=qpsk,
            snr_db=(snr,),
            trials=(trials,),
            seed=RATE_SEED,
            chunk=CHUNKS.get(family, 65536),
            threads=THREADS,
        )
        point = dstc.monte_carlo_ber(cfg)[0]
        reference["rates"][rate_key(family, snr)] = {"trials": trials, "cw": point.cw_errors, "bits": point.bit_errors}
        print(f"rate {rate_key(family, snr)}: {point.cw_errors} / {point.bit_errors} in {trials}", flush=True)
    sections = {"sim-scalar": "sim", "sim-diagonal": "sim", "analyze-scan": "analysis", "cli-short": "cli"}
    for name, cls in WORKLOADS.items():
        workload = cls(dstc, DEFAULT_SEED, reference=None)
        workload.setup()
        try:
            workload.plan()
            if workload.refused:
                print(f"{name}: {workload.refused}", file=sys.stderr)
                return 1
            for op in workload.ops():
                out = op.run()
                problems = op.check(out)
                if problems:
                    print(f"{name} {op.label}: {problems}", file=sys.stderr)
                    return 1
                reference[sections[name]][op.label] = workload.observed(op.label, out)
                print(f"{name} {op.label}: {reference[sections[name]][op.label]}", flush=True)
        finally:
            workload.close()
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
