"""The benchmark's four workloads.

A workload turns the seed into inputs, builds what it needs in ``setup()``
and returns one pass of timed operations from ``ops()``. An operation calls
the program through its public API and looks each function up on its module
at call time, so the traced run's wrappers see every call. Every result is
checked: against the pinned reference at the default seed, and against
seed-independent invariants (analysis invariants, BER inside a statistical
band of a long reference run) at any seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from harness import DEFAULT_SEED, THREADS, WORK_DIR, canonical_sha256, memory_ceiling_bytes, program_seed


@dataclass
class Op:
    """One timed call into the program, with the check of its result."""

    label: str  # stable across seeds; reference entries are keyed by it
    work: float  # work units done: trials, difference matrices or calls
    run: Callable[[], object]
    check: Callable[[object], list]  # returns the problems found, empty if correct


MEMORY_PROBE_TRIALS = 32  # trials of the larger of the two runs that measure a configuration's memory

# code families used by the workloads, built through the public API
FAMILIES = {
    "alamouti": lambda d: d.alamouti(),
    "clifford4": lambda d: d.clifford_4x4(),
    "cod8": lambda d: d.square_cod(8),
    "ciod4": lambda d: d.gciod(d.alamouti(), d.alamouti()),
    "cuw8": lambda d: d.cuw_ssd(8),
    "cuw4x2": lambda d: d.block_diagonal_extend(d.cuw_ssd(4), 2),
}


def peak_bytes_during(fn) -> int:
    """Peak bytes allocated (tracemalloc, which sees numpy's buffers) while ``fn`` runs."""
    import tracemalloc

    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def rate_key(family: str, snr_db: float) -> str:
    return f"{family}/qpsk@{snr_db:g}dB"


def band_problems(rates: dict, family: str, snr_db: float, trials: int, cw: int, bits: int, max_bits: int) -> list:
    """Codeword and bit error counts must lie in a wide band around a long reference run.

    The band is six standard deviations of the count (bit errors come in
    bursts of up to ``max_bits`` per codeword error) plus the reference's
    own uncertainty, plus three counts.
    """
    ref = rates.get(rate_key(family, snr_db))
    if ref is None:
        return [f"no reference rate for {rate_key(family, snr_db)}"]
    problems = []
    scale = trials / ref["trials"]
    for name, got, ref_count, burst in (("codeword", cw, ref["cw"], 1), ("bit", bits, ref["bits"], max_bits)):
        expect = scale * ref_count
        var = (expect + scale) * burst + scale * scale * (ref_count + 1) * burst
        tol = 6.0 * math.sqrt(var) + 3.0
        if abs(got - expect) > tol:
            problems.append(
                f"{rate_key(family, snr_db)}: {got} {name} errors in {trials} trials, "
                f"reference band {expect:.1f} +- {tol:.1f}"
            )
    return problems


class Workload:
    """Base: holds the program, the seed and the reference; subclasses add the ops."""

    name = ""
    work_unit = ""
    aliases: dict = {}  # end-to-end metric -> the name the workload's users know it by

    def __init__(self, dstc, seed: int, reference: dict | None, tiny: bool = False):
        self.dstc = dstc
        self.seed = seed
        self.pseed = program_seed(seed)
        self.pinned = seed == DEFAULT_SEED and not tiny
        self.reference = reference or {}
        self.tiny = tiny
        self.refused: list[str] = []
        self.first: dict = {}  # label -> canonical result of its first run

    def setup(self) -> None:
        pass

    def plan(self) -> None:
        """Checks after set-up, outside the timed set-up; refusals go to ``self.refused``."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def observed(self, label: str, result) -> dict:
        """The reference entry this result would pin."""
        raise NotImplementedError

    def _mismatches(self, label: str, got: dict, want: dict, keys, rel: float = 0.0) -> list:
        """Entries of ``got`` that differ from ``want``; floats within ``rel`` relative count as equal."""
        if not want:
            return [f"{label}: no reference entry"]
        problems = []
        for key in keys:
            a, b = got.get(key), want.get(key)
            same = abs(a - b) <= rel * max(abs(b), 1e-300) if isinstance(b, float) and isinstance(a, float) else a == b
            if not same:
                problems.append(f"{label}: {key} = {a!r}, expected {b!r}")
        return problems

    def _repeat_problems(self, label: str, key) -> list:
        """Identical inputs must give identical results on every pass."""
        first = self.first.setdefault(label, key)
        return [] if first == key else [f"{label}: result differs from its first run in this process"]


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------


class SimWorkload(Workload):
    """``monte_carlo_ber`` over fixed (family, SNR, chunk) points, QPSK, ``THREADS`` threads.

    One operation is one SNR point of ``THREADS * chunk`` trials: one chunk
    per thread, so its wall time is the chunk time seen from outside.
    """

    work_unit = "trials"
    aliases = {"work_per_s": "trials_per_s", "op_ms_p50": "chunk_ms_p50", "op_ms_p90": "chunk_ms_p90"}
    sim_points: tuple = ()  # (family, SNR in dB, chunk)

    def setup(self) -> None:
        d = self.dstc
        self.qpsk = d.Constellation.qpsk()
        self.codes = {fam: FAMILIES[fam](d) for fam, _, _ in self.sim_points}
        self.points = [(fam, snr, min(chunk, 256) if self.tiny else chunk) for fam, snr, chunk in self.sim_points]
        for fam, snr, chunk in self.points:  # kernel set-up of every configuration
            d.relay_channel_sim.monte_carlo_ber(self._config(fam, snr, 1, chunk))
        self.allowed = list(self.points)

    def plan(self) -> None:
        """Refuse every configuration whose chunks would need more memory than the ceiling.

        The program's own allocations are measured, not modelled: the peak of
        a one-trial run and of a ``MEMORY_PROBE_TRIALS`` run, one thread,
        give the fixed bytes and the bytes per trial; ``THREADS`` chunks run
        at once.
        """
        ceiling = memory_ceiling_bytes()
        per_family: dict = {}
        self.allowed = []
        for fam, snr, chunk in self.points:
            if fam not in per_family:
                n = MEMORY_PROBE_TRIALS
                run = lambda trials: self.dstc.relay_channel_sim.monte_carlo_ber(
                    replace(self._config(fam, snr, trials, trials), threads=1)
                )  # fmt: skip
                one, many = peak_bytes_during(lambda: run(1)), peak_bytes_during(lambda: run(n))
                per_trial = max(0, many - one) / (n - 1)
                per_family[fam] = (one - per_trial, per_trial)
            fixed, per_trial = per_family[fam]
            need = fixed + THREADS * chunk * per_trial
            if need > ceiling:
                self.refused.append(
                    f"refused {fam}@{snr:g}dB: needs {need / 2**20:.0f} MiB ({fixed / 2**20:.0f} MiB + "
                    f"{THREADS} threads x chunk {chunk} x {per_trial:.0f} B measured per trial), "
                    f"ceiling {ceiling / 2**20:.0f} MiB"
                )
                continue
            self.allowed.append((fam, snr, chunk))

    def _config(self, fam: str, snr: float, trials: int, chunk: int):
        return self.dstc.SimConfig(
            code=self.codes[fam],
            constellation=self.qpsk,
            snr_db=(float(snr),),
            trials=(trials,),
            seed=self.pseed,
            chunk=chunk,
            threads=THREADS,
        )

    def ops(self) -> list[Op]:
        ops = []
        for fam, snr, chunk in self.allowed:
            n = THREADS * chunk
            cfg = self._config(fam, snr, n, chunk)
            label = f"{fam}@{snr:g}dB"
            run = lambda cfg=cfg: self.dstc.relay_channel_sim.monte_carlo_ber(cfg)
            check = lambda pts, label=label, fam=fam, snr=snr, n=n: self._check(label, fam, snr, n, pts)
            ops.append(Op(label, n, run, check))
        return ops

    def observed(self, label: str, points) -> dict:
        return {"cw": points[0].cw_errors, "bits": points[0].bit_errors}

    def _check(self, label, fam, snr, n, points) -> list:
        if len(points) != 1 or points[0].trials != n:
            return [f"{label}: expected one point of {n} trials"]
        p = points[0]
        code = self.codes[fam]
        max_bits = code.K * self.qpsk.bits_per_symbol
        if not (0 <= p.cw_errors <= n and p.cw_errors <= p.bit_errors <= max_bits * p.cw_errors):
            return [f"{label}: inconsistent counts cw={p.cw_errors} bits={p.bit_errors}"]
        if p.n_bits != n * max_bits or abs(p.ber - p.bit_errors / p.n_bits) > 1e-12 * p.ber:
            return [f"{label}: BER field does not match the counts"]
        obs = self.observed(label, points)
        problems = self._repeat_problems(label, (obs["cw"], obs["bits"]))
        if self.pinned and self.reference:
            problems += self._mismatches(label, obs, self.reference["sim"].get(label, {}), ("cw", "bits"))
        if self.reference:
            problems += band_problems(self.reference["rates"], fam, snr, n, obs["cw"], obs["bits"], max_bits)
        return problems


class SimScalar(SimWorkload):
    name = "sim-scalar"
    sim_points = (
        ("alamouti", 25.0, 131072),
        ("alamouti", 30.0, 131072),
        ("alamouti", 35.0, 131072),
        ("clifford4", 20.0, 131072),
    )


class SimDiagonal(SimWorkload):
    name = "sim-diagonal"
    sim_points = (
        ("cod8", 10.0, 1024),
        ("cod8", 15.0, 1024),
        ("cuw8", 10.0, 128),
        ("cuw8", 15.0, 128),
    )


# ---------------------------------------------------------------------------
# codebook analysis
# ---------------------------------------------------------------------------


class AnalyzeScan(Workload):
    """Exhaustive rank/determinant scans, plus a rotated codebook and a per-group scan.

    Away from the default seed the plain codebooks are scanned in a seeded
    random codeword order; the seed also drives the rotation searches.
    """

    name = "analyze-scan"
    work_unit = "difference matrices"
    aliases = {"work_per_s": "pairs_per_s", "op_ms_p50": "analyze_ms_p50", "op_ms_p90": "analyze_ms_p90"}
    plain = (("cod8", "qpsk"), ("ciod4", "qpsk"), ("clifford4", "qpsk"))

    def setup(self) -> None:
        import numpy as np

        d = self.dstc
        da = d.diversity_analyzer
        names = {fam for fam, _ in self.plain} | {"clifford4", "cuw4x2"}
        self.codes = {fam: FAMILIES[fam](d) for fam in names}
        self.cons = {"qpsk": da.constellation_by_name("qpsk")}
        rng = np.random.default_rng(self.pseed)
        self.perm = {}
        for fam, con in self.plain:
            size = self.cons[con].size ** self.codes[fam].K
            self.perm[fam] = None if self.seed == DEFAULT_SEED else rng.permutation(size)
        da.analyze_codebook(da.enumerate_codebook(d.alamouti(), d.Constellation.bpsk()))

    def ops(self) -> list[Op]:
        return [self._plain_op(fam, con) for fam, con in self.plain] + [self._rotated_op(), self._group_op()]

    def _plain_op(self, fam, con) -> Op:
        code, constellation, perm = self.codes[fam], self.cons[con], self.perm[fam]
        size = constellation.size**code.K
        da = self.dstc.diversity_analyzer

        def run():
            cb = da.enumerate_codebook(code, constellation)
            if perm is not None:
                cb = cb[perm]
            return da.analyze_codebook(cb), cb

        label = f"{fam}/{con}"
        return Op(label, size * (size - 1) / 2, run, lambda out: self._check_scan(label, out))

    def _rotated_op(self) -> Op:
        code = self.codes["clifford4"]
        da = self.dstc.diversity_analyzer

        def run():
            rotation = da.optimize_rotation(2, trials=200, seed=self.pseed)
            spec = da.PrecodingSpec.quadrature_pairs(code.K, rotation)
            cb = da.apply_precoding(code, spec).codewords
            return da.analyze_codebook(cb), cb

        label = "clifford4/rotate-g2"
        size = 4**code.K
        return Op(label, size * (size - 1) / 2, run, lambda out: self._check_scan(label, out, rotated=True))

    def _group_op(self) -> Op:
        code = self.codes["cuw4x2"]
        da = self.dstc.diversity_analyzer

        def run():
            rotation = da.optimize_rotation(4, trials=200, seed=self.pseed)
            spec = da.PrecodingSpec.cross_block_quadruples(code.K, rotation)
            return da.min_rank_group_differences(code, spec)

        label = "cuw4x2/group-rotate-g4"
        n_diffs = 3**4 - 1  # distinct nonzero differences of rotated {-1, 1}^4 tuples
        check = lambda rank: self._group_check(label, rank)
        return Op(label, n_diffs * (2 * code.K // 4), run, check)

    def observed(self, label: str, out) -> dict:
        if isinstance(out, tuple):
            res = out[0]
            return {
                "min_rank": res.min_rank,
                "full_rank": res.full_rank,
                "min_det": res.min_det,
                "worst_pair": list(res.worst_pair),
            }
        return {"min_rank": int(out)}

    def _group_check(self, label, rank) -> list:
        problems = self._repeat_problems(label, int(rank))
        if self.reference:
            problems += self._mismatches(label, {"min_rank": int(rank)}, self.reference["analysis"].get(label, {}), ("min_rank",))
        return problems

    def _check_scan(self, label, out, rotated=False) -> list:
        import numpy as np

        res, cb = out
        obs = self.observed(label, out)
        problems = self._repeat_problems(label, json.dumps(obs))
        full = min(cb.shape[1], cb.shape[2])
        i, j = res.worst_pair
        if res.n_codewords != len(cb) or not (0 <= i < j < len(cb)):
            return problems + [f"{label}: bad codeword count or worst pair {res.worst_pair}"]
        if res.full_rank != (res.min_rank == full) or (res.min_det > 0) != res.full_rank:
            problems.append(f"{label}: min_rank {res.min_rank}, full_rank {res.full_rank}, min_det {res.min_det} disagree")
        if res.full_rank:  # the reported pair must attain the reported minimum
            diff = cb[j] - cb[i]
            if cb.shape[1] == cb.shape[2]:
                det = abs(np.linalg.det(diff)) ** 2
            else:
                det = abs(np.linalg.det(diff.conj().T @ diff))
            if abs(det - res.min_det) > 1e-6 * res.min_det:
                problems.append(f"{label}: worst pair has determinant {det}, reported minimum {res.min_det}")
        if self.reference:  # away from the default seed: the rank profile, and min_det of a fixed codebook
            want = self.reference["analysis"].get(label, {})
            keys = tuple(want) if self.pinned else ("min_rank", "full_rank") + (() if rotated else ("min_det",))
            problems += self._mismatches(label, obs, want, keys, rel=1e-9)
        return problems


# ---------------------------------------------------------------------------
# short CLI calls
# ---------------------------------------------------------------------------

CLI_FAMILIES = (
    "alamouti", "cod2", "cod4", "cod8", "cuw2", "cuw4", "cuw8", "clifford4", "ciod2", "ciod4", "ciod8", "control",
)  # fmt: skip

# "{seed}" marks the calls whose inputs depend on the seed
CLI_CALLS = (
    *(("construct", "--family", f, "--out", f"{f}.json") for f in CLI_FAMILIES),
    ("construct", "--family", "cuw4", "--blocks", "2", "--out", "cuw4x2.json"),
    *(("verify", "--family", f) for f in CLI_FAMILIES),
    ("verify", "--bundle", "cuw4x2.json", "--out", "verify-cuw4x2.json"),
    ("analyze", "--family", "alamouti", "--constellation", "bpsk", "--out", "analyze-alamouti-bpsk.json"),
    ("analyze", "--family", "alamouti", "--constellation", "qpsk", "--out", "analyze-alamouti-qpsk.json"),
    ("analyze", "--family", "clifford4", "--rotate", "--group-size", "2", "--seed", "{seed}", "--out", "analyze-clifford4-rot.json"),
    ("simulate", "--family", "alamouti", "--relays", "2", "--snr-db", "10,20", "--trials", "4000", "--seed", "{seed}", "--out", "sim-alamouti.csv"),
    ("simulate", "--family", "clifford4", "--snr-db", "10", "--trials", "2000", "--chunk", "1000", "--threads", "2", "--seed", "{seed}", "--out", "sim-clifford4.csv"),
    ("simulate", "--family", "cod8", "--snr-db", "10", "--trials", "200", "--seed", "{seed}", "--out", "sim-cod8.csv"),
    ("simulate", "--family", "cuw8", "--snr-db", "10", "--trials", "16", "--chunk", "16", "--seed", "{seed}", "--out", "sim-cuw8.csv"),
    ("dmg", "--relays", "4", "--rho", "1,10,100", "--seed", "{seed}", "--out", "dmg.csv"),
)  # fmt: skip

_SIM_HEADER = "snr_db,trials,codeword_errors,bit_errors,ber,ci_low,ci_high"
_DMG_HEADER = "rho,ks_stat,reject,outage_phase_csi,outage_full_f"


class CliShort(Workload):
    """A fixed list of short in-process ``dstc.cli.main`` calls, run in a scratch directory."""

    name = "cli-short"
    work_unit = "calls"
    aliases = {"work_per_s": "calls_per_s", "op_ms_p50": "call_ms_p50", "op_ms_p90": "call_ms_p90"}

    sim_families = ("alamouti", "clifford4", "cod8", "cuw8")

    def setup(self) -> None:
        self.cli = self.dstc.cli
        self.cli.build_parser()
        self.codes = {fam: FAMILIES[fam](self.dstc) for fam in self.sim_families}
        self.last_sha: dict = {}
        self.home = os.getcwd()
        self.workdir = WORK_DIR / f"cli-{os.getpid()}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        os.chdir(self.workdir)

    def close(self) -> None:
        os.chdir(self.home)
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    def ops(self) -> list[Op]:
        calls = CLI_CALLS
        if self.tiny:  # one call of each kind, small sizes
            calls = [c for c in calls if c[2] in ("alamouti", "cuw4") or c[0] == "dmg"]
            calls = [c + ("--samples", "2000") if c[0] == "dmg" else c for c in calls]
        return [self._op(call) for call in calls]

    def _op(self, call) -> Op:
        label = " ".join(call)
        argv = [a.replace("{seed}", str(self.pseed)) for a in call]
        out_file = argv[argv.index("--out") + 1] if "--out" in argv else None

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        check = lambda res: self._check(label, argv, out_file, "{seed}" in call, res)
        return Op(label, 1, run, check)

    def observed(self, label: str, res) -> dict:
        return {"exit": res[0], "sha256": self.last_sha[label]}

    def _check(self, label, argv, out_file, seeded, res) -> list:
        rc, stdout, _ = res
        text = Path(out_file).read_text() if out_file and Path(out_file).exists() else ""
        sha = self.last_sha[label] = canonical_sha256(stdout, text)
        problems = self._repeat_problems(label, (rc, sha))
        want = self.reference.get("cli", {}).get(label) if self.reference else None
        if want is not None and (self.pinned or not seeded):
            if (rc, sha) != (want["exit"], want["sha256"]):
                problems.append(f"{label}: exit {rc} sha256 {sha[:12]}, pinned exit {want['exit']} sha256 {want['sha256'][:12]}")
        elif want is not None and rc != want["exit"]:
            problems.append(f"{label}: exit {rc}, expected {want['exit']}")
        if rc != 0:
            return problems
        command = argv[0]
        if command in ("analyze", "simulate", "dmg"):
            problems += self._manifest_problems(label, command, out_file, text)
        if command == "analyze":
            doc = json.loads(text)
            if doc["min_rank"] > 0 and doc["full_rank"] != (doc["min_det"] > 0):
                problems.append(f"{label}: full_rank and min_det disagree")
            if "--rotate" in argv and not (doc["full_rank"] and doc["min_rank"] == 4):
                problems.append(f"{label}: rotated clifford4 must reach full rank 4, got {doc['min_rank']}")
        elif command == "simulate":
            problems += self._sim_problems(label, argv, text)
        elif command == "dmg":
            problems += self._dmg_problems(label, argv, text)
        return problems

    def _manifest_problems(self, label, command, out_file, text) -> list:
        import hashlib

        path = Path(f"{out_file}.manifest.json")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return [f"{label}: unreadable manifest {path}: {exc}"]
        if manifest.get("command") != command:
            return [f"{label}: manifest names command {manifest.get('command')!r}"]
        csv_hash = manifest.get("content_hashes", {}).get("csv")
        if command != "analyze" and csv_hash != hashlib.sha256(text.encode()).hexdigest():
            return [f"{label}: manifest csv hash does not match the CSV"]
        return []

    def _sim_problems(self, label, argv, text) -> list:
        lines = text.splitlines()
        snrs = [float(x) for x in argv[argv.index("--snr-db") + 1].split(",")]
        trials = int(argv[argv.index("--trials") + 1])
        if not lines or lines[0] != _SIM_HEADER or len(lines) != 1 + len(snrs):
            return [f"{label}: CSV header or row count wrong"]
        family = argv[argv.index("--family") + 1]
        max_bits = 2 * self.codes[family].K  # QPSK
        problems = []
        for snr, row in zip(snrs, lines[1:]):
            f = row.split(",")
            n, cw, bits = int(f[1]), int(f[2]), int(f[3])
            ber, lo, hi = float(f[4]), float(f[5]), float(f[6])
            if float(f[0]) != snr or n != trials or not (0 <= cw <= n and cw <= bits) or not (lo <= ber <= hi):
                problems.append(f"{label}: inconsistent row {row}")
            elif self.reference:
                problems += band_problems(self.reference["rates"], family, snr, n, cw, bits, max_bits)
        return problems

    def _dmg_problems(self, label, argv, text) -> list:
        lines = text.splitlines()
        rhos = [float(x) for x in argv[argv.index("--rho") + 1].split(",")]
        n = int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 100000
        if not lines or lines[0] != _DMG_HEADER or len(lines) != 1 + len(rhos):
            return [f"{label}: CSV header or row count wrong"]
        problems = []
        ks_limit = 3.5 * math.sqrt(2.0 / n)  # two-sample KS at a false-alarm rate near 1e-10
        for rho, row in zip(rhos, lines[1:]):
            f = row.split(",")
            ks, a, b = float(f[1]), float(f[3]), float(f[4])
            p = max(0.5 * (a + b), 1.0 / n)
            if float(f[0]) != rho or not (0.0 <= ks <= ks_limit) or not (0 <= a <= 1 and 0 <= b <= 1):
                problems.append(f"{label}: row {row} outside its invariants")
            elif abs(a - b) > 6.0 * math.sqrt(2.0 * p * (1.0 - p) / n) + 1e-3:
                problems.append(f"{label}: outage of the two channels differs: {row}")
        return problems


WORKLOADS = {w.name: w for w in (SimScalar, SimDiagonal, AnalyzeScan, CliShort)}
