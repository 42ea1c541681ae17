"""Command-line entry point tying construction, verification, analysis and simulation together.

Subcommands:

* ``construct`` -- build a named code family (optionally block-extended) and
  write it as a JSON bundle.
* ``verify``    -- run every admissibility checker on a family or bundle;
  exit 0 iff all checks pass.
* ``analyze``   -- exhaustive rank/determinant scan of a codebook, plain or
  jointly precoded with an optimized rotation.
* ``simulate``  -- Monte Carlo codeword/bit error rates over an SNR grid.
* ``dmg``       -- two-sample distribution test between the effective
  channels with and without phase compensation, plus empirical outage.

Every run writes a manifest (config echo, content hashes, version, wall
clock, tolerances) sufficient to reproduce its outputs bit-exactly.
Exit codes: 0 success, 1 verification failure, 2 usage, config or file error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

from . import __version__
from . import code_library as lib
from .constraint_checker import DIAG_TOL, verify_code
from .diversity_analyzer import (
    PAM_ALPHABET,
    PrecodingSpec,
    analyze_codebook,
    apply_precoding,
    check_pair_scan,
    constellation_by_name,
    enumerate_codebook,
    optimize_rotation,
)
from .dmg_analysis import OUTAGE_SEED_STRIDE, channel_stat_samples, ks_two_sample, outage_fraction, sample_set_size
from .errors import ParameterError
from .matrix_core import RANK_TOL
from .relay_channel_sim import SimConfig, monte_carlo_ber

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CUW_FAMILIES = {"cuw2", "cuw4", "cuw8", "clifford4"}

_FAMILIES = {
    "alamouti": lib.alamouti,
    "cod2": lambda: lib.square_cod(2),
    "cod4": lambda: lib.square_cod(4),
    "cod8": lambda: lib.square_cod(8),
    "cuw2": lambda: lib.cuw_ssd(2),
    "cuw4": lambda: lib.cuw_ssd(4),
    "cuw8": lambda: lib.cuw_ssd(8),
    "clifford4": lib.clifford_4x4,
    "ciod2": lambda: lib.gciod(lib.scalar_cod(), lib.scalar_cod()),
    "ciod4": lambda: lib.gciod(lib.alamouti(), lib.alamouti()),
    "ciod8": lambda: lib.gciod(lib.square_cod(4), lib.square_cod(4)),
    "control": lib.repetition_control,
}


def make_code(
    family: str | None, bundle: str | None, blocks: int = 1, warn: bool = False
) -> lib.LinearDispersionCode:
    if (family is None) == (bundle is None):
        raise ParameterError("give exactly one of --family or --bundle")
    if family is not None:
        try:
            code = _FAMILIES[family]()
        except KeyError:
            raise ParameterError(f"unknown code family {family!r}; known: {sorted(_FAMILIES)}")
    else:
        code = lib.load_bundle(bundle)
        if warn:
            # imported codes are re-checked; failures warn but do not block
            for line in verify_code(code).failures():
                print(f"warning: {line}", file=sys.stderr)
    return lib.block_diagonal_extend(code, blocks)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _bundle_sha256(code: lib.LinearDispersionCode) -> str:
    """The sha256 of the code's bundle file as ``save_bundle`` writes it."""
    return _sha256(lib.bundle_text(code).encode())


def _write_manifest(
    path: str, command: str, config: dict, started: float, hashes: dict, extra: dict | None = None
) -> None:
    config = {k: v for k, v in config.items() if k not in ("started", "manifest")}
    manifest = {
        "command": command,
        "config": config,
        "content_hashes": hashes,
        "tolerances": {"rank": config.get("tol_rank"), "diag": config.get("tol_diag")},
        "version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
        **(extra or {}),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _csv_float(x: float) -> str:
    return repr(float(x))


def _available_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one), the default ``--threads``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where ``os.sysconf`` cannot tell (Windows has no sysconf)."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _process_record() -> dict:
    """The process's peak resident set so far in MiB (None without ``resource``) and its versions."""
    import platform  # only simulate and dmg manifests need these two, so `import dstc.cli` stays lean

    try:
        import resource
    except ImportError:
        peak = None
    else:  # ru_maxrss is in KiB on Linux, in bytes on macOS
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak = round(rss / (2**20 if sys.platform == "darwin" else 2**10), 1)
    versions = {"numpy": np.__version__, "python": platform.python_version(), "platform": platform.platform()}
    return {"peak_rss_mb": peak, "versions": versions}


def _manifest_path(args, default_stem: str) -> str:
    if args.manifest:
        return args.manifest
    return f"{args.out}.manifest.json" if args.out else f"{default_stem}.manifest.json"


def _check_writable(out: str | None, manifest: str | None) -> None:
    """Refuse an output and manifest naming one file; raise the OSError writing either would, leaving no new file."""
    if out and manifest and os.path.realpath(out) == os.path.realpath(manifest):
        raise ParameterError(f"the output {out} and the manifest {manifest} name the same file")
    for path in filter(None, (out, manifest)):
        existed = os.path.exists(path)
        open(path, "a").close()  # appends nothing: an existing file keeps its bytes
        if not existed:
            os.remove(path)


def _emit(text: str, out: str | None, echo: bool) -> None:
    """Write ``text`` to ``out`` if given; print it too when ``echo`` is set or there is no ``out``."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    if echo or not out:
        print(text, end="")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    code = make_code(args.family, args.bundle, args.blocks)
    out = args.out or f"{code.name}.json"
    _check_writable(out, args.manifest)
    digest = _sha256(lib.save_bundle(code, out).encode())
    print(f"wrote {out} (T={code.T}, N={code.N}, K={code.K}, sha256={digest[:16]})")
    if args.manifest:
        _write_manifest(args.manifest, "construct", vars(args) | {"out": str(out)}, args.started, {"bundle": digest})
    return 0


def cmd_verify(args) -> int:
    _check_writable(args.out, args.manifest)
    code = make_code(args.family, args.bundle, args.blocks)
    expect_cuw = args.family in _CUW_FAMILIES and args.blocks == 1
    report = verify_code(code, tol_diag=args.tol_diag, expect_cuw=expect_cuw)
    doc = report.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out, echo=True)
    if args.manifest:  # the report's hash is that of the --out file
        hashes = {"bundle": _bundle_sha256(code), "report": _sha256(text.encode())}
        _write_manifest(args.manifest, "verify", vars(args), args.started, hashes)
    if not report.ok:
        for line in report.failures():
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args) -> int:
    if args.rot_trials < 0:
        raise ParameterError(f"--rot-trials must be nonnegative, got {args.rot_trials}")
    manifest = _manifest_path(args, "analyze")
    _check_writable(args.out, manifest)
    code = make_code(args.family, args.bundle, args.blocks, warn=True)
    rotation_hash = None
    if args.rotate:
        rotation = optimize_rotation(args.group_size, trials=args.rot_trials, seed=args.seed)
        if args.group_size == 2:
            spec = PrecodingSpec.quadrature_pairs(code.K, rotation)
        else:
            spec = PrecodingSpec.cross_block_quadruples(code.K, rotation)
        check_pair_scan((len(PAM_ALPHABET) ** spec.lam) ** len(spec.groups))  # n_g values per group
        codebook = apply_precoding(code, spec).codewords
        rotation_hash = _sha256(np.ascontiguousarray(rotation).tobytes())
        rotation_out = rotation.tolist()
    else:
        con = constellation_by_name(args.constellation)
        check_pair_scan(con.size**code.K)
        codebook = enumerate_codebook(code, con)
        rotation_out = None
    res = analyze_codebook(codebook, tol=args.tol_rank)
    doc = {
        "code": code.name,
        "n_codewords": res.n_codewords,
        "min_rank": res.min_rank,
        "min_det": res.min_det,
        "full_rank": res.full_rank,
        "worst_pair": list(res.worst_pair),
        "rotation": rotation_out,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out, echo=True)
    hashes = {"bundle": _bundle_sha256(code), "rotation": rotation_hash}
    _write_manifest(manifest, "analyze", vars(args), args.started, hashes)
    return 0


def cmd_simulate(args) -> int:
    for flag, value in (("--chunk", args.chunk), ("--threads", args.threads)):
        if value < 1:
            raise ParameterError(f"{flag} must be positive, got {value}")
    manifest = _manifest_path(args, "simulate")
    _check_writable(args.out, manifest)
    code = make_code(args.family, args.bundle, args.blocks, warn=True)
    if args.relays is not None and args.relays != code.N:
        raise ParameterError(f"family {code.name!r} uses {code.N} relays, not {args.relays}")
    con = constellation_by_name(args.constellation)
    cfg = SimConfig(
        code=code,
        constellation=con,
        snr_db=tuple(args.snr_db),
        trials=tuple(args.trials),
        seed=args.seed,
        pi=tuple(args.pi) if args.pi else None,
        partial_csi=not args.full_csi_f,
        chunk=args.chunk,
        threads=args.threads,
    )
    decoder = {"blas_thread_env": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}}
    points = monte_carlo_ber(cfg, telemetry=decoder)
    snr_points = decoder.pop("snr_points")
    lines = ["snr_db,trials,codeword_errors,bit_errors,ber,ci_low,ci_high"]
    for p in points:
        lines.append(
            f"{_csv_float(p.snr_db)},{p.trials},{p.cw_errors},{p.bit_errors},"
            f"{_csv_float(p.ber)},{_csv_float(p.ci_low)},{_csv_float(p.ci_high)}"
        )
    text = "\n".join(lines) + "\n"
    _emit(text, args.out, echo=False)
    hashes = {"bundle": _bundle_sha256(code), "csv": _sha256(text.encode())}
    extra = {"decoder": decoder, "snr_points": snr_points, **_process_record()}
    _write_manifest(manifest, "simulate", vars(args), args.started, hashes, extra)
    return 0


_DMG_OUTAGE_OFFSET = 104729  # seed offset of the outage run without phase compensation


def cmd_dmg(args) -> int:
    top = _DMG_OUTAGE_OFFSET + OUTAGE_SEED_STRIDE * max(len(args.rho) - 1, 0)  # largest seed offset used
    if not 0 <= args.seed < (1 << 64) - top:
        raise ParameterError(
            f"--seed must lie in [0, {(1 << 64) - 1 - top}] with {len(args.rho)} rho values, got {args.seed}"
        )
    for flag, value in (("--threads", args.threads), ("--relays", args.relays), ("--samples", args.samples)):
        if value < 1:
            raise ParameterError(f"{flag} must be positive, got {value}")
    if not args.rho:
        raise ParameterError("--rho needs at least one value")
    bad_rho = [rho for rho in args.rho if not (np.isfinite(rho) and rho >= 0)]
    if bad_rho:
        raise ParameterError(f"--rho values must be finite and nonnegative, got {bad_rho[0]}")
    if not np.isfinite(args.rate):
        raise ParameterError(f"--rate must be finite, got {args.rate}")
    manifest = _manifest_path(args, "dmg")
    _check_writable(args.out, manifest)

    # a sample set is keyed (seed, rho, partial_csi): per rho number k a KS pair, then the outage
    # draws with and without phase compensation, from seed + k * stride as empirical_outage draws
    # rho number k of its grid. The KS pair at k = 0 and the phase-CSI outage there are one set.
    ks_sets = [
        ((args.seed + 2 * k, rho, True), (args.seed + 2 * k + 1, rho, False)) for k, rho in enumerate(args.rho)
    ]
    outage_sets = [
        (args.seed + offset + OUTAGE_SEED_STRIDE * k, rho, partial_csi)
        for k, rho in enumerate(args.rho)
        for offset, partial_csi in ((0, True), (_DMG_OUTAGE_OFFSET, False))
    ]
    # one job per KS pair and per outage set no pair holds: each distinct set is drawn once, by the
    # job that computes every statistic reading it, and a job holds at most two sets, so memory
    # grows with the workers, not with the rho grid
    owner = {key: pair for pair in ks_sets for key in pair}
    jobs = {pair: [] for pair in ks_sets}  # the sets a job draws -> the outage positions it computes; KS jobs first
    for i, key in enumerate(outage_sets):
        jobs.setdefault(owner.get(key, (key,)), []).append(i)

    def run(sets, outages):
        samples = {key: channel_stat_samples(args.relays, key[1], args.samples, key[2], key[0]) for key in sets}
        ks = ks_two_sample(*(s.values for s in samples.values()), alpha=0.01) if len(sets) == 2 else None
        return ks, [(i, outage_fraction(samples[outage_sets[i]], args.rate)) for i in outages]

    workers = min(args.threads, len(jobs))
    # np.empty succeeds past memory under overcommit, and the draws then get the process killed: refuse such
    # sets here, counting two per worker
    (shape, need), memory, sets = sample_set_size(args.relays, args.samples), _physical_memory(), 2 * workers
    if memory is not None and sets * need > memory / 2:
        raise ParameterError(
            f"Unable to allocate {sets * need / 2**30:.3g} GiB for {sets} sample sets, each an array of shape "
            f"({args.samples},) and buffers of shape {shape}: over half of the {memory / 2**30:.3g} GiB of "
            "physical memory; lower --relays or --samples"
        )
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs, jobs.values()))
    else:
        results = list(map(run, jobs, jobs.values()))
    outage = dict(pair for _, fractions in results for pair in fractions)  # outage position -> fraction
    lines = ["rho,ks_stat,reject,outage_phase_csi,outage_full_f"]
    for k, rho in enumerate(args.rho):
        (stat, reject), outage_a, outage_b = results[k][0], outage[2 * k], outage[2 * k + 1]
        lines.append(
            f"{_csv_float(rho)},{_csv_float(stat)},{int(reject)},"
            f"{_csv_float(outage_a)},{_csv_float(outage_b)}"
        )
    text = "\n".join(lines) + "\n"
    _emit(text, args.out, echo=False)
    extra = {"workers": workers, **_process_record()}
    _write_manifest(manifest, "dmg", vars(args), args.started, {"csv": _sha256(text.encode())}, extra)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_code_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help=f"code family: {', '.join(sorted(_FAMILIES))}")
    p.add_argument("--bundle", help="path to a JSON code bundle")
    p.add_argument("--blocks", type=int, default=1, help="block-diagonal copies of the base design")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstc",
        description="Distributed space-time codes for amplify-and-forward relay networks "
        "with phase-only CSI: construction, verification, analysis, simulation.",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code family and write a JSON bundle")
    _add_code_args(p)
    p.add_argument("--out", help="output bundle path (default <name>.json)")

    p = sub.add_parser("verify", help="run all admissibility checks")
    _add_code_args(p)
    p.add_argument("--tol-diag", type=float, default=DIAG_TOL, help="tolerance of the diagonal-Gram check")
    p.add_argument("--out", help="write the JSON report here as well")

    p = sub.add_parser("analyze", help="rank/determinant scan of a codebook")
    _add_code_args(p)
    p.add_argument("--constellation", default="qpsk")
    p.add_argument("--rotate", action="store_true", help="use a jointly precoded rotated lattice")
    p.add_argument("--group-size", type=int, default=2, choices=(2, 4))
    p.add_argument("--rot-trials", type=int, default=200)
    p.add_argument("--tol-rank", type=float, default=RANK_TOL, help="relative singular-value tolerance of the rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON result here as well")

    p = sub.add_parser("simulate", help="Monte Carlo error rates over an SNR grid")
    _add_code_args(p)
    p.add_argument("--relays", type=int, help="expected relay count (validated against the code)")
    p.add_argument("--constellation", default="qpsk")
    p.add_argument("--snr-db", type=_float_list, default=[10.0, 15.0, 20.0])
    p.add_argument("--trials", type=_int_list, default=[10000], help="per-point or single count")
    p.add_argument("--pi", type=_float_list, help="pi1,pi2,pi3 power factors")
    p.add_argument("--full-csi-f", action="store_true", help="complex f (no phase compensation)")
    p.add_argument("--chunk", type=int, default=65536)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_available_cpus(), help="worker threads (default: the usable CPUs)")
    p.add_argument("--out", help="CSV output path (default stdout)")

    p = sub.add_parser("dmg", help="distribution test between the two effective channels")
    p.add_argument("--relays", type=int, default=2)
    p.add_argument("--rho", type=_float_list, default=[1.0, 10.0, 100.0])
    p.add_argument("--rate", type=float, default=0.5, help="multiplexing rate for outage")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_available_cpus(), help="worker threads (default: the usable CPUs)")
    p.add_argument("--out", help="CSV output path (default stdout)")

    for sp in sub.choices.values():
        sp.add_argument("--manifest", help="write a JSON run manifest here")
    return parser


_DISPATCH = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "dmg": cmd_dmg,
}


def _apply_config(parser: argparse.ArgumentParser, args, argv: list, defaults) -> None:
    """Set each option of the subcommand that the config names and the command line leaves out.

    A value takes its flag's parse, a list joined with commas, so a config
    value means what the same text means on the command line. Keys the
    subcommand lacks are skipped, and null leaves the option at its default.
    """
    if not isinstance(defaults, dict):
        raise ParameterError(f"config must be a JSON object of option values, got {type(defaults).__name__}")
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in subcommands.choices[args.command]._actions if hasattr(args, a.dest)}
    for key, value in defaults.items():
        action = actions.get(key.replace("-", "_"))
        flag = f"--{key.replace('_', '-')}"
        if action is None or value is None or any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        if action.nargs == 0:  # an on/off flag
            if not isinstance(value, bool):
                raise ParameterError(f"config {key!r} must be true or false, got {value!r}")
        else:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError):
                raise ParameterError(f"config {key!r}: {text!r} is not a valid {flag} value") from None
            if action.choices is not None and value not in action.choices:
                raise ParameterError(f"config {key!r}: {flag} must be one of {list(action.choices)}, got {value!r}")
        setattr(args, action.dest, value)


# kept per process: building the tree costs about 2 ms, more than many short calls' own work,
# and parsing leaves no state in it
@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.config:
        try:
            with open(args.config) as fh:
                defaults = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    args.started = time.time()
    try:
        if args.config:
            _apply_config(parser, args, argv, defaults)
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:  # bad input, a file not read or written, a size not allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # numpy names the array's bytes and shape
        return 2


if __name__ == "__main__":
    sys.exit(main())
