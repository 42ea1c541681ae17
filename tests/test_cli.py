import hashlib
import json
import platform
import time
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from dstc import cli, diversity_analyzer, dmg_analysis, relay_channel_sim
from dstc.cli import main
from dstc.code_library import alamouti, block_diagonal_extend, cuw_ssd, load_bundle, to_bundle
from dstc.diversity_analyzer import Constellation, optimize_rotation
from dstc.dmg_analysis import channel_stat_samples, empirical_outage, ks_two_sample
from dstc.errors import ParameterError


def run(args):
    return main([str(a) for a in args])


def record_work(monkeypatch) -> list:
    """Stub out the calls that do each subcommand's work; the list collects the names of those called."""
    ran = []
    for module, name in [(cli, "monte_carlo_ber"), (dmg_analysis, "channel_stat_samples"), (cli, "analyze_codebook"),
                         (cli, "verify_code"), (cli.lib, "save_bundle")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: ran.append(name))
    return ran


class TestConstructAndBundles:
    def test_construct_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "clifford4.json"
        assert run(["construct", "--family", "clifford4", "--out", out]) == 0
        code = load_bundle(out)
        assert (code.T, code.N, code.K) == (4, 4, 4)

    def test_round_trip_verifies(self, tmp_path):
        out = tmp_path / "cuw8.json"
        assert run(["construct", "--family", "cuw8", "--out", out]) == 0
        assert run(["verify", "--bundle", out]) == 0

    def test_unknown_family_is_usage_error(self, tmp_path):
        assert run(["construct", "--family", "nope", "--out", tmp_path / "x.json"]) == 2

    def test_block_extension(self, tmp_path):
        out = tmp_path / "big.json"
        assert run(["construct", "--family", "cuw4", "--blocks", 2, "--out", out]) == 0
        assert load_bundle(out).N == 8

    def test_every_manifest_hashes_the_bundle_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bundle = tmp_path / "alamouti.json"
        assert run(["construct", "--family", "alamouti", "--out", bundle, "--manifest", "construct.json"]) == 0
        digest = hashlib.sha256(bundle.read_bytes()).hexdigest()
        assert f"sha256={digest[:16]}" in capsys.readouterr().out
        assert run(["verify", "--family", "alamouti", "--manifest", "verify.json"]) == 0
        report = capsys.readouterr().out
        assert run(["analyze", "--family", "alamouti", "--constellation", "bpsk", "--manifest", "analyze.json"]) == 0
        sim = ["simulate", "--family", "alamouti", "--snr-db", "10", "--trials", "100", "--manifest", "simulate.json"]
        assert run(sim) == 0
        hashes = {c: json.loads((tmp_path / f"{c}.json").read_text())["content_hashes"]
                  for c in ("construct", "verify", "analyze", "simulate")}  # fmt: skip
        assert {h["bundle"] for h in hashes.values()} == {digest}
        assert hashes["verify"]["report"] == hashlib.sha256(report.encode()).hexdigest()


class TestVerify:
    @pytest.mark.parametrize("family", ["alamouti", "cod4", "cod8", "cuw4", "clifford4", "ciod4"])
    def test_families_pass(self, family):
        assert run(["verify", "--family", family]) == 0

    def test_bad_bundle_exits_one_and_names_the_condition(self, tmp_path, capsys):
        bundle = to_bundle(alamouti())
        # corrupt one weight so an entry sums two in-phase symbols
        bundle["weights_I"][1][0][0] = [1.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundle))
        assert run(["verify", "--bundle", path]) == 1
        captured = capsys.readouterr()
        assert "single-term entries" in captured.out + captured.err
        report = json.loads(captured.out)
        assert report["violation"][1:] == [0, 0]

    def test_nan_bundle_rejected_as_config_error(self, tmp_path, capsys):
        bundle = to_bundle(alamouti())
        bundle["weights_I"][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(bundle))
        assert run(["verify", "--bundle", path]) == 2

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["verify", "--family", "cuw4", "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True and report["cuw_relations"] == [True] * 5


class TestAnalyze:
    def test_plain_constellation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["analyze", "--family", "alamouti", "--constellation", "bpsk"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_rank"] == 2 and doc["n_codewords"] == 4
        assert doc["min_det"] == pytest.approx(16.0)
        assert (tmp_path / "analyze.manifest.json").exists()  # manifests on every run

    def test_rotated_lattice(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(
            ["analyze", "--family", "clifford4", "--rotate", "--group-size", 2,
             "--rot-trials", 50, "--seed", 0]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_rank"] == 4 and doc["full_rank"]
        assert np.allclose(
            np.asarray(doc["rotation"]) @ np.asarray(doc["rotation"]).T, np.eye(2), atol=1e-10
        )
        manifest = json.loads((tmp_path / "analyze.manifest.json").read_text())
        assert manifest["content_hashes"]["rotation"]

    def test_zero_rotation_trials_search_the_algebraic_candidates(self, tmp_path, capsys):
        args = ["analyze", "--family", "clifford4", "--rotate", "--rot-trials", 0, "--out", tmp_path / "a.json"]
        assert run(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.array_equal(doc["rotation"], optimize_rotation(2, trials=0, seed=0))

    @pytest.mark.parametrize(
        "args, count",
        [
            (["--family", "cod8", "--constellation", "qam16"], 65536),
            (["--family", "alamouti", "--blocks", 10, "--constellation", "bpsk"], 2**20),
            (["--family", "cuw4", "--blocks", 2, "--rotate"], 65536),
        ],
        ids=["cod8-qam16", "alamouti-x10-bpsk", "cuw4-x2-rotate"],
    )
    def test_oversized_codebook_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch, args, count):
        def refuse(*a, **k):
            raise AssertionError("the codebook was built")

        monkeypatch.setattr(diversity_analyzer, "_codebook", refuse)
        assert run(["analyze", *args, "--out", tmp_path / "a.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: the full pair scan takes at most 4096 codewords (got {count});")
        assert list(tmp_path.iterdir()) == []

    def test_imported_non_compliant_bundle_warns_but_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bundle = to_bundle(alamouti())
        bundle["weights_I"][1][0][0] = [1.0, 0.0]  # entry now sums two in-phase symbols
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(bundle))
        assert run(["analyze", "--bundle", path, "--constellation", "bpsk"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "single-term entries" in captured.err


class TestSimulate:
    def test_csv_output_and_determinism_across_threads(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--family", "alamouti", "--relays", 2, "--constellation", "qpsk",
            "--snr-db", "10,15", "--trials", "20000", "--seed", 7, "--chunk", 4096,
        ]
        assert run(args + ["--threads", 1, "--out", a]) == 0
        assert run(args + ["--threads", 3, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "snr_db,trials,codeword_errors,bit_errors,ber,ci_low,ci_high"

    def test_wrong_relay_count_rejected(self, tmp_path):
        assert run(
            ["simulate", "--family", "alamouti", "--relays", 4, "--out", tmp_path / "x.csv"]
        ) == 2

    def test_manifest_written(self, tmp_path):
        csv = tmp_path / "sim.csv"
        manifest = tmp_path / "sim.manifest.json"
        assert run(
            ["simulate", "--family", "alamouti", "--snr-db", "10", "--trials", "5000",
             "--seed", 3, "--out", csv, "--manifest", manifest]
        ) == 0
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "simulate"
        assert set(doc["content_hashes"]) == {"bundle", "csv"}
        assert doc["config"]["seed"] == 3

    def test_manifest_default_path(self, tmp_path):
        csv = tmp_path / "sim.csv"
        assert run(
            ["simulate", "--family", "alamouti", "--snr-db", "10", "--trials", "2000",
             "--seed", 3, "--out", csv]
        ) == 0
        assert (tmp_path / "sim.csv.manifest.json").exists()

    @pytest.mark.parametrize(
        "family, path, groups, width, symbols, certified, per_symbol",
        [
            ("alamouti", "scalar", 1, 8, [[0], [1]], [], 8),
            ("cod8", "diagonal", 8, 40, [[0, 1, 2, 3]], [[0, 1, 2, 3]], 16),
            ("cuw8", "diagonal", 4, 78, [list(range(6))], [list(range(6))], 24),
        ],
        ids=["alamouti-scalar-1-8-0", "cod8-diagonal-8-40-256", "cuw8-diagonal-4-78-4096"],
    )
    def test_manifest_records_decoder(
        self, tmp_path, monkeypatch, family, path, groups, width, symbols, certified, per_symbol
    ):
        monkeypatch.setattr(relay_channel_sim, "_KERNELS", OrderedDict())  # the first call builds
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        decoders = []
        # the third call runs two chunks on two workers
        for name, extra in (("a.csv", []), ("b.csv", []), ("c.csv", ["--chunk", 25, "--threads", 2])):
            csv = tmp_path / name
            args = ["simulate", "--family", family, "--snr-db", "10", "--trials", "50", "--out", csv]
            assert run(args + extra) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            assert manifest["peak_rss_mb"] > 0
            assert manifest["versions"]["numpy"] == np.__version__
            assert manifest["versions"]["python"] == platform.python_version()
            assert manifest["versions"]["platform"] == platform.platform()
            decoders.append(manifest["decoder"])
            (point,) = manifest["snr_points"]
            if certified:  # most trials at 10 dB are certified, and 50 trials do not round the share to 1
                assert 0.5 <= point["certified_frac"] <= 1.0 and point["certified_frac"] * 50 % 1 == 0
            else:
                assert point["certified_frac"] is None
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for decoder in decoders:
            assert decoder["noise_path"] == path and decoder["noise_groups"] == groups
            assert decoder["feature_width"] == width and "decode_candidates" not in decoder
            assert decoder["symbol_groups"] == symbols
            assert decoder["certified_groups"] == certified and decoder["per_symbol_candidates"] == per_symbol
            assert decoder["blas_thread_env"] == {
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None
            }
        # the rows of the largest block run: the whole 50-trial chunk, then 25-trial chunks
        assert [d["block_rows"] for d in decoders] == [50, 50, 25]
        built, reused, pooled = decoders
        assert built["kernel_reused"] is False and built["kernel_build_s"] > 0
        assert reused["kernel_reused"] is True and reused["kernel_build_s"] == 0
        blas = relay_channel_sim._BLAS.count()  # None when the library cannot be reached
        assert built["workers"] == reused["workers"] == 1 and pooled["workers"] == 2
        held = [d["blas_threads_per_worker"] for d in decoders]  # every call holds one thread, one worker too
        assert held == [None if blas is None else 1] * 3

    def test_manifest_records_per_snr_timing(self, tmp_path, capsys):
        args = ["simulate", "--family", "alamouti", "--snr-db", "5,10,15", "--trials", "300,200,100", "--chunk", 64]
        outputs = []
        for threads in (1, 2):
            manifest = tmp_path / f"t{threads}.json"
            assert run(args + ["--threads", threads, "--manifest", manifest]) == 0
            outputs.append(capsys.readouterr().out)
            points = json.loads(manifest.read_text())["snr_points"]
            assert [set(p) for p in points] == [{"snr_db", "trials", "wall_s", "trials_per_s", "certified_frac"}] * 3
            assert all(p["certified_frac"] is None for p in points)  # alamouti is decoded symbol by symbol
            assert [(p["snr_db"], p["trials"]) for p in points] == [(5.0, 300), (10.0, 200), (15.0, 100)]
            for p in points:
                assert p["wall_s"] > 0 and p["trials_per_s"] == pytest.approx(p["trials"] / p["wall_s"])
        # the timings go to the manifest only: stdout is the same CSV for any thread count
        assert outputs[0] == outputs[1] and outputs[0].startswith("snr_db,trials,")

    def test_oversized_codebook_exits_two_before_allocating(self, tmp_path, capsys):
        # cuw4 x4 on 16-QAM: 16**16 codewords, past the 64-bit codeword index
        args = ["simulate", "--family", "cuw4", "--blocks", "4", "--constellation", "qam16", "--trials", "10"]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert run(args + ["--out", tmp_path / "x"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0 and peak < 16 * 2**20
        err = capsys.readouterr().err
        assert err.startswith("error: 18446744073709551616 codewords do not fit") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["cuw8", "ciod8"])
    def test_groups_of_six_run_on_qam16(self, tmp_path, family):
        # 16.7 M codewords, whose joint rows would take 9.8 GiB: the uncertified trials are decoded from lists
        out = tmp_path / "x.csv"
        args = ["simulate", "--family", family, "--constellation", "qam16", "--snr-db", "0,20", "--trials", "300"]
        assert run(args + ["--chunk", 150, "--out", out]) == 0
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["decoder"]["codewords"] == 16**6 and manifest["decoder"]["certified_groups"] == [list(range(6))]
        assert all(p["certified_frac"] < 1.0 for p in manifest["snr_points"])
        assert len(out.read_text().splitlines()) == 3

    def test_codebook_size_is_bounded_by_the_codeword_index_only(self, tmp_path, capsys):
        # cuw4 x2 on 16-QAM: 4.3 G codewords, decoded symbol by symbol from a 128-row table and no joint row
        args = ["simulate", "--family", "cuw4", "--constellation", "qam16", "--trials", "16", "--out", tmp_path / "x"]
        assert run(args + ["--blocks", "2"]) == 0
        decoder = json.loads((tmp_path / "x.manifest.json").read_text())["decoder"]
        assert decoder["codewords"] == 16**8 and decoder["per_symbol_candidates"] == 128
        assert decoder["certified_groups"] == []
        capsys.readouterr()
        # x4: 16**16 codewords, past the 64-bit codeword index
        assert run(args + ["--blocks", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 18446744073709551616 codewords") and err.count("\n") == 1

    def test_codeword_index_is_refused_before_any_form(self, tmp_path, capsys):
        # cuw4 x8: 4**32 codewords; its forms, which grow as K^2 T2 R^2, would take over a GB
        args = ["simulate", "--family", "cuw4", "--blocks", "8", "--trials", "16", "--out", tmp_path / "x"]
        start = time.perf_counter()
        assert run(args) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: 18446744073709551616 codewords do not fit a 64-bit codeword index\n"
        code = block_diagonal_extend(cuw_ssd(4), 8)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="64-bit codeword index"):
                relay_channel_sim._Kernel(code, Constellation.qpsk())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_source_cooperation_power_exits_two_with_one_line(self, tmp_path, capsys):
        args = ["simulate", "--family", "alamouti", "--trials", "100", "--out", tmp_path / "x.csv"]
        assert run(args + ["--pi", "1,1,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "pi2" in err
        assert run(args + ["--pi", "2,0,1"]) == 0

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("command", ["simulate", "dmg"])
    def test_bad_seed_exits_two_with_one_line(self, tmp_path, capsys, command, seed):
        args = ["--family", "alamouti", "--trials", "10"] if command == "simulate" else ["--samples", "100"]
        assert run([command, *args, "--seed", seed, "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err

    def test_dmg_seed_range_counts_the_derived_seeds(self, tmp_path, capsys):
        # the largest derived stream seed is seed + 104729 + 7919 (two rho values)
        top = 2**64 - 1 - 104729 - 7919
        args = ["dmg", "--rho", "1,10", "--samples", "50", "--out", tmp_path / "x.csv"]
        assert run(args + ["--seed", top]) == 0
        capsys.readouterr()
        assert run(args + ["--seed", top + 1]) == 2
        assert f"--seed must lie in [0, {top}]" in capsys.readouterr().err


class TestDmg:
    def test_csv_columns_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dmg", "--relays", 2, "--rho", "1,10", "--samples", 20000, "--seed", 5]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b, "--threads", 2]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "rho,ks_stat,reject,outage_phase_csi,outage_full_f"
        assert all(line.split(",")[2] == "0" for line in lines[1:])

    def test_each_call_runs_one_pool_of_min_threads_and_jobs(self, tmp_path, monkeypatch, capsys):
        pools = []
        real_pool = dmg_analysis.ThreadPoolExecutor

        def counting_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(dmg_analysis, "ThreadPoolExecutor", counting_pool)
        args = ["dmg", "--relays", 2, "--rho", "1,10", "--samples", 3000, "--seed", 8]
        outs = [tmp_path / f"{threads}.csv" for threads in (8, 2, 1)]
        for threads, out in zip((8, 2, 1), outs):
            assert run(args + ["--threads", threads, "--out", out]) == 0
        assert pools == [5, 2, 1]  # five jobs for two rho values in one pool of at most that many workers
        assert len({out.read_bytes() for out in outs}) == 1
        assert run(args + ["--threads", 0, "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--threads" in err

    def test_manifest_records_workers_and_process(self, tmp_path):
        args = ["dmg", "--relays", 2, "--rho", "1", "--samples", 500, "--out", tmp_path / "x.csv"]
        for threads, workers in ((1, 1), (2, 2), (8, 2)):  # two jobs for one rho value
            assert run(args + ["--threads", threads]) == 0
            manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
            assert manifest["workers"] == workers and manifest["config"]["threads"] == threads
            assert manifest["peak_rss_mb"] > 0
            assert manifest["versions"]["numpy"] == np.__version__
            assert manifest["versions"]["python"] == platform.python_version()

    @pytest.mark.parametrize("rho", ["5", "2,2,30", "1,10,100,1000"])
    def test_each_sample_set_is_drawn_once(self, tmp_path, monkeypatch, rho):
        drawn = []
        real = dmg_analysis.channel_stat_samples

        def spy(n_relays, rho, n, partial_csi, seed):
            drawn.append((seed, rho, partial_csi))
            return real(n_relays, rho, n, partial_csi, seed)

        monkeypatch.setattr(dmg_analysis, "channel_stat_samples", spy)
        assert run(["dmg", "--rho", rho, "--samples", 500, "--threads", 2, "--out", tmp_path / "x.csv"]) == 0
        # per rho value a KS pair and two outage sets, of which the first outage at rho number 0 is the KS pair's first
        assert len(drawn) == len(set(drawn)) == 4 * len(rho.split(",")) - 1

    @staticmethod
    def per_job_csv(relays, rhos, samples, seed):
        """The CSV as drawn with one job per statistic, each drawing its own sample sets."""
        lines = ["rho,ks_stat,reject,outage_phase_csi,outage_full_f"]
        curves = [
            empirical_outage(relays, rhos, 0.5, samples, s, csi)
            for s, csi in ((seed, True), (seed + dmg_analysis._FULL_F_OFFSET, False))
        ]
        for k, rho in enumerate(rhos):
            a = channel_stat_samples(relays, rho, samples, True, seed + 2 * k).values
            b = channel_stat_samples(relays, rho, samples, False, seed + 2 * k + 1).values
            stat, reject = ks_two_sample(a, b, alpha=0.01)
            outage = [curve[k] for curve in curves]
            lines.append(f"{float(rho)!r},{float(stat)!r},{int(reject)},{float(outage[0])!r},{float(outage[1])!r}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("rho", [[4.0], [2.0, 2.0, 30.0], None], ids=["one", "repeated", "default"])
    def test_csv_equals_one_job_per_statistic(self, tmp_path, rho):
        rhos = rho or cli.build_parser().parse_args(["dmg"]).rho
        for seed in (0, 3, 11):
            want = self.per_job_csv(3, rhos, 2000, seed)
            for threads in (1, 2, 3):
                out = tmp_path / f"{seed}-{threads}.csv"
                args = ["dmg", "--relays", 3, "--samples", 2000, "--seed", seed, "--threads", threads, "--out", out]
                assert run(args + (["--rho", ",".join(map(str, rho))] if rho else [])) == 0
                assert out.read_text() == want

    @pytest.mark.parametrize(
        "flag, value",
        [("--rho", "nan"), ("--rho", "inf"), ("--rho", "1,-1"), ("--rho", ""), ("--rate", "nan"), ("--rate", "-inf"),
         ("--samples", "0")],
        ids=["rho-nan", "rho-inf", "rho-negative", "rho-empty", "rate-nan", "rate-inf", "samples-0"],
    )
    def test_bad_rho_or_rate_exits_two_naming_the_flag(self, tmp_path, capsys, flag, value):
        assert run(["dmg", "--samples", 100, f"{flag}={value}", "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_zero_rho_is_valid(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["dmg", "--samples", 100, "--rho", "0", "--out", out]) == 0
        assert out.read_text().splitlines()[1] == "0.0,0.0,0,0.0,0.0"


class TestDefaultThreads:
    def test_default_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._available_cpus() == 3
        for command in ("simulate", "dmg"):
            assert cli.build_parser().parse_args([command]).threads == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # no affinity call and no count
        assert cli._available_cpus() == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--family", "alamouti", "--snr-db", "5,10", "--trials", "3000", "--chunk", 700, "--seed", 4],
            ["dmg", "--relays", 3, "--rho", "1,10", "--samples", 70_000, "--seed", 6],
        ],
        ids=["simulate", "dmg"],
    )
    def test_outputs_equal_at_every_thread_count(self, tmp_path, args):
        texts = set()
        for threads in (1, 2, 3, None):  # None: the default
            out = tmp_path / f"{threads}.csv"
            assert run(args + (["--threads", threads] if threads else []) + ["--out", out]) == 0
            texts.add(out.read_bytes())
            manifest = json.loads((tmp_path / f"{threads}.csv.manifest.json").read_text())
            assert manifest["config"]["threads"] == (threads or cli._available_cpus())
        assert len(texts) == 1


class TestParser:
    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys, monkeypatch):
        built = []
        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
        cli._parser.cache_clear()
        try:
            assert run(["construct", "--family", "alamouti", "--out", tmp_path / "a.json"]) == 0
            assert run(["verify", "--bundle", tmp_path / "a.json"]) == 0
            assert run(["dmg", "--rho", "1", "--samples", 100, "--out", tmp_path / "x.csv"]) == 0
            assert cli._parser() is cli._parser()
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_config_values_do_not_outlive_their_call(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"relays": 3, "rho": [3, 4], "rate": 0.25, "seed": 9}))
        out = tmp_path / "x.csv"
        assert run(["--config", cfg, "dmg", "--samples", 200, "--out", out]) == 0
        config = json.loads((tmp_path / "x.csv.manifest.json").read_text())["config"]
        assert (config["relays"], config["rho"], config["rate"], config["seed"]) == (3, [3.0, 4.0], 0.25, 9)
        assert run(["dmg", "--samples", 200, "--out", out]) == 0
        config = json.loads((tmp_path / "x.csv.manifest.json").read_text())["config"]
        defaults = vars(cli.build_parser().parse_args(["dmg"]))
        keys = ("config", "relays", "rho", "rate", "seed")
        assert [config[key] for key in keys] == [defaults[key] for key in keys] and config["config"] is None
        assert len(out.read_text().splitlines()) == 1 + len(defaults["rho"])

    def test_a_rejected_call_leaves_the_next_call_working(self, tmp_path, capsys):
        assert run(["dmg", "--samples", "many"]) == 2
        assert run(["simulate", "--no-such-flag"]) == 2
        assert run(["nope"]) == 2
        capsys.readouterr()
        assert run(["dmg", "--rho", "1", "--samples", 100, "--out", tmp_path / "x.csv"]) == 0
        assert capsys.readouterr().err == ""


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constellation": "bpsk"}))
        assert run(["--config", cfg, "analyze", "--family", "alamouti"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_codewords"] == 4  # bpsk, not the qpsk default

    def test_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constellation": "bpsk"}))
        assert run(["--config", cfg, "analyze", "--family", "alamouti", "--constellation", "qpsk"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_codewords"] == 16

    def test_equals_form_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constellation": "bpsk"}))
        assert run(["--config", cfg, "analyze", "--family", "alamouti", "--constellation=qpsk"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_codewords"] == 16

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run(["--config", tmp_path / "none.json", "verify", "--family", "alamouti"]) == 2

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"snr_db": 5, "trials": 30}, ["--snr-db", "5", "--trials", "30"]),
            ({"snr_db": [5, 10.5], "trials": [40, 20]}, ["--snr-db", "5,10.5", "--trials", "40,20"]),
            ({"trials": 30, "out": None, "relays": None}, ["--trials", "30"]),  # null: the flag's default
        ],
        ids=["scalars", "lists", "nulls"],
    )
    def test_config_values_parse_as_their_flags(self, tmp_path, capsys, monkeypatch, config, flags):
        # a config value means what its text means on the command line, a list joined with commas
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config | {"seed": 2}))
        args = ["simulate", "--family", "alamouti"]
        assert run(["--config", cfg, *args]) == 0
        from_config = capsys.readouterr().out
        assert run([*args, *flags, "--seed", "2"]) == 0
        assert capsys.readouterr().out == from_config

    @pytest.mark.parametrize(
        "text, command",
        [("[1, 2]", "simulate"), ('{"seed": "abc"}', "simulate"), ('{"full_csi_f": "yes"}', "simulate"),
         ('{"group_size": 3}', "analyze")],
        ids=["list", "seed-text", "flag-text", "group-size-choice"],
    )  # fmt: skip
    def test_bad_config_exits_two_with_one_line(self, tmp_path, capsys, text, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["--config", cfg, command, "--family", "alamouti", "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and err.count("\n") == 1


class TestFlagsAndBadInput:
    @pytest.mark.parametrize(
        "args",
        [["construct", "--family", "alamouti", "--seed", 1], ["analyze", "--family", "alamouti", "--threads", 2]],
        ids=["construct-seed", "analyze-threads"],
    )
    def test_flag_a_subcommand_does_not_read_is_usage_error(self, tmp_path, args):
        assert run([*args, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "args", [[], ["construct"], ["verify"], ["analyze"], ["simulate"], ["dmg"]], ids=lambda a: a[0] if a else "top"
    )
    def test_help_exits_zero(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run([*args, "-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: dstc {' '.join(args)}".rstrip()) and captured.err == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["construct", "--bundle", "b.json", "--out", "b.json"],
            ["verify", "--bundle", "b.json", "--out", "./b.json"],
            ["analyze", "--bundle", "b.json", "--constellation", "bpsk", "--manifest", "b.json"],
            ["simulate", "--bundle", "b.json", "--trials", "10", "--snr-db", "10", "--manifest", "b.json"],
            ["--config", "cfg.json", "simulate", "--family", "alamouti", "--trials", "10", "--out", "cfg.json"],
            ["--config", "cfg.json", "dmg", "--samples", "100", "--out", "sub/../cfg.json"],
        ],
        ids=["construct", "verify", "analyze", "simulate-bundle", "simulate-config", "dmg"],
    )
    def test_output_naming_an_input_exits_two_and_keeps_the_input(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert run(["construct", "--family", "alamouti", "--out", "b.json"]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": 1}))
        inputs = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        capsys.readouterr()
        ran = record_work(monkeypatch)
        assert run(args) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert captured.err.startswith("error: the output ") and captured.err.count("\n") == 1
        assert " would overwrite the input " in captured.err
        assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == inputs

    @pytest.mark.parametrize(
        "args, prefix",
        [
            (["analyze", "--family", "ciod4", "--tol-rank", "-1"], "error: "),
            (["analyze", "--family", "alamouti", "--tol-rank", "nan"], "error: "),
            (["verify", "--family", "alamouti", "--tol-diag", "nan"], "error: "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--pi", "1,0,nan"], "error: "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--snr-db", "nan"], "error: "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--snr-db", "4000"], "error: "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--blocks", "0"], "error: "),
            (["construct", "--family", "alamouti", "--blocks", "-1"], "error: "),
            (["dmg", "--relays", "0", "--samples", "100"], "error: "),
            (["analyze", "--family", "clifford4", "--rotate", "--rot-trials", "-5"], "error: "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--chunk", "0"], "error: --chunk "),
            (["simulate", "--family", "alamouti", "--trials", "10", "--threads", "0"], "error: --threads "),
            (["analyze", "--family", "cod8", "--constellation", "qam16"],
             "error: the full pair scan takes at most 4096 codewords (got 65536); in dstc analyze, choose a smaller "
             "--constellation or fewer --blocks"),
            (["simulate", "--chunk", "abc"], "error: argument --chunk: "),
            (["simulate", "--bogus"], "error: unrecognized arguments: --bogus"),
            (["dmg", "--rho", "x"], "error: argument --rho: "),
            (["analyze", "--group-size", "3"], "error: argument --group-size: "),
            ([], "error: the following arguments are required: command"),
        ],
        ids=["tol-rank-negative", "tol-rank-nan", "tol-diag-nan", "pi-nan", "snr-nan", "snr-overflow", "blocks-0",
             "blocks-negative", "relays-0", "rot-trials-negative", "chunk-0", "threads-0", "pair-scan-budget",
             "chunk-text", "unknown-flag", "rho-text", "group-size-choice", "no-subcommand"],
    )
    def test_bad_input_exits_two_with_one_line(self, tmp_path, capsys, args, prefix):
        assert run([*args, "--out", tmp_path / "x"] if args else []) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flag, text, kind",
        [("simulate", "snr-db", "10,x", "numbers"), ("simulate", "trials", "1,x", "integers"),
         ("simulate", "trials", "1.5", "integers"), ("simulate", "pi", "1,0,x", "numbers"), ("dmg", "rho", "x", "numbers")],
        ids=["snr-db", "trials", "trials-fraction", "pi", "rho"],
    )  # fmt: skip
    def test_bad_list_exits_two_naming_the_format(self, tmp_path, capsys, monkeypatch, command, flag, text, kind, where):
        # the list parsers' own names (_float_list, _int_list) stay out of the message
        args = [command, "--out", tmp_path / "x.csv"] + (["--family", "alamouti"] if command == "simulate" else [])
        if where == "flag":
            args += [f"--{flag}", text]
            prefix = f"argument --{flag}"
        else:  # a config value takes its flag's parse and message
            (tmp_path / "cfg.json").write_text(json.dumps({flag.replace("-", "_"): text}))
            args = ["--config", tmp_path / "cfg.json", *args]
            prefix = f"config {flag.replace('-', '_')!r}: argument --{flag}"
        ran = record_work(monkeypatch)
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {prefix}: expected comma-separated {kind}, got {text!r}\n"
        assert captured.out == "" and ran == [] and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("flag", ["--snr-db", "--trials", "--pi"])
    def test_empty_list_exits_two_naming_the_flag(self, tmp_path, capsys, monkeypatch, flag, where):
        # "," parses to no value at all, as does an empty config list; dmg --rho refuses the same way
        args = ["simulate", "--family", "alamouti", "--out", tmp_path / "x.csv"]
        if where == "flag":
            args += [flag, ","]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({flag[2:].replace("-", "_"): []}))
            args = ["--config", tmp_path / "cfg.json", *args]
        ran = record_work(monkeypatch)
        assert run(args) == 2
        assert capsys.readouterr().err == f"error: {flag} needs at least one value\n"
        assert ran == [] and not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args, shape",
        [
            (["construct", "--family", "alamouti", "--blocks", "100000"], "(200000, 200000)"),
            (["dmg", "--samples", str(10**15), "--threads", "1"], f"({10**15},)"),
            (["dmg", "--relays", str(10**9), "--threads", "1"], f"(65536, {10**9})"),
            (["simulate", "--family", "alamouti", "--snr-db", "10", "--trials", str(10**15), "--chunk", str(10**15),
              "--threads", "1"], f"({10**15},)"),
        ],
        ids=["construct-blocks", "dmg-samples", "dmg-relays", "simulate-trials"],
    )  # fmt: skip
    def test_oversized_sizes_exit_two_with_one_line(self, tmp_path, capsys, args, shape):
        # each run's first large array is far beyond any memory, so its allocation fails before any page is touched
        start = time.perf_counter()
        assert run([*args, "--out", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert f"shape {shape}" in err and time.perf_counter() - start < 10.0
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["analyze", "--bundle", "nope.json"],
            ["construct", "--family", "alamouti", "--out", "missing/a.json"],
            ["simulate", "--family", "alamouti", "--trials", "10", "--out", "missing/a.csv"],
            ["simulate", "--family", "alamouti", "--trials", "10", "--manifest", "missing/m.json"],
            ["dmg", "--samples", "100", "--out", "missing/a.csv"],
        ],
        ids=["read-bundle", "write-bundle", "write-csv", "write-manifest", "dmg-write-csv"],
    )
    def test_file_errors_exit_two_with_one_line(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--family", "cod8", "--trials", "200000", "--snr-db", "10", "--out", "missing/a.csv"],
            ["simulate", "--family", "cod8", "--trials", "200000", "--snr-db", "10", "--manifest", "missing/m.json"],
            ["dmg", "--samples", "1000000", "--out", "missing/a.csv"],
            ["dmg", "--samples", "1000000", "--manifest", "missing/m.json"],
            ["analyze", "--family", "cod8", "--out", "missing/a.json"],
            ["analyze", "--family", "cod8", "--out", "a.json", "--manifest", "missing/m.json"],
            ["verify", "--family", "cod8", "--out", "missing/r.json"],
            ["verify", "--family", "cod8", "--out", "r.json", "--manifest", "missing/m.json"],
            ["construct", "--family", "cod8", "--out", "a.json", "--manifest", "missing/m.json"],
        ],
        ids=["simulate-csv", "simulate-manifest", "dmg-csv", "dmg-manifest", "analyze-json", "analyze-manifest",
             "verify-json", "verify-manifest", "construct-manifest"],
    )
    def test_output_paths_are_checked_before_any_trial(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        ran = record_work(monkeypatch)
        assert run(args) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        # a run refused for another reason leaves no file behind
        assert run(["simulate", "--family", "alamouti", "--relays", 4, "--out", "x.csv"]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["construct", "--family", "alamouti", "--manifest", "alamouti.json"],  # the default <name>.json
            ["construct", "--family", "alamouti", "--out", "b.json", "--manifest", "./b.json"],
            ["verify", "--family", "alamouti", "--out", "r.json", "--manifest", "r.json"],
            ["analyze", "--family", "alamouti", "--constellation", "bpsk", "--out", "a.json", "--manifest", "a.json"],
            ["simulate", "--family", "alamouti", "--trials", "5", "--snr-db", "10", "--out", "out.csv",
             "--manifest", "out.csv"],
            ["dmg", "--samples", "100", "--out", "d.csv", "--manifest", "sub/../d.csv"],
        ],
        ids=["construct-default", "construct", "verify", "analyze", "simulate", "dmg"],
    )  # fmt: skip
    def test_output_and_manifest_naming_one_file_exit_two(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        ran = record_work(monkeypatch)
        assert run(args) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert captured.err.startswith("error: the output ") and captured.err.endswith(" name the same file\n")
        assert captured.err.count("\n") == 1 and list(tmp_path.iterdir()) == []

    def test_dmg_sample_sets_past_half_of_memory_exit_two_before_drawing(self, tmp_path, capsys, monkeypatch):
        # 1000 relays and samples: each set takes 8 * (1000 + 1000 * (2 * 1000 + 1000)) bytes, 24 MB
        drawn = []
        real = dmg_analysis.channel_stat_samples
        monkeypatch.setattr(dmg_analysis, "channel_stat_samples", lambda *a: drawn.append(a) or real(*a))
        monkeypatch.setattr(dmg_analysis, "_physical_memory", lambda: 128 * 2**20)
        args = ["dmg", "--relays", 1000, "--samples", 1000, "--out", tmp_path / "x.csv"]
        assert run(args + ["--threads", 2]) == 2  # two workers, four sets in flight: 96 MB > 64 MiB
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert "4 sample sets, each an array of shape (1000,) and buffers of shape (1000, 1000)" in err
        assert "--relays" in err and "--samples" in err
        assert drawn == [] and list(tmp_path.iterdir()) == []
        assert run(args + ["--threads", 1]) == 0  # one worker, two sets: 48 MB
        # the samples count too: one relay and 10**7 samples take 81 MB a set, 162 MB for one worker
        assert run(["dmg", "--relays", 1, "--samples", 10**7, "--threads", 1, "--out", tmp_path / "y.csv"]) == 2
        assert "2 sample sets, each an array of shape (10000000,)" in capsys.readouterr().err
        monkeypatch.setattr(dmg_analysis, "_physical_memory", lambda: None)  # no memory figure: nothing is refused
        assert run(args + ["--threads", 2]) == 0
        assert dmg_analysis._sample_set_size(1000, 1000) == ((1000, 1000), 24_008_000)

    def test_physical_memory_is_known_here_or_none(self):
        memory = dmg_analysis._physical_memory()
        assert memory is None or memory > 0

    def test_codeword_index_is_refused_before_any_weight_is_stacked(self, tmp_path, capsys, monkeypatch):
        # alamouti x100 on BPSK: 2**200 codewords, refused before its 0.5 GB of dense weights are stacked
        def fail(self):
            raise AssertionError("real_weights called")

        monkeypatch.setattr(cli.lib.LinearDispersionCode, "real_weights", fail)
        args = ["simulate", "--family", "alamouti", "--blocks", 100, "--constellation", "bpsk", "--trials", 4]
        assert run(args + ["--out", tmp_path / "x.csv"]) == 2
        assert capsys.readouterr().err == f"error: {2**200} codewords do not fit a 64-bit codeword index\n"
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ParameterError, match="64-bit codeword index"):
            relay_channel_sim.SimConfig(block_diagonal_extend(alamouti(), 32), Constellation.bpsk(), (10.0,), (4,), 0)
