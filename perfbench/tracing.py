"""Span tracing for the traced run, installed from outside the program.

``Tracer.install`` wraps the public entry points of each dstc module, and
the Monte Carlo kernel's batch methods, with functions that record a span:
name, layer, start, end, parent span, operation id and, for some entry
points, a size (trials, codewords, samples). Spans stay in memory and are
written out when the run ends. An entry point the program no longer has is
listed in ``absent`` and does not fail the run.

``layer_metrics`` turns the spans into the per-layer metrics. The self time
of a span is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc

# layer -> entry points; "Class.method" names a method
ENTRY_POINTS = {
    "relay_channel_sim": (
        "monte_carlo_ber",
        "_Kernel.__init__",
        "_Kernel.run_chunk",
        "_Kernel.simulate_batch",
        "_Kernel.decode_batch",
    ),
    "diversity_analyzer": (
        "enumerate_codebook",
        "apply_precoding",
        "analyze_codebook",
        "min_rank_group_differences",
        "optimize_rotation",
    ),
    "dmg_analysis": ("channel_stat_samples", "ks_two_sample", "empirical_outage"),
    "constraint_checker": ("verify_code",),
    "code_library": (
        "alamouti",
        "scalar_cod",
        "square_cod",
        "cuw_ssd",
        "clifford_4x4",
        "gciod",
        "repetition_control",
        "block_diagonal_extend",
        "save_bundle",
        "load_bundle",
    ),
    "cli": ("main",),
}
LAYERS = tuple(ENTRY_POINTS)
BUNDLE_IO = ("save_bundle", "load_bundle")

# entry point -> (argument, function of it) giving the span's size
SIZES = {
    "_Kernel.run_chunk": ("n", int),
    "analyze_codebook": ("codebook", len),
    "channel_stat_samples": ("n", int),
}
CAPTURED = {"monte_carlo_ber": "cfg"}  # arguments kept for replaying the call

# span record fields
SID, NAME, LAYER, START, END, PARENT, OP, SIZE = range(8)


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals."""
    covered, edge = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, edge)
        if hi > lo:
            covered += hi - lo
            edge = hi
    return covered


class Tracer:
    def __init__(self, memory_spans=()):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.captured: list[tuple] = []  # (span id, captured argument)
        self.memory: list[tuple] = []  # (name, peak bytes above the level at entry)
        self.memory_spans = set(memory_spans)
        self.op_id = None
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str, size=None) -> list:
        me = threading.get_ident()
        stack = self._stacks.setdefault(me, [])
        if stack:
            parent = stack[-1][SID]
        else:  # a worker thread's first span hangs under the main thread's open span
            main = self._stacks.get(self._main) if me != self._main else None
            parent = main[-1][SID] if main else None
        rec = [next(self._ids), name, layer, time.perf_counter(), None, parent, self.op_id, size]
        stack.append(rec)
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def span(self, name: str, layer: str):
        """Context manager recording one span, for the benchmark's own operations."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.rec = tracer._open(name, layer)
                return self.rec

            def __exit__(self, *exc):
                tracer._close(self.rec)
                return False

        return _Span()

    def _wrap(self, fn, name: str, layer: str):
        sig = inspect.signature(fn)
        size_arg = SIZES.get(name)
        capture = CAPTURED.get(name)
        measure_memory = name in self.memory_spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = None
            if size_arg or capture:
                bound = sig.bind(*args, **kwargs).arguments
                if size_arg and size_arg[0] in bound:
                    size = size_arg[1](bound[size_arg[0]])
            rec = tracer._open(name, layer, size)
            if capture and capture in bound:
                tracer.captured.append((rec[SID], bound[capture]))
            if measure_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                if measure_memory:
                    tracer.memory.append((name, tracemalloc.get_traced_memory()[1] - base))
                tracer._close(rec)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point wherever the program holds a reference to it."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == "dstc" or n.startswith("dstc.")]
        for layer, names in ENTRY_POINTS.items():
            mod = sys.modules.get(f"dstc.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    orig = vars(cls).get(meth) if isinstance(cls, type) else None
                    if not callable(orig):
                        self.absent.append(f"{layer}.{name}")
                        continue
                    setattr(cls, meth, self._wrap(orig, name, layer))
                    self._undo.append((setattr, cls, meth, orig))
                    continue
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(orig, name, layer)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapper)
                            self._undo.append((setattr, m, key, orig))
                        elif isinstance(value, dict):  # e.g. a name -> constructor table
                            for k, v in value.items():
                                if v is orig:
                                    value[k] = wrapper
                                    self._undo.append((dict.__setitem__, value, k, orig))

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, orig = self._undo.pop()
            restore(target, key, orig)

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                children.setdefault(rec[PARENT], []).append(rec)
        out = {}
        for rec in self.spans:
            kids = [(max(c[START], rec[START]), min(c[END], rec[END])) for c in children.get(rec[SID], ())]
            out[rec[SID]] = (rec[END] - rec[START]) - union_length(kids)
        return out

    def nesting_problems(self, slack: float = 1e-6) -> list:
        """Every span closed, and every child inside its parent and of the same operation."""
        by_id = {rec[SID]: rec for rec in self.spans}
        problems = []
        for rec in self.spans:
            if rec[END] is None or rec[END] < rec[START]:
                problems.append(f"span {rec[NAME]} not closed")
                continue
            parent = by_id.get(rec[PARENT])
            if rec[PARENT] is not None and parent is None:
                problems.append(f"span {rec[NAME]} has a missing parent")
            elif parent is not None and (
                rec[START] < parent[START] - slack or rec[END] > parent[END] + slack or rec[OP] != parent[OP]
            ):
                problems.append(f"span {rec[NAME]} is not inside its parent {parent[NAME]}")
        return problems

    def to_json(self) -> dict:
        t0 = min((rec[START] for rec in self.spans), default=0.0)
        return {
            "fields": ["id", "name", "layer", "start_s", "end_s", "parent", "op", "size"],
            "spans": [[r[SID], r[NAME], r[LAYER], r[START] - t0, r[END] - t0, r[PARENT], r[OP], r[SIZE]] for r in self.spans],
            "absent": self.absent,
        }


def layer_metrics(tracer: Tracer, calib: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``calib`` carries what the traced spans cannot give: the standalone
    draw cost per trial of each captured simulation, the 1- and 2-thread
    replay times, the decode memory peak of one chunk and that peak per trial.
    A layer that did not run reports 0.
    """
    spans, selfs = tracer.spans, tracer.self_times()
    by_id = {r[SID]: r for r in spans}

    def dur(r):
        return r[END] - r[START]

    def total(*names):
        return float(sum(dur(r) for r in spans if r[NAME] in names))

    def parent_layer(r):
        parent = by_id.get(r[PARENT])
        return parent[LAYER] if parent else None

    def outermost(layer, names):
        return float(sum(dur(r) for r in spans if r[LAYER] == layer and r[NAME] in names and parent_layer(r) != layer))

    m = {}
    chunks = [r for r in spans if r[NAME] == "_Kernel.run_chunk"]
    trials = sum(r[SIZE] or 0 for r in chunks)
    chunk_s, sim_s, dec_s = total("_Kernel.run_chunk"), total("_Kernel.simulate_batch"), total("_Kernel.decode_batch")
    draw_s = sum(calib["draw_s_per_trial"].get(r[PARENT], 0.0) * (r[SIZE] or 0) for r in chunks)
    mc = [r for r in spans if r[NAME] == "monte_carlo_ber"]
    threads = dict(calib["threads"])
    inits = [dur(r) for r in spans if r[NAME] == "_Kernel.__init__"]
    per_trial = (lambda s: s / trials * 1e6) if trials else (lambda s: 0.0)
    m["relay_channel_sim.draw_us_per_trial"] = per_trial(draw_s)
    m["relay_channel_sim.synth_us_per_trial"] = per_trial(sim_s - draw_s)
    m["relay_channel_sim.decode_us_per_trial"] = per_trial(dec_s)
    m["relay_channel_sim.decode_share"] = dec_s / chunk_s if chunk_s else 0.0
    m["relay_channel_sim.count_us_per_trial"] = per_trial(chunk_s - sim_s - dec_s)
    m["relay_channel_sim.decode_peak_mb"] = calib["decode_peak_bytes"] / 2**20
    m["relay_channel_sim.decode_bytes_per_trial_computed"] = float(calib["decode_bytes_per_trial"])
    m["relay_channel_sim.kernel_init_s"] = sum(inits) / len(inits) if inits else 0.0
    capacity = sum(dur(r) * threads.get(r[SID], 1) for r in mc)
    m["relay_channel_sim.thread_busy_frac"] = chunk_s / capacity if capacity else 0.0
    m["relay_channel_sim.speedup_2t"] = calib["t1_s"] / calib["t2_s"] if calib["t2_s"] else 0.0
    m["relay_channel_sim.chunks"] = float(len(chunks))

    scans = [r for r in spans if r[NAME] == "analyze_codebook"]
    scan_s = total("analyze_codebook")
    pairs = sum((r[SIZE] or 0) * ((r[SIZE] or 0) - 1) / 2 for r in scans)
    m["diversity_analyzer.enumerate_s"] = total("enumerate_codebook", "apply_precoding")
    m["diversity_analyzer.scan_s"] = scan_s
    m["diversity_analyzer.scan_us_per_pair"] = scan_s / pairs * 1e6 if pairs else 0.0
    m["diversity_analyzer.pairs_scanned_computed"] = float(pairs)
    m["diversity_analyzer.group_scan_s"] = total("min_rank_group_differences")
    m["diversity_analyzer.rotation_s"] = total("optimize_rotation")

    samples = [r for r in spans if r[NAME] == "channel_stat_samples"]
    sample_s = total("channel_stat_samples")
    m["dmg_analysis.sample_s"] = sample_s
    m["dmg_analysis.samples_per_s"] = sum(r[SIZE] or 0 for r in samples) / sample_s if sample_s else 0.0
    m["dmg_analysis.ks_s"] = total("ks_two_sample")
    m["dmg_analysis.outage_s"] = total("empirical_outage")

    m["constraint_checker.verify_s"] = outermost("constraint_checker", ("verify_code",))
    builders = tuple(n for n in ENTRY_POINTS["code_library"] if n not in BUNDLE_IO)
    m["code_library.build_s"] = outermost("code_library", builders)
    m["code_library.bundle_io_s"] = outermost("code_library", BUNDLE_IO)

    mains = [r for r in spans if r[NAME] == "main" and r[LAYER] == "cli"]
    m["cli.self_ms_per_call"] = sum(selfs[r[SID]] for r in mains) / len(mains) * 1e3 if mains else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(selfs[r[SID]] for r in spans if r[LAYER] == layer))
    return m
