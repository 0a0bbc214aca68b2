"""dskernel benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload circle_denoise --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is always the ``src/dskernel`` next
to this directory, never an installed copy. With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
BENCHMARK.json. Every call's outputs are checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Scratch files and span dumps go to ``.perfbench/`` at the
checkout root. ``--tiny`` shrinks every workload for the smoke test.
"""

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing  # the script's own directory; imports nothing heavy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
TRACE_MIN_CALLS = 5  # untraced-traced pairs in a traced run
TIME_CAP_FACTOR = 3  # a run stops after this many times --seconds, called enough or not
REPRODUCE_TOL = 1e-10


def pin_threads():
    """Cap the BLAS thread pools at the CPUs this process may use.

    Must run before numpy is imported. Returns (nproc, threads).
    """
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return nproc, threads


def import_program():
    """Import dskernel from the checkout's sources, or exit with an error."""
    package = SRC / "dskernel"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no dskernel sources at {package}")
    sys.path.insert(0, str(SRC))
    import dskernel
    if Path(dskernel.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported dskernel from {dskernel.__file__}, not {package}")
    return dskernel


class Session:
    """Runs calls on a workload's datasets and keeps the per-dataset checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.inputs = {}  # dataset -> input, for workloads that prepare ahead
        self.reference = {}  # dataset -> fingerprint of its first call
        self.accuracy = {}  # dataset -> accuracy of its first call
        self.iterations = {}  # dataset -> solver iterations, where visible

    def prepare_ahead(self):
        wl = self.workload
        if wl.prepare_ahead:
            for k in range(wl.datasets):
                self.inputs[k] = wl.prepare(k)

    def input(self, k, prepare=None):
        """Dataset ``k``'s input: the one prepared ahead, or a fresh one."""
        if k in self.inputs:
            return self.inputs[k]
        return (prepare or self.workload.prepare)(k)

    def call(self, k, inp, run=None):
        """Time one call on dataset ``k``'s input and check the outputs.

        Returns the call's wall time, or None when it raised.
        """
        gc.collect()
        self.attempted += 1
        start = perf_counter()
        try:
            out = (run or self.workload.call)(inp)
        except (Exception, SystemExit):
            elapsed = None
            self._fail(k, ["call raised:\n" + traceback.format_exc()])
        else:
            elapsed = perf_counter() - start
            self._fail(k, self._check(k, inp, out))
        return elapsed

    def visit(self, k):
        """Time the workload's ``repeats`` calls on dataset ``k``: the wall
        times of those that did not raise."""
        inp = self.input(k)
        times = [self.call(k, inp) for _ in range(self.workload.repeats)]
        return [t for t in times if t is not None]

    def _check(self, k, inp, out):
        wl = self.workload
        failures = wl.check(inp, out)
        if failures:
            return failures
        fingerprint = wl.fingerprint(inp, out)
        if k in self.reference:
            gap = float(abs(fingerprint - self.reference[k]).max())
            if not gap <= REPRODUCE_TOL:
                failures.append(f"repeat call differs from the first by {gap:.3e}")
        else:
            self.reference[k] = fingerprint.copy()
        accuracy = wl.accuracy(inp, out)
        for key, ceiling in wl.ceilings.items():
            if not accuracy[key] <= ceiling:
                failures.append(f"{key} = {accuracy[key]:.4g} above ceiling {ceiling:g}")
        self.accuracy.setdefault(k, accuracy)
        self.iterations.setdefault(k, wl.iterations(out))
        return failures

    def _fail(self, k, failures):
        if failures:
            self.failed += 1
            for line in failures:
                print(f"perfbench: {self.workload.name} dataset {k}: {line}", file=sys.stderr)


def repeat(step, seconds, min_steps, datasets, cap):
    """Run ``step`` on datasets 0, 1, ... in turn until ``seconds`` have passed
    and ``min_steps`` have run, or ``cap`` seconds have passed; return all the
    results the steps returned, in one list."""
    results = []
    start = perf_counter()
    steps = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= cap or (elapsed >= seconds and steps >= min_steps):
            return results
        results += step(steps % datasets)
        steps += 1


def tail(times):
    """The TAIL_PERCENTILE-th percentile of the call times, interpolated
    between order statistics, and how many calls took longer."""
    if len(times) < 2:
        return max(times), 0
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in times)


def probe(workload, seed, tiny, peak):
    """In a fresh interpreter: time importing dskernel plus generating (and
    writing) dataset 0. With ``peak``, also run one call on it and take the
    process's peak RSS."""
    import resource
    start = perf_counter()
    import_program()
    import workloads
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix="probe-")
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir, tiny)
        inp = wl.prepare(0)
        result = {"setup_s": perf_counter() - start}
        if peak:
            wl.call(inp)
            result["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir)


def measure_probes(args):
    """``setup_s`` as the median of SETUP_REPEATS fresh interpreters, and
    ``peak_mb`` from the last of them, which also runs a call."""
    runs = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.tiny:
            cmd.append("--tiny")
        if i == SETUP_REPEATS - 1:
            cmd.append("--peak")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {"setup_s": statistics.median(run["setup_s"] for run in runs),
            "peak_mb": runs[-1]["peak_mb"]}


def with_tracemalloc(fn):
    """Wrap ``fn`` so that tracemalloc traces exactly its calls."""
    import tracemalloc

    def measured(*args):
        tracemalloc.start()
        try:
            return fn(*args)
        finally:
            tracemalloc.stop()

    return measured


def end_to_end(session, args):
    wl = session.workload
    session.prepare_ahead()
    session.call(0, session.input(0))  # warm-up
    # visiting every dataset fixes the accuracy average for a given seed
    times = repeat(session.visit, args.seconds, wl.datasets, wl.datasets,
                   TIME_CAP_FACTOR * args.seconds)
    tail_value, beyond = tail(times)
    estimate = [acc[wl.estimate] for acc in session.accuracy.values()]
    metrics = {
        "pipeline_s": (statistics.median(times), "s"),
        "pipeline_s_tail": (tail_value, "s"),
        "peak_mb": (args.probes["peak_mb"], "MB"),
        "setup_s": (args.probes["setup_s"], "s"),
        "estimate_err": (statistics.fmean(estimate), "ratio"),
    }
    details = {"samples": len(times), "tail_percentile": TAIL_PERCENTILE,
               "tail_beyond": beyond, "times": times}
    for key in sorted({key for acc in session.accuracy.values() for key in acc}):
        details[key] = statistics.fmean(acc[key] for acc in session.accuracy.values())
    return metrics, details


SPAN_TIMES = {  # per-layer metric -> function whose inclusive span time it sums
    "kernel.pairwise_s": "kernel.pairwise_sq_dists",
    "kernel.gaussian_s": "kernel.gaussian_kernel",
    "kernel.traditional_s": "kernel.traditional_normalization",
    "scaling.solve_s": "scaling.sinkhorn_symmetric",
    "scaling.assemble_s": "scaling.assemble_W",
    "density.ds_kde_s": "density.ds_kde",
    "inference.distances_s": "inference.signal_magnitude_and_distances",
    "laplacian.robust_s": "laplacian.robust_markov",
    "laplacian.traditional_s": "laplacian.traditional_markov",
    "counts.ingest_s": "counts.ingest_counts",
    "counts.normalize_s": "counts.normalize_counts",
}
PEAK_LAYERS = ("scaling", "density", "inference", "laplacian")


def call_profile(spans):
    """Per-layer numbers of one traced call (root span ``bench.call``)."""
    own = tracing.self_times(spans)
    root = next(s for s in spans if s.parent is None)
    prof = {f"{layer}.self_s": 0.0 for layer in tracing.LAYERS}
    for s in spans:
        if s is not root:
            prof[f"{s.layer}.self_s"] += own[s.span_id]
    for metric, name in SPAN_TIMES.items():
        prof[metric] = sum(s.duration for s in spans if s.name == name)
    pairwise = [s for s in spans if s.name == "kernel.pairwise_sq_dists"]
    solves = [s for s in spans if s.name == "scaling.sinkhorn_symmetric"]
    prof["kernel.pairwise_calls"] = len(pairwise)
    prof["kernel.pairwise_gflop"] = sum(s.counts["gflop"] for s in pairwise)
    prof["scaling.solve_calls"] = len(solves)
    prof["scaling.iterations"] = sum(s.counts["iterations"] for s in solves)
    prof["nnz"] = sum(s.counts["nnz"] for s in spans if s.name == "counts.ingest_counts")
    prof["trace.pipeline_s"] = root.duration
    prof["trace.unspanned_s"] = own[root.span_id]
    return prof


def per_layer(session, args):
    wl = session.workload
    tracer = tracing.Tracer()
    session.prepare_ahead()
    session.call(0, session.input(0))  # warm-up

    def traced_prepare(k):
        return tracer.span("bench.setup", wl.prepare, k)

    def traced_call(inp):
        return tracer.span("bench.call", wl.call, inp)

    def under_spans(fn, *args):
        tracer.spans = []
        tracer.install()
        try:
            return fn(*args), tracer.spans
        finally:
            tracer.uninstall()

    dumps, setup_geometry = [], []

    def traced_input(k):
        # a workload that prepared ahead returns its input with no spans
        inp, spans = under_spans(session.input, k, traced_prepare)
        own = tracing.self_times(spans)
        setup_geometry.append(sum(own[s.span_id] for s in spans if s.layer == "geometry"))
        return inp

    def traced(k, inp, run):
        elapsed, spans = under_spans(session.call, k, inp, run)
        dumps.append({"dataset": k, "spans": [vars(s) for s in spans]})
        return elapsed, spans

    # memory pass on dataset 0: per-span heap peaks and the exact iteration count.
    # tracemalloc slows allocation-heavy code many times over (the Matrix Market
    # parser most), so the pass counts against --seconds.
    start = perf_counter()
    inp = traced_input(0)
    tracer.memory = True
    try:
        _, mem_spans = traced(0, inp, with_tracemalloc(traced_call))
    finally:
        tracer.memory = False

    def paired(k):
        # one input called untraced, then traced: the overhead is a paired difference
        inp = traced_input(k)
        plain = session.call(k, inp)
        elapsed, spans = traced(k, inp, traced_call)
        if plain is None or elapsed is None:
            return []
        return [(plain, call_profile(spans))]

    spent = perf_counter() - start
    pairs = repeat(paired, args.seconds - spent, TRACE_MIN_CALLS, wl.datasets,
                   TIME_CAP_FACTOR * args.seconds - spent)
    untraced = [plain for plain, _ in pairs]
    profiles = [profile for _, profile in pairs]

    mean = {key: statistics.fmean(p[key] for p in profiles) for key in profiles[0]}
    mem = call_profile(mem_spans)
    metrics = {key: (value, "s") for key, value in mean.items() if key.endswith("_s")}
    metrics["geometry.self_s"] = (statistics.fmean(setup_geometry), "s")
    metrics["trace.overhead_s"] = (mean["trace.pipeline_s"] - statistics.fmean(untraced), "s")
    metrics["kernel.pairwise_calls"] = (mean["kernel.pairwise_calls"], "count")
    metrics["kernel.pairwise_gflop"] = (mean["kernel.pairwise_gflop"], "GFLOP")
    metrics["scaling.solve_calls"] = (mean["scaling.solve_calls"], "count")
    metrics["scaling.iterations"] = (mem["scaling.iterations"], "count")
    metrics["scaling.iter_ms"] = (1e3 * mean["scaling.solve_s"] / mean["scaling.iterations"]
                                  if mean["scaling.iterations"] else 0.0, "ms")
    metrics["counts.ingest_mnnz_per_s"] = (mean["nnz"] / mean["counts.ingest_s"] / 1e6
                                           if mean["counts.ingest_s"] else 0.0, "Mnnz/s")
    for layer in PEAK_LAYERS:
        peak = max((s.peak_bytes for s in mem_spans if s.layer == layer), default=0)
        metrics[f"{layer}.peak_mb"] = (peak / 1e6, "MB")
    root_peak = next(s.peak_bytes for s in mem_spans if s.parent is None)
    metrics["nxn_peak"] = (root_peak / (8.0 * wl.n**2), "nxn")

    WORK.mkdir(exist_ok=True)
    dump = WORK / f"trace-{wl.name}-seed{args.seed}.json"
    dump.write_text(json.dumps(dumps))
    details = {"traced_calls": len(profiles), "untraced_calls": len(untraced),
               "iterations_dataset0": session.iterations.get(0), "spans": str(dump)}
    return metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--peak", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc, threads = pin_threads()
    if args.probe:
        probe(args.workload, args.seed, args.tiny, args.peak)
        return 0
    import_program()
    import numpy
    import scipy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if not args.trace:
        args.probes = measure_probes(args)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        session = Session(workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny))
        metrics, details = (per_layer if args.trace else end_to_end)(session, args)
    finally:
        shutil.rmtree(workdir)

    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "datasets": session.workload.datasets,
        "failed_frac": session.failed / session.attempted,
        "iterations": [session.iterations[k] for k in sorted(session.iterations)],
        "nproc": nproc, "blas_threads": threads, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    })
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:.6g} {unit}")
    print("info " + json.dumps(details))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
