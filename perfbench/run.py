#!/usr/bin/env python3
"""Prequential benchmark of streamtrees: one workload per run.

    python3 perfbench/run.py --workload vfdt-hyperplane --seed 3 --seconds 20 --trace 0

Each cell is closed-loop: a prequential step is ``next_instance``, then
``predict_label``, then ``train``, and the next step starts when the last one
has finished. A run of a single-cell workload is several cells one after
another, and a run of the grid several grids; the run reports the median
over them, or percentiles over all their windows. ``--seconds`` sizes the
cells from a nominal rate per workload, so one seed and one ``--seconds``
always give the same work and the same counts.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
work with spans around the calls into each module (``spans.py``) and reports
the per-layer metrics. Every run then runs a short cell (or grid) of the
pinned stream variant and compares its output digest with ``digests.json``.
A cell that raises, misses its recorded digest or ends with an implausible
error counts as failed.

The last line of standard output is the result as JSON; the same result,
with a header naming the code and machine, goes to a file in ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
OUT = ROOT / ".perfbench-results"
SETUP_PROBES = 9  # set-up probes after a grid run; a single-cell run probes before each cell
SPECPARSE_REPEATS = 100


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """Counts the operations (cells) of one benchmark run and their failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, label: str, fn, *args, ops: int = 1):
        """Run a call that covers ``ops`` cells and count them.

        ``fn`` returns ``(value, problems)``; each problem is one failed cell,
        up to ``ops``. An exception fails every cell the call covers and
        gives ``None``.
        """
        self.attempted += ops
        try:
            value, problems = fn(*args)
        except Exception:
            self.failed += ops
            self.notes.append(f"{label}: raised")
            traceback.print_exc()
            return None
        self.failed += min(ops, len(problems))
        for problem in problems:
            self.notes.append(f"{label}: {problem}")
            print(f"check failed: {label}: {problem}", file=sys.stderr)
        return value


# --------------------------------------------------------------------------
# cells and grids
# --------------------------------------------------------------------------

def tree_counts(learner) -> dict:
    """Leaves and buffered instances of a finished cell's mainline tree.

    The adaptive tree has no public count of the alternates it sprouted or
    of its mainline leaves, so both are read from its private fields.
    """
    from streamtrees import HoeffdingAdaptiveTreeClassifier, SplitNode

    if isinstance(learner, HoeffdingAdaptiveTreeClassifier):
        leaves = []
        stack = [learner._root]
        while stack:
            node = stack.pop().mainline
            if node.__class__ is SplitNode:
                stack.extend(node.children)
            else:
                leaves.append(node)
    else:
        leaves = learner.leaves()
    return {
        "leaves": len(leaves),
        "buffered": sum(len(leaf.buffer) for leaf in leaves if leaf.buffer is not None),
        "alternates": getattr(learner, "_n_sprouts", 0),
    }


def run_cell(workload, variant: int, n: int, tracer=None):
    """One prequential cell of n instances, timed per window.

    The cell runs as consecutive ``prequential_run`` calls of ``WINDOW``
    instances on one stream and learner, which is the same sequence of steps
    as one call, so each window's error count comes from the program's own
    loop. A window's time is the CPU time of this thread over the call: the
    program's own work, garbage collection included, without the time the
    thread waited for a CPU. The cell's wall time covers both.
    """
    from spans import wrap_cell
    from streamtrees import prequential_run
    from workloads import WINDOW

    stream, learner = workload.build(variant)
    run = prequential_run
    if tracer is not None:
        wrap_cell(tracer, stream, learner)
        run = tracer.wrap("evaluate.prequential_run", prequential_run)
    window_ms = []
    window_errors = []
    start = time.perf_counter()
    for _ in range(n // WINDOW):
        cpu = time.thread_time()
        result = run(learner, stream, WINDOW)
        window_ms.append((time.thread_time() - cpu) * 1e3)
        window_errors.append(round(result.final_error * WINDOW))
    wall = time.perf_counter() - start
    error = sum(window_errors) / n
    cell = {
        "variant": variant,
        "instances": n,
        "wall_s": wall,
        "window_ms": window_ms,
        "final_error": error,
        "window_errors_sha256": hashlib.sha256(json.dumps(window_errors).encode()).hexdigest(),
        "counts": tree_counts(learner),
    }
    problems = [f"final error {error:.5f} above {workload.max_error}"] if error > workload.max_error else []
    return cell, problems


def cell_digest(workload, variant: int, n: int) -> str:
    """sha256 of the predicted labels of one cell, then of its final error."""
    from streamtrees import prequential_run

    stream, learner = workload.build(variant)
    labels = bytearray()
    predict = learner.predict_label

    def recording_predict(instance):
        label = predict(instance)
        labels.append(label)
        return label

    learner.predict_label = recording_predict
    result = prequential_run(learner, stream, n)
    return hashlib.sha256(bytes(labels) + repr(result.final_error).encode()).hexdigest()


def read_results_csv(out_dir: Path) -> list[list[str]]:
    """Rows of results.csv: stream, learner, seed, instances, final_error, wall_seconds."""
    lines = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
    return [line.rsplit(",", 5) for line in lines]


def grid_digest(out_dir: Path) -> str:
    """sha256 of results.csv less its wall_seconds column, comparison.csv and the series."""
    h = hashlib.sha256()
    for line in (out_dir / "results.csv").read_text(encoding="utf-8").splitlines():
        h.update(line.rsplit(",", 1)[0].encode() + b"\n")
    h.update((out_dir / "comparison.csv").read_bytes())
    for path in sorted((out_dir / "series").rglob("*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_grid(workload, config, tracer=None):
    """``run_experiment`` on one reduced preset; checks every cell's outputs."""
    from streamtrees import experiments
    from workloads import WINDOW

    out_dir = Path(config.output_dir)
    run_experiment = experiments.run_experiment
    original_run_grid = experiments.run_grid
    if tracer is not None:
        # the pool's workers are forked inside run_grid and never call it
        experiments.run_grid = tracer.wrap("experiments.run_grid", original_run_grid)
        run_experiment = tracer.wrap("experiments.run_experiment", run_experiment)
    try:
        start = time.perf_counter()
        run_experiment(config)
        wall = time.perf_counter() - start
    finally:
        experiments.run_grid = original_run_grid
    rows = read_results_csv(out_dir)
    cells = len(config.learners) * config.seeds
    problems = [f"{len(rows)} rows in results.csv, expected {cells}"] * max(0, cells - len(rows))
    for _, learner, seed, instances, error, _ in rows:
        if int(instances) != config.n_instances or float(error) > workload.max_error:
            problems.append(f"{learner} seed {seed}: {instances} instances, error {error}")
    snapshots = config.n_instances // config.snapshot_every
    for lrn in config.learners:
        files = list((out_dir / "series").rglob(f"{lrn.name}.csv"))
        if len(files) != 1 or len(files[0].read_text().splitlines()) != snapshots + 1:
            problems.append(f"series for {lrn.name} missing or short")
    if not (out_dir / "comparison.csv").is_file():
        problems.append("comparison.csv missing")
    windows = config.n_instances / WINDOW
    grid = {
        "config": config,
        "instances": cells * config.n_instances,
        "wall_s": wall,
        "cell_s": [float(r[5]) for r in rows],
        "window_ms": [float(r[5]) / windows * 1e3 for r in rows],
        "rows": rows,
        "digest": grid_digest(out_dir),
    }
    return grid, problems


def replay_cell(tracer, config, lrn, row):
    """Run one grid cell (seed 0 of an arm) again in this process, traced."""
    from spans import wrap_cell
    from streamtrees import build_generator, parse_stream_spec, prequential_run

    stream = build_generator(parse_stream_spec(config.streams[0]).reseeded(0))
    learner = lrn.build(stream.schema, seed=0)
    wrap_cell(tracer, stream, learner)
    run = tracer.wrap("evaluate.prequential_run", prequential_run)
    start = time.perf_counter()
    result = run(learner, stream, config.n_instances, config.snapshot_every)
    replay = {"wall_s": time.perf_counter() - start, "counts": tree_counts(learner)}
    if f"{result.final_error:.5f}" != row[4]:
        return replay, [f"in-process error {result.final_error:.5f} != grid {row[4]}"]
    return replay, []


# --------------------------------------------------------------------------
# output checks against digests.json
# --------------------------------------------------------------------------

def pinned_digest(workload) -> str:
    from streamtrees import experiments
    from workloads import PINNED_VARIANT, CellWorkload

    if isinstance(workload, CellWorkload):
        return cell_digest(workload, PINNED_VARIANT, workload.check_instances)
    out_dir = OUT / "tmp" / f"check-{os.getpid()}"
    try:
        experiments.run_experiment(
            workload.config(PINNED_VARIANT, 2, workload.check_instances, str(out_dir)))
        return grid_digest(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_pinned(run: Run, workload) -> None:
    """Run the pinned-variant cell (or grid) and compare it with digests.json."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})

    def check():
        digest = pinned_digest(workload)
        expected = recorded.get("sha256")
        if recorded.get("instances") != workload.check_instances or digest != expected:
            return digest, [f"digest {digest[:12]} != recorded {str(expected)[:12]}"]
        return digest, []

    run.op("pinned-variant digest check", check)


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def setup_seconds(workload: str, variant: int, seconds: int) -> float:
    """Set-up time measured inside a fresh interpreter (``setup_probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(variant), str(seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def specparse_build_us(stream_text: str) -> float:
    from streamtrees import build_generator, parse_stream_spec

    start = time.perf_counter()
    for _ in range(SPECPARSE_REPEATS):
        build_generator(parse_stream_spec(stream_text).reseeded(0))
    return (time.perf_counter() - start) / SPECPARSE_REPEATS * 1e6


def sum_counts(counts: list[dict]) -> dict:
    return {key: sum(c[key] for c in counts) for key in ("leaves", "buffered", "alternates")}


def layer_metrics(tracer, overhead, cell_wall: float, instances: int, counts: dict,
                  specparse_us: float, grids: list | None = None) -> dict:
    """Per-layer metrics of traced cells that took ``cell_wall`` seconds in all.

    Self times and shares are net of the wrappers' own cost (``overhead``);
    shares are of the cells' time less that cost. Counts are sums over the
    run's cells; ``experiments.*`` are per grid.
    """
    t = tracer
    in_cells = sum(t.calls(name) for name in t.totals if not name.startswith("experiments."))
    wall = cell_wall - in_cells * sum(overhead)

    def us(name):
        n = t.calls(name)
        return t.corrected_self(name, overhead) / n * 1e6 if n else 0.0

    def share(name):
        return t.corrected_self(name, overhead) / wall if wall > 0 else 0.0

    evaluations = t.calls("tree.evaluate_split")
    adds = t.calls("detectors.add_element")
    fires = t.true_results("detectors.add_element")
    values = {
        "streams.next_instance.us": (us("streams.next_instance"), "us"),
        "streams.next_instance.share": (share("streams.next_instance"), "fraction"),
        "specparse.build.us": (specparse_us, "us"),
        "tree.observe.us": (us("tree.observe"), "us"),
        "tree.observe.calls": (t.calls("tree.observe"), "count"),
        "tree.observe.share": (share("tree.observe"), "fraction"),
        "tree.evaluate_split.us": (us("tree.evaluate_split"), "us"),
        "tree.evaluate_split.calls": (evaluations, "count"),
        "tree.split_yield": (t.calls("tree.perform_split") / evaluations if evaluations else 0.0,
                             "fraction"),
        "tree.perform_split.us": (us("tree.perform_split"), "us"),
        "tree.perform_split.calls": (t.calls("tree.perform_split"), "count"),
        "tree.buffered_instances": (counts["buffered"], "count"),
        "tree.train.us": (us("tree.train"), "us"),
        "tree.predict_label.us": (us("tree.predict_label"), "us"),
        "tree.leaves": (counts["leaves"], "count"),
        "detectors.add_element.us": (us("detectors.add_element"), "us"),
        "detectors.add_element.calls": (adds, "count"),
        "detectors.add_element.share": (share("detectors.add_element"), "fraction"),
        "detectors.fires": (fires, "count"),
        "detectors.fire_share": (fires / adds if adds else 0.0, "fraction"),
        "hat.train.us": (us("hat.train"), "us"),
        "hat.predict_label.us": (us("hat.predict_label"), "us"),
        "hat.train.share": (share("hat.train"), "fraction"),
        "hat.predict_label.share": (share("hat.predict_label"), "fraction"),
        "hat.alternates": (counts["alternates"], "count"),
        "hat.detectors_created": (t.calls("detectors.created"), "count"),
        "evaluate.loop_self.share": (share("evaluate.prequential_run"), "fraction"),
        "experiments.run_grid.s": (0.0, "s"),
        "experiments.cell_s_sum": (0.0, "s"),
        "experiments.parallel_efficiency": (0.0, "fraction"),
        "experiments.write.s": (0.0, "s"),
        "trace.throughput_inst_s": (instances / cell_wall, "inst/s"),
        "trace.span_overhead_us": (sum(overhead) * 1e6, "us"),
    }
    if grids:
        run_grid_s = t.inclusive("experiments.run_grid")
        cell_s = sum(sum(g["cell_s"]) for g in grids)
        jobs = grids[0]["config"].parallelism
        values["experiments.run_grid.s"] = (run_grid_s / len(grids), "s")
        values["experiments.cell_s_sum"] = (cell_s / len(grids), "s")
        values["experiments.parallel_efficiency"] = (cell_s / (jobs * run_grid_s), "fraction")
        values["experiments.write.s"] = (
            (t.inclusive("experiments.run_experiment") - run_grid_s) / len(grids), "s")
    return values


# --------------------------------------------------------------------------
# the two kinds of workload
# --------------------------------------------------------------------------

def measure_cells(args, workload, run: Run):
    """The run's cells one after another, each after a set-up probe."""
    from spans import Tracer, layer_targets, measure_overhead, median_overhead, patched

    n = workload.cell_instances(args.seconds)
    tracer = Tracer() if args.trace else None
    cells, setup, overheads = [], [], []
    for variant in workload.variants(args.seed):
        if tracer is None:
            setup.append(setup_seconds(args.workload, variant, args.seconds))
            cell = run.op(f"cell variant {variant}", run_cell, workload, variant, n)
        else:
            with patched(tracer, layer_targets()):
                cell = run.op(f"cell variant {variant}", run_cell, workload, variant, n, tracer)
            overheads.append(measure_overhead())
        if cell is not None:
            cells.append(cell)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_pinned(run, workload)
    if not cells:
        return None, {}, tracer
    details = {"cells": [{k: v for k, v in c.items() if k != "window_ms"} for c in cells],
               "windows_per_cell": len(cells[0]["window_ms"])}
    if tracer is not None:
        metrics = layer_metrics(tracer, median_overhead(overheads), sum(c["wall_s"] for c in cells),
                                n * len(cells), sum_counts([c["counts"] for c in cells]),
                                specparse_build_us(workload.stream))
        return metrics, details, tracer
    windows = [ms for c in cells for ms in c["window_ms"]]
    metrics = {
        "throughput_inst_s": (statistics.median(n / c["wall_s"] for c in cells), "inst/s"),
        "window_ms_p50": (statistics.median(windows), "ms"),
        "window_ms_p95": (percentile(windows, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, details, None


def measure_grids(args, workload, run: Run):
    """The run's grids one after another; traced, then one cell per arm replayed."""
    from spans import Tracer, layer_targets, measure_overhead, median_overhead, patched

    seeds = workload.seeds(args.seconds)
    tracer = Tracer() if args.trace else None
    grids = []
    for variant in workload.variants(args.seed, seeds):
        out_dir = OUT / "tmp" / f"grid-{os.getpid()}-{variant}"
        try:
            config = workload.config(variant, seeds, workload.cell_instances, str(out_dir))
            grid = run.op(f"grid variant {variant}", run_grid, workload, config, tracer,
                          ops=seeds * len(config.learners))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if grid is not None:
            grids.append(grid)
    # the workers are the only children so far; set-up probes come after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if not grids:
        check_pinned(run, workload)
        return None, {}, tracer
    details = {"grids": [{"digest": g["digest"], "rows": g["rows"]} for g in grids]}
    if tracer is None:
        check_pinned(run, workload)
        first = workload.variants(args.seed, seeds)[0]
        setup = [setup_seconds(args.workload, first, args.seconds) for _ in range(SETUP_PROBES)]
        metrics = {
            "throughput_inst_s": (statistics.median(g["instances"] / g["wall_s"] for g in grids),
                                  "inst/s"),
            "window_ms_p50": (statistics.median(statistics.median(g["window_ms"]) for g in grids),
                              "ms"),
            "window_ms_p95": (statistics.median(percentile(g["window_ms"], 95) for g in grids),
                              "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        return metrics, details, None

    # the wrappers cannot reach into the pool's workers: replay the first
    # cell of each arm of the first grid in this process instead
    config = grids[0]["config"]
    replays, overheads = [], []
    for lrn in config.learners:
        row = next(r for r in grids[0]["rows"] if r[1] == lrn.name and r[2] == "0")
        with patched(tracer, layer_targets()):
            replay = run.op(f"in-process replay of {lrn.name}", replay_cell, tracer, config, lrn, row)
        overheads.append(measure_overhead())
        if replay is not None:
            replays.append(replay)
    check_pinned(run, workload)
    details["replay_counts"] = [r["counts"] for r in replays]
    metrics = layer_metrics(tracer, median_overhead(overheads), sum(r["wall_s"] for r in replays),
                            len(replays) * config.n_instances,
                            sum_counts([r["counts"] for r in replays]),
                            specparse_build_us(config.streams[0]), grids)
    return metrics, details, tracer


# --------------------------------------------------------------------------
# header, output, main
# --------------------------------------------------------------------------

def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_header(args, workloads) -> dict:
    import numpy

    instances = {}
    for name, w in workloads.WORKLOADS.items():
        if isinstance(w, workloads.CellWorkload):
            instances[name] = f"{workloads.CELLS} cells x {w.cell_instances(args.seconds)}"
        else:
            instances[name] = (f"{workloads.GRIDS} grids x 2 arms x {w.seeds(args.seconds)} seeds"
                               f" x {w.cell_instances}")
        instances[f"{name} digest check"] = w.check_instances
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": instances,
        "window": workloads.WINDOW,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "timers": "time.perf_counter, time.thread_time, resource.getrusage",
    }


def emit(args, run: Run, metrics: dict, header: dict, details: dict, tracer=None) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}.trace{args.trace}.seed{args.seed}."
            f"{time.strftime('%Y%m%dT%H%M%S')}.{os.getpid()}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, **result, "failures": run.notes, "details": details}, fh,
                  indent=1)
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.json")
    print(" ".join(f"{k}={v}" for k, v in header.items() if k != "instances"))
    print("instances: " + ", ".join(f"{k}: {v}" for k, v in header["instances"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"ops_attempted {run.attempted} count, ops_failed {run.failed} count")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(OUT), help="directory for result files")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    header = run_header(args, workloads)

    run = Run()
    measure = measure_cells if isinstance(workload, workloads.CellWorkload) else measure_grids
    metrics, details, tracer = measure(args, workload, run)
    if metrics is None:
        print("error: every measured cell failed; no metrics", file=sys.stderr)
        return 1
    emit(args, run, metrics, header, details, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
