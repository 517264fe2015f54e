"""kflow benchmark: one workload per invocation, one JSON result as the last line.

    python3 perfbench/run.py --workload torus-flow --seed 1 --seconds 30 --trace 0

The inputs come from --seed.  The whole workload is set up, solved, checked
and written again and again for --seconds; time_to_solution_s and setup_s
are medians, scaled to a reference machine speed measured by a calibration
kernel timed around each solution.  --trace 0 reports the end-to-end
metrics.  --trace 1 alternates traced and untraced solutions and reports the
per-layer metrics plus the tracing overhead.  Metric definitions and the
layer -> end-to-end -> workload map: perfbench/README.md.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the sphere_axisym
# derivatives are a dense matvec, which OpenBLAS would otherwise spread over
# every core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUPS_PER_SOLUTION = 5
MIN_SOLVES = 3
# Calibration samples taken before and after each solution.
CALIBRATIONS = 4

END_TO_END = (
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mean_residual_over_gate", "ratio"),
)

# Per-layer metrics read straight off the spans of one traced solution:
# (metric, unit, phase, span name, statistic).
SPAN_METRICS = (
    ("background.table_searches", "count", "solve", "background.hermite_eval", "count"),
    ("background.lookup_self_s", "s", "solve", "background.hermite_eval", "self"),
    ("background.warp_build_s", "s", "setup", "background.build_warp_table", "total"),
    ("background.r_from_rho_s", "s", "setup", "background.r_from_rho", "total"),
    ("basegrid.differentiate_calls", "count", "solve", "basegrid.differentiate", "count"),
    ("basegrid.differentiate_self_s", "s", "solve", "basegrid.differentiate", "self"),
    ("surface.geometry_evals", "count", "solve", "surface.compute_geometry", "count"),
    ("surface.geometry_self_s", "s", "solve", "surface.compute_geometry", "self"),
    ("flow.loop_self_s", "s", "solve", "flow.run_flow", "self"),
    ("flow.monitor_s", "s", "solve", "flow.monotonicity_report", "total"),
    ("flow.artifact_write_s", "s", "solve", "flow.artifact_write", "total"),
    ("plots.emit_s", "s", "solve", "plots.emit_plots", "total"),
    ("mass.limit_s", "s", "solve", "mass.mass_limit", "total"),
    ("mass.identity_self_s", "s", "solve", "mass.mass_identity_check", "self"),
    ("mass.shape_operator_calls", "count", "solve", "mass.radial_shape_operator", "count"),
    ("mass.shape_operator_self_s", "s", "solve", "mass.radial_shape_operator", "self"),
    ("mass.s2_probe_s", "s", "solve", "mass.s2_probe", "total"),
)
GEOMETRY = "surface.compute_geometry"
LOOKUP = "background.hermite_eval"

# Derived per-layer metrics: (metric, unit, span names they need).
DERIVED_METRICS = (
    ("surface.geometry_ms_p50", "ms", (GEOMETRY,)),
    ("surface.geometry_ms_p90", "ms", (GEOMETRY,)),
    ("surface.node_evals_per_s", "1/s", (GEOMETRY,)),
    ("flow.steps_accepted", "count", ()),
    ("flow.steps_rejected", "count", ()),
    ("flow.useful_step_ratio", "ratio", ()),
    ("flow.dt_bound_share.cfl", "ratio", ()),
    ("flow.dt_bound_share.dt_max", "ratio", ()),
    ("flow.dt_bound_share.record", "ratio", ()),
    ("trace.overhead_share", "ratio", ()),
    ("trace.unattributed_share", "ratio", ()),
)

# The measured baseline of torus-flow at the commit that added this
# benchmark; a mismatch is reported, not failed, since optimisations may
# legitimately change these counts.
TORUS_BASELINE = {
    "steps_accepted": 2000,
    "steps_rejected": 0,
    "dt_max_share": 1.0,
    "geometry_in_run_flow": 4001,
    "geometry_in_surface_generation": 1,
    "searches_per_geometry": 4.0,
}


class BenchError(Exception):
    pass


def import_kflow():
    """Import kflow from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kflow", "__init__.py")):
        raise BenchError(f"kflow sources not found under {src}")
    sys.path.insert(0, src)
    import kflow

    if os.path.dirname(os.path.dirname(os.path.abspath(kflow.__file__))) != src:
        raise BenchError(f"imported kflow from {kflow.__file__}, not from {src}")
    return kflow


def environment(kflow, loadavg):
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kflow": kflow.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _describe(exc):
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


class Runner:
    """Sets up and solves one workload's operations."""

    def __init__(self, workloads, specs, out_root):
        self.W = workloads
        self.specs = specs
        self.out_root = out_root

    def setup_all(self, tracer, first_op):
        prepared = []
        for k, spec in enumerate(self.specs):
            tracer.op_id = first_op + k
            try:
                with tracer.span("bench.setup"):
                    prepared.append((spec, self.W.setup(spec), None))
            except Exception as exc:  # a failed operation is counted, never fatal
                prepared.append((spec, None, f"setup: {_describe(exc)}"))
        return prepared

    def solve_all(self, prepared, tracer, first_op):
        results = []
        for k, (spec, inputs, error) in enumerate(prepared):
            tracer.op_id = first_op + k
            if error is not None:
                results.append(self.W.OpResult(spec.name, error=error))
                continue
            try:
                with tracer.span("bench.solve"):
                    results.append(self.W.solve(spec, inputs, self.out_root, tracer))
            except Exception as exc:  # a failed operation is counted, never fatal
                results.append(self.W.OpResult(spec.name, error=_describe(exc)))
        return results


def calibration_s(size, scalar_ops, steps):
    """Wall time of a fixed computation that does not touch kflow.

    Each step is numpy arithmetic on an array of ``size`` elements followed
    by ``scalar_ops`` scalar float operations.  A shared 2-vCPU VM can run
    up to ~40% slower for minutes at a time; timing this kernel around each
    solution measures that slowdown so it can be divided out (see
    workloads.CALIBRATION).
    """
    x = np.linspace(1.0, 2.0, size)
    acc = 0.0
    t0 = perf_counter()
    for k in range(steps):
        acc += float(np.sum(np.sqrt(x * x + k) / (x + 1.0)))
        for j in range(scalar_ops):
            acc += math.sqrt(j + k) / (1.0 + j)
    return perf_counter() - t0


def measure(runner, seconds, tracer, null, calibration_kernel):
    """Repeat the whole solution until --seconds is used up.

    Each untraced solution (U) is preceded by SETUPS_PER_SOLUTION timed
    set-ups and solves the inputs of the last one, so set-up samples are
    spread over the run like the solutions and no solution reuses another's
    objects.  Untraced runs solve at least MIN_SOLVES times.  Traced runs
    alternate traced solutions (T: set-up and solve under the tracer) with
    untraced ones, at least T, U, T, so that the overhead and the count
    self-check both have data.  Every solution is bracketed by CALIBRATIONS
    calibration timings before and after it; its speed is the reference
    calibration time over their median.
    """
    *kernel, reference_s = calibration_kernel
    runner.setup_all(null, -1)  # imports and caches fill outside the timing
    plan = ["T", "U", "T"] if tracer is not None else ["U"] * MIN_SOLVES
    reps = []
    start = perf_counter()
    while True:
        i = len(reps)
        if i < len(plan):
            kind = plan[i]
        else:
            kind = "T" if tracer is not None and i % 2 == 0 else "U"
            last = [r for r in reps if r["kind"] == kind][-1]["wall_s"]
            if perf_counter() - start + last > seconds:
                break
        t0 = perf_counter()
        calibration = [calibration_s(*kernel) for _ in range(CALIBRATIONS)]
        setup_times = []
        if kind == "T":
            n_traced = sum(r["kind"] == "T" for r in reps)
            first_op = n_traced * len(runner.specs)
            tracer.install()
            try:
                inputs = runner.setup_all(tracer, first_op)
                t1 = perf_counter()
                results = runner.solve_all(inputs, tracer, first_op)
            finally:
                tracer.uninstall()
        else:
            for _ in range(SETUPS_PER_SOLUTION):
                t1 = perf_counter()
                inputs = runner.setup_all(null, -1)
                setup_times.append(perf_counter() - t1)
            t1 = perf_counter()
            results = runner.solve_all(inputs, null, -1)
        t2 = perf_counter()
        calibration += [calibration_s(*kernel) for _ in range(CALIBRATIONS)]
        reps.append({
            "kind": kind,
            "solve_s": t2 - t1,
            "setup_s": setup_times,
            "speed": reference_s / statistics.median(calibration),
            "wall_s": perf_counter() - t0,
            "results": results,
        })
    return reps


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def flow_counts(results):
    """Step counts of one solution, summed over its flows."""
    total = Counter()
    for res in results:
        total.update({k: v for k, v in res.counts.items() if k != "nodes"})
    return total


def layer_metrics(tracer, reps, n_ops):
    """Per-layer metrics of the traced solutions plus the count self-check."""
    traced = [r for r in reps if r["kind"] == "T"]
    untraced = [r for r in reps if r["kind"] == "U"]
    nodes = [res.counts.get("nodes", 0) for res in traced[0]["results"]]
    dur, self_t, root = tracer.self_times()
    span_name = [tracer.names[i] for i in tracer.name]
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    node_work = defaultdict(float)
    geometry_ms = []
    parents = Counter()
    for i in range(len(dur)):
        rep, op = divmod(tracer.op[i], n_ops)
        phase = "setup" if span_name[root[i]] == "bench.setup" else "solve"
        name = span_name[i]
        entry = stats[(rep, phase, name)]
        entry[0] += 1
        entry[1] += dur[i]
        entry[2] += self_t[i]
        if name == GEOMETRY and phase == "solve":
            geometry_ms.append(1e3 * dur[i])
            node_work[rep] += nodes[op]
        if rep == 0 and name in (GEOMETRY, LOOKUP):
            p = tracer.parent[i]
            parents[(name, span_name[p] if p >= 0 else None)] += 1

    absent = set(tracer.absent)
    per_rep = []
    for rep, run in enumerate(traced):
        values = {}
        for metric, _, phase, span, stat in SPAN_METRICS:
            entry = stats.get((rep, phase, span), (0, 0.0, 0.0))
            values[metric] = entry[{"count": 0, "total": 1, "self": 2}[stat]]
        geo_s = stats.get((rep, "solve", GEOMETRY), (0, 0.0, 0.0))[1]
        values["surface.node_evals_per_s"] = node_work[rep] / geo_s if geo_s else 0.0
        roots = stats.get((rep, "solve", "bench.solve"), (0, 0.0, 0.0))
        values["trace.unattributed_share"] = roots[2] / roots[1] if roots[1] else 0.0
        steps = flow_counts(run["results"])
        accepted, rejected = steps["steps_accepted"], steps["steps_rejected"]
        values["flow.steps_accepted"] = accepted
        values["flow.steps_rejected"] = rejected
        values["flow.useful_step_ratio"] = accepted / (accepted + rejected) if accepted else 0.0
        for bound in ("cfl", "dt_max", "record"):
            share = steps[f"dt_bound.{bound}"] / accepted if accepted else 0.0
            values[f"flow.dt_bound_share.{bound}"] = share
        per_rep.append(values)

    metrics = {}
    units = {m[0]: m[1] for m in SPAN_METRICS}
    units.update({m[0]: m[1] for m in DERIVED_METRICS})
    needs = {m[0]: (m[3],) for m in SPAN_METRICS}
    needs.update({m[0]: m[2] for m in DERIVED_METRICS})
    count_metrics = [m for m, unit in units.items() if unit == "count"]
    for metric in units:
        if metric in ("surface.geometry_ms_p50", "surface.geometry_ms_p90", "trace.overhead_share"):
            continue
        values = [v[metric] for v in per_rep]
        # counts are checked identical across traced solutions below
        metrics[metric] = values[0] if units[metric] == "count" else _median(values)
    metrics["surface.geometry_ms_p50"] = _percentile(geometry_ms, 0.5)
    metrics["surface.geometry_ms_p90"] = _percentile(geometry_ms, 0.9)
    t_traced = _median([r["solve_s"] * r["speed"] for r in traced])
    t_plain = _median([r["solve_s"] * r["speed"] for r in untraced])
    metrics["trace.overhead_share"] = t_traced / t_plain - 1.0
    out = {}
    for metric, unit in units.items():
        missing = absent.intersection(needs[metric])
        out[metric] = {"value": None if missing else metrics[metric], "unit": unit}

    count_sets = {tuple(v[m] for m in count_metrics) for v in per_rep}
    geo_total = sum(c for (name, _), c in parents.items() if name == GEOMETRY)
    self_check = {
        "counts_identical_across_traced_solutions": len(count_sets) == 1,
        "traced_solutions": len(traced),
        "counts": {m: per_rep[0][m] for m in count_metrics},
        "geometry_in_run_flow": parents[(GEOMETRY, "flow.run_flow")],
        "geometry_in_surface_generation": parents[(GEOMETRY, "surface.random_star_shaped")],
        "searches_per_geometry": (
            parents[(LOOKUP, GEOMETRY)] / geo_total if geo_total else 0.0
        ),
        "traced_time_to_solution_s": t_traced,
        "untraced_time_to_solution_s": t_plain,
    }
    return out, self_check


def torus_baseline(self_check, layer):
    seen = {
        "steps_accepted": layer["flow.steps_accepted"]["value"],
        "steps_rejected": layer["flow.steps_rejected"]["value"],
        "dt_max_share": layer["flow.dt_bound_share.dt_max"]["value"],
        "geometry_in_run_flow": self_check["geometry_in_run_flow"],
        "geometry_in_surface_generation": self_check["geometry_in_surface_generation"],
        "searches_per_geometry": self_check["searches_per_geometry"],
    }
    return {k: {"expected": v, "seen": seen[k], "match": seen[k] == v}
            for k, v in TORUS_BASELINE.items()}


def accuracy_summary(results, flows):
    """The accuracy figures: maxima over the operations."""
    figs = [r.figures for r in results if r.figures]
    names = ("area_law_residual", "q1_jump_over_tol") if flows else (
        "mass_identity_residual", "mass_error")
    return {name: max(f[name] for f in figs) if figs else None for name in names}


def main(argv=None):
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        kflow = import_kflow()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as W
    from tracer import NullTracer, Tracer

    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(W.WORKLOADS)}")

    env = environment(kflow, loadavg)
    specs = W.make_specs(args.workload, args.seed)
    is_flow = isinstance(specs[0], W.FlowSpec)
    runner = Runner(W, specs, os.path.join(OUT, "artifacts", args.workload))
    tracer = Tracer() if args.trace else None
    reps = measure(runner, args.seconds, tracer, NullTracer(), W.CALIBRATION[args.workload])

    first = reps[0]["results"]
    signature = [(r.name, r.ok, r.digests) for r in first]
    deterministic = all([(r.name, r.ok, r.digests) for r in rep["results"]] == signature
                        for rep in reps)
    attempted = sum(len(rep["results"]) for rep in reps)
    failed = sum(not r.ok for rep in reps for r in rep["results"])
    headline = [r.figures["headline_over_gate"] for r in first if r.figures]
    plain = [r for r in reps if r["kind"] == "U"]
    solves = [r["solve_s"] for r in plain]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "operations_per_solution": len(specs),
        "solutions": [{k: r[k] for k in ("kind", "solve_s", "setup_s", "speed")} for r in reps],
        "wall_time_to_solution_s": _median(solves),
        "wall_setup_s": _median([x for r in plain for x in r["setup_s"]]),
        "deterministic_across_solutions": deterministic,
        "accuracy": accuracy_summary(first, is_flow),
        "operations": [r.as_dict() for r in first],
    }
    correct = failed == 0 and deterministic
    if args.trace:
        metrics, self_check = layer_metrics(tracer, reps, len(specs))
        correct = correct and self_check["counts_identical_across_traced_solutions"]
        if args.workload == "torus-flow":
            self_check["torus_baseline"] = torus_baseline(self_check, metrics)
        report["self_check"] = self_check
        report["absent_bindings"] = list(tracer.absent)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}"))
    else:
        values = {
            "time_to_solution_s": _median([r["solve_s"] * r["speed"] for r in plain]),
            "setup_s": _median([x * r["speed"] for r in plain for x in r["setup_s"]]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mean_residual_over_gate": statistics.fmean(headline) if headline else None,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report["metrics"] = metrics
    report["digest"] = hashlib.sha256(json.dumps(signature).encode()).hexdigest()

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print_summary(report, attempted, failed, solves)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(report, attempted, failed, solves):
    env = report["environment"]
    print(f"env: nproc={env['nproc']} usable={env['cpus_usable']} "
          f"loadavg={env['loadavg_start']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} kflow={env['kflow']} blas_threads=1")
    kinds = Counter(r["kind"] for r in report["solutions"])
    print(f"workload {report['workload']} seed={report['seed']} "
          f"operations/solution={report['operations_per_solution']} "
          f"solutions: {kinds.get('U', 0)} untraced, {kinds.get('T', 0)} traced")
    rows = [(name, m["value"], m["unit"]) for name, m in report["metrics"].items()]
    rows.append(("ops_failed_share", failed / attempted, "ratio"))
    acc = report["accuracy"]
    for name, unit in (("area_law_residual", "1"), ("q1_jump_over_tol", "ratio"),
                       ("mass_identity_residual", "ratio"), ("mass_error", "1")):
        rows.append((name, acc.get(name, "n/a"), unit))
    for name, value, unit in rows:
        shown = "absent" if value is None else (
            value if isinstance(value, str) else f"{value:.6g}")
        print(f"  {name:34s} {shown:>14s} {unit}")
    if solves:
        speeds = [r["speed"] for r in report["solutions"] if r["kind"] == "U"]
        print(f"  wall clock: median solution {report['wall_time_to_solution_s']:.4g} s, "
              f"median set-up {report['wall_setup_s']:.4g} s; machine speed against "
              f"the reference: {min(speeds):.3f}..{max(speeds):.3f}")
        print("  solution wall times (s): " + " ".join(f"{s:.3f}" for s in solves))
    for op in report["operations"]:
        if not op["ok"]:
            bad = [g for g, ok in op["gates"].items() if not ok]
            print(f"  FAILED {op['name']}: {op['error'] or 'gates ' + ', '.join(bad)}")
    if "self_check" in report:
        sc = report["self_check"]
        print(f"  count self-check: identical across {sc['traced_solutions']} traced "
              f"solutions: {sc['counts_identical_across_traced_solutions']}")
        layer = report["metrics"]
        print(f"  traced solve {sc['traced_time_to_solution_s']:.4g} s against untraced "
              f"{sc['untraced_time_to_solution_s']:.4g} s; layer spans cover "
              f"{1.0 - layer['trace.unattributed_share']['value']:.4%} of the traced solve")
        for key, row in sc.get("torus_baseline", {}).items():
            print(f"  baseline {key}: expected {row['expected']}, seen {row['seen']}"
                  f" ({'match' if row['match'] else 'DIFFERS'})")
        if report["absent_bindings"]:
            print("  absent bindings: " + ", ".join(report["absent_bindings"]))
    print(f"  deterministic across solutions: {report['deterministic_across_solutions']}")
    print(f"  output digest: {report['digest']}")


if __name__ == "__main__":
    sys.exit(main())
