"""subeigen benchmark: time to a checked eigenpair, end to end and per layer.

    python3 perfbench/run.py --workload h1-outer --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28

Run from the repository root.  The program is imported from ``src/`` next to
this directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics (set-up time, solve time, peak memory, share of solves
that succeed); ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it, all starting with ``#``, repeat every figure by
name with its unit and sample count, and record the run environment.
``--workload all`` runs every workload in a fresh process of its own and
prints their tables.  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("h1-outer", "e2-inner", "h1-nonlinear", "cli-sweep")

SETUP_ROUNDS = 201         # cold assemblies of the workload's grids per run ...
SETUP_MAX_SECONDS = 1.0    # ... unless they take longer than this
MIN_PASSES = 3             # so that every job time is a true median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, and one sweep thread per core.  Must run before
    numpy is imported: OpenBLAS reads its thread count when it loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["SUBEIGEN_THREADS"] = str(len(os.sched_getaffinity(0)))


def import_program():
    src = ROOT / "src"
    if not (src / "subeigen" / "__init__.py").is_file():
        sys.exit(f"perfbench: no subeigen package under {src}")
    sys.path.insert(0, str(src))
    import subeigen
    if Path(subeigen.__file__).resolve().parent != (src / "subeigen").resolve():
        sys.exit(f"perfbench: imported subeigen from {subeigen.__file__}, not from {src}")
    return subeigen


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment() -> dict:
    import numpy
    import scipy
    def blas(config):
        info = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "cores": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "subeigen_threads": os.environ["SUBEIGEN_THREADS"],
    }


# -- one pass over a workload ---------------------------------------------------

def run_job(job, index: int, grids: dict, seed: int, out_dir: Path, tracer=None, draw=0):
    """Run one job.  Returns (seconds, outcomes, extras).

    A start field belongs to one grid and inverse_iteration follows the
    start's grid, so the start is made afresh for the grid used here.
    """
    from workloads import CliJob, fresh_dir

    if isinstance(job, CliJob):
        out = fresh_dir(out_dir / f"job{index}")
        if tracer is not None:
            tracer.solve = index
            span = tracer.open("cli.main")
            span.attrs["sweep"] = job.is_sweep
            tracer.root = span.id
        t0 = time.perf_counter()
        try:
            code = job.call(out)
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.root = None
        extras = {"rel_gap": job.rel_gap(out),
                  "artifact_bytes": sum(f.stat().st_size for f in out.iterdir()),
                  "artifacts": {f.name: f.read_bytes() for f in out.iterdir()}}
        return seconds, job.outcomes(code, out), extras

    key = job.grids[0]
    if tracer is not None:
        tracer.solve = index
        with tracer.span("mesh.assembly"):
            grid = build_grids(job.grids)[key]
        tracer.count_products(grid)
        start = job.start(grid, seed, index, draw)
        with tracer.span("eigensolver.inverse_iteration") as span:
            t0 = time.perf_counter()
            result, outcome = job.solve(grid, start)
            seconds = time.perf_counter() - t0
        span.attrs["result"] = result
    else:
        start = job.start(grids[key], seed, index, draw)
        t0 = time.perf_counter()
        result, outcome = job.solve(grids[key], start)
        seconds = time.perf_counter() - t0
    return seconds, [outcome], {}


def build_grids(specs) -> dict:
    from workloads import build_grid
    return {spec: build_grid(*spec) for spec in specs}


# -- the two kinds of run ---------------------------------------------------------

def measure(jobs, seed: int, seconds: float, out_dir: Path):
    """End-to-end metrics.  Returns (metrics, table rows, outcomes)."""
    specs = sorted({spec for job in jobs for spec in job.grids})
    setup_times = []
    t_setup = time.perf_counter()
    while len(setup_times) < SETUP_ROUNDS and (
            len(setup_times) < 5 or time.perf_counter() - t_setup < SETUP_MAX_SECONDS):
        t0 = time.perf_counter()
        grids = build_grids(specs)
        setup_times.append(time.perf_counter() - t0)

    job_times = [[] for _ in jobs]
    outcomes = []
    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, job in enumerate(jobs):
            sec, outs, _ = run_job(job, i, grids, seed, out_dir, draw=passes)
            job_times[i].append(sec)
            outcomes.extend(outs)
        passes += 1
        elapsed = time.perf_counter() - t_start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(outcomes)
    unsolved = sum(not o.solved for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (sum(statistics.median(t) for t in job_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "solved_frac": ((attempted - unsolved) / attempted, "ratio"),
    }
    rows = [
        ("setup_s", *metrics["setup_s"], f"median of {len(setup_times)} cold assemblies"),
        ("solve_s", *metrics["solve_s"],
         f"sum over {len(jobs)} jobs of the median of {passes} passes"),
        ("peak_rss_mb", *metrics["peak_rss_mb"], "1 process"),
        ("fail_frac", unsolved / attempted, "ratio",
         f"{unsolved} of {attempted} solves failed ({passes} passes)"),
        ("solved_frac", *metrics["solved_frac"], f"{attempted} solves"),
    ]
    for i, job in enumerate(jobs):
        rows.append((f"solve_s[{job.label}]", statistics.median(job_times[i]), "s",
                     f"median of {passes}, min {min(job_times[i]):.4f}, "
                     f"max {max(job_times[i]):.4f}"))
    return metrics, rows, outcomes


def trace(jobs, seed: int, out_dir: Path, header: dict):
    """Per-layer metrics from one traced pass, checked against one untraced pass."""
    import tracing

    def one_pass(tracer):
        outcomes, extras, t0 = [], [], time.perf_counter()
        for i, job in enumerate(jobs):
            # the traced pass assembles its grids inside a span of its own
            fresh = build_grids(job.grids) if tracer is None else None
            _, outs, extra = run_job(job, i, fresh, seed, out_dir, tracer)
            outcomes.extend(outs)
            extras.append(extra)
        return time.perf_counter() - t0, outcomes, extras

    plain_wall, plain, plain_extras = one_pass(None)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_wall, traced, traced_extras = one_pass(tracer)

    problems = []
    for a, b in zip(plain, traced):
        if (a.lam is None) != (b.lam is None) or (
                a.lam is not None and a.lam.hex() != b.lam.hex()):
            problems.append(f"{b.label}: traced lambda {b.lam!r} != untraced {a.lam!r}")
    for a, b in zip(plain_extras, traced_extras):
        for name in a.get("artifacts", {}):
            if comparable(name, a["artifacts"][name]) != comparable(name, b["artifacts"].get(name)):
                problems.append(f"traced {name} differs from untraced")
    program = tracing.program_counts(tracer)
    seen = tracing.traced_counts(tracer)
    if program != seen:
        problems.append(f"(inner iterations, outer steps): program {program}, traced {seen}")

    gaps = [e["rel_gap"] for e in traced_extras if e.get("rel_gap") is not None]
    rel_errs = [o.rel_err for o in traced if o.lam is not None]
    layers = tracing.layer_metrics(
        tracer,
        lambda_rel_err=max(rel_errs) if rel_errs else 0.0,
        rayleigh_rel_gap=max(gaps) if gaps else 0.0,
        artifact_bytes=sum(e.get("artifact_bytes", 0) for e in traced_extras),
    )
    layers["tracing.overhead_s"] = traced_wall - plain_wall
    tracer.dump(out_dir / f"spans-seed{seed}.json",
                {**header, "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                 "program_counts": program, "traced_counts": seen, "problems": problems})
    return layers, traced, problems


def comparable(name: str, data: bytes | None):
    """Artifact content that must not change under tracing: everything but
    the timing field the CLI excludes from its own byte-identity contract."""
    if name != "summary.json" or data is None:
        return data
    summary = json.loads(data)
    summary.pop("runtime_seconds", None)
    return summary


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# -- entry points -----------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in a fresh process of its own; prints their tables."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            worst = max(worst, proc.returncode)
        elif lines:
            result = json.loads(lines[-1])
            print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import_program()
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload]
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"# perfbench {json.dumps(header)}")

    if args.trace:
        layers, outcomes, problems = trace(jobs, args.seed, out_dir, header)
        units = metric_units()
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        for name, value in layers.items():
            print(f"# {name:30s} {value!r:>24} {units[name]:6s} 1 traced pass")
    else:
        measured, rows, outcomes = measure(jobs, args.seed, args.seconds, out_dir)
        problems = []
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()}
        for name, value, unit, samples in rows:
            print(f"# {name:34s} {value:>14.6g} {unit:6s} {samples}")

    first = {}
    for o in outcomes:
        first.setdefault(o.label, o)
    for o in first.values():
        print(f"# solve {o.label}: lambda={o.lam!r} reference={o.reference!r} "
              f"rel_err={o.rel_err:.2e} converged={o.converged} "
              f"outer_steps={o.outer_steps} inner_iters={o.inner_iters}"
              + (f" error={o.error}" if o.error else ""))
    for problem in problems:
        print(f"# check failed: {problem}")
    wrong = [o for o in outcomes if o.wrong]
    for o in wrong:
        print(f"# wrong answer: {o.label} lambda={o.lam!r} reference={o.reference!r}")
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": len(outcomes),
        "failed": sum(o.broken for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
