"""Benchmark of the pbzlat workbench pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ones from a traced round.  See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")


def import_program():
    """Import pbzlat from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pbzlat", "__init__.py")):
        sys.exit(f"error: no pbzlat sources in {src}")
    sys.path.insert(0, src)
    import pbzlat
    import pbzlat.cli  # noqa: F401  (not imported by the package itself)
    if not os.path.abspath(pbzlat.__file__).startswith(src + os.sep):
        sys.exit(f"error: pbzlat was imported from {pbzlat.__file__}")
    return pbzlat


def time_import(kind):
    """Seconds this fresh process takes to import pbzlat (``program``)
    or numpy alone (``reference``); printed by the child."""
    t = time.perf_counter()
    if kind == "program":
        import_program()
    else:
        import numpy  # noqa: F401
    print(repr(time.perf_counter() - t))
    return 0


def child_import(kind):
    """``time_import(kind)`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--time-import", kind],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def timed_rounds(workload, seconds, sampler):
    """Whole rounds, at least one, until ``seconds`` have passed;
    (wall seconds, rescaled seconds, outputs), one of each per round."""
    walls, scaled, outputs = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out, wall, rescaled = sampler.region(workload.round)
        walls.append(wall)
        scaled.append(rescaled)
        outputs.append(workload.collect(out))
    return walls, scaled, outputs


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield") or name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Set-up time is the import of pbzlat, measured in fresh processes,
    # plus the workload's set-up in this one, both rescaled to the
    # reference speed (speed.py).  pbzlat is imported before the
    # benchmark's own modules, so that numpy, which both use, is its.
    sampler = speed.Sampler()
    pbzlat = import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(sorted(WORKLOADS))}")
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](pbzlat, args.seed, workdir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(pbzlat)
        tracer.install()
    if tracer:
        workload.setup()
    else:
        build_s = sampler.region(workload.setup)[2]

    os.makedirs(workdir, exist_ok=True)
    try:
        if tracer:
            # one round, traced; the set-up above was traced as well
            setup_spans = len(tracer.spans)
            t = time.perf_counter()
            try:
                out = workload.round()
            finally:
                traced = time.perf_counter() - t
                tracer.uninstall()
            outputs = [workload.collect(out)]
        else:
            walls, scaled, outputs = timed_rounds(
                workload, args.seconds, sampler)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = [v for out in outputs for v in workload.check(out)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [v for v in verdicts if v is not None]
    wrong = [v for v in failed if not v.startswith("error:")]
    for reason in failed[:10]:
        print(f"operation failed: {reason}", file=sys.stderr)

    if tracer:
        figures = tracer.metrics()
        overhead = tracer.span_cost() * (len(tracer.spans) - setup_spans)
        figures["trace.traced_wall_s"] = traced
        figures["trace.overhead_s"] = overhead
        figures["trace.overhead_share"] = overhead / (traced - overhead)
        tracer.write(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in figures.items()}
    else:
        import_s, raw_imports = speed.import_seconds(child_import)
        print("round walls: " + " ".join(f"{w:.4f}" for w in walls),
              file=sys.stderr)
        print("rescaled rounds: " + " ".join(f"{w:.4f}" for w in scaled),
              file=sys.stderr)
        print(f"imports: {statistics.median(raw_imports):.4f} s, rescaled "
              f"{import_s:.4f} s; rescaled set-up {build_s:.4f} s",
              file=sys.stderr)
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "setup_s": {"value": import_s + build_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": len(verdicts),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--time-import"]:
        sys.exit(time_import(sys.argv[2]))
    sys.exit(main())
