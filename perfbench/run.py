#!/usr/bin/env python3
"""quadcsp benchmark: one seeded workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload octagon-solve --seed 1 --seconds 40 --trace 0

quadcsp is imported from ``src/`` next to this directory.  One
single-threaded client sends the next instance only after the previous
one has finished.  With ``--trace 0`` the loop runs for ``--seconds``
and the end-to-end metrics are reported; with ``--trace 1`` a fixed
number of instances (set by the seed and ``--seconds`` alone, so counts
repeat exactly) runs once untraced and once traced, and the per-layer
metrics and the tracing overhead are reported.  Outputs are checked
after the timed region.  Times are rescaled to a nominal machine speed
(see speed.py), and ``--seconds`` counts rescaled seconds, so a run
covers the same instances however fast the machine is at the time; a
run stops at WALL_CAP times ``--seconds`` of wall time in any case.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from speed import SpeedProbe
from tracing import Tracer, instance_profile, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9

#: Instances per nominal second at the baseline commit.  The input pool
#: holds POOL_FACTOR times the instances the baseline finishes in
#: ``--seconds``; a faster program wraps around it.  The traced run
#: uses TRACE_FACTOR times that count, so its two passes take a little
#: less than ``--seconds`` at the baseline.
BASE_RATE = {"octagon-solve": 3.0, "general-solve": 3.0, "cli-check": 10.0}
POOL_FACTOR = 1.5
TRACE_FACTOR = 0.4
WALL_CAP = 1.15

#: Top-level closes that use this many sweeps reach the policy-fixpoint
#: acceleration (closure._ACCEL_START).
ACCEL_SWEEPS = 8


def _fresh_import() -> SimpleNamespace:
    for name in [m for m in sys.modules if m.split(".")[0] == "quadcsp"]:
        del sys.modules[name]
    names = ("core", "matrix2d", "solver", "cli")
    return SimpleNamespace(
        **{n: importlib.import_module(f"quadcsp.{n}") for n in names}
    )


def _set_up(workload: str, seed: int, count: int, workdir: Path):
    """Import, generate the inputs (and files), warm the per-n tables."""
    mods = _fresh_import()
    pool = [workloads.instance(workload, seed, k) for k in range(count)]
    paths = []
    if workload == "cli-check":
        for inst in pool:
            path = workdir / f"instance-{inst.index}.txt"
            path.write_text(inst.text, encoding="utf-8")
            paths.append(str(path))
    for n in sorted({inst.n for inst in pool}):
        mods.matrix2d.new_matrix(n)
    return mods, pool, paths


def _run_cli(cli, path: str):
    def call(command):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            rc = cli.main([command, path, "--format", "json"])
        return rc, out.getvalue()

    rc, text = call("bounds")
    return rc, text, call("explain") if rc == 1 else None


def _run_one(workload: str, mods, inst, path):
    if workload == "cli-check":
        return _run_cli(mods.cli, path)
    constraints, n = mods.core.parse_constraints(inst.text)
    return mods.solver.solve(constraints, n)


def _loop(workload, mods, pool, paths, probe, seconds=None, tracer=None):
    """Closed loop over the pool: for ``seconds`` of rescaled instance
    time (wrapping around the pool), or once through it.  Returns
    [(instance, output or exception, wall latency, speed scale)]."""
    results = []
    start = perf_counter()
    busy = 0.0
    k = 0
    while True:
        if seconds is None and k == len(pool):
            break
        if seconds is not None and (
            busy >= seconds or perf_counter() - start >= WALL_CAP * seconds
        ):
            break
        inst = pool[k % len(pool)]
        path = paths[k % len(paths)] if paths else None
        scale = probe.scale()
        if tracer is not None:
            tracer.instance = k
        t0 = perf_counter()
        try:
            out = _run_one(workload, mods, inst, path)
        except Exception as exc:  # a failed operation, counted below
            out = exc
        latency = perf_counter() - t0
        results.append((inst, out, latency, scale))
        busy += latency * scale
        k += 1
    return results


def _check(workload, results):
    # checks imports quadcsp, which main() makes importable
    from checks import CheckError, Reference, Refused, Tally, check_cli, check_solve

    tally = Tally()
    refs = {}
    for inst, out, *_ in results:
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(f"raised {type(out).__name__}")
            continue
        try:
            if inst.index not in refs:
                refs[inst.index] = Reference(inst)
            ref = refs[inst.index]
            if workload == "cli-check":
                check_cli(inst, ref, out, tally)
            else:
                check_solve(inst, ref, out, workload == "octagon-solve", tally)
        except Refused as exc:
            tally.fail(f"refused: {exc}")
        except CheckError as exc:
            tally.fail(f"wrong output: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            tally.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return tally, refs


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _ratio(num, den):
    return num / den if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(args, mods, pool, paths, probe, setup_s):
    results = _loop(args.workload, mods, pool, paths, probe, args.seconds)
    wall = sorted(lat for _, _, lat, _ in results)
    latencies = sorted(lat * scale for _, _, lat, scale in results)
    rss = _peak_rss_mb()
    tally, _ = _check(args.workload, results)
    samples = len(latencies)
    beyond_p90 = samples - math.ceil(0.9 * samples)
    failed_ratio = tally.failed / tally.attempted
    incomplete = _ratio(tally.incomplete_verdicts, tally.oracle_infeasible)
    gap = _ratio(tally.gap_bounds, tally.finite_bounds)
    print(
        f"wall clock, not rescaled: {samples / sum(wall):.6g} instances/s, "
        f"p50 {statistics.median(wall):.6g} s, p90 {_percentile(wall, 0.9):.6g} s"
    )
    report = [
        ("instances_per_s", samples / sum(latencies), "1/s", f"{samples} instances"),
        ("latency_p50_s", statistics.median(latencies), "s", f"{samples} samples"),
        ("latency_p90_s", _percentile(latencies, 0.9), "s",
         f"{samples} samples, {beyond_p90} beyond"),
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}"),
        ("failed_ratio", failed_ratio, "ratio", f"{tally.failed}/{tally.attempted}"),
        ("incomplete_verdict_ratio", incomplete, "ratio",
         f"{tally.incomplete_verdicts}/{tally.oracle_infeasible}"),
        ("bound_gap_ratio", gap, "ratio",
         f"{tally.gap_bounds}/{tally.finite_bounds}"),
    ]
    for name, value, unit, note in report:
        print(f"{name:26} {value:12.6g} {unit:6} {note}")
    if beyond_p90 < 10:
        print(f"warning: only {beyond_p90} samples beyond p90")
    print(f"{'peak_rss_mb':26} {rss:12.6g} MB     (per-layer metric, see README)")
    values = {name: (value, unit) for name, value, unit, _ in report[:4]}
    # Zero-able ratios enter the JSON as their complements, so every
    # end-to-end metric is nonzero and a regression is a relative drop.
    values["ok_ratio"] = (1 - failed_ratio, "ratio")
    values["verdict_complete_ratio"] = (1 - incomplete, "ratio")
    values["bound_tight_ratio"] = (1 - gap, "ratio")
    return tally, values


def _traced(args, mods, pool, paths, probe):
    untraced = _loop(args.workload, mods, pool, paths, probe)
    tracer = Tracer()
    tracer.install()
    try:
        results = _loop(args.workload, mods, pool, paths, probe, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(lat * scale for _, _, lat, scale in untraced)
    traced_s = sum(lat * scale for _, _, lat, scale in results)
    finite_classes = sum(
        len(mods.matrix2d.to_constraints(r.matrix)) for r in tracer.top_closes
    )
    tally, refs = _check(args.workload, results)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    metrics = layer_metrics(tracer.spans, [scale for *_, scale in results])
    metrics["lindep.certificate_ratio"] = _ratio(
        tally.certificates, tally.explain_runs
    )
    metrics["matrix2d.finite_classes"] = finite_classes
    metrics["trace.instances"] = len(results)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics["peak_rss_mb"] = _peak_rss_mb()

    per_instance = instance_profile(tracer.spans)
    k = len(results)
    profile = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": k,
        "n_histogram": dict(sorted(Counter(i.n for i in pool).items())),
        "oracle_infeasible_share": _ratio(
            sum(not r.feasible for r in refs.values()), len(refs)
        ),
        "accel_share": sum(
            p["max_sweeps"] >= ACCEL_SWEEPS for p in per_instance.values()
        ) / k,
        "fallback_share": sum(p["fallback"] for p in per_instance.values()) / k,
    }
    print("profile " + json.dumps(profile))
    values = {name: (v, _layer_unit(name)) for name, v in metrics.items()}
    for name, (value, unit) in values.items():
        print(f"{name:28} {value:12.6g} {unit}")
    return tally, values


def _layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadcsp" / "__init__.py").is_file():
        print(f"error: quadcsp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    base = args.seconds * BASE_RATE[args.workload]
    factor = TRACE_FACTOR if args.trace else POOL_FACTOR
    count = max(4, math.ceil(base * factor))
    OUT.mkdir(exist_ok=True)
    probe = SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setups = []
        for _ in range(SETUP_REPEATS):
            scale = probe.scale()
            t0 = perf_counter()
            mods, pool, paths = _set_up(args.workload, args.seed, count, Path(workdir))
            setups.append((perf_counter() - t0) * scale)
        setup_s = statistics.median(setups)
        print(f"workload {args.workload} seed {args.seed} pool {len(pool)}")
        if args.trace:
            tally, values = _traced(args, mods, pool, paths, probe)
        else:
            tally, values = _timed(args, mods, pool, paths, probe, setup_s)

    for reason, n in sorted(tally.reasons.items()):
        print(f"failure x{n}: {reason}")
    result = {
        "correct": not any(
            r.startswith(("wrong", "unreadable")) for r in tally.reasons
        ),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
