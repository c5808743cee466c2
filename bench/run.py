"""Benchmark of hyplyap: end-to-end times per workload, or per-layer costs.

Usage, from the repository root:

    python3 bench/run.py --workload {spectrum,diagnostics,tracking} \
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout the script sits in,
and driven in-process through ``hyplyap.cli.main`` and the public API.
Inputs are generated from ``--seed``; every pass of a run uses the same
inputs, so outputs must be byte-identical from pass to pass.

``--trace 0``: a warm-up pass, then passes for ``--seconds`` seconds.
Reports the median of each timed slot and of the whole pass, the median
cold start (separate interpreters), and the peak resident memory.  Pass
and slot times are in reference seconds (see ``calibration.py``); their
measured medians are printed beside them.

``--trace 1``: untraced and traced passes alternate for ``--seconds``
seconds, then each layer's public functions are timed directly.  Reports
per-module self time and call counts from the traced passes, per-call
costs, and traced over untraced pass time.  Spans are written to
``.bench_out/trace-<workload>-seed<N>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spectrum", "diagnostics", "tracking")
SETUP_RUNS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_hyplyap():
    """Import hyplyap from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hyplyap" / "__init__.py").is_file():
        raise ImportError(f"no hyplyap sources under {src}")
    sys.path.insert(0, str(src))
    import hyplyap
    import hyplyap.cli

    if not Path(hyplyap.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"hyplyap imported from {hyplyap.__file__}, not {src}")
    return hyplyap


def summary(values):
    """(median, q1, q3, n) of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, len(values)


def git_revision():
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
    return "unknown (not a git checkout)"


def provenance(hl, seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hyplyap": hl.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def cold_starts(config, modules):
    """Seconds of SETUP_RUNS fresh interpreters, run one after another.
    Not scaled by the calibration loop: a cold start is mostly imports,
    which the loop's arithmetic does not track."""
    cmd = [sys.executable, str(BENCH / "cold_start.py"), str(ROOT / "src"), config, *modules]
    measured = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=120)
        measured.append(time.perf_counter() - t0)
    return measured


def lazily_imported_scipy():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules
                   if m.startswith("scipy.") and not m.split(".")[1].startswith("_")})


def pass_seconds(runs):
    return sum(r.seconds for r in runs)


def fmt(name, values, unit, label=""):
    med, q1, q3, n = summary(values)
    label = f" ({label})" if label else ""
    return f"{name}{label}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, n={n}"


def end_to_end(hl, wl, seconds, lines):
    import calibration
    from workloads import SLOT_NAMES

    warm = wl.run_pass(contextlib.nullcontext)
    # every scipy module the warm pass pulled in is part of a cold start
    modules = lazily_imported_scipy()
    lines.append("cold start imports hyplyap.cli" + "".join(f", {m}" for m in modules))
    setups = cold_starts(wl.config, modules)
    calibrate = calibration.timer(wl.name)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.run_pass(contextlib.nullcontext, calibrate))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    def per_pass(select, scale):
        return [sum(scale(r) for r in p if select(r)) for p in passes]

    def ref(r):
        return calibration.reference_seconds(r.seconds, r.calibration)

    def raw(r):
        return r.seconds

    lines.append(fmt("setup_s", setups, "s", "cold start"))
    metrics = {"setup_s": (statistics.median(setups), "s")}
    series = {"pass_s": (per_pass(lambda r: True, ref), per_pass(lambda r: True, raw),
                         "whole pass")}
    for k, name in enumerate(SLOT_NAMES[wl.name]):
        series[f"op{k + 1}_s"] = (per_pass(lambda r, k=k: r.slot == k, ref),
                                  per_pass(lambda r, k=k: r.slot == k, raw), name)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for metric, (values, measured, label) in series.items():
        lines.append(fmt(metric, values, "reference s", label)
                     + f"; measured median {statistics.median(measured):.6g} s")
        metrics[metric] = (statistics.median(values), "s")
    calibrations = [r.calibration for p in passes for r in p]
    lines.append(fmt("calibration loop", calibrations, "s",
                     f"reference {calibration.REFERENCE_S} s"))
    lines.append(f"peak_rss_mb: {rss:.6g} MB")
    metrics["peak_rss_mb"] = (rss, "MB")
    return [warm, *passes], metrics, []


def per_layer(hl, wl, seconds, lines):
    import layers
    from tracer import Tracer
    from workloads import tracking_representation

    warm = wl.run_pass(contextlib.nullcontext)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(wl.run_pass(contextlib.nullcontext))
        tracer = Tracer().install()
        try:
            traced.append(wl.run_pass(tracer.root))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed * (len(tracers) + 1) / len(tracers) > seconds:
            break

    errors = []
    selfs = [t.self_seconds() for t in tracers]
    names = [t.span_counts() for t in tracers]
    counts = [t.counts + n for t, n in zip(tracers, names)]
    if any(c != counts[0] for c in counts[1:]):
        errors.append("call counts differ between traced passes of one seed")
    c = counts[0]

    def med_self(module):
        return statistics.median(s[module] for s in selfs)

    metrics = {}
    for module in ("lyapunov", "diffusion", "surface", "cocycle"):
        metrics[f"{module}.self_s"] = (med_self(module), "s")
    metrics["cli.self_s"] = (statistics.median(
        s["cli"] / max(n["cli.main"], 1) for s, n in zip(selfs, names)), "s")
    for metric, key in (("lyapunov.path_steps", "lyapunov.path_steps"),
                        ("diffusion.heat_kernel_calls", "diffusion.heat_kernel"),
                        ("surface.locate_calls", "surface.locate"),
                        ("surface.track_calls", "surface.track"),
                        ("cocycle.specialization_calls", "cocycle.Specialization.__call__"),
                        ("hypgeo.dist_P_calls", "hypgeo.dist_P"),
                        ("hypgeo.mobius_calls", "hypgeo.MobiusMap.__call__")):
        metrics[metric] = (c.get(key, 0), "count")
    metrics["cli.checks_failed"] = (sum(len(r.red) for r in traced[0]), "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(map(pass_seconds, traced))
        / statistics.median(map(pass_seconds, untraced)), "ratio")

    rep22 = hl.diagonal_representation([2.0, 0.5])
    rep_track = tracking_representation(hl, hl.build_genus2())
    metrics.update(layers.measure(hl, rep22, rep_track, wl.seed))

    out = ROOT / ".bench_out" / f"trace-{wl.name}-seed{wl.seed}.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            tracer.dump(fh, i)
    lines.append(f"traced passes {len(tracers)}, untraced passes {len(untraced)}; "
                 f"spans written to {out.relative_to(ROOT)}")
    lines.extend(f"{name}: {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    return [warm, *untraced, *traced], metrics, errors


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HYPLYAP_SEED", None)   # the seed comes from --seed only
    try:
        hl = import_hyplyap()
    except ImportError as exc:
        print(f"error: cannot import hyplyap: {exc}", file=sys.stderr)
        return 2
    from workloads import KNOWN_RED, Workload

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}",
             "provenance " + json.dumps(provenance(hl, args.seed))]
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        wl = Workload(args.workload, args.seed, tmp, hl)
        measure = per_layer if args.trace else end_to_end
        passes, metrics, errors = measure(hl, wl, args.seconds, lines)

    runs = [r for p in passes for r in p]
    failed = [r for r in runs if r.errors]
    first = passes[0]
    for r in first:
        if isinstance(r.value, dict):
            lines.append(f"{r.name}: chi {r.value['chi']} ci {r.value['ci']} "
                         f"csv_sha256 {r.digest}")
        else:
            lines.append(f"{r.name}: output sha256 {r.digest}")
    if args.workload == "spectrum":
        chi = {r.name: r.value["chi"][0] for r in first if isinstance(r.value, dict)}
        a, b = chi.get("run --method brownian"), chi.get("run --method diffusion")
        if a is not None and b is not None:
            lines.append(f"chi_1 of brownian and diffusion (one shared ensemble): "
                         f"{a!r} vs {b!r}, |diff| {abs(a - b):.3g}")
    lines.append(f"outputs byte-identical across {len(passes)} passes of seed {args.seed}: "
                 f"{not any('differs from the first pass' in e for r in runs for e in r.errors)}")
    lines.append(f"red checks (the program's own verdicts): {sum(len(r.red) for r in first)}")
    for r in first:
        tag = " [known red]" if r.name in KNOWN_RED else ""
        lines.extend(f"red check in {r.name}{tag}: {red}" for red in r.red)
    lines.append(f"failed_ops: {len(failed)}/{len(runs)}")
    for msg in sorted({e for r in failed for e in r.errors} | set(errors)):
        lines.append(f"FAILED: {msg}")

    print("\n".join(lines))
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
