"""The benchmark's workloads: generated inputs, the operations one pass
runs, and the checks on what those operations output.

Every workload writes its own config text from the seed; nothing is read
from the repository's ``configs/``.  Each pass runs three timed slots,
``op1``..``op3``, so every workload reports the same metric names; the
slot behind each name is listed in ``SLOT_NAMES``.

An operation fails when it raises, exits with an error, writes a result
that is malformed or not byte-identical to the same seed's first pass, or
breaks one of the spectrum identities below.  A validation check that the
program itself reports red (exit code 2) is a result, not a failed
operation: it is counted and printed as a red check, with its numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

SPECTRUM_CONFIG = """\
# configs/diag22.cfg without method, workers and output
[surface]
model = genus2-octagon

[representation]
dim = 2
field = real
g1 = 2 0 0 0.5
g2 = 1 0 0 1
g3 = 1 0 0 1
g4 = 1 0 0 1

[run]
horizon = 60
step = 0.05
n_paths = 400
n_dirs = 256
seed = {seed}
"""

# rho(g1) = rho(g4) = A, rho(g2) = rho(g3) = B: the relator
# g2^-1 g3 g4^-1 g1^-1 g2 g3^-1 g4 g1 maps to the identity exactly
TRACKING_CONFIG = """\
[surface]
model = genus2-octagon

[representation]
dim = 2
field = real
g1 = 2 1 1 1
g2 = 1 0 1.5 1
g3 = 1 0 1.5 1
g4 = 2 1 1 1

[run]
seed = {seed}
"""

DIAGNOSTICS_CONFIG = """\
[surface]
model = genus2-octagon

[run]
seed = {seed}
"""

SLOT_NAMES = {
    "spectrum": ("run_brownian_s", "run_geodesic_s", "run_diffusion_s"),
    "diagnostics": ("validate_semigroup_dynkin_s", "validate_kernel_circle_s",
                    "validate_shadowing_s"),
    "tracking": ("validate_cocycle_s", "validate_conversion_s", "regularity_s"),
}

# red in every seed tried: the ensemble accumulator started at eta and the
# scalar tracker disagree (seed 0: lhs 0.839, rhs 0.381, tol 0.108)
KNOWN_RED = {"run --method validate:conversion"}

_SUM_RE = re.compile(r"exponent sum (\S+) \(ci (\S+)\)")


@dataclass
class OpRun:
    """One execution of one operation."""

    name: str
    slot: int
    seconds: float = 0.0
    calibration: float = math.nan   # calibration-loop seconds around this run
    rc: int = 0
    digest: str = ""
    value: object = None
    errors: list = field(default_factory=list)
    red: list = field(default_factory=list)    # checks the program reported red


class _CliOp:
    def __init__(self, name, slot, argv, output, kind):
        self.name, self.slot, self.argv, self.output, self.kind = name, slot, argv, output, kind

    def run(self, hl, hooks):
        buf = io.StringIO()
        res = OpRun(self.name, self.slot)
        with hooks(self.name), contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            res.rc = hl.cli.main(self.argv)
            res.seconds = time.perf_counter() - t0
        csv = _read(self.output + ".csv")
        res.digest = hashlib.sha256(csv.encode()).hexdigest()
        if self.kind == "spectrum":
            _check_spectrum_route(res, csv, _read(self.output + ".summary.txt"))
        else:
            _check_validation(res, csv)
        return res


class _RegularityOp:
    """estimate_regularity(specialize(rep, e1), 2000, 6.0, rng) through the API."""

    def __init__(self, name, slot, rep, group, seed):
        self.name, self.slot, self.rep, self.group, self.seed = name, slot, rep, group, seed

    def run(self, hl, hooks):
        res = OpRun(self.name, self.slot)
        with hooks(self.name):
            t0 = time.perf_counter()
            spec = hl.specialize(self.rep, [1.0, 0.0], self.group)
            rep = hl.estimate_regularity(spec, 2000, 6.0, hl.RngStream(self.seed))
            res.seconds = time.perf_counter() - t0
        res.value = (rep.alpha_fit, rep.c_fit, rep.lipschitz_c, rep.n_pairs,
                     rep.bin_centers, rep.bin_envelope)
        res.digest = hashlib.sha256(repr(res.value).encode()).hexdigest()
        if rep.n_pairs != 2000 or not (0.0 <= rep.alpha_fit <= 2.0):
            res.errors.append(f"regularity: bad fit {rep}")
        if not all(math.isfinite(x) and x >= 0.0
                   for x in (rep.c_fit, rep.lipschitz_c, *rep.bin_envelope)):
            res.errors.append(f"regularity: non-finite or negative values {rep}")
        return res


class Workload:
    def __init__(self, name, seed, tmpdir, hl):
        self.name = name
        self.seed = seed
        self.hl = hl
        text = {"spectrum": SPECTRUM_CONFIG, "tracking": TRACKING_CONFIG,
                "diagnostics": DIAGNOSTICS_CONFIG}[name].format(seed=seed)
        self.config = os.path.join(tmpdir, f"{name}.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text)

        def out(tag):
            return os.path.join(tmpdir, tag)

        ops = []
        if name == "spectrum":
            for slot, method in enumerate(("brownian", "geodesic", "diffusion")):
                ops.append(_CliOp(f"run --method {method}", slot,
                                  ["run", self.config, "--method", method,
                                   "--output", out(method)], out(method), "spectrum"))
        elif name == "diagnostics":
            # drift and uniformity are left out: shadowing runs drift's check
            # on the same walker, and with all seven suites a pass took 9 s,
            # too long for a 30 s run to hold enough passes to be steady
            groups = (("semigroup", "dynkin"), ("kernel", "circle"), ("shadowing",))
            for slot, suites in enumerate(groups):
                for suite in suites:
                    ops.append(_CliOp(f"validate {suite}", slot,
                                      ["validate", suite, "--seed", str(seed),
                                       "--output", out(suite)], out(suite), "validation"))
        else:
            for slot, (method, extra) in enumerate((
                    ("validate:cocycle", []),
                    ("validate:conversion", ["--horizon", "5", "--n-paths", "2000"]))):
                tag = method.split(":")[1]
                ops.append(_CliOp(f"run --method {method}", slot,
                                  ["run", self.config, "--method", method,
                                   "--output", out(tag), *extra], out(tag), "validation"))
            group = hl.build_genus2()
            ops.append(_RegularityOp("estimate_regularity", 2,
                                     tracking_representation(hl, group), group, seed))
        self.ops = ops
        self.first_digest = {}

    def run_pass(self, hooks, calibrate=None):
        """Run every operation once; returns the OpRun list.  With
        ``calibrate``, its duration is taken before the first operation and
        after each one, and every OpRun keeps the mean of the two around it."""
        runs = []
        before = calibrate() if calibrate else math.nan
        for op in self.ops:
            try:
                res = op.run(self.hl, hooks)
            except Exception as exc:  # a raising operation is a failed one
                res = OpRun(op.name, op.slot, errors=[f"{op.name} raised {exc!r}"])
            after = calibrate() if calibrate else math.nan
            res.calibration = 0.5 * (before + after)
            before = after
            expected = self.first_digest.setdefault(op.name, res.digest)
            if res.digest != expected:
                res.errors.append(f"{op.name}: output differs from the first pass "
                                  f"of this seed ({res.digest[:12]} vs {expected[:12]})")
            runs.append(res)
        if self.name == "spectrum":
            _check_routes_agree(runs)
        return runs


def tracking_representation(hl, group):
    cfg = hl.cli.parse_config_text(TRACKING_CONFIG.format(seed=0))
    rep = hl.Representation.from_matrices(cfg.dim, cfg.rep_field, cfg.matrices, group)
    if not rep.exact:
        raise ValueError(f"tracking representation is not exact: {rep.relator_residual}")
    return rep


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _rows(csv):
    lines = csv.strip().splitlines()
    return [line.split(",") for line in lines[1:]], lines[0].split(",")


def _check_spectrum_route(res, csv, summary):
    """Exit 0; exponent sum within max(ci, 1e-10) of 0; chi_1 + chi_d within
    max(hypot(ci_1, ci_d), 1e-10) of 0 (acceptance criterion 6's rules)."""
    if res.rc != 0:
        res.errors.append(f"{res.name}: exit code {res.rc}")
        return
    rows, header = _rows(csv)
    if header != ["method", "horizon", "index", "chi", "multiplicity",
                  "ci_halfwidth", "seed", "n_samples"] or not rows:
        res.errors.append(f"{res.name}: malformed spectrum CSV")
        return
    chis = [float(r[3]) for r in rows]
    cis = [float(r[5]) for r in rows]
    res.value = {"chi": chis, "ci": cis}
    match = _SUM_RE.search(summary)
    if match is None:
        res.errors.append(f"{res.name}: summary has no exponent sum")
        return
    total, total_ci = float(match.group(1)), float(match.group(2))
    if not abs(total) <= max(total_ci, 1e-10):
        res.errors.append(f"{res.name}: exponent sum {total:+.3e} outside ci {total_ci:.3e}")
    if not abs(chis[0] + chis[-1]) <= max(math.hypot(cis[0], cis[-1]), 1e-10):
        res.errors.append(f"{res.name}: chi_1 + chi_d = {chis[0] + chis[-1]:+.3e}")


def combined_tolerance(a, sa, b, sb, sigmas=3.0, rel=0.05):
    """The acceptance suite's cross-route tolerance."""
    return max(sigmas * math.hypot(sa, sb), rel * max(abs(a), abs(b)))


def _check_routes_agree(runs):
    tops = {r.name: (r.value["chi"][0], r.value["ci"][0] / 1.96)
            for r in runs if not r.errors and r.value}
    names = sorted(tops)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            (xa, sa), (xb, sb) = tops[a], tops[b]
            tol = combined_tolerance(xa, sa, xb, sb)
            if not abs(xa - xb) <= tol:
                msg = f"top exponents disagree: {a} {xa:+.6f} vs {b} {xb:+.6f} (tol {tol:.6f})"
                for r in runs:
                    if r.name in (a, b):
                        r.errors.append(msg)


def _check_validation(res, csv):
    """Exit 0 or 2; finite lhs/rhs/tolerance; exit 2 exactly when a row is red."""
    if res.rc not in (0, 2):
        res.errors.append(f"{res.name}: exit code {res.rc}")
        return
    rows, header = _rows(csv)
    if header != ["name", "lhs", "rhs", "tolerance", "passed"] or not rows:
        res.errors.append(f"{res.name}: malformed checks CSV")
        return
    for name, lhs, rhs, tol, passed in rows:
        if not all(math.isfinite(float(x)) for x in (lhs, rhs, tol)) or passed not in ("0", "1"):
            res.errors.append(f"{res.name}: check {name} has a malformed row")
        elif passed == "0":
            res.red.append(f"{name}: lhs={float(lhs):.6g} rhs={float(rhs):.6g} "
                           f"tol={float(tol):.3g}")
    if (res.rc == 2) != bool(res.red):
        res.errors.append(f"{res.name}: exit code {res.rc} disagrees with "
                          f"{len(res.red)} red checks")
