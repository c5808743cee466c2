"""Experiment orchestration: config ingestion, runs, comparisons, exports.

Config files are flat ``key = value`` text under ``[section]`` headers with
strict parsing (any unknown section or key aborts before computation).
Matrices are whitespace-separated row-major decimals; complex entries are
written as (re, im) pairs.  Each config key, with its section, its
conversion and (for [run] keys) its flag, is declared once, in _KEYS.
Every run writes a manifest (resolved config, code version, relator
residual, and the python, numpy and platform it ran on), a result CSV whose
body is byte-identical across reruns of the same config, and a
human-readable summary.

`validate <suite>` is `run --method validate:<suite>` on the default
config; both take a suite's defaults from one table, _SUITE_DEFAULTS.  A
run walks the horizon its manifest records or none: one below a suite's
minimum, or past 5000 (10^4 ray steps of 0.5, or 5000 Brownian gaps of
1) on any route or suite, exits 1.

Exit codes: 0 success, 1 usage/config error, 2 validation-suite failure.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import functools
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import __version__
from .cocycle import CocycleError, Representation
from .diffusion import (
    DIFFUSE_MIN_SAMPLES,
    MAX_STEP,
    DiffusionError,
    RngStream,
    check_circle_vs_diffusion,
    check_dynkin,
    check_semigroup,
    constant_field,
    dist_squared_field,
    exp_neg_dist_field,
    heat_kernel_mass,
    _polar_step_error,
    real_part_field,
    sample_heat_endpoints,
    smoothed_dist_field,
)
from .hypgeo import MobiusMap, dist_P, mobius_translation
from .surface import _DeckMaps, _locate_all, _reduce_ensemble, build_genus2
from .lyapunov import (
    LyapunovError,
    _cadence_chain,
    _ray_lift_error,
    benettin_spectrum,
    check_exp_conversion,
    diffusion_spectrum,
    direction_distribution_check,
    geodesic_spectrum,
    shadowing_report,
)

_METHODS = ("brownian", "geodesic", "diffusion")
# every validation suite's defaults for the run keys it reads, filled in for
# `validate <suite>` and `run --method validate:<suite>` alike.  A key a
# suite leaves out it does not read, and an explicit value is refused:
# geometry (1000 maps) and cocycle (100 paths) have a fixed size, kernel
# draws nothing, and every suite samples exactly, so none reads step or
# n_dirs
_SUITE_DEFAULTS = {
    "geometry": {}, "cocycle": {}, "semigroup": {"n_paths": 800},
    "dynkin": {"n_paths": 1200}, "kernel": {}, "circle": {"n_paths": 3000},
    "drift": {"n_paths": 10000}, "shadowing": {"n_paths": 10000},
    "uniformity": {"n_paths": 10000, "horizon": 60.0},
    "conversion": {"n_paths": 2000, "horizon": 5.0},
}
_VALIDATIONS = tuple(_SUITE_DEFAULTS)
# the fewest paths a suite's checks can read: the suites that diffuse average
# each estimate over at least DIFFUSE_MIN_SAMPLES endpoints, and a median
# drift or a standard error needs two paths
_SUITE_MIN_PATHS = {
    "semigroup": DIFFUSE_MIN_SAMPLES, "dynkin": DIFFUSE_MIN_SAMPLES,
    "circle": DIFFUSE_MIN_SAMPLES, "drift": 2, "shadowing": 2, "conversion": 2,
}
# the largest horizon validate:conversion accepts: beyond it an endpoint of
# its exact sampler can leave the representable disc (rho > ~35)
_CONVERSION_MAX_HORIZON = 12.0


def _suite(method: str):
    """The validation suite a method names, or None for a spectrum route."""
    return method.split(":", 1)[1] if method.startswith("validate:") else None


def _unread_keys(method: str):
    """The run keys a method never reads.  Its manifest leaves them out, and
    a validation suite refuses an explicit one; a spectrum route accepts
    them, because one [run] section serves every route."""
    suite = _suite(method)
    if suite is None:
        return ("step", "n_paths") if method == "geodesic" else ("step", "n_dirs")
    return tuple(key for key in ("step", "n_paths", "horizon", "n_dirs")
                 if key not in _SUITE_DEFAULTS[suite])


def _reads_representation(method: str) -> bool:
    """Whether a method reads the representation: the spectrum routes and
    validate:conversion do.  Every other suite accepts a [representation]
    section, but neither builds nor records it."""
    return _suite(method) in (None, "conversion")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configs."""


@dataclass
class ExperimentConfig:
    surface: str = "genus2-octagon"
    dim: int = 2
    rep_field: str = "real"
    matrices: tuple = ()
    method: str = "brownian"
    horizon: float = 60.0
    step: float = 0.05
    n_paths: int = 400
    n_dirs: int = 256
    seed: int = 0
    output: str = "run"
    defaulted: tuple = ()   # keys filled by defaults, recorded in the manifest

    def validate(self):
        if self.surface != "genus2-octagon":
            raise ConfigError(f"surface must be genus2-octagon, got {self.surface!r}")
        base = self.method.split(":", 1)[0]
        if base not in _METHODS + ("validate",):
            raise ConfigError(f"unknown method {self.method!r}")
        if base == "validate":
            name = _suite(self.method) or ""
            if name not in _VALIDATIONS:
                raise ConfigError(
                    f"unknown validation {name!r}; choose from {', '.join(_VALIDATIONS)}"
                )
            for key in _unread_keys(self.method):
                if key not in self.defaulted:
                    raise ConfigError(f"validate:{name} does not use {key}; drop it")
        if self.horizon <= 0 or not math.isfinite(self.horizon):
            raise ConfigError("horizon must be positive and finite")
        # one [run] section serves every route: a step that the step
        # walkers (sample_polar_endpoints, sample_path) refuse is refused
        # even by the spectrum routes, none of which reads it
        if not 0.0 < self.step <= MAX_STEP:
            raise ConfigError(f"step must lie in (0, {MAX_STEP}], got {self.step}")
        for key in ("dim", "n_paths", "n_dirs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rep_field not in ("real", "complex"):
            raise ConfigError(f"field must be real or complex, got {self.rep_field!r}")
        if self.matrices and len(self.matrices) != 4:
            raise ConfigError("representation needs exactly g1..g4")


# every config key once: its section, the ExperimentConfig attribute it sets
# and the conversion of its text.  g1..g4 set no attribute: they are parsed
# as matrices once dim and field are read.  Each [run] key is also a flag of
# `run`, and n_paths, seed and output of `validate` (make_parser);
# apply_flag_overrides reads the same rows
_KEYS = {
    "model": ("surface", "surface", str),
    "dim": ("representation", "dim", int),
    "field": ("representation", "rep_field", str),
    **{f"g{k}": ("representation", None, None) for k in range(1, 5)},
    "method": ("run", "method", str),
    "horizon": ("run", "horizon", float),
    "step": ("run", "step", float),
    "n_paths": ("run", "n_paths", int),
    "n_dirs": ("run", "n_dirs", int),
    "seed": ("run", "seed", int),
    "output": ("run", "output", str),
}
_RUN_KEYS = tuple(key for key, (section, _, _) in _KEYS.items() if section == "run")

# a leftover workers setting is refused, never silently ignored
_WORKERS_REMOVED = "workers was removed: each run is one ensemble on one stream; drop it"

_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def _parse_matrix(text: str, dim: int, complex_field: bool):
    if complex_field:
        pairs = _PAIR_RE.findall(text)
        leftover = _PAIR_RE.sub("", text).strip()
        if leftover:
            raise ConfigError(
                f"complex matrix entries must all be (re, im) pairs; stray text {leftover!r}"
            )
        vals = [complex(float(a), float(b)) for a, b in pairs]
        dtype = complex
    else:
        vals = [float(tok) for tok in text.split()]
        dtype = float
    if len(vals) != dim * dim:
        raise ConfigError(f"matrix needs {dim * dim} entries, got {len(vals)}")
    return np.array(vals, dtype=dtype).reshape(dim, dim)


def parse_config_text(text: str) -> ExperimentConfig:
    section = None
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in {row[0] for row in _KEYS.values()}:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key == "workers":
            raise ConfigError(f"line {lineno}: {_WORKERS_REMOVED}")
        if key not in _KEYS or _KEYS[key][0] != section:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return _config_from_raw(raw)


def _config_from_raw(raw: dict) -> ExperimentConfig:
    """The config of raw's key -> text pairs, each converted as its _KEYS
    row says."""
    cfg = ExperimentConfig()
    provided = set()
    mats = []
    for key, (_, attr, conv) in _KEYS.items():
        if key in raw and attr is None:
            mats.append(_parse_matrix(raw[key], cfg.dim, cfg.rep_field == "complex"))
        elif key in raw:
            try:
                setattr(cfg, attr, conv(raw[key]))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from None
            provided.add(attr)
        if key == "g4" and len(mats) not in (0, 4):
            raise ConfigError("representation needs all of g1..g4 (or none)")
    if mats:
        cfg.matrices = tuple(mats)
        provided.add("matrices")
    cfg.defaulted = tuple(
        f.name for f in dc_fields(ExperimentConfig)
        if f.name not in provided and f.name != "defaulted"
    )
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)


def apply_flag_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Flags mirror config keys; a conflicting explicit value is an error,
    never a silent precedence decision.  A validation suite's keys left at
    their defaults then take the suite's own (_SUITE_DEFAULTS), so the run
    and its manifest agree.  A suite with fewer paths than its minimum
    (_SUITE_MIN_PATHS) is refused here, before any draw."""
    for attr in _RUN_KEYS:
        flag_val = getattr(args, attr, None)
        if flag_val is None:
            continue
        if attr in cfg.defaulted:
            setattr(cfg, attr, flag_val)
            cfg.defaulted = tuple(k for k in cfg.defaulted if k != attr)
        elif getattr(cfg, attr) != flag_val:
            raise ConfigError(
                f"{attr} given both in the config ({getattr(cfg, attr)}) and as a "
                f"flag ({flag_val}); remove one"
            )
    cfg.validate()
    suite = _suite(cfg.method)
    for key, value in _SUITE_DEFAULTS.get(suite, {}).items():
        if key in cfg.defaulted:
            setattr(cfg, key, value)
    least = _SUITE_MIN_PATHS.get(suite, 0)
    if cfg.n_paths < least:
        raise ConfigError(f"validate:{suite} needs n_paths (--n-paths) >= {least}, "
                          f"got {cfg.n_paths}")
    return cfg


def build_representation(cfg: ExperimentConfig, group):
    try:
        rep = Representation.from_matrices(cfg.dim, cfg.rep_field, cfg.matrices or None, group)
    except MemoryError:
        raise ConfigError(f"out of memory: a representation of dim {cfg.dim} is too "
                          f"large; use a smaller dim") from None
    print(f"representation loaded: relator residual {rep.relator_residual:.3e}", file=sys.stderr)
    if not rep.exact:
        raise ConfigError(
            f"representation (g1..g4) is projective-only: relator residual "
            f"{rep.relator_residual:.3e} > 1e-08"
        )
    return rep


# ------------------------------------------------------------- formatting


def _fmt(x: float) -> str:
    return f"{x:.17g}"


_SPECTRUM_HEADER = "method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples"


def spectrum_csv(report, cfg: ExperimentConfig) -> str:
    lines = [_SPECTRUM_HEADER]
    n_samples = cfg.n_dirs if report.method == "geodesic" else cfg.n_paths
    for row in report.rows():
        lines.append(
            ",".join(
                [
                    report.method,
                    _fmt(float(cfg.horizon)),
                    str(row["index"]),
                    _fmt(row["chi"]),
                    str(row["multiplicity"]),
                    _fmt(row["ci_halfwidth"]),
                    str(cfg.seed),
                    str(n_samples),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def checks_csv(checks) -> str:
    lines = ["name,lhs,rhs,tolerance,passed"]
    for c in checks:
        name = c["name"].replace(",", ";")
        lines.append(
            ",".join([name, _fmt(c["lhs"]), _fmt(c["rhs"]), _fmt(c["tol"]),
                      "1" if c["passed"] else "0"])
        )
    return "\n".join(lines) + "\n"


def manifest_text(cfg: ExperimentConfig, group, extra=None) -> str:
    lines = [
        f"hyplyap {__version__}",
        f"timestamp {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        f"relator_residual {group.relator_residual():.17g}",
        f"python {sys.version.split()[0]}",
        f"numpy {np.__version__}",
        f"platform {sys.platform}",
    ]
    reads_rep = _reads_representation(cfg.method)
    omit = {"matrices", "defaulted", *_unread_keys(cfg.method)}
    if not reads_rep:
        omit |= {"dim", "rep_field"}
    keys = [f.name for f in dc_fields(ExperimentConfig)]
    for name in keys:
        if name in omit:
            continue
        mark = " (default)" if name in cfg.defaulted else ""
        lines.append(f"{name} {getattr(cfg, name)}{mark}")
    if reads_rep and cfg.matrices:
        for k, m in enumerate(cfg.matrices, start=1):
            flat = " ".join(_fmt(complex(v).real) if cfg.rep_field == "real"
                            else f"({_fmt(complex(v).real)}, {_fmt(complex(v).imag)})"
                            for v in np.ravel(m))
            lines.append(f"g{k} {flat}")
    elif reads_rep:
        lines.append("representation identity (default)")
    # provenance that repeats a config key is already recorded above
    for k, v in (extra or {}).items():
        if k not in keys:
            lines.append(f"{k} {v}")
    return "\n".join(lines) + "\n"


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ------------------------------------------------------------ run command


def run_spectrum(cfg: ExperimentConfig, group, rep):
    # one stream per route, so the brownian and diffusion routes walk
    # independent ensembles; brownian keeps stream 0
    rng = RngStream(cfg.seed, _METHODS.index(cfg.method))
    # the walker routes validate cfg.step but jump exactly, so it changes
    # no result; Benettin's reorth_every is likewise validated and unread
    if cfg.method == "brownian":
        report = benettin_spectrum(rep, group, cfg.horizon, cfg.step, 1, cfg.n_paths, rng)
    elif cfg.method == "geodesic":
        report = geodesic_spectrum(rep, group, cfg.horizon, cfg.n_dirs)
    else:
        report = diffusion_spectrum(rep, group, cfg.horizon, cfg.n_paths, cfg.step, rng)
    return report


def run_validation(cfg: ExperimentConfig, group, rep):
    """Returns a list of {name, lhs, rhs, tol, passed} dicts."""
    name = _suite(cfg.method)
    rng = RngStream(cfg.seed)
    checks = []

    def add(nm, lhs, rhs, tol, passed):
        checks.append({"name": nm, "lhs": float(lhs), "rhs": float(rhs),
                       "tol": float(tol), "passed": bool(passed)})

    if name == "geometry":
        gen = rng.generator()
        worst = 0.0
        for _ in range(1000):
            rotation = MobiusMap(cmath.exp(1j * math.pi * gen.random()), 0j)
            m = mobius_translation(gen.random(), 3.0 * gen.random()) * rotation
            z = 0.95 * math.sqrt(gen.random()) * np.exp(2j * np.pi * gen.random())
            w = 0.95 * math.sqrt(gen.random()) * np.exp(2j * np.pi * gen.random())
            worst = max(worst, abs(dist_P(m(z), m(w)) - dist_P(z, w)))
        add("isometry_invariance", worst, 0.0, 1e-10, worst <= 1e-10)
        # the geodesic route's rays, lifted back by their deck words, and the
        # polar chart's jump, against the exact ray and the jump's length
        end, turn = _ray_lift_error(group, gen.random(32), 12.0)
        add("ray_lift", end, 0.0, 1e-8, end <= 1e-8 and turn <= 1e-12)
        worst = _polar_step_error(gen, 1000)
        add("polar_step_length", worst, 0.0, 1e-10, worst <= 1e-10)
        res = group.relator_residual()
        add("octagon_relator", res, 0.0, 1e-8, res <= 1e-8)
    elif name == "cocycle":
        # every reduced point must map back to itself under its deck map, with
        # a representative inside the octagon's circumscribed disc.  Probes
        # 0.01 inside and outside each side's midpoint, and the origin, are
        # reduced in the same pass and located once more for their exact
        # letters: a point of the domain has the empty word, a point just
        # across side j the one letter of side j.  The 100 walkers are read
        # exactly at t = 1 (midpoints) and t = 2 (endpoints): a path's word
        # depends only on where it ends
        rho, psi = sample_heat_endpoints(100, 2.0, rng.child(0).generator(),
                                         checkpoints=[1.0, 2.0])
        midpoints = np.exp(0.25j * math.pi * np.arange(8))
        probes = np.concatenate([math.tanh(0.5 * (group.inradius - 0.01)) * midpoints,
                                 math.tanh(0.5 * (group.inradius + 0.01)) * midpoints, [0j]])
        points = np.concatenate([(np.tanh(0.5 * rho) * np.exp(1j * psi)).ravel(), probes])
        reps = points.copy()
        maps = _DeckMaps(group, reps.size)
        _reduce_ensemble(group._layout, reps, acc=maps)
        roundtrip = float(np.max(np.abs(maps.lift(reps)[0] - points)))
        outside = float(np.max(np.abs(reps))) - math.tanh(0.5 * group.circumradius)
        expected = [()] * 8 + [(group.neighbor_letter(j),) for j in range(1, 9)] + [()]
        _, words = _locate_all(probes, group)
        wrong = sum(w.letters != e for w, e in zip(words, expected))
        add("identity_law", wrong, 0.0, 0.0, wrong == 0)
        add("locate_roundtrip", roundtrip, 0.0, 1e-9,
            roundtrip <= 1e-9 and outside <= 1e-12)
    elif name == "semigroup":
        for i, (f, t, s) in enumerate(
            (
                (constant_field(1.0), 0.5, 0.5),
                (exp_neg_dist_field(), 0.5, 0.5),
                (real_part_field(), 1.0, 1.0),
            )
        ):
            r = check_semigroup(f, t, s, cfg.n_paths, rng.child(10 + i))
            add(r.name, r.lhs, r.rhs, r.tolerance, r.passed)
    elif name == "dynkin":
        for i, f in enumerate((constant_field(2.0), real_part_field(), dist_squared_field())):
            r = check_dynkin(f, 1.0, cfg.n_paths, rng.child(20 + i))
            add(r.name, r.lhs, r.rhs, r.tolerance, r.passed)
    elif name == "kernel":
        for t in (0.25, 1.0, 4.0):
            mass = heat_kernel_mass(t)
            add(f"kernel_mass(t={t})", mass, 1.0, 1e-9, abs(mass - 1.0) <= 1e-9)
    elif name == "circle":
        r = check_circle_vs_diffusion(
            smoothed_dist_field(), [4.0, 8.0, 16.0, 32.0], cfg.n_paths, rng
        )
        add(r.name, r.slope, 0.0, r.threshold, r.passed)
    elif name == "drift":
        # the chain the matrix routes walk, 40 exact jumps of 1 to t = 40;
        # shadowing's drift row reads one jump per checkpoint
        rho, _ = _cadence_chain(rng.generator(), cfg.n_paths, 40.0)
        med = float(np.median(rho) / 40.0)
        add("drift_median(t=40)", med, 1.0, 0.08, 0.92 <= med <= 1.08)
    elif name == "shadowing":
        r = shadowing_report(cfg.n_paths, [20.0, 40.0, 80.0], rng)
        add("shadowing_slope", r.slope_shadow_95, 0.0, 0.1, r.passed)
        i40 = r.t_values.index(40.0)
        add("drift_median(t=40)", r.drift_median[i40], 1.0, 0.08,
            0.92 <= r.drift_median[i40] <= 1.08)
    elif name == "uniformity":
        r = direction_distribution_check(cfg.n_paths, cfg.horizon, 32, rng)
        add("direction_uniformity_p", r.p_value, 1.0, 0.001, r.passed)
    elif name == "conversion":
        eta = group.generators[0](0j)
        u = np.zeros(rep.dim)
        u[0] = 1.0
        if cfg.horizon > _CONVERSION_MAX_HORIZON:
            raise ConfigError(
                f"validate:conversion needs horizon <= {_CONVERSION_MAX_HORIZON:g}: an "
                f"endpoint can leave the representable disc beyond it, and with a "
                f"larger n_paths even at or below it")
        r = check_exp_conversion(rep, group, u, eta, cfg.horizon, cfg.n_paths, cfg.step, rng)
        add(r.name, r.lhs, r.rhs, r.tolerance, r.passed)
    else:  # pragma: no cover - guarded by validate()
        raise ConfigError(f"unknown validation {name!r}")
    return checks


def cmd_run(args) -> int:
    try:
        cfg = apply_flag_overrides(load_config(args.config), args)
        group = build_genus2()
        rep = build_representation(cfg, group) if _reads_representation(cfg.method) else None
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    return _execute(cfg, group, rep)


def _execute(cfg: ExperimentConfig, group, rep) -> int:
    """Run cfg's method; write <output>.csv, .manifest.txt and .summary.txt
    and print the summary.  The one output path of `run` and `validate`."""
    validation = _suite(cfg.method) is not None
    try:
        result = (run_validation if validation else run_spectrum)(cfg, group, rep)
    except (ConfigError, CocycleError, DiffusionError, LyapunovError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the ensemble is too large; use a smaller n_paths "
              "or n_dirs", file=sys.stderr)
        return 1
    if validation:
        csv, manifest = checks_csv(result), manifest_text(cfg, group)
        lines = [
            f"[{'pass' if c['passed'] else 'FAIL'}] {c['name']}: "
            f"lhs={c['lhs']:.6g} rhs={c['rhs']:.6g} tol={c['tol']:.3g}"
            for c in result
        ]
        rc = 0 if all(c["passed"] for c in result) else 2
    else:
        csv = spectrum_csv(result, cfg)
        manifest = manifest_text(cfg, group, extra=result.provenance)
        lines = [f"method {result.method}  horizon {cfg.horizon}  seed {cfg.seed}"]
        for row in result.rows():
            lines.append(
                f"  chi_{row['index']} = {row['chi']:+.6f}  (multiplicity {row['multiplicity']},"
                f" ci +-{row['ci_halfwidth']:.6f})"
            )
        lines.append(
            f"  exponent sum {result.exponent_sum:+.3e} (ci {result.exponent_sum_ci:.3e})"
        )
        rc = 0
    summary = "\n".join(lines) + "\n"
    for suffix, text in ((".csv", csv), (".manifest.txt", manifest), (".summary.txt", summary)):
        path = cfg.output + suffix
        try:
            _write(path, text)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 1
    print(summary, end="")
    return rc


# -------------------------------------------------------- compare command


def read_spectrum_csv(path: str):
    """The rows of a spectrum CSV.  A file without the header, without a
    row, or with a row of the wrong number of fields, a multiplicity below
    1, a non-finite chi or a ci_halfwidth that is not finite and >= 0 is
    refused."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [l.strip() for l in fh if l.strip()]
    expected = _SPECTRUM_HEADER.split(",")
    if not lines:
        raise ConfigError(f"{path}: empty file, not a spectrum CSV")
    header = lines[0].split(",")
    if header != expected:
        raise ConfigError(f"{path}: unexpected CSV header {header}")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no spectrum rows after the header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(expected):
            raise ConfigError(
                f"{path}: row {lineno} has {len(parts)} fields, expected {len(expected)}")
        try:
            chi, mult, ci = float(parts[3]), int(parts[4]), float(parts[5])
        except ValueError as exc:
            raise ConfigError(f"{path}: row {lineno}: {exc}") from None
        if mult < 1 or not math.isfinite(chi) or not 0 <= ci < math.inf:
            raise ConfigError(
                f"{path}: row {lineno} needs multiplicity >= 1, a finite chi and a "
                f"finite ci_halfwidth >= 0, got {mult}, {chi}, {ci}")
        rows.append({"method": parts[0], "chi": chi, "multiplicity": mult, "ci": ci})
    return rows


def _expand(rows):
    out = []
    for r in rows:
        out.extend([(r["chi"], r["ci"])] * r["multiplicity"])
    return out


def cmd_compare(args) -> int:
    for flag in ("sigmas", "rel"):
        value = getattr(args, flag)
        if not 0 <= value < math.inf:
            raise ConfigError(f"--{flag} must be finite and >= 0, got {value}")
    try:
        a = _expand(read_spectrum_csv(args.report_a))
        b = _expand(read_spectrum_csv(args.report_b))
    except (OSError, ConfigError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(a) != len(b):
        print(f"error: dimension mismatch ({len(a)} vs {len(b)})", file=sys.stderr)
        return 1
    ok = True
    for i, ((xa, ca), (xb, cb)) in enumerate(zip(a, b), start=1):
        sigma = math.hypot(ca, cb) / 1.96
        tol = max(args.sigmas * sigma, args.rel * max(abs(xa), abs(xb)))
        agree = abs(xa - xb) <= tol
        ok = ok and agree
        status = "agree" if agree else "DISAGREE"
        print(f"chi_{i}: {xa:+.6f} vs {xb:+.6f}  |diff|={abs(xa - xb):.6f} tol={tol:.6f} [{status}]")
    return 0 if ok else 2


# ----------------------------------------------------------------- parser


class _RemovedFlag(argparse.Action):
    """A flag that no longer exists: a config error that says why."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise ConfigError(f"{option_string}: {_WORKERS_REMOVED}")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, like config errors; 2 is
    reserved for a failed validation suite.  Subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_key_flags(parser, keys):
    """One flag per config key, converted as its _KEYS row says, and the
    removed --workers."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEYS[key][2])
    parser.add_argument("--workers", action=_RemovedFlag, help=argparse.SUPPRESS)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It holds no
    mutable default, so every parse_args call returns a fresh Namespace
    that no earlier call has touched, and no handler: `main` looks the
    handler up by subcommand name on every call, so a handler rebound
    after the parser was built is the one that runs."""
    p = _Parser(
        prog="hyplyap",
        description="Estimate the Lyapunov spectrum of a cocycle over the genus-2 surface "
                    "by three routes (Brownian paths, geodesic rays, diffusion), run the "
                    "validation suites that justify them, and compare two spectrum reports.",
        epilog="exit codes: 0 success, 1 usage or config error, 2 validation-suite failure")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config")
    _add_key_flags(run, _RUN_KEYS)

    cmp_ = sub.add_parser("compare", help="compare two spectrum CSVs")
    cmp_.add_argument("report_a")
    cmp_.add_argument("report_b")
    cmp_.add_argument("--sigmas", type=float, default=3.0)
    cmp_.add_argument("--rel", type=float, default=0.05)

    val = sub.add_parser("validate", help="run a named validation suite")
    val.add_argument("name", choices=_VALIDATIONS)
    _add_key_flags(val, ("n_paths", "seed", "output"))

    sub.add_parser("dump-surface", help="print the generator coefficients")
    return p


def cmd_validate(args) -> int:
    """`validate <suite>`: `run --method validate:<suite>` on the default
    config, written to validate_<suite>.  conversion, the one suite that
    reads a representation, gets diag(2, 1/2), I, I, I, which is exact; the
    other suites build none."""
    cfg = _config_from_raw({})
    cfg.output = f"validate_{args.name}"
    if args.name == "conversion":
        cfg.matrices = (np.diag([2.0, 0.5]), np.eye(2), np.eye(2), np.eye(2))
    args.method = f"validate:{args.name}"
    cfg = apply_flag_overrides(cfg, args)
    group = build_genus2()
    rep = build_representation(cfg, group) if _reads_representation(cfg.method) else None
    return _execute(cfg, group, rep)


def cmd_dump_surface(args) -> int:
    group = build_genus2()
    sys.stdout.write(group.export_text())
    print(f"# relator residual {group.relator_residual():.3e}")
    return 0


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        handler = {"run": cmd_run, "compare": cmd_compare, "validate": cmd_validate,
                   "dump-surface": cmd_dump_surface}[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
