"""Config parsing, run artifacts, determinism, compare, dump-surface."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from hyplyap.cli import (
    ConfigError,
    ExperimentConfig,
    _KEYS,
    _SUITE_DEFAULTS,
    _execute,
    apply_flag_overrides,
    build_representation,
    main,
    make_parser,
    manifest_text,
    parse_config_text,
    read_spectrum_csv,
    run_validation,
)
from hyplyap import diffusion, lyapunov
from hyplyap.lyapunov import _JUMP_GAP, LyapunovError, _cadence_chain
from hyplyap.surface import build_genus2

GOOD_CONFIG = """
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
method = brownian
horizon = 10
step = 0.05
n_paths = 60
seed = 7
output = {out}
"""


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- parsing


def test_parse_good_config(tmp_path):
    cfg = parse_config_text(GOOD_CONFIG.format(out="x"))
    assert cfg.method == "brownian"
    assert cfg.dim == 2
    assert cfg.seed == 7
    assert np.allclose(cfg.matrices[0], np.diag([2.0, 0.5]))
    assert "seed" not in cfg.defaulted
    assert "n_dirs" in cfg.defaulted


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[run]\nmethod = brownian\nturbo = yes\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[tuning]\nmethod = brownian\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[run]\nseed = 1\nseed = 2\n")


def test_partial_representation_rejected():
    with pytest.raises(ConfigError, match="g1..g4"):
        parse_config_text("[representation]\ndim = 2\nfield = real\ng1 = 1 0 0 1\n")


def test_bad_method_rejected():
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config_text("[run]\nmethod = quantum\n")
    with pytest.raises(ConfigError, match="unknown validation"):
        parse_config_text("[run]\nmethod = validate:vibes\n")


def test_matrix_entry_count_checked():
    with pytest.raises(ConfigError, match="entries"):
        parse_config_text("[representation]\ndim = 2\nfield = real\n"
                          "g1 = 1 0 0\ng2 = 1 0 0 1\ng3 = 1 0 0 1\ng4 = 1 0 0 1\n")


def test_complex_matrix_pairs():
    cfg = parse_config_text(
        "[representation]\ndim = 1\nfield = complex\n"
        "g1 = (0, 1)\ng2 = (1, 0)\ng3 = (1, 0)\ng4 = (1, 0)\n"
    )
    assert cfg.matrices[0][0, 0] == 1j


def test_flag_conflict_is_error():
    cfg = parse_config_text(GOOD_CONFIG.format(out="x"))

    class Args:
        method = None
        horizon = None
        step = None
        n_paths = None
        n_dirs = None
        seed = 9
        output = None

    with pytest.raises(ConfigError, match="seed"):
        apply_flag_overrides(cfg, Args())


def test_flag_fills_defaults():
    cfg = parse_config_text("[run]\nmethod = geodesic\n")

    class Args:
        method = None
        horizon = 20.0
        step = None
        n_paths = None
        n_dirs = None
        seed = None
        output = None

    cfg = apply_flag_overrides(cfg, Args())
    assert cfg.horizon == 20.0
    assert "horizon" not in cfg.defaulted


def test_each_config_key_is_declared_once():
    # _KEYS is the one declaration of a key: the run flags are its [run]
    # rows, and every config attribute is set by exactly one row
    run_parser = next(action.choices["run"] for action in make_parser()._actions
                      if isinstance(action.choices, dict))
    dests = {action.dest for action in run_parser._actions} - {"help", "config"}
    assert dests == {key for key, row in _KEYS.items() if row[0] == "run"} | {"workers"}
    attrs = [row[1] for row in _KEYS.values() if row[1] is not None]
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(ExperimentConfig)
                                   if f.name not in ("matrices", "defaulted"))


@pytest.mark.parametrize("text, message", [
    ("[surface]\nmodel = torus\n", "surface must be genus2-octagon, got 'torus'"),
    ("[run]\nhorizon = inf\n", "horizon must be positive and finite"),
    ("[representation]\nfield = quaternion\n",
     "field must be real or complex, got 'quaternion'"),
    ("[representation]\ndim = 1\nfield = complex\n"
     "g1 = (1, 0) x\ng2 = (1, 0)\ng3 = (1, 0)\ng4 = (1, 0)\n",
     "complex matrix entries must all be (re, im) pairs; stray text 'x'"),
    ("[run]\nseed\n", "line 2: expected key = value, got 'seed'"),
    ("seed = 1\n[run]\n", "line 1: key outside any [section]"),
    ("[run]\nn_paths = 1e3\n",
     "bad value for n_paths: invalid literal for int() with base 10: '1e3'"),
    ("[representation]\ng1 = nan 0 0 1\ng2 = 1 0 0 1\ng3 = 1 0 0 1\ng4 = 1 0 0 1\n",
     "image of g1 has non-finite entries"),
    ("method,index,chi\nbrownian,1,0.03\n",
     "{path}: unexpected CSV header ['method', 'index', 'chi']"),
], ids=["surface", "horizon", "field", "stray_text", "no_equals", "no_section",
        "bad_int", "non_finite_image", "compare_header"])
def test_refused_input_exits_1(tmp_path, capsys, text, message):
    # the last case is a report for compare, the others configs for run
    path = write_config(tmp_path, text)
    if "{path}" in message:
        rc = run_cli(["compare", path, path])
    else:
        rc = run_cli(["run", path, "--output", str(tmp_path / "r")])
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert rc == 1 and errors == ["error: " + message.format(path=path)]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not list(tmp_path.glob("*.csv"))


# ------------------------------------------------------------------- runs


def run_cli(args):
    return main(args)


def test_run_missing_config_file(tmp_path, capsys):
    rc = run_cli(["run", str(tmp_path / "nope.cfg")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_trivial_rep_brownian(tmp_path, capsys):
    cfg = "[run]\nmethod = brownian\nhorizon = 5\nn_paths = 60\noutput = %s\n" % (
        tmp_path / "triv"
    )
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    assert rc == 0
    rows = read_spectrum_csv(str(tmp_path / "triv.csv"))
    assert rows[0]["chi"] == 0.0
    assert sum(r["multiplicity"] for r in rows) == 2
    manifest = (tmp_path / "triv.manifest.txt").read_text()
    assert "seed 0 (default)" in manifest
    assert "relator_residual" in manifest


def test_run_produces_byte_identical_csv(tmp_path):
    for sub in ("a", "b"):
        cfg_path = write_config(
            tmp_path, GOOD_CONFIG.format(out=tmp_path / sub / "run"), name=f"{sub}.cfg"
        )
        assert run_cli(["run", cfg_path]) == 0
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a == b


def test_run_projective_only_rep_exits_1(tmp_path, capsys):
    cfg = """
[representation]
dim = 2
field = real
g1 = 1 1 0 1
g2 = 1 0 1 1
g3 = 1 0 0 1
g4 = 1 0 0 1

[run]
method = brownian
horizon = 5
n_paths = 60
output = %s
""" % (tmp_path / "bad")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "g1..g4" in err and "residual" in err


_PROJECTIVE_CONFIG = ("[representation]\ng1 = 1 1 0 1\ng2 = 1 0 1 1\ng3 = 1 0 0 1\n"
                      "g4 = 1 0 0 1\n[run]\nmethod = validate:%s\noutput = %s\n")


def test_only_runs_that_read_a_representation_build_one(tmp_path, capsys):
    # kernel reads no representation: a projective-only one is accepted,
    # neither built nor recorded; conversion reads it and refuses it
    kernel = write_config(tmp_path, _PROJECTIVE_CONFIG % ("kernel", tmp_path / "k"), name="k.cfg")
    assert run_cli(["run", kernel]) == 0
    keys = _manifest_keys(tmp_path / "k.manifest.txt")
    assert not {"dim", "rep_field", "g1", "representation"} & set(keys)
    capsys.readouterr()
    conversion = write_config(tmp_path, _PROJECTIVE_CONFIG % ("conversion", tmp_path / "c"),
                              name="c.cfg")
    assert run_cli(["run", conversion]) == 1
    captured = capsys.readouterr()
    assert "projective-only" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exits_1(tmp_path, capsys, where):
    text = GOOD_CONFIG.format(out=tmp_path / "neg")
    if where == "config":
        argv = ["run", write_config(tmp_path, text.replace("seed = 7", "seed = -1"))]
    else:
        argv = ["run", write_config(tmp_path, text.replace("seed = 7\n", "")), "--seed", "-1"]
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: seed must be >= 0, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "neg.csv").exists()


def test_run_geodesic_and_diffusion_methods(tmp_path):
    for method, extra in (("geodesic", "n_dirs = 64\n"), ("diffusion", "n_paths = 120\n")):
        cfg = (
            "[representation]\ndim = 2\nfield = real\n"
            "g1 = 2 0 0 0.5\ng2 = 1 0 0 1\ng3 = 1 0 0 1\ng4 = 1 0 0 1\n"
            "[run]\nmethod = %s\nhorizon = 10\n%soutput = %s\n"
            % (method, extra, tmp_path / method)
        )
        rc = run_cli(["run", write_config(tmp_path, cfg, name=f"{method}.cfg")])
        assert rc == 0
        rows = read_spectrum_csv(str(tmp_path / (method + ".csv")))
        assert rows[0]["method"] == method
        assert sum(r["multiplicity"] for r in rows) == 2


ROUTE_CONFIG = """
[representation]
dim = 2
field = real
g1 = 2 0 0 0.5
g2 = 1 0 0 1
g3 = 1 0 0 1
g4 = 1 0 0 1

[run]
horizon = 60
n_paths = 400
seed = 5
"""


def test_routes_walk_independent_ensembles(tmp_path, capsys):
    cfg_path = write_config(tmp_path, ROUTE_CONFIG)
    outs = {}
    for method in ("brownian", "diffusion"):
        out = str(tmp_path / method)
        assert run_cli(["run", cfg_path, "--method", method, "--output", out]) == 0
        outs[method] = out + ".csv"
    a, b = (read_spectrum_csv(outs[m])[0]["chi"] for m in ("brownian", "diffusion"))
    assert a != b
    capsys.readouterr()
    assert run_cli(["compare", outs["brownian"], outs["diffusion"]]) == 0


def test_workers_config_key_exits_1(tmp_path, capsys):
    cfg = "[run]\nmethod = brownian\nworkers = 4\noutput = %s\n" % (tmp_path / "w")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: " in err and "workers was removed" in err
    assert not (tmp_path / "w.csv").exists()


def test_n_vectors_config_key_exits_1(tmp_path, capsys):
    cfg = "[run]\nmethod = brownian\nn_vectors = 64\noutput = %s\n" % (tmp_path / "v")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: " in err and "unknown key 'n_vectors'" in err
    assert not (tmp_path / "v.csv").exists()


def test_brownian_step_past_max_exits_1(tmp_path, capsys):
    cfg = "[run]\nmethod = brownian\nstep = 0.5\noutput = %s\n" % (tmp_path / "s")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: step must lie in (0, 0.05]" in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("method", ["geodesic", "diffusion"])
def test_step_past_max_exits_1_on_every_route(tmp_path, capsys, method):
    # the geodesic route reads no step, but one [run] section serves every
    # route, so a step no walker can take is refused there too
    cfg = "[run]\nmethod = %s\nhorizon = 2\nn_dirs = 8\nstep = 0.5\noutput = %s\n" % (
        method, tmp_path / "s")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("method", ["brownian", "geodesic", "diffusion"])
def test_overflowing_step_count_exits_1(tmp_path, capsys, method):
    # a horizon of 1e308, 1e9 or 6000 is past 5000, the end of MAX_JUMP_COUNT
    # ray steps of 0.5 and of 5000 Brownian gaps of 1: every route refuses
    # it before it lays out or takes its steps
    cfg = write_config(
        tmp_path, "[run]\nmethod = %s\nn_dirs = 8\noutput = %s\n" % (method, tmp_path / "h"))
    for horizon in ("1e308", "1e9", "6000"):
        t0 = time.perf_counter()
        rc = run_cli(["run", cfg, "--horizon", horizon])
        assert time.perf_counter() - t0 < 10.0, horizon
        err = capsys.readouterr().err
        assert rc == 1, horizon
        assert "error:" in err and "finite and at most" in err and "Traceback" not in err
        assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("method", ["brownian", "diffusion"])
def test_single_path_ensemble_exits_1(tmp_path, capsys, recwarn, method):
    # one path has no standard error: both ensemble routes refuse it before
    # walking, instead of a ddof=1 RuntimeWarning and a nan interval
    text = GOOD_CONFIG.format(out=tmp_path / "one").replace("method = brownian\n", "")
    cfg = write_config(tmp_path, text.replace("n_paths = 60\n", ""))
    rc = run_cli(["run", cfg, "--method", method, "--n-paths", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: an ensemble spectrum needs n_paths >= 2" in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "one.csv").exists()


@pytest.mark.parametrize("argv, code", [
    (["run", "CFG", "--bogus"], 1),
    (["run"], 1),
    (["run", "--help"], 0),
])
def test_usage_error_exit_codes(tmp_path, capsys, argv, code):
    cfg = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "u"))
    with pytest.raises(SystemExit) as exc:
        run_cli([cfg if a == "CFG" else a for a in argv])
    assert exc.value.code == code
    assert ("error:" in capsys.readouterr().err) == (code == 1)
    assert not (tmp_path / "u.csv").exists()


def test_top_level_help_names_nothing_private(capsys):
    # the description is for users: no private name of the cli module
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hyplyap") and "exit codes" in out
    assert re.findall(r"(?<!\w)_\w+", out) == []


_NO_SCIPY_SCRIPT = """
import sys
from hyplyap.cli import main
from hyplyap.lyapunov import _sphere_sample

out = sys.argv[1]
rc = main(["validate", "kernel", "--output", out + "/kernel"])
assert rc in (0, 2), ("kernel", rc)
for suite in ("semigroup", "dynkin", "circle", "shadowing", "uniformity"):
    rc = main(["validate", suite, "--n-paths", "100", "--output", out + "/" + suite])
    assert rc in (0, 2), (suite, rc)
_sphere_sample(5, 16)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


_COLD_IMPORT_SCRIPT = """
import sys
import hyplyap.cli

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
assert not loaded, loaded
"""


def _run_fresh(script, *args):
    """Run script in a fresh interpreter on this checkout's sources."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_diagnostics_import_no_scipy(tmp_path):
    # a cold start of the diagnostics suites pulls in numpy alone: scipy is a
    # test dependency, not a runtime one
    _run_fresh(_NO_SCIPY_SCRIPT, str(tmp_path))


def test_cli_import_leaves_concurrent_futures_unloaded():
    # concurrent.futures adds about 6 ms to a cold start, and nothing in
    # the package needs it
    _run_fresh(_COLD_IMPORT_SCRIPT)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_workers_flag_exits_1(tmp_path, capsys, command):
    target = "kernel"
    if command == "run":
        target = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "w"))
    rc = run_cli([command, target, "--workers", "2", "--output", str(tmp_path / "w")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: --workers" in err and "Traceback" not in err
    assert not (tmp_path / "w.csv").exists()


_LAZY_CONSTANTS_SCRIPT = """
import hyplyap.cli
from hyplyap.surface import build_genus2

assert build_genus2.cache_info().currsize == 0
assert hyplyap.cli.make_parser.cache_info().currsize == 0
"""


def test_import_builds_neither_group_nor_parser():
    # the shared group and parser are built on first use, never at import
    _run_fresh(_LAZY_CONSTANTS_SCRIPT)


def test_make_parser_returns_one_parser():
    assert make_parser() is make_parser()


_FLAG_CONFIG = "[run]\nhorizon = 5\nn_paths = 60\nn_dirs = 16\n"


def _call_artifacts(directory, argv):
    """(csv, manifest without its timestamp) of one in-process call whose
    output is the relative path "out" in directory."""
    directory.mkdir()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        assert main([*argv, "--output", "out"]) in (0, 2)
    finally:
        os.chdir(cwd)
    manifest = (directory / "out.manifest.txt").read_text().splitlines()
    return ((directory / "out.csv").read_text(),
            [line for line in manifest if not line.startswith("timestamp ")])


@pytest.mark.parametrize("first, second", [
    (["validate", "semigroup", "--n-paths", "200", "--seed", "3"],
     ["validate", "semigroup", "--seed", "3"]),
    (["run", "CFG", "--method", "geodesic", "--seed", "3"],
     ["run", "CFG", "--method", "brownian"]),
])
def test_consecutive_calls_leave_no_state(tmp_path, capsys, first, second):
    # the shared parser and group carry nothing from one call to the next:
    # a call made after another writes what it writes when made first
    cfg = write_config(tmp_path, _FLAG_CONFIG)
    first, second = ([cfg if a == "CFG" else a for a in argv] for argv in (first, second))
    alone = _call_artifacts(tmp_path / "alone", second)
    _call_artifacts(tmp_path / "before", first)
    after = _call_artifacts(tmp_path / "after", second)
    assert after == alone


@pytest.mark.parametrize("command", ["run", "validate"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x")
    target = write_config(tmp_path, _FLAG_CONFIG) if command == "run" else "kernel"
    rc = run_cli([command, target, "--output", out])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: cannot write {out}.csv: ")
    assert "Traceback" not in captured.err


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_fuchsian_config_matches_generators():
    from hyplyap.cocycle import fuchsian_representation

    with open(os.path.join(CONFIGS, "fuchsian.cfg")) as fh:
        cfg = parse_config_text(fh.read())
    rep = fuchsian_representation(build_genus2())
    for got, want in zip(cfg.matrices, rep.images):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method, message", [
    ("geodesic", "geodesic_spectrum needs n_dirs >= 8"),
    ("diffusion", "an ensemble spectrum needs n_paths >= 2"),
], ids=["geodesic", "diffusion"])
def test_fuchsian_config_runs_on_every_route(tmp_path, capsys, method, message):
    # at horizon 60 the uniformizing representation's smaller singular
    # value is below s_1 * eps; both routes deflate their frames as they
    # go, so they still read its exponent
    config = os.path.join(CONFIGS, "fuchsian.cfg")
    out = tmp_path / method
    rc = run_cli(["run", config, "--method", method, "--output", str(out)])
    assert rc == 0
    capsys.readouterr()
    with open(str(out) + ".csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    chi = [float(row[3]) for row in rows]
    tol = float(rows[0][5]) + 0.5 * build_genus2().circumradius / 60.0
    assert len(chi) == 2 and abs(chi[0] - 0.5) <= tol and abs(chi[0] + chi[1]) <= 1e-12

    # a spectrum route's LyapunovError still exits 1 with no CSV
    with open(config) as fh:
        small = fh.read().replace("n_paths = 400", "n_paths = 1").replace("n_dirs = 256",
                                                                           "n_dirs = 4")
    out = tmp_path / "small"
    rc = run_cli(["run", write_config(tmp_path, small), "--method", method, "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {message}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not os.path.exists(str(out) + ".csv")


def test_run_validation_method(tmp_path, capsys):
    cfg = "[run]\nmethod = validate:kernel\noutput = %s\n" % (tmp_path / "k")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[pass]") == 3
    assert (tmp_path / "k.csv").exists()


def test_run_validate_dynkin_pass_fail_lines(tmp_path, capsys):
    cfg = "[run]\nmethod = validate:dynkin\nn_paths = 400\noutput = %s\n" % (tmp_path / "d")
    rc = run_cli(["run", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    # one pass/fail line per test field
    assert out.count("dynkin(") == 3
    body = (tmp_path / "d.csv").read_text()
    assert body.splitlines()[0] == "name,lhs,rhs,tolerance,passed"


# `validate semigroup` and `validate dynkin` at seed 0, every row's (lhs,
# rhs, tolerance, passed) as read back from the CSV, pinned like
# test_lyapunov's _QR_PINS.  The constant rows are exact and draw nothing;
# the sampled rows move if any check's stream moves.
_SUITE_PINS = {
    "semigroup": {
        "semigroup(const(1.0); t=0.5; s=0.5)": (1.0, 1.0, 1e-12, True),
        "semigroup(exp(-dist); t=0.5; s=0.5)": (
            0.20781186133212287, 0.20331117421182035, 0.0208905471287363, True),
        "semigroup(re(z); t=1.0; s=1.0)": (
            0.011702629018077686, -0.006828758671240479, 0.08354430170730104, True),
    },
    "dynkin": {
        "dynkin(const(2.0); t=1.0)": (0.0, 0.0, 1e-09, True),
        "dynkin(re(z); t=1.0)": (-0.007072444103432772, 0.0, 0.044748265857848885, True),
        "dynkin(dist^2; t=1.0)": (
            5.525984270633583, 5.2248326620278736, 0.4506046010141909, True),
    },
}


@pytest.mark.parametrize("suite", sorted(_SUITE_PINS))
def test_diffusion_suite_rows_pinned(tmp_path, capsys, suite):
    assert run_cli(["validate", suite, "--seed", "0", "--output", str(tmp_path / "v")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,tolerance,passed"
    rows = {}
    for line in lines[1:]:
        name, lhs, rhs, tol, passed = line.rsplit(",", 4)
        rows[name] = (float(lhs), float(rhs), float(tol), passed == "1")
    assert rows == _SUITE_PINS[suite]


@pytest.mark.parametrize("suite", ["semigroup", "dynkin", "circle", "shadowing",
                                   "kernel", "cocycle", "geometry", "conversion",
                                   "drift", "uniformity"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_step_refused_by_suites_that_do_not_walk(tmp_path, capsys, suite, where):
    # every suite jumps exactly or draws nothing: a step would be recorded
    # without acting, so it is refused, naming the suite
    cfg = "[run]\nmethod = validate:%s\noutput = %s\n" % (suite, tmp_path / "v")
    extra = ["--step", "0.02"]
    if where == "config":
        cfg += "step = 0.02\n"
        extra = []
    rc = run_cli(["run", write_config(tmp_path, cfg), *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: validate:{suite} does not use step" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "v.csv").exists()


def test_step_free_suite_manifest_has_no_step(tmp_path, capsys):
    cfg = "[run]\nmethod = validate:kernel\nseed = 3\noutput = %s\n" % (tmp_path / "k")
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    manifest = (tmp_path / "k.manifest.txt").read_text().splitlines()
    assert not any(line.startswith(("step ", "horizon ", "n_dirs ")) for line in manifest)
    assert "seed 3" in manifest


def test_validate_manifest_marks_defaults(tmp_path, capsys):
    assert run_cli(["validate", "kernel", "--output", str(tmp_path / "k")]) == 0
    manifest = (tmp_path / "k.manifest.txt").read_text().splitlines()
    for line in ("seed 0 (default)", "method validate:kernel", f"output {tmp_path / 'k'}"):
        assert line in manifest
    assert not any(line.startswith(("step ", "n_paths ", "horizon ", "n_dirs "))
                   for line in manifest)
    assert run_cli(["validate", "drift", "--n-paths", "1000", "--seed", "4",
                    "--output", str(tmp_path / "d")]) == 0
    manifest = (tmp_path / "d.manifest.txt").read_text().splitlines()
    for line in ("n_paths 1000", "seed 4"):
        assert line in manifest
    assert not any(line.startswith(("step ", "horizon ", "n_dirs ")) for line in manifest)
    # uniformity chains exact jumps to horizon: horizon is recorded, marked
    # as a default, and step is not
    assert run_cli(["validate", "uniformity", "--n-paths", "1000",
                    "--output", str(tmp_path / "u")]) == 0
    manifest = (tmp_path / "u.manifest.txt").read_text().splitlines()
    for line in ("n_paths 1000", "horizon 60.0 (default)"):
        assert line in manifest
    assert not any(line.startswith(("step ", "n_dirs ")) for line in manifest)


@pytest.mark.parametrize("suite, key, value", [
    ("kernel", "horizon", "10"), ("drift", "horizon", "10"), ("cocycle", "horizon", "10"),
    ("shadowing", "horizon", "10"), ("kernel", "n_dirs", "8"),
    ("uniformity", "n_dirs", "8"), ("conversion", "n_dirs", "8"),
])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_horizon_and_n_dirs_refused_by_suites_that_do_not_read_them(
        tmp_path, capsys, suite, key, value, where):
    # only uniformity and conversion read horizon, and no suite reads n_dirs:
    # an explicit value would be recorded without acting
    cfg = "[run]\nmethod = validate:%s\noutput = %s\n" % (suite, tmp_path / "v")
    extra = ["--" + key.replace("_", "-"), value]
    if where == "config":
        cfg += f"{key} = {value}\n"
        extra = []
    rc = run_cli(["run", write_config(tmp_path, cfg), *extra])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: validate:{suite} does not use {key}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "v.csv").exists()


_CONVERSION_CONFIG = ("[representation]\ng1 = 2 0 0 0.5\ng2 = 1 0 0 1\ng3 = 1 0 0 1\n"
                      "g4 = 1 0 0 1\n[run]\nmethod = validate:conversion\nseed = 0\n"
                      "horizon = %s\noutput = %s\n")


@pytest.mark.parametrize("suite, horizon", [("uniformity", "10"), ("conversion", "0.25")])
def test_suite_refuses_a_horizon_below_its_minimum(tmp_path, capsys, suite, horizon):
    # a suite runs at the horizon it records, or not at all: below its
    # minimum (uniformity 40, conversion 0.5) it exits 1
    cfg = write_config(tmp_path, _CONVERSION_CONFIG.replace("conversion", suite)
                       % (horizon, tmp_path / "v"))
    rc = run_cli(["run", cfg])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "v.csv").exists()


def test_run_validate_takes_the_suite_defaults(tmp_path, capsys):
    # run --method validate:conversion with horizon and n_paths unset runs
    # what `validate conversion` runs, and records it
    text = _CONVERSION_CONFIG.replace("horizon = %s\n", "") % (tmp_path / "r")
    assert run_cli(["run", write_config(tmp_path, text)]) == 0
    assert run_cli(["validate", "conversion", "--seed", "0",
                    "--output", str(tmp_path / "v")]) == 0
    manifest = (tmp_path / "r.manifest.txt").read_text().splitlines()
    assert "horizon 5.0 (default)" in manifest and "n_paths 2000 (default)" in manifest
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()


@pytest.mark.parametrize("suite", sorted(_SUITE_DEFAULTS))
def test_manifest_records_the_suite_defaults(tmp_path, suite):
    # the keys a suite reads are filled from its defaults and recorded;
    # the keys it does not read are left out
    cfg = parse_config_text("[run]\noutput = %s\n" % (tmp_path / "m"))

    class Args:
        method = f"validate:{suite}"

    cfg = apply_flag_overrides(cfg, Args())
    lines = manifest_text(cfg, build_genus2()).splitlines()
    defaults = _SUITE_DEFAULTS[suite]
    for key in ("n_paths", "horizon"):
        recorded = [line for line in lines if line.startswith(key + " ")]
        want = [f"{key} {defaults[key]} (default)"] if key in defaults else []
        assert recorded == want, key


def test_conversion_runs_at_its_horizon_cap(tmp_path, capsys):
    path = write_config(tmp_path, _CONVERSION_CONFIG % ("12", tmp_path / "c"))
    assert run_cli(["run", path]) == 0
    assert "[pass] exp_conversion(t=12.0)" in capsys.readouterr().out
    assert "horizon 12.0" in (tmp_path / "c.manifest.txt").read_text().splitlines()


def test_conversion_refuses_a_horizon_past_its_cap(tmp_path, capsys):
    path = write_config(tmp_path, _CONVERSION_CONFIG % ("13", tmp_path / "c"))
    assert run_cli(["run", path]) == 1
    captured = capsys.readouterr()
    assert "error: validate:conversion needs horizon <= 12" in captured.err
    assert "n_paths" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("suite", ["cocycle", "geometry", "kernel"])
@pytest.mark.parametrize("where", ["config", "flag", "validate"])
def test_n_paths_refused_by_fixed_size_suites(tmp_path, capsys, suite, where):
    # cocycle and geometry sample a fixed number of points and kernel draws
    # nothing: an n_paths would be recorded without acting
    out = str(tmp_path / "v")
    cfg = "[run]\nmethod = validate:%s\noutput = %s\n" % (suite, out)
    if where == "config":
        argv = ["run", write_config(tmp_path, cfg + "n_paths = 7\n")]
    elif where == "flag":
        argv = ["run", write_config(tmp_path, cfg), "--n-paths", "7"]
    else:
        argv = ["validate", suite, "--n-paths", "7", "--output", out]
    rc = run_cli(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: validate:{suite} does not use n_paths" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "v.csv").exists()


def _manifest_keys(path):
    lines = path.read_text().splitlines()
    return [line.split(" ", 1)[0] for line in lines[3:]]  # after version, time, residual


def test_geodesic_route_ignores_step(tmp_path, capsys):
    # the rays step exactly, so a step, by config key (shared with the other
    # routes in one [run] section) or flag, is accepted, changes no byte of
    # the CSV and is not recorded; n_dirs is recorded once
    text = ROUTE_CONFIG.replace("horizon = 60", "horizon = 10") + "n_dirs = 64\n"
    csvs = []
    for tag, step_key, extra in (("a", "", []), ("b", "step = 0.02\n", []),
                                 ("c", "", ["--step", "0.02"])):
        cfg = write_config(tmp_path, text + step_key, name=f"{tag}.cfg")
        out = str(tmp_path / tag)
        assert run_cli(["run", cfg, "--method", "geodesic", "--output", out, *extra]) == 0
        csvs.append((tmp_path / f"{tag}.csv").read_bytes())
        keys = _manifest_keys(tmp_path / f"{tag}.manifest.txt")
        assert "step" not in keys and "n_paths" not in keys
        assert keys.count("n_dirs") == 1 and len(keys) == len(set(keys))
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("method", ["brownian", "diffusion"])
def test_walker_routes_ignore_step(tmp_path, capsys, method):
    # the walk jumps exactly from gap to gap: a step, by config key or flag,
    # is validated but changes no byte of the CSV and is not recorded
    text = ROUTE_CONFIG.replace("horizon = 60", "horizon = 10").replace("400", "100")
    csvs = []
    for tag, step_key, extra in (("a", "", []), ("b", "step = 0.02\n", []),
                                 ("c", "", ["--step", "0.02"])):
        cfg = write_config(tmp_path, text + step_key, name=f"{tag}.cfg")
        out = str(tmp_path / tag)
        assert run_cli(["run", cfg, "--method", method, "--output", out, *extra]) == 0
        csvs.append((tmp_path / f"{tag}.csv").read_bytes())
        assert "step" not in _manifest_keys(tmp_path / f"{tag}.manifest.txt")
    assert csvs[0] == csvs[1] == csvs[2]


@pytest.mark.parametrize("method", ["brownian", "diffusion"])
def test_walker_manifest_lists_each_key_once(tmp_path, capsys, method):
    # the walk jumps exactly, so step is not recorded, like n_dirs
    text = GOOD_CONFIG.format(out=tmp_path / "w").replace("method = brownian\n", "")
    assert run_cli(["run", write_config(tmp_path, text), "--method", method]) == 0
    keys = _manifest_keys(tmp_path / "w.manifest.txt")
    assert "n_dirs" not in keys and "step" not in keys and len(keys) == len(set(keys))
    assert {"n_paths", "master_seed"} <= set(keys)


@pytest.mark.parametrize("method, walk", [
    ("brownian", f"jump_gap {_JUMP_GAP}"),
    ("diffusion", f"jump_gap {_JUMP_GAP}"),
    ("geodesic", "spacing 0.5"),
])
def test_route_manifest_records_its_walk(tmp_path, capsys, method, walk):
    # each route's manifest says which walk wrote its CSV: the Brownian gap
    # of the brownian and diffusion routes, the ray spacing of the geodesic
    text = ROUTE_CONFIG.replace("horizon = 60", "horizon = 4").replace("400", "8")
    cfg = write_config(tmp_path, text + "n_dirs = 8\n")
    assert run_cli(["run", cfg, "--method", method, "--output", str(tmp_path / "w")]) == 0
    lines = (tmp_path / "w.manifest.txt").read_text().splitlines()
    assert walk in lines
    assert sum(line.startswith(("jump_gap ", "spacing ")) for line in lines) == 1


def test_manifests_record_python_numpy_and_platform(tmp_path, capsys):
    # the three provenance lines follow the header, once each, in a run
    # manifest and a validate manifest alike
    want = [f"python {sys.version.split()[0]}", f"numpy {np.__version__}",
            f"platform {sys.platform}"]
    text = GOOD_CONFIG.format(out=tmp_path / "r").replace("horizon = 10", "horizon = 2")
    assert run_cli(["run", write_config(tmp_path, text)]) == 0
    assert run_cli(["validate", "kernel", "--output", str(tmp_path / "v")]) == 0
    for tag in ("r", "v"):
        lines = (tmp_path / f"{tag}.manifest.txt").read_text().splitlines()
        assert lines[3:6] == want
        keys = _manifest_keys(tmp_path / f"{tag}.manifest.txt")
        assert all(keys.count(key) == 1 for key in ("python", "numpy", "platform"))


def test_diffusion_route_refuses_a_non_integer_horizon(tmp_path, capsys):
    # the route walks an integer horizon; 2.6 would have walked 3 while the
    # CSV said 2.6, so it exits 1 with no output instead
    cfg = write_config(tmp_path, ROUTE_CONFIG.replace("horizon = 60\n", ""))
    out = tmp_path / "d"
    rc = run_cli(["run", cfg, "--method", "diffusion", "--horizon", "2.6", "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: diffusion_spectrum needs an integer horizon n >= 1, got 2.6" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "d.manifest.txt").exists()


def test_uniformity_refuses_a_runaway_horizon(tmp_path, capsys):
    # the chain takes one jump per _JUMP_GAP and stops at horizon 5000, the
    # last it walks; 1e9 exits 1 before drawing
    cfg = write_config(tmp_path, "[run]\nmethod = validate:uniformity\noutput = %s\n"
                       % (tmp_path / "u"))
    t0 = time.perf_counter()
    rc = run_cli(["run", cfg, "--horizon", "1e9"])
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert rc == 1
    gap = _JUMP_GAP
    assert f"error: a cadence chain takes at most {5000 / gap:,.0f} jumps of {gap:g}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "u.csv").exists()
    with pytest.raises(LyapunovError, match="at most 5000, got 5000.5"):
        _cadence_chain(np.random.default_rng(0), 1, 5000.5)
    rho, _ = _cadence_chain(np.random.default_rng(0), 1, 5000.0)
    assert 4000.0 < rho[0] < 6000.0


def test_validate_uniformity_refuses_fewer_paths_than_bins(tmp_path, capsys):
    # one path over 32 bins always scores chi-square 31, p = 0.47: a pass
    # at every seed, so the suite refuses it
    rc = run_cli(["validate", "uniformity", "--n-paths", "1", "--output", str(tmp_path / "u")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: the direction check needs n_paths >= n_bins = 32, got 1" in err
    assert "Traceback" not in err and not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("suite", ["semigroup", "dynkin", "circle"])
def test_diffusing_suites_refuse_fewer_than_100_paths(tmp_path, capsys, monkeypatch, suite):
    # their checks average at least 100 diffusion endpoints: 99 paths are
    # refused by the CLI before any draw, by flag and by config key alike
    def refuse(*args, **kwargs):
        raise AssertionError("drew")

    monkeypatch.setattr(diffusion, "sample_heat_endpoints", refuse)
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f"[run]\nmethod = validate:{suite}\nn_paths = 99\n")
    for argv in (["validate", suite, "--n-paths", "99", "--output", str(tmp_path / "v")],
                 ["run", str(cfg), "--output", str(tmp_path / "v")]):
        rc = run_cli(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: validate:{suite} needs n_paths (--n-paths) >= 100, got 99" in err
        assert "Traceback" not in err and not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("suite", ["drift", "shadowing", "conversion"])
def test_median_and_error_suites_refuse_one_path(tmp_path, capsys, monkeypatch, suite):
    # one walker's drift is no median and one path has no standard error:
    # a single path is refused by the CLI before the group is built or any
    # draw, by flag and by config key alike
    def refuse(*args, **kwargs):
        raise AssertionError("built or drew")

    for name in ("sample_heat_endpoints", "_heat_jump_blocks", "_polar_walk"):
        monkeypatch.setattr(lyapunov, name, refuse)
    monkeypatch.setattr("hyplyap.cli.build_genus2", refuse)
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f"[run]\nmethod = validate:{suite}\nn_paths = 1\n")
    for argv in (["validate", suite, "--n-paths", "1", "--output", str(tmp_path / "v")],
                 ["run", str(cfg), "--output", str(tmp_path / "v")]):
        rc = run_cli(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: validate:{suite} needs n_paths (--n-paths) >= 2, got 1\n"
        assert not (tmp_path / "v.csv").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, route", [
    (["--method", "brownian"], "benettin_spectrum"),
    (["--method", "geodesic"], "geodesic_spectrum"),
    (["--method", "diffusion"], "diffusion_spectrum"),
    (["validate", "semigroup"], "check_semigroup"),
    (["validate", "shadowing"], "shadowing_report"),
], ids=["brownian", "geodesic", "diffusion", "semigroup", "shadowing"])
def test_an_ensemble_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch, argv, route):
    # the route raises MemoryError as numpy does for an n_paths or n_dirs
    # it cannot allocate; a real allocation that large is not made, since
    # whether it fails at once depends on the machine's overcommit policy
    monkeypatch.setattr(f"hyplyap.cli.{route}", _out_of_memory)
    out = str(tmp_path / "m")
    if argv[0] == "validate":
        rc = run_cli([*argv, "--output", out])
    else:
        text = GOOD_CONFIG.replace("method = brownian\n", "").format(out=out)
        rc = run_cli(["run", write_config(tmp_path, text), *argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "n_paths" in errors[0] and "n_dirs" in errors[0]
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("m.*"))


def test_a_representation_too_large_for_memory_exits_1(tmp_path, capsys, monkeypatch):
    # as numpy raises for a dim whose matrices it cannot allocate; no real
    # allocation that large is made
    monkeypatch.setattr("hyplyap.cli.Representation.from_matrices", _out_of_memory)
    text = "[representation]\ndim = 20000\n[run]\noutput = %s\n" % (tmp_path / "m")
    rc = run_cli(["run", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "out of memory" in errors[0] and "dim 20000" in errors[0]
    assert "Traceback" not in captured.err
    assert not list(tmp_path.glob("m.*"))


# ---------------------------------------------------------------- compare


def make_report(tmp_path, name, chis, cis, mults=None):
    mults = mults or [1] * len(chis)
    lines = ["method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples"]
    for i, (c, ci, m) in enumerate(zip(chis, cis, mults), start=1):
        lines.append(f"brownian,10,{i},{c!r},{m},{ci!r},0,100")
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_compare_identical_files(tmp_path):
    a = make_report(tmp_path, "a.csv", [0.03, -0.03], [0.002, 0.002])
    assert run_cli(["compare", a, a]) == 0


def test_compare_within_tolerance(tmp_path):
    a = make_report(tmp_path, "a.csv", [0.030, -0.030], [0.002, 0.002])
    b = make_report(tmp_path, "b.csv", [0.031, -0.031], [0.002, 0.002])
    assert run_cli(["compare", a, b]) == 0


def test_compare_disagreement(tmp_path):
    a = make_report(tmp_path, "a.csv", [0.030, -0.030], [0.0002, 0.0002])
    b = make_report(tmp_path, "b.csv", [0.050, -0.050], [0.0002, 0.0002])
    assert run_cli(["compare", a, b]) == 2


def test_compare_dimension_mismatch(tmp_path, capsys):
    a = make_report(tmp_path, "a.csv", [0.03, -0.03], [0.002, 0.002])
    b = make_report(tmp_path, "b.csv", [0.0], [0.002])
    assert run_cli(["compare", a, b]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


_ROW_NEEDS = "needs multiplicity >= 1, a finite chi and a finite ci_halfwidth >= 0"


@pytest.mark.parametrize("text, problem", [
    ("", "empty file"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n", "no spectrum rows"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1\n", "row 2 has 5 fields, expected 8"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1,0.002,0,100\nbrownian,10,2,-0.03,0,0.002,0,100\n",
     f"row 3 {_ROW_NEEDS}, got 0, -0.03, 0.002"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,-3,0.002,0,100\n", f"row 2 {_ROW_NEEDS}, got -3, 0.03, 0.002"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,nan,1,0.002,0,100\n", f"row 2 {_ROW_NEEDS}, got 1, nan, 0.002"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1,inf,0,100\n", f"row 2 {_ROW_NEEDS}, got 1, 0.03, inf"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1,-0.002,0,100\n", f"row 2 {_ROW_NEEDS}, got 1, 0.03, -0.002"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,x,0.002,0,100\n", "row 2: invalid literal for int() with base 10: 'x'"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1,0.002,0,100\nbrownian,10,2,abc,1,0.002,0,100\n",
     "row 3: could not convert string to float: 'abc'"),
    ("method,horizon,index,chi,multiplicity,ci_halfwidth,seed,n_samples\n"
     "brownian,10,1,0.03,1,,0,100\n", "row 2: could not convert string to float: ''"),
])
def test_compare_refuses_unreadable_report(tmp_path, capsys, text, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    good = make_report(tmp_path, "a.csv", [0.03, -0.03], [0.002, 0.002])
    for a, b in ((str(bad), str(bad)), (good, str(bad))):
        assert run_cli(["compare", a, b]) == 1
        err = capsys.readouterr().err
        assert f"error: {bad}: {problem}" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--sigmas", "nan"), ("--sigmas", "-1"), ("--sigmas", "inf"),
    ("--rel", "nan"), ("--rel", "-1"), ("--rel", "inf"),
])
def test_compare_refuses_a_bad_tolerance(tmp_path, capsys, flag, value):
    # a nan or negative tolerance would call every row a disagreement
    a = make_report(tmp_path, "a.csv", [0.03, -0.03], [0.002, 0.002])
    assert run_cli(["compare", a, a, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be finite and >= 0, got {float(value)}\n"
    assert captured.out == ""


def test_compare_block_structure_expansion(tmp_path):
    # one merged block vs two split blocks with matching values
    a = make_report(tmp_path, "a.csv", [0.0], [0.004], mults=[2])
    b = make_report(tmp_path, "b.csv", [0.001, -0.001], [0.004, 0.004])
    assert run_cli(["compare", a, b]) == 0


# ------------------------------------------------------------ validate cli


def test_validate_subcommand_geometry(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["validate", "geometry"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] octagon_relator" in out


def test_validate_subcommand_cocycle(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["validate", "cocycle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[pass] identity_law" in out
    assert "[pass] locate_roundtrip" in out


@pytest.mark.parametrize("suite", ["cocycle", "drift", "uniformity"])
def test_exact_suites_take_no_step_walk(tmp_path, capsys, monkeypatch, suite):
    # cocycle reads each walker at t = 1 and 2, and drift and uniformity
    # chain the routes' exact jumps: none runs a step walker, which only
    # the benchmark's layer timings call
    import hyplyap
    from hyplyap import cli, cocycle, diffusion, lyapunov, surface

    def refuse(*args, **kwargs):
        raise AssertionError("a step walker ran")

    # every binding of the names, so a module that imported one is caught too
    for module in (hyplyap, cli, cocycle, diffusion, lyapunov, surface):
        for name in ("sample_polar_endpoints", "sample_path"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    size = ["--n-paths", "1000"] if suite in ("drift", "uniformity") else []
    rc = run_cli(["validate", suite, *size, "--output", str(tmp_path / suite)])
    assert rc == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_validate_cocycle_catches_wrong_letters(tmp_path, capsys):
    # a letter log that names the wrong generator for two sides leaves the
    # representatives right but their words wrong: the round trip fails, and
    # the points just across sides 1 and 2 get each other's letter
    cfg = ExperimentConfig(method="validate:cocycle", n_paths=100, seed=0,
                           output=str(tmp_path / "c"))
    cfg.matrices = (np.diag([2.0, 0.5]), np.eye(2), np.eye(2), np.eye(2))
    # the fault goes into a private copy: build_genus2() is shared by the
    # whole process
    group = dataclasses.replace(build_genus2())
    rep = build_representation(cfg, group)
    assert _execute(cfg, group, rep) == 0
    letters = group._layout.letters
    group._layout.letters = (letters[1], letters[0]) + letters[2:]
    rows = {c["name"]: c for c in run_validation(cfg, group, rep)}
    assert not rows["identity_law"]["passed"] and not rows["locate_roundtrip"]["passed"]
    assert rows["identity_law"]["lhs"] == 2.0
    assert rows["locate_roundtrip"]["lhs"] > 1e-3
    capsys.readouterr()
    assert _execute(cfg, group, rep) == 2
    out = capsys.readouterr().out
    assert "[FAIL] identity_law" in out and "[FAIL] locate_roundtrip" in out


def test_validate_geometry_catches_wrong_letters():
    # the ray lift takes its generators from the layout's letter table: with
    # the letters of sides 1 and 2 swapped, in a private copy of the shared
    # group, the rays that cross those sides lift to the wrong points
    cfg = ExperimentConfig(method="validate:geometry", seed=0, output="unused")
    group = dataclasses.replace(build_genus2())
    rows = {c["name"]: c for c in run_validation(cfg, group, None)}
    assert rows["ray_lift"]["passed"]
    letters = group._layout.letters
    group._layout.letters = (letters[1], letters[0]) + letters[2:]
    rows = {c["name"]: c for c in run_validation(cfg, group, None)}
    assert not rows["ray_lift"]["passed"] and rows["ray_lift"]["lhs"] > 1e-3


def _suite_rows(suite, **kwargs):
    """{name: row} of a validation suite run at seed 0, in-process."""
    cfg = ExperimentConfig(method=f"validate:{suite}", seed=0, output="unused", **kwargs)
    return {c["name"]: c for c in run_validation(cfg, build_genus2(), None)}


def test_validate_geometry_rows_catch_perturbed_kernels(monkeypatch):
    # each retargeted row goes red when the kernel it checks is perturbed:
    # the ray move transporting its direction the wrong way, and the polar
    # jump 0.1% too long
    rows = _suite_rows("geometry")
    assert all(r["passed"] for r in rows.values()), rows
    ray_step, polar_step = lyapunov._ray_step, diffusion._polar_step

    def flipped(w, alpha, h):
        moved, turned = ray_step(w, alpha, h)
        return moved, 2.0 * alpha - turned

    monkeypatch.setattr(lyapunov, "_ray_step", flipped)
    rows = _suite_rows("geometry")
    assert not rows["ray_lift"]["passed"] and rows["ray_lift"]["lhs"] > 1e-3
    assert rows["polar_step_length"]["passed"]
    monkeypatch.undo()
    monkeypatch.setattr(diffusion, "_polar_step",
                        lambda rho, psi, n1, n2, scale: polar_step(rho, psi, n1, n2, 1.001 * scale))
    rows = _suite_rows("geometry")
    assert not rows["polar_step_length"]["passed"] and rows["polar_step_length"]["lhs"] > 1e-3
    assert rows["ray_lift"]["passed"]


def test_validate_uniformity_catches_half_circle_jumps(monkeypatch):
    # jump angles folded into [0, pi] always turn the chain the same way:
    # its final angles pile up and p drops to 0 (0.79 unperturbed).  The
    # fold acts on the draw site, so it reaches the first jump from the
    # origin, which lands at its drawn angle, as well as the later ones
    row = _suite_rows("uniformity", n_paths=10000)["direction_uniformity_p"]
    assert row["passed"] and row["lhs"] > 0.5
    tiles = diffusion._heat_jump_tiles

    def half_circle(*args):
        for cols, ell, tile in tiles(*args):
            np.subtract(np.pi, np.abs(np.pi - tile[:, 1]), out=tile[:, 1])
            yield cols, ell, tile

    monkeypatch.setattr(diffusion, "_heat_jump_tiles", half_circle)
    row = _suite_rows("uniformity", n_paths=10000)["direction_uniformity_p"]
    assert not row["passed"] and row["lhs"] < 1e-10


def test_validate_writes_summary_equal_to_stdout(tmp_path, capsys):
    rc = run_cli(["validate", "geometry", "--output", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "v.summary.txt").read_text() == out
    assert (tmp_path / "v.csv").exists() and (tmp_path / "v.manifest.txt").exists()


@pytest.mark.parametrize("name", ["dynkin", "semigroup"])
def test_validate_estimator_error_exits_1(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["validate", name, "--n-paths", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["drift", "--seed", "-1"], "seed must be >= 0, got -1"),
    # 0 is a value, not "unset": it must not fall back to the suite's 800
    (["semigroup", "--n-paths", "0"], "n_paths must be >= 1"),
], ids=["negative_seed", "zero_n_paths"])
def test_validate_bad_seed_or_size_exits_1(tmp_path, capsys, argv, message):
    rc = run_cli(["validate", *argv, "--output", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {message}" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "v.csv").exists()


# ------------------------------------------------------------ dump-surface


def test_dump_surface(capsys):
    rc = run_cli(["dump-surface"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("g")]
    assert len(lines) == 8
    # 17 significant digits round-trip through float exactly
    name, are, aim, bre, bim = lines[0].split()
    assert name == "g1"
    # cosh(inradius) up to the unit-determinant renormalization ulp
    assert float(are) == pytest.approx(
        math.cosh(math.acosh(1.0 / math.tan(math.pi / 8.0))), rel=1e-14
    )
