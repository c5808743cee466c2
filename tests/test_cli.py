"""Config parsing, run artifacts, determinism, compare, dump-surface."""

import math
import os

import numpy as np
import pytest

from hyplyap.cli import (
    ConfigError,
    ExperimentConfig,
    apply_flag_overrides,
    main,
    parse_config_text,
    read_spectrum_csv,
)

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


def test_seed_env_override(tmp_path, monkeypatch):
    cfg_path = write_config(
        tmp_path, GOOD_CONFIG.format(out=tmp_path / "env" / "run")
    )
    monkeypatch.setenv("HYPLYAP_SEED", "123")
    assert run_cli(["run", cfg_path]) == 0
    manifest = (tmp_path / "env" / "run.manifest.txt").read_text()
    assert "seed_env_override 123" in manifest
    assert "seed 123" in manifest


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


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def test_fuchsian_config_matches_generators():
    from hyplyap.cocycle import fuchsian_representation
    from hyplyap.surface import build_genus2

    cfg = parse_config_text(open(os.path.join(CONFIGS, "fuchsian.cfg")).read())
    rep = fuchsian_representation(build_genus2())
    for got, want in zip(cfg.matrices, rep.images):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("method", ["geodesic", "diffusion"])
def test_non_finite_spectrum_exits_1(tmp_path, capsys, method):
    # both routes decompose the whole product at the end, and at horizon 60
    # the uniformizing representation's smaller singular value underflows
    out = tmp_path / method
    rc = run_cli(["run", os.path.join(CONFIGS, "fuchsian.cfg"), "--method", method,
                  "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error: non-finite spectrum estimate" in captured.err
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
    assert "[pass] multiplicative_law" in out


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
