"""The functions of src/hyplyap that no command, bench workload or
acceptance criterion calls.

Usage, from anywhere:

    python tools/reach.py

In one process, under `sys.setprofile`, it runs on the checkout it sits in:

- `hyplyap run` on configs/diag22.cfg and configs/fuchsian.cfg for each
  route, with the configs' method and output lines removed and set by
  flags;
- every `validate` suite at its defaults;
- `compare` of two of those reports, and `dump-surface`;
- `bench/run.py --seed 0 --seconds 2 --trace 1` on each workload, through
  `runpy` with `bench/` on `sys.path` (its spans land in `.bench_out/`);
- `pytest tests/test_acceptance.py`.

It then prints each function defined in src/hyplyap (methods and nested
functions included, by qualified name) whose code never ran, with its line
count, decorators included, and the total.  Run outputs go to a temporary
directory; the commands' own printing is discarded.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyplyap"
ROUTES = ("brownian", "geodesic", "diffusion")
CONFIGS = ("diag22", "fuchsian")
SUITES = ("geometry", "cocycle", "semigroup", "dynkin", "kernel", "circle", "drift",
          "shadowing", "uniformity", "conversion")
WORKLOADS = ("spectrum", "diagnostics", "tracking")


def defined_functions():
    """{(file, qualname): line count} of every def in src/hyplyap."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, qual)] = child.end_lineno - first + 1
                visit(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path))
    return out


def traffic(tmp):
    from hyplyap import cli

    for name in CONFIGS:
        lines = (ROOT / "configs" / f"{name}.cfg").read_text().splitlines(keepends=True)
        cfg = Path(tmp, f"{name}.cfg")
        cfg.write_text("".join(line for line in lines
                               if line.split("=")[0].strip() not in ("method", "output")))
        for route in ROUTES:
            cli.main(["run", str(cfg), "--method", route,
                      "--output", str(Path(tmp, f"{name}_{route}"))])
    for suite in SUITES:
        cli.main(["validate", suite, "--output", str(Path(tmp, suite))])
    cli.main(["compare", str(Path(tmp, "diag22_brownian.csv")),
              str(Path(tmp, "diag22_diffusion.csv"))])
    cli.main(["dump-surface"])

    sys.path.insert(0, str(ROOT / "bench"))
    bench = runpy.run_path(str(ROOT / "bench" / "run.py"), run_name="bench_run")
    for workload in WORKLOADS:
        bench["main"](["--workload", workload, "--seed", "0", "--seconds", "2", "--trace", "1"])

    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    called = set()
    prefix = str(SRC)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            traffic(tmp)
        finally:
            sys.setprofile(None)

    unreached = sorted((key, n) for key, n in defined_functions().items() if key not in called)
    for (path, qual), n in unreached:
        print(f"{Path(path).stem}.{qual} {n}")
    print(f"total {len(unreached)} functions, {sum(n for _, n in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
