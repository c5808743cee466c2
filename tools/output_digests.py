"""Digests of every file hyplyap writes, to check that a change keeps its
outputs byte-identical.

Usage, with <src-dir> a checkout of this repository:

    python tools/output_digests.py <src-dir>

In a temporary directory it runs, on <src-dir>/src:

- `hyplyap run` on configs/diag22.cfg and configs/fuchsian.cfg for each
  route, with the configs' method and output lines removed and set by
  flags;
- every `validate` suite at its defaults.

It prints one "name sha256" line per .csv, .summary.txt and .manifest.txt,
sorted by name.  A manifest's timestamp line is left out of its digest.
Run it on two checkouts (say, one made with `git archive`) and diff the
output.  A run that exits with 1 stops the script with exit code 1.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROUTES = ("brownian", "geodesic", "diffusion")
CONFIGS = ("diag22", "fuchsian")
SUITES = ("geometry", "cocycle", "semigroup", "dynkin", "kernel", "circle", "drift",
          "shadowing", "uniformity", "conversion")


def _hyplyap(src: Path, cwd: str, *argv: str):
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    proc = subprocess.run([sys.executable, "-m", "hyplyap.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 2):   # 2 is a failed suite, which still writes
        sys.exit(f"hyplyap {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.txt"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"timestamp "))
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    src = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            lines = (src / "configs" / f"{name}.cfg").read_text().splitlines(keepends=True)
            cfg = Path(tmp, f"{name}.cfg")
            cfg.write_text("".join(line for line in lines
                                   if line.split("=")[0].strip() not in ("method", "output")))
            for route in ROUTES:
                _hyplyap(src, tmp, "run", str(cfg), "--method", route,
                         "--output", f"{name}_{route}")
        for suite in SUITES:
            _hyplyap(src, tmp, "validate", suite)
        for path in sorted(Path(tmp).iterdir()):
            if path.name.endswith((".csv", ".summary.txt", ".manifest.txt")):
                print(path.name, _digest(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
