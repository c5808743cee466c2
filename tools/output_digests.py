"""Digests of every file hyplyap writes, to check that a change keeps its
outputs byte-identical.

Usage, with <src-dir> a checkout of this repository:

    python tools/output_digests.py <src-dir> [--keep DIR]

In a temporary directory it runs, on <src-dir>/src:

- `hyplyap run` on configs/diag22.cfg and configs/fuchsian.cfg for each
  route, with the configs' method and output lines removed and set by
  flags;
- every `validate` suite at its defaults.

It prints one "name sha256" line per .csv, .summary.txt and .manifest.txt.
A manifest's timestamp line is left out of its digest.

It also runs each config and route once more with the domain-reduction
kernel, `surface._reduce_ensemble`, tapped, and prints one
"walk:<config>_<route> sha256" line: the digest of every (side, walker)
array the kernel reports and, after each call (each gap or ray step and
each initial reduction), every reduced position as float64 bytes and the
transported direction angles when the route carries them.  Positions and
letters can thus be compared even where the outputs hide a change.

Lines are sorted by name.  Run the script on two checkouts (say, one made
with `git archive`) and diff the output.  With `--keep DIR` it also copies
every file it digests into DIR (created if missing; manifests keep their
timestamp line), so the two checkouts' rows can be diffed where their
digests differ.  A run that exits with 1 stops the script with exit code 1.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROUTES = ("brownian", "geodesic", "diffusion")
CONFIGS = ("diag22", "fuchsian")
SUITES = ("geometry", "cocycle", "semigroup", "dynkin", "kernel", "circle", "drift",
          "shadowing", "uniformity", "conversion")


# `hyplyap <argv>` with every _reduce_ensemble call tapped; prints the walk
# digest on the last line of stdout
WALK_TAP = """
import contextlib, hashlib, io, sys
import numpy as np
from hyplyap import cli, cocycle, lyapunov, surface

digest = hashlib.sha256()
reduce = surface._reduce_ensemble

class Tap:
    def __init__(self, acc):
        self.acc = acc

    def apply(self, first, idx):
        digest.update(np.asarray(first, np.int64).tobytes())
        digest.update(np.asarray(idx, np.int64).tobytes())
        self.acc.apply(first, idx)

def tapped(data, z, alpha=None, acc=None):
    reduce(data, z, alpha, None if acc is None else Tap(acc))
    digest.update(np.ascontiguousarray(z, np.complex128).view(np.float64).tobytes())
    if alpha is not None:
        digest.update(np.ascontiguousarray(alpha, np.float64).tobytes())

for module in (surface, cocycle, lyapunov):
    module._reduce_ensemble = tapped
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(digest.hexdigest())
sys.exit(rc)
"""


def _hyplyap(src: Path, cwd: str, *argv: str, tap: bool = False) -> str:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    entry = ["-c", WALK_TAP] if tap else ["-m", "hyplyap.cli"]
    proc = subprocess.run([sys.executable, *entry, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 2):   # 2 is a failed suite, which still writes
        sys.exit(f"hyplyap {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".manifest.txt"):
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"timestamp "))
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", help="a checkout of this repository")
    parser.add_argument("--keep", metavar="DIR", help="copy every digested file into DIR")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    digests = []
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as walk_tmp:
        for name in CONFIGS:
            lines = (src / "configs" / f"{name}.cfg").read_text().splitlines(keepends=True)
            cfg = Path(tmp, f"{name}.cfg")
            cfg.write_text("".join(line for line in lines
                                   if line.split("=")[0].strip() not in ("method", "output")))
            for route in ROUTES:
                argv = ("run", str(cfg), "--method", route, "--output", f"{name}_{route}")
                _hyplyap(src, tmp, *argv)
                walk = _hyplyap(src, walk_tmp, *argv, tap=True).split()[-1]
                digests.append(f"walk:{name}_{route} {walk}")
        for suite in SUITES:
            _hyplyap(src, tmp, "validate", suite)
        for path in Path(tmp).iterdir():
            if path.name.endswith((".csv", ".summary.txt", ".manifest.txt")):
                digests.append(f"{path.name} {_digest(path)}")
                if args.keep:
                    shutil.copy(path, args.keep)
    print("\n".join(sorted(digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
