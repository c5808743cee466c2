"""A seed sweep of the statistical checks that the Brownian walk feeds: how
often each fails, and where the diag22 top exponent of each route sits.

Usage, with <src-dir> a checkout of this repository:

    python tools/sweep.py <src-dir>

It imports hyplyap from <src-dir>/src and the benchmark's workloads from
<src-dir>/bench, so two checkouts (say, one made with `git archive`) can be
swept and their tables compared.  In one process, on the seeds SEEDS
(1000-1119, which no test uses), it runs:

- the spectrum workload's route check: `hyplyap run` on the workload's
  diag22 config (rho(g1) = diag(2, 1/2), horizon 60, 400 paths, 256 rays)
  by the brownian, geodesic and diffusion routes, judged by the workload's
  own `_check_routes_agree`; each pair's |a - b| / combined_tolerance is
  also recorded;
- acceptance criterion 6's three comparisons at t = 60: Benettin over 400
  paths of RngStream(seed, 3), the geodesic grid mean over 256 rays, and
  the Brownian norm rate over 2000 paths of RngStream(seed, 4), streams
  that no route of `hyplyap run` (streams 0-2) walks;
- `validate conversion`, `drift` and `uniformity` at their defaults.

It prints, as markdown, the number of seeds at which each check failed
(with those seeds), and the mean, sd and standard error of the mean of
the diag22 chi_1 of each route.  The sweep takes about 40 s on a 2-vCPU
VM.
"""

import contextlib
import io
import math
import statistics
import sys
import tempfile
from pathlib import Path

SEEDS = range(1000, 1120)
ROUTES = ("brownian", "geodesic", "diffusion")
SUITES = ("conversion", "drift", "uniformity")


class Sweep:
    def __init__(self, hl, wl, tmp):
        self.hl, self.wl, self.tmp = hl, wl, Path(tmp)
        self.group = hl.build_genus2()
        self.rep22 = hl.diagonal_representation([2.0, 0.5])
        self.fails = {}     # check -> seeds at which it failed
        self.chi1 = {route: [] for route in ROUTES}
        self.worst = {}     # check -> worst |a - b| / tol
        _, rates = hl.geodesic_norm_rates(self.rep22, self.group, 60.0, 256)
        self.grid = (statistics.fmean(rates), statistics.stdev(rates) / math.sqrt(len(rates)))

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = self.hl.cli.main(list(argv))
        if rc not in (0, 2):
            sys.exit(f"hyplyap {' '.join(argv)} exited {rc}")

    def _rows(self, out):
        return self.wl._rows(out.with_suffix(".csv").read_text())[0]

    def _record(self, check, seed, a, sa, b, sb):
        ratio = abs(a - b) / self.wl.combined_tolerance(a, sa, b, sb)
        self.worst[check] = max(self.worst.get(check, 0.0), ratio)
        if not ratio <= 1.0:
            self.fails.setdefault(check, []).append(seed)
        return ratio <= 1.0

    def _route(self, route, seed):
        cfg = self.tmp / "spectrum.cfg"
        cfg.write_text(self.wl.SPECTRUM_CONFIG.format(seed=seed))
        out = self.tmp / route
        self._cli("run", str(cfg), "--method", route, "--output", str(out))
        rows = self._rows(out)
        return self.wl.OpRun(route, 0, value={"chi": [float(r[3]) for r in rows],
                                              "ci": [float(r[5]) for r in rows]})

    def seed(self, seed):
        hl = self.hl
        runs = {route: self._route(route, seed) for route in ROUTES}
        tops = {route: (run.value["chi"][0], run.value["ci"][0] / 1.96)
                for route, run in runs.items()}
        for i, a in enumerate(ROUTES):
            self.chi1[a].append(tops[a][0])
            for b in ROUTES[i + 1:]:
                self._record(f"route {a}-vs-{b}", seed, *tops[a], *tops[b])
        self.wl._check_routes_agree(list(runs.values()))
        if any(run.errors for run in runs.values()):
            self.fails.setdefault("route check (any pair)", []).append(seed)

        sp = hl.benettin_spectrum(self.rep22, self.group, 60.0, 0.05, 10, 400,
                                  hl.RngStream(seed, 3))
        benettin = (sp.exponents[0], sp.ci_halfwidths[0] / 1.96)
        norm = hl.brownian_norm_rate(self.rep22, self.group, 60.0, 2000, 0.05,
                                     hl.RngStream(seed, 4))
        ok = self._record("c6 benettin-vs-geodesic", seed, *benettin, *self.grid)
        ok &= self._record("c6 benettin-vs-brownian", seed, *benettin, *norm)
        ok &= self._record("c6 geodesic-vs-brownian", seed, *self.grid, *norm)
        if not ok:
            self.fails.setdefault("c6 (any pair)", []).append(seed)

        for suite in SUITES:
            out = self.tmp / f"validate_{suite}"
            self._cli("validate", suite, "--seed", str(seed), "--output", str(out))
            if any(row[4] != "1" for row in self._rows(out)):
                self.fails.setdefault(f"validate {suite}", []).append(seed)

    def table(self, seeds):
        checks = [f"route {a}-vs-{b}" for i, a in enumerate(ROUTES) for b in ROUTES[i + 1:]]
        checks += ["route check (any pair)", "c6 benettin-vs-geodesic",
                   "c6 benettin-vs-brownian", "c6 geodesic-vs-brownian", "c6 (any pair)"]
        checks += [f"validate {suite}" for suite in SUITES]
        lines = [f"seeds {seeds[0]}-{seeds[-1]} ({len(seeds)})", "",
                 "| check | failed | worst \\|a-b\\|/tol | failing seeds |", "|---|---|---|---|"]
        for check in checks:
            failed = self.fails.get(check, [])
            worst = f"{self.worst[check]:.3f}" if check in self.worst else "-"
            lines.append(f"| {check} | {len(failed)} | {worst} | "
                         f"{' '.join(map(str, failed)) or '-'} |")
        lines += ["", "| route | diag22 chi_1 mean | sd | se of mean |", "|---|---|---|---|"]
        for route, xs in self.chi1.items():
            sd = statistics.stdev(xs) if len(xs) > 1 else 0.0
            lines.append(f"| {route} | {statistics.fmean(xs):.5f} | {sd:.5f} | "
                         f"{sd / math.sqrt(len(xs)):.5f} |")
        return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    src = Path(sys.argv[1]).resolve()
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    import hyplyap
    import hyplyap.cli
    import workloads

    seeds = list(SEEDS)
    with tempfile.TemporaryDirectory() as tmp:
        sweep = Sweep(hyplyap, workloads, tmp)
        for seed in seeds:
            sweep.seed(seed)
    print(sweep.table(seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
