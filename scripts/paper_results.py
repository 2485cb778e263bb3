#!/usr/bin/env python3
"""Write the paper's reports and print what they show.

Each job is a `beamlab` command line, run through `beamlab.cli.main` into
--out-dir (default results/), so any one report can be rebuilt with the
same `beamlab` command:

* negativity_sweep.csv: how far random two-beam states get below the
  negativity bound min(2 n_a, 2 n_b)/<n_a n_b> ~ 2/k, k photons per beam;
* jj_plasma.csv: plasma oscillation at N = 200, where the self-consistent
  run follows the pendulum at its matched frequency;
* jj_dichotomy.csv: strong charging at N = 4, where the exact <n1>(t)
  departs from the self-consistent one;
* fluctuations.csv: number variance and phase width against the
  background pair number, with their fitted exponents (+1 and -1/2).

    PYTHONPATH=src python3 scripts/paper_results.py --out-dir results
"""

import argparse
import pathlib
import sys

from beamlab import cli, reports

JOBS = {
    "negativity_sweep.csv": ["neg-sweep", "--seed", "20260810", "--samples", "400",
                             "--k-max", "10", "--workers", "2"],
    "jj_plasma.csv": ["compare", "--n-total", "200", "--e-c", "0.2", "--lam", "0.1",
                      "--n0", "100", "--phi0", "0.05", "--horizon", "5"],
    "jj_dichotomy.csv": ["compare", "--n-total", "4", "--e-c", "10", "--lam", "1"],
    "fluctuations.csv": ["fluctuations", "--n-bar1-values", "25,100,400,1600"],
}


def summary(name: str, rows: list[dict], header: dict) -> list[str]:
    if name == "negativity_sweep.csv":
        by_k = {}
        for row in rows:
            by_k.setdefault(row["cutoff"], []).append(row)
        return [f"k = {k:2d}: bound {batch[0]['bound_exact']:.4f}, max negativity "
                f"found {max(r['negativity'] for r in batch):.6f}"
                for k, batch in by_k.items()]
    if name == "fluctuations.csv":
        fit = header["fitted_exponents"]
        return [f"fitted exponents: number {fit['number']:+.4f} (expect +1), "
                f"phase {fit['phase']:+.4f} (expect -0.5)"]
    div = header["max_divergence"]
    phi = "undefined" if div["phi"] is None else f"{div['phi']:.4e}"  # NaN reads None
    return [f"max |n1_exact - n1_mf| = {div['n1']:.4e}, max |phi_exact - phi_mf| = "
            f"{phi}, min product fidelity of the exact state = "
            f"{min(r['fidelity_exact'] for r in rows):.4f}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    out_dir = pathlib.Path(ap.parse_args().out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, job in JOBS.items():
        path = out_dir / name
        code = cli.main(job + ["--out", str(path)])
        if code != cli.EXIT_OK:
            print(f"beamlab {' '.join(job)} exited {code}", file=sys.stderr)
            return code
        print(f"{path}: beamlab {' '.join(job)}")
        for line in summary(name, *reports.load_report(str(path))):
            print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
