"""The batch pipeline end to end, driven from a YAML config.

Everything the other demos do by hand -- building circuit families,
computing several bounds per grid point, cross-checking against an
oracle -- is also wired into a deterministic sweep runner with a small
command-line front end:

    noisebound validate demos/chain_sweep.yaml
    noisebound run      demos/chain_sweep.yaml
    noisebound plot     chain_sweep_results.csv --template bound_vs_depth
    noisebound oracle-check demos/chain_sweep.yaml   # = run --oracle

``oracle-check`` is ``run`` with the oracle forced on: it writes the same
CSV and checks every row against its grid point's exact energy.  This
script calls the same entry points in-process.  The CSV is written
with repr-exact floats and a fixed row order, so re-running a config
reproduces the file byte for byte; the plot step emits plain
whitespace-delimited .dat files plus a caption.txt describing each
curve (bounds <= 0 are flagged as trivial there, never clipped).

Run:  python3 demos/06_sweep_pipeline.py   (from the repository root)
"""

import os

from noisebound import cli
from noisebound.report import read_csv

here = os.path.dirname(__file__)
config = os.path.join(here, "chain_sweep.yaml")

print("validate:", "ok" if cli.main(["validate", config]) == 0 else "FAILED")
print("\nrunning the sweep (includes a dense oracle cross-check) ...")
code = cli.main(["run", config])
print("run exit code:", code)

rows = read_csv("chain_sweep_results.csv")
print(f"\n{len(rows)} rows; certified bounds at depth 7, p = 0.15:")
for r in rows:
    if r.depth == 7 and r.p == 0.15 and r.resource in (0, 16):
        print(f"  {r.method:>11s} (D/r = {r.resource:2d}): {r.bound: .6f}")

code = cli.main(["plot", "chain_sweep_results.csv",
                 "--template", "bound_vs_depth"])
print("\nplot exit code:", code)
plot_dir = "chain_sweep_results_plot"
print("plot files:")
for name in sorted(os.listdir(plot_dir)):
    print("  ", os.path.join(plot_dir, name))
