"""The three benchmark workloads: input generation, the timed solve and the
correctness gate.

Every input is generated from the workload seed.  The package is driven
only through its public calls and imported from ``src/`` of the checkout
this file sits in.  No BLAS or OpenMP environment variable is set here.

Each workload solves a list of *instances* (independent inputs derived from
the seed).  ``solve`` produces every certified bound of one instance;
``check`` returns (label, passed) pairs for one solved instance; ``gap`` is
the instance's bound tightness (lower is better).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import noisebound  # noqa: E402

if Path(noisebound.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"noisebound imported from {noisebound.__file__}, not {SRC}")

from noisebound import (circuits, cli, config, exact, fermion, noise,  # noqa: E402
                        report, sweep, trace_dual)

# Allowance for floating-point roundoff in the interval checks of chain16;
# the certified quantities are equal in exact arithmetic.
ROUNDOFF = 1e-12
# optimize_fermionic_dual keeps the best iterate, so nested radii may lose
# at most this much (its documented guarantee); the oracle tolerance is the
# same.
FERMION_TOL = 1e-9
# Tolerance of the sweep oracle check, as in `noisebound run` itself.
ORACLE_TOL = 1e-8


def instance_seed(seed: int, index: int) -> int:
    """Independent circuit seed for instance ``index`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@contextlib.contextmanager
def scratch_dir():
    """Temporary directory inside the checkout, removed on exit."""
    path = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Workload:
    """Defaults for workloads that need no reference value or clean-up."""

    def reference(self, inst):
        return None

    def clean(self, inst) -> None:
        """Undo what a solve left behind, outside the timed region."""


class Chain16(Workload):
    """16-site brick-wall mirror; Heisenberg TEBD dual at two bond dimensions."""

    name = "chain16"
    SIZES = {
        "full": dict(n=16, depth=25, theta=0.1, p=0.1, bonds=(16, 32), instances=4),
        "tiny": dict(n=6, depth=5, theta=0.1, p=0.1, bonds=(2, 4), instances=2),
    }

    def __init__(self, size: str):
        self.__dict__.update(self.SIZES[size])
        self.points = len(self.bonds)

    def setup(self, seed: int, tmp: str) -> list:
        return [circuits.brickwall_1d(self.n, self.depth, self.theta, self.p,
                                      instance_seed(seed, i))
                for i in range(self.instances)]

    def solve(self, inst) -> dict:
        circ, target = inst
        sched = noise.purity_schedule(self.n, self.depth, self.p)
        out = {}
        for bond in self.bonds:
            dual = trace_dual.heisenberg_tebd(circ, target, bond)
            out[bond] = (trace_dual.dual_value_trace(circ, dual, target, sched),
                         trace_dual.tebd_error_bound(circ, dual, target))
        return out

    def check(self, inst, ref, res) -> list[tuple[str, bool]]:
        checks = []
        upper = min(tr.boundary + float(np.sum(tr.penalties)) for tr, _ in res.values())
        for bond, (tr, te) in res.items():
            checks.append((f"D={bond} finite", bool(np.isfinite([tr.bound, te.bound]).all())))
            checks.append((f"D={bond} trace >= tebd, termwise",
                           tr.bound >= te.bound and tr.boundary == te.boundary
                           and bool(np.all(tr.penalties <= te.penalties))))
            for label, dv in (("trace", tr), ("tebd", te)):
                checks.append((f"D={bond} {label} <= min upper side",
                               dv.bound <= upper + ROUNDOFF))
        return checks

    def gap(self, inst, ref, res) -> float:
        tr, _ = res[max(self.bonds)]
        return 2.0 * float(np.sum(tr.penalties))


class Fermion48(Workload):
    """48-mode SSH chain mirror; locality-restricted fermionic dual."""

    name = "fermion48"
    SIZES = {
        "full": dict(n=48, depth=24, p=0.05, radii=(0, 1), maxiter=40, instances=1),
        "tiny": dict(n=8, depth=4, p=0.05, radii=(0, 1), maxiter=5, instances=1),
    }

    def __init__(self, size: str):
        self.__dict__.update(self.SIZES[size])
        self.points = len(self.radii)

    def setup(self, seed: int, tmp: str) -> list:
        return [fermion.fermion_brickwall_1d(self.n, self.depth, self.p,
                                             instance_seed(seed, i))
                for i in range(self.instances)]

    def solve(self, inst) -> dict:
        circ, target = inst
        sched = noise.info_schedule(self.n, self.depth, self.p)
        out, init = {}, None
        for r in self.radii:
            init, _, out[r] = fermion.optimize_fermionic_dual(
                circ, target, r, sched, init_s_list=init, maxiter=self.maxiter)
        return out

    def reference(self, inst) -> float:
        circ, target = inst
        return fermion.simulate_covariance(circ, target)[1]

    def check(self, inst, energy, res) -> list[tuple[str, bool]]:
        checks = []
        prev = -np.inf
        for r in self.radii:
            bound = res[r].bound
            checks.append((f"r={r} finite", bool(np.isfinite(bound))))
            checks.append((f"r={r} bound <= covariance energy",
                           bound <= energy + FERMION_TOL))
            checks.append((f"r={r} non-decreasing in radius",
                           bound >= prev - FERMION_TOL))
            prev = bound
        return checks

    def gap(self, inst, energy, res) -> float:
        return energy - res[max(self.radii)].bound


_SWEEP_YAML = """\
schema: 1
circuit:
  family: brickwall_1d
  n: {n}
  depth: {depths}
  theta: [0.1]
noise:
  model: {model}
  p: {ps}{extra}
methods: {methods}
ansatz:
  bond_dims: {bonds}
seed: {seed}
output: {output}
oracle: {oracle}
"""


class Sweep8(Workload):
    """Two generated 8-site configs run through ``noisebound run`` in-process."""

    name = "sweep8"
    SIZES = {
        "full": dict(n=8, depths=[3, 5, 7, 9], ps=[0.02, 0.05, 0.1, 0.2],
                     bonds=[4, 16], instances=1),
        "tiny": dict(n=4, depths=[3], ps=[0.05, 0.1], bonds=[2, 4], instances=1),
    }
    # (file stem, noise model, extra noise keys, methods, MPO methods)
    CONFIGS = [
        ("depolarizing", "depolarizing", "",
         ["trace_dual", "tebd_error", "info_only", "purity_only"], 2),
        ("nonunital", "nonunital", "\n  eps: 0.2",
         ["tebd_error", "nonunital_dual"], 2),
    ]

    def __init__(self, size: str):
        self.__dict__.update(self.SIZES[size])
        self.points = len(self.CONFIGS) * len(self.depths) * len(self.ps)

    def write_configs(self, seed: int, tmp: str, oracle: bool, tag: str) -> list[str]:
        paths = []
        for i, (stem, model, extra, methods, _) in enumerate(self.CONFIGS):
            path = os.path.join(tmp, f"{stem}{tag}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_SWEEP_YAML.format(
                    n=self.n, depths=self.depths, ps=self.ps, model=model,
                    extra=extra, methods="[" + ", ".join(methods) + "]",
                    bonds=self.bonds, seed=instance_seed(seed, i),
                    output=os.path.join(tmp, f"{stem}{tag}.csv"),
                    oracle=str(oracle).lower()))
            paths.append(path)
        return paths

    def setup(self, seed: int, tmp: str) -> list:
        return [self.write_configs(seed, tmp, oracle=True, tag="")]

    def solve(self, inst) -> dict:
        # cli.main prints one line per config; the run's stdout is reserved
        # for the result, so send it to stderr
        with contextlib.redirect_stdout(sys.stderr):
            return {path: cli.main(["run", path]) for path in inst}

    def clean(self, inst) -> None:
        # Overwriting a file that already reached the disk can cost tens of
        # milliseconds (e.g. on ext4 mounted with discard), so every solve
        # starts, like a first run, with no output files.
        for path in inst:
            output = config.load_config(path).output
            for name in (output, output + ".failures.txt"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(name)

    def expected_rows(self, n_mpo_methods: int, methods: list[str]) -> int:
        per_point = n_mpo_methods * len(self.bonds) + len(methods) - n_mpo_methods
        return per_point * len(self.depths) * len(self.ps)

    def reference(self, inst) -> dict:
        """Exact output energy of every grid point, keyed by config path."""
        energies = {}
        for path in inst:
            cfg = config.load_config(path)
            energies[path] = {}
            for pt in sweep.expand_grid(cfg):
                circ, target, _ = sweep.build_circuit(cfg, pt)
                energies[path][(pt.depth, pt.theta, pt.p)] = exact.dense_simulate(
                    circ, hamiltonian=target).energy
        return energies

    def check(self, inst, energies, res) -> list[tuple[str, bool]]:
        checks = []
        for path, (stem, _, _, methods, n_mpo) in zip(inst, self.CONFIGS):
            cfg = config.load_config(path)
            checks.append((f"{stem}: noisebound run exit 0", res[path] == 0))
            checks.append((f"{stem}: no failed points",
                           not os.path.exists(cfg.output + ".failures.txt")))
            rows = report.read_csv(cfg.output)
            checks.append((f"{stem}: CSV row count",
                           len(rows) == self.expected_rows(n_mpo, methods)))
            checks.append((f"{stem}: every bound <= oracle energy",
                           all(r.bound <= energies[path][(r.depth, r.theta, r.p)]
                               + ORACLE_TOL for r in rows)))
        return checks

    def gap(self, inst, energies, res) -> float:
        gaps = []
        for path in inst:
            for r in report.read_csv(config.load_config(path).output):
                gaps.append(energies[path][(r.depth, r.theta, r.p)] - r.bound)
        return max(gaps)


WORKLOADS = {w.name: w for w in (Chain16, Fermion48, Sweep8)}
