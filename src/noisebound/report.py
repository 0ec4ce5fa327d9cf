"""Structured results: one record per computed bound, plus CSV serialization.

The CSV column order is frozen so downstream tooling can rely on it:

    method,N,d,D_or_r,p,theta,seed,bound,boundary_term,penalty_sum,wall_time_s

Every bound decomposes as ``bound = boundary_term - penalty_sum``; the
record keeps both pieces so the split is auditable.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

CSV_COLUMNS = ("method", "N", "d", "D_or_r", "p", "theta", "seed",
               "bound", "boundary_term", "penalty_sum", "wall_time_s")

# every method a sweep can emit
METHODS = ("trace_dual", "tebd_error", "info_only", "purity_only",
           "nonunital_dual", "fermion_dual")


@dataclass
class BoundReport:
    """One lower bound (or exact value) for one circuit instance."""

    method: str
    n_sites: int
    depth: int
    resource: int            # MPO bond dimension D, or fermionic radius r
    p: float
    theta: float
    seed: int
    bound: float
    boundary_term: float = 0.0
    penalty_sum: float = 0.0
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; one of {METHODS}")
        gap = self.bound - (self.boundary_term - self.penalty_sum)
        if abs(gap) > 1e-9 * max(1.0, abs(self.bound)):
            raise ValueError(
                f"inconsistent report: bound {self.bound} != boundary "
                f"{self.boundary_term} - penalties {self.penalty_sum}")

    def csv_row(self, timings: bool = False) -> list[str]:
        t = self.wall_time_s if timings else 0.0
        return [self.method, str(self.n_sites), str(self.depth),
                str(self.resource), repr(float(self.p)), repr(float(self.theta)),
                str(self.seed), repr(float(self.bound)),
                repr(float(self.boundary_term)), repr(float(self.penalty_sum)),
                f"{t:.3f}"]


def write_csv(path: str, reports: Iterable[BoundReport],
              timings: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row(timings=timings))


def read_csv(path: str) -> list[BoundReport]:
    out = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {header}")
        for row in rd:
            out.append(BoundReport(
                method=row[0], n_sites=int(row[1]), depth=int(row[2]),
                resource=int(row[3]), p=float(row[4]), theta=float(row[5]),
                seed=int(row[6]), bound=float(row[7]),
                boundary_term=float(row[8]), penalty_sum=float(row[9]),
                wall_time_s=float(row[10])))
    return out


def config_digest(config: dict) -> str:
    """Stable short hash of a config dict (stamped into result files)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"),
                      default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]

