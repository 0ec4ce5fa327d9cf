"""Smallest possible instance: one qubit, one noisy layer.

A single qubit rotated by exp(-i theta Y) and then depolarized at rate p
has output energy (1-p) cos(2 theta) against H = Z.  This is the one
setting where everything can be written down in closed form, so it makes
a good first look at the two bound families:

* the Heisenberg dual chain is exact (no compression is ever needed on
  one site), so the trace-purity dual reproduces the output energy to
  machine precision;
* the purity-only floor ignores the circuit entirely and answers the
  question "how low could ANY state of this purity push the energy?" --
  for a single depolarized qubit that floor is -(1-p), i.e. the bound an
  adversarial rotation (theta = pi/2) actually attains.

Run:  python3 demos/01_single_qubit_exact_bound.py
"""

import numpy as np

from noisebound import circuits, exact, trace_dual
from noisebound.noise import purity_schedule

for p in (0.0, 0.1, 0.3):
    print(f"\ndepolarizing rate p = {p}")
    print(f"{'theta':>8s} {'dual bound':>12s} {'exact':>12s} "
          f"{'purity floor':>13s}")
    sched = purity_schedule(1, 1, p)
    # exact output purity of the depth-1 product circuit
    purity = p * p / 4.0 + (1.0 - p / 2.0) ** 2
    for theta in np.linspace(0.0, np.pi / 2, 7):
        circ, target = circuits.single_qubit_circuit(theta, p)
        dual = trace_dual.heisenberg_tebd(circ, target, 4)
        bound = trace_dual.dual_value(circ, dual, target, sched).bound
        energy = (1.0 - p) * np.cos(2.0 * theta)
        floor = exact.min_energy_at_purity(np.array([-1.0, 1.0]), purity)
        print(f"{theta:8.4f} {bound:12.8f} {energy:12.8f} {floor:13.8f}")
        assert abs(bound - energy) < 1e-10

print("\nThe dual tracks the output energy exactly at every angle; the")
print("purity floor is angle-independent and touches it at theta = pi/2.")
