"""Depth sweep on an 8-site random brick-wall circuit.

The workhorse bound evolves the target Hamiltonian backward through the
circuit (Heisenberg picture) as an MPO, compressing to bond dimension D
after every layer.  Each compression leaves a defect operator H_t whose
Frobenius norm is known exactly; the bound charges sqrt(P_t) * ||H_t||_F
for it, where P_t is a certified cap on the state purity after t noisy
layers.  Setting P_t = 1 instead recovers the naive TEBD error bound --
same chain, strictly bigger penalties.

At 8 sites the dense oracle still fits in memory, so the table below
shows both bounds bracketing the true output energy, together with the
architecture-free information bound (which knows only the noise rate and
the spectrum of H, not the gates).

Run:  python3 demos/02_chain_bounds_vs_depth.py
"""

import numpy as np

from noisebound import circuits, exact, info_dual, trace_dual
from noisebound.noise import purity_schedule

n, theta, p, seed, bond = 8, 0.1, 0.1, 3, 8
modes = info_dual.chain_benchmark_modes(n)

print(f"n = {n}, theta = {theta}, p = {p}, bond dimension D = {bond}")
print(f"{'d':>3s} {'info-only':>10s} {'tebd-error':>11s} "
      f"{'trace dual':>11s} {'exact':>10s}")
for d in range(1, 14, 2):
    circ, target = circuits.brickwall_1d(n, d, theta, p, seed)
    sched = purity_schedule(n, d, p)
    dual = trace_dual.heisenberg_tebd(circ, target, bond)
    tr = trace_dual.dual_value(circ, dual, target, sched).bound
    te = trace_dual.dual_value(circ, dual, target,
                               purity_schedule(n, d, 0.0)).bound
    info = info_dual.info_bound(modes, n, p, d).bound
    energy = exact.dense_simulate(circ, hamiltonian=target).energy
    print(f"{d:3d} {info:10.5f} {te:11.5f} {tr:11.5f} {energy:10.5f}")

print("\nAll three columns are certified lower bounds on the rightmost")
print("one.  The trace dual dominates the TEBD-error bound term by term.")
print("The information bound ignores the gates entirely and is trivial")
print("here (negative = below the ground energy 0), but it climbs toward")
print("the maximally-mixed energy as depth grows, while the compressed")
print("chains stall once defects accumulate; the families cross at")
print("depths of order several times 1/p.")
