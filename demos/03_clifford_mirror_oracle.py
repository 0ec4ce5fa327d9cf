"""A 24-qubit circuit the dual solves exactly -- and a cheap oracle
that proves it.

Mirror circuits (entangle with random two-qubit Cliffords, then apply
the inverses in reverse) are a standard benchmarking trick: without
noise the output returns to |0...0>, and with depolarizing noise the
exact output energy is still classically computable by propagating each
Pauli term of H = -sum Z_i through the Clifford layers.  Every layer
maps a Pauli string to one signed Pauli string and multiplies its
coefficient by (1-p)^(support size), so the oracle costs O(n d) strings.

The same structure keeps the Heisenberg dual chain thin: the evolved
target stays a sum of n Pauli strings, so bond dimension D = n loses
nothing and the dual reproduces the oracle at 24 qubits -- far beyond
dense simulation.

Run:  python3 demos/03_clifford_mirror_oracle.py
"""

import time

from noisebound import circuits, exact, trace_dual
from noisebound.noise import purity_schedule

n, p = 24, 0.05
terms = [("I" * i + "Z" + "I" * (n - i - 1), -1.0) for i in range(n)]

print(f"n = {n} qubits, p = {p}, H = -sum Z_i (ground energy {-n})")
print(f"{'d':>3s} {'stabilizer oracle':>18s} {'dual (D=n)':>12s} "
      f"{'|diff|':>9s} {'secs':>6s}")
for d in (4, 8, 12, 16, 20):
    circ, target = circuits.clifford_entangle_unentangle(n, d, p, seed=d)
    t0 = time.perf_counter()
    oracle = exact.stabilizer_energy(circ, terms)
    dual = trace_dual.heisenberg_tebd(circ, target, n)
    sched = purity_schedule(n, d, p)
    bound = trace_dual.dual_value(circ, dual, target, sched).bound
    dt = time.perf_counter() - t0
    print(f"{d:3d} {oracle:18.10f} {bound:12.6f} "
          f"{abs(bound - oracle):9.2e} {dt:6.2f}")

print("\nWithout noise the mirror would return every Z_i to itself and")
print("the energy would be -n; with noise each string keeps a damping")
print("factor per layer it survives.  The dual tracks the resulting")
print("decay to ~1e-10 with no exponential-cost simulation anywhere.")
