"""Non-unital noise: bounds that track a biased fixed point.

Unital noise drives every state toward I/2^n, which is what the purity
and information schedules exploit.  A replacement channel instead pulls
toward tau^(x n) for an arbitrary single-qubit state tau, and the
mixed-state energy Tr(H tau^(x n)) can sit anywhere in the spectrum.
The machinery adapts in three steps:

1. recover the largest replacement fraction q hiding inside the channel
   (largest q with  channel - q * replace-by-tau  still completely
   positive, found by bisection on Choi eigenvalues);
2. convert a relative-entropy recursion into certified Frobenius-distance
   caps d_t >= ||rho_t - tau^(x n)||_F   (this needs the two-site gates
   diagonal in the tau eigenbasis, hence the ZZ entanglers below);
3. charge each compression defect H_t as  Tr(H_t tau^(x n)) - d_t ||H_t||_F
   instead of the unital sqrt(P_t) ||H_t||_F.

Run:  python3 demos/04_replacement_noise_bounds.py
"""

import numpy as np

from noisebound import circuits, exact, trace_dual
from noisebound.mpo import expectation_product_state, frobenius_norm
from noisebound.noise import (
    biased_tau,
    max_replacement_fraction,
    relative_entropy_schedule,
    relent_product_state,
    replacement,
)

n, q0, eps, theta, seed = 4, 0.15, 0.2, 0.3, 12
tau = biased_tau(eps)
model = replacement(q0, tau)

q = max_replacement_fraction(model, tau)
print(f"replacement fraction: built with q = {q0}, recovered q = {q:.9f}")

print(f"\nn = {n}, ZZ-entangler brick-wall, tau = diag({0.5 + eps}, {0.5 - eps})")
print(f"{'d':>3s} {'dist cap d_t':>13s} {'nonunital dual':>15s} "
      f"{'arch-free':>10s} {'exact':>9s}")
for d in (1, 3, 5, 7):
    circ, target = circuits.brickwall_1d(
        n, d, theta, q0, seed, noise=model, entangler=circuits.zz_gate)
    rho0 = relent_product_state(circ.initial_state, tau)
    sched = relative_entropy_schedule(circ, tau, q, rho0)
    dual = trace_dual.heisenberg_tebd(circ, target, 4**n)
    dv = trace_dual.dual_value(circ, dual, target, sched)
    # architecture-free comparison: uses only ||H||_F and the final cap
    h_tau = expectation_product_state(target, [tau] * n)
    arch = trace_dual.architecture_free_bound_nonunital(
        h_tau, frobenius_norm(target), sched)
    energy = exact.dense_simulate(circ, hamiltonian=target).energy
    print(f"{d:3d} {sched.values[-1]:13.4f} {dv.bound:15.6f} "
          f"{arch:10.4f} {energy:9.5f}")

print("\nBoth certified columns stay below the exact energy; the dual")
print("uses the circuit and improves on the architecture-free line.")
