"""Single-qubit noise channels and the mixing schedules they certify.

Channels are described by :class:`NoiseModel`.  Choi matrices use the
unnormalized convention with the input factor first,

    Phi = sum_{jk} |j><k| (x) N(|j><k|),

so the Choi matrix of the identity channel has trace 2 and trace-preservation
reads "partial trace over the output factor equals the identity".

Schedules are per-time-step sequences certified by the channel structure:
purity caps P_t and information-content caps I_t (bits) for unital noise,
and Frobenius-distance caps d_t >= ||rho_t - tau^xN||_F for non-unital noise
with fixed point tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mpo import _EYE2, PAULI, Array

if TYPE_CHECKING:  # pragma: no cover
    from .circuits import CircuitSpec


# ---------------------------------------------------------------------------
# noise models


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """A single-qubit channel applied to every site after a circuit layer.

    kind is one of ``depolarizing | unital_pauli | replacement | general``.
    Only the fields relevant to the kind are populated.
    """

    kind: str
    p: float = 0.0
    pauli_rates: tuple[float, float, float] | None = None
    u: Array | None = None
    v: Array | None = None
    q: float = 0.0
    tau: Array | None = None
    choi: Array | None = None


def depolarizing(p: float) -> NoiseModel:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing rate p={p} outside [0, 1]")
    return NoiseModel(kind="depolarizing", p=float(p))


def unital_pauli(px: float, py: float, pz: float,
                 u: Array | None = None, v: Array | None = None) -> NoiseModel:
    """(1-p) rho + V (sum_P p_P P U rho U^dag P) V^dag with p = px+py+pz."""
    rates = (float(px), float(py), float(pz))
    if min(rates) <= 0.0:
        raise ValueError("unital_pauli requires px, py, pz > 0 (full Kraus rank)")
    if sum(rates) >= 1.0:
        raise ValueError("unital_pauli requires px + py + pz < 1")
    u = _EYE2.copy() if u is None else np.asarray(u, dtype=complex)
    v = _EYE2.copy() if v is None else np.asarray(v, dtype=complex)
    for w in (u, v):
        if np.abs(w.conj().T @ w - np.eye(2)).max() > 1e-10:
            raise ValueError("U, V must be unitary")
    return NoiseModel(kind="unital_pauli", pauli_rates=rates, u=u, v=v)


def check_density_matrix(tau: Array, name: str = "tau") -> Array:
    tau = np.asarray(tau, dtype=complex)
    if tau.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2")
    if np.abs(tau - tau.conj().T).max() > 1e-10:
        raise ValueError(f"{name} must be Hermitian")
    if abs(np.trace(tau).real - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(tau).min() < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")
    return tau


def replacement(q: float, tau: Array) -> NoiseModel:
    """With probability q, trace out the qubit and insert the state tau."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"replacement fraction q={q} outside [0, 1]")
    tau = check_density_matrix(tau)
    return NoiseModel(kind="replacement", q=float(q), tau=tau)


def general_channel(choi: Array) -> NoiseModel:
    choi = np.asarray(choi, dtype=complex)
    _validate_choi(choi)
    return NoiseModel(kind="general", choi=choi)


def biased_tau(eps: float) -> Array:
    """tau_eps = (1/2 + eps)|0><0| + (1/2 - eps)|1><1|."""
    if not -0.5 < eps < 0.5:
        raise ValueError("eps must lie in (-1/2, 1/2) for a full-rank state")
    return np.diag([0.5 + eps, 0.5 - eps]).astype(complex)


# ---------------------------------------------------------------------------
# Choi matrices and superoperators


def _validate_choi(choi: Array) -> None:
    if choi.shape != (4, 4):
        raise ValueError("Choi matrix must be 4x4")
    if np.abs(choi - choi.conj().T).max() > 1e-10:
        raise ValueError("Choi matrix must be Hermitian")
    if np.linalg.eigvalsh(choi).min() < -1e-10:
        raise ValueError("Choi matrix must be positive semidefinite")
    tr_out = np.einsum("jaka->jk", choi.reshape(2, 2, 2, 2))
    if np.abs(tr_out - np.eye(2)).max() > 1e-8:
        raise ValueError("channel is not trace preserving")


def _apply_model(model: NoiseModel, x: Array) -> Array:
    """Apply the channel to an arbitrary 2x2 matrix."""
    if model.kind == "depolarizing":
        return (1.0 - model.p) * x + model.p * np.trace(x) * 0.5 * _EYE2
    if model.kind == "replacement":
        return (1.0 - model.q) * x + model.q * np.trace(x) * model.tau
    if model.kind == "unital_pauli":
        px, py, pz = model.pauli_rates
        p = px + py + pz
        y = model.u @ x @ model.u.conj().T
        mixed = (px * PAULI["X"] @ y @ PAULI["X"]
                 + py * PAULI["Y"] @ y @ PAULI["Y"]
                 + pz * PAULI["Z"] @ y @ PAULI["Z"])
        return (1.0 - p) * x + model.v @ mixed @ model.v.conj().T
    if model.kind == "general":
        k = superop_matrix(model)
        return (k @ x.reshape(4)).reshape(2, 2)
    raise ValueError(f"unknown noise kind {model.kind!r}")


def choi_matrix(model: NoiseModel) -> Array:
    """Unnormalized Choi matrix, input factor first."""
    if model.kind == "general":
        return model.choi.copy()
    phi = np.zeros((2, 2, 2, 2), dtype=complex)  # [j, a, k, b]
    for j in range(2):
        for k in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[j, k] = 1.0
            phi[j, :, k, :] = _apply_model(model, e)
    choi = phi.reshape(4, 4)
    _validate_choi(choi)
    return choi


def superop_matrix(model: NoiseModel) -> Array:
    """4x4 matrix K with vec(N(X)) = K vec(X), row-major vec."""
    if model.kind == "general":
        phi = model.choi.reshape(2, 2, 2, 2)
        return phi.transpose(1, 3, 0, 2).reshape(4, 4).copy()
    phi = choi_matrix(model).reshape(2, 2, 2, 2)
    return phi.transpose(1, 3, 0, 2).reshape(4, 4)


# ---------------------------------------------------------------------------
# schedules


@dataclass
class BoundSchedule:
    """Certified per-step caps; ``values[t-1]`` applies after step t.

    kind: ``purity`` (caps on Tr rho_t^2), ``info`` (caps on I(rho_t) in
    bits), or ``frobenius_distance`` (caps on ||rho_t - tau^xN||_F, with
    the fixed point ``tau``).
    """

    kind: str
    values: np.ndarray
    tau: Array | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("schedule values must be a non-empty 1D array")


def unital_rate(model: NoiseModel) -> float:
    """Effective mixing rate entering the purity/info schedules."""
    if model.kind == "depolarizing":
        return model.p
    if model.kind == "unital_pauli":
        return min(model.pauli_rates)
    raise ValueError(f"{model.kind!r} noise admits no unital mixing schedule")


def purity_schedule(n: int, depth: int, p: float) -> BoundSchedule:
    """P_t = 2^{-n (1 - (1-p)^t)} for t = 1..depth."""
    t = np.arange(1, depth + 1)
    vals = np.exp2(-n * (1.0 - (1.0 - p) ** t))
    return BoundSchedule("purity", vals)


def info_schedule(n: int, depth: int, p: float) -> BoundSchedule:
    """I_t = n (1-p)^t bits for t = 1..depth."""
    t = np.arange(1, depth + 1)
    vals = n * (1.0 - p) ** t
    return BoundSchedule("info", vals)


def max_replacement_fraction(model_or_choi, tau: Array) -> float:
    """Largest q <= 1 with Phi_N - q I (x) tau >= 0.

    This is the replacement fraction of the channel with respect to the
    fixed point tau.  With S = (I (x) tau)^(-1/2), Phi - q I (x) tau =
    S^-1 (S Phi S - q) S^-1, so the largest such q is lambda_min(S Phi S).
    Raises if that is below 1e-6 (channel has no replacement component,
    e.g. the identity).
    """
    if isinstance(model_or_choi, NoiseModel):
        choi = choi_matrix(model_or_choi)
    else:
        choi = np.asarray(model_or_choi, dtype=complex)
        _validate_choi(choi)
    tau = check_density_matrix(tau)
    w, u = np.linalg.eigh(tau)
    if w.min() < 1e-12:
        raise ValueError("tau must be full rank")
    s = np.kron(np.eye(2), (u * w ** -0.5) @ u.conj().T)
    q = float(np.linalg.eigvalsh(s @ choi @ s).min())
    lo = 1e-6
    if q < lo:
        raise ValueError(
            "no replacement component: Phi - q I(x)tau has a negative "
            f"eigenvalue already at q = {lo:g}")
    return min(q, 1.0)


def dinf_term(v: Array, tau: Array) -> float:
    """Max-relative-entropy increment log2 || tau^-1/2 V tau V^dag tau^-1/2 ||."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (2, 2):
        raise ValueError("V must be a single-qubit gate")
    if np.abs(v.conj().T @ v - np.eye(2)).max() > 1e-10:
        raise ValueError("V must be unitary")
    tau = check_density_matrix(tau)
    w, u = np.linalg.eigh(tau)
    if w.min() < 1e-12:
        raise ValueError("tau must be full rank for the D_inf term")
    inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
    m = inv_sqrt @ v @ tau @ v.conj().T @ inv_sqrt
    top = np.linalg.eigvalsh(m).max()
    return max(0.0, float(np.log2(top)))


def relent_product_state(local_states: list[Array], tau: Array) -> float:
    """D(rho_1 x ... x rho_n || tau^xn) in bits."""
    tau = check_density_matrix(tau)
    w, u = np.linalg.eigh(tau)
    if w.min() < 1e-12:
        raise ValueError("tau must be full rank")
    log_tau = (u * np.log2(w)) @ u.conj().T
    total = 0.0
    for rho in local_states:
        rho = check_density_matrix(rho, "rho")
        ev = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
        ent = float(-np.sum(ev[ev > 1e-300] * np.log2(ev[ev > 1e-300])))
        total += -ent - float(np.trace(rho @ log_tau).real)
    return total


def relative_entropy_schedule(circuit: "CircuitSpec", tau: Array, q: float,
                              rho0_relent: float) -> BoundSchedule:
    """Frobenius-distance caps d_t for circuits with replacement-type noise.

    Uses the relative-entropy recursion

        D_t = (1 - q) (D_{t-1} + 2 sum_alpha dinf_term(V_{t,alpha}, tau))

    (entropies in bits), converted to a distance via
    d_t^2 = sqrt(2 D_t), i.e. d_t = (2 D_t)^(1/4).

    Every two-site gate in the circuit must commute with tau (x) tau
    (within 1e-10), which keeps the single-qubit gates as the only sources
    of relative-entropy increase.
    """
    tau = check_density_matrix(tau)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if rho0_relent < 0.0:
        raise ValueError("initial relative entropy must be nonnegative")
    tau2 = np.kron(tau, tau)
    d_vals = []
    dt_rel = float(rho0_relent)
    for t, layer in enumerate(circuit.layers, start=1):
        gate_sum = 0.0
        for gate in layer.gates:
            if len(gate.sites) == 1:
                gate_sum += dinf_term(gate.matrix, tau)
            else:
                comm = gate.matrix @ tau2 - tau2 @ gate.matrix
                if np.abs(comm).max() > 1e-10:
                    raise ValueError(
                        f"two-site gate on {gate.sites} at layer {t} does not "
                        "commute with tau (x) tau; the distance schedule "
                        "requires gates diagonal in the tau eigenbasis")
        dt_rel = (1.0 - q) * (dt_rel + 2.0 * gate_sum)
        d_vals.append((2.0 * dt_rel) ** 0.25)
    return BoundSchedule("frobenius_distance", np.array(d_vals), tau)
