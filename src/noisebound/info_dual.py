"""Entropy-based lower bounds: Gibbs free energies, the architecture-free
information-content bound with a temperature cutoff, and the per-step
information-content dual at dense-oracle scale.

Unit convention: information contents and entropies are handled in bits at
the API surface; free energies use natural logarithms.  Every combination
point multiplies bit-quantities by ln 2, so

    bound = max_lambda [ lambda * ln2 * S_bits + G(H, lambda) ]

with G(H, lambda) = -lambda * ln Tr exp(-H / lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.special import expit, logsumexp

from .circuits import CircuitSpec
from .mpo import _DENSE_SITE_CAP, MPO
from .noise import BoundSchedule
from .report import BoundReport
from .trace_dual import DualValue, TebdDual, boundary_term, defect_mpos

LN2 = math.log(2.0)

# Temperature floor below which generic many-body free energies stop being
# classically certifiable; 8 e^3 ~ 160.7 in the scaled energy units.
DEFAULT_TEMPERATURE_CUTOFF = 8.0 * math.e**3


def golden_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a concave function on [lo, hi] given ``f(x) -> (value, slope)``.

    The maximizer is ``lo`` when the slope there is <= 0, ``hi`` when the
    slope there is >= 0, and otherwise the sign change of the slope, found
    by Brent's method on ln x (the temperature ranges used here span many
    decades).  Returns (argmax, f(argmax)[0]), so the value reported is
    always the objective at the point returned.

    The name is kept for the span tracer in ``bench/tracer.py``, which
    probes ``info_dual.golden_section_max`` and ``fermion.golden_section_max``
    and counts objective evaluations by wrapping the first positional
    argument.  Callers therefore pass ``f`` positionally and call the search
    through this module's name.
    """
    if not 0.0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    v_lo, s_lo = f(lo)
    if s_lo <= 0.0:
        return lo, v_lo
    v_hi, s_hi = f(hi)
    if s_hi >= 0.0:
        return hi, v_hi
    u = scipy.optimize.brentq(lambda u: f(math.exp(u))[1],
                              math.log(lo), math.log(hi), xtol=1e-14)
    x = math.exp(u)
    return x, f(x)[0]


@dataclass
class TwoLevelModes:
    """Spectrum of a sum of independent two-level terms: ground energy
    ``offset``, one excitation of energy ``gaps[x]`` per mode.

    Covers every benchmark target whose spectrum is known analytically
    (e.g. a conjugated sum of single-site operators), enabling free-energy
    evaluation at any system size.
    """

    gaps: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        self.gaps = np.asarray(self.gaps, dtype=float)
        if self.gaps.ndim != 1 or self.gaps.size == 0:
            raise ValueError("gaps must be a non-empty 1D array")
        if np.any(self.gaps < 0.0):
            raise ValueError("mode gaps must be nonnegative")

    @property
    def n_modes(self) -> int:
        return int(self.gaps.size)

    def log_partition(self, lam: float) -> float:
        """ln Tr exp(-H/lambda)."""
        if lam <= 0.0:
            raise ValueError("lambda must be positive")
        return float(-self.offset / lam + np.sum(np.log1p(np.exp(-self.gaps / lam))))

    def entropy(self, lam: float) -> float:
        """Gibbs entropy in nats: sum_x [log(1 + e^-x) + x e^-x / (1 + e^-x)]
        with x = gap / lambda."""
        x = self.gaps / lam
        return float(np.sum(np.log1p(np.exp(-x)) + x * expit(-x)))

    def spectrum(self) -> np.ndarray:
        """All 2^n_modes energies, ascending (capped at 20 modes)."""
        if self.n_modes > 20:
            raise ValueError("full spectrum enumeration capped at 20 modes")
        levels = np.array([self.offset])
        for g in self.gaps:
            levels = np.concatenate([levels, levels + g])
        return np.sort(levels)


def chain_benchmark_modes(n: int) -> TwoLevelModes:
    """Spectrum descriptor of the [0, 1]-scaled chain benchmark target:
    n two-level modes with gap 1/n each (conjugation by the first circuit
    layer does not change the spectrum)."""
    return TwoLevelModes(np.full(n, 1.0 / n), 0.0)


def gibbs_free_energy_dense(h: np.ndarray, lam: float) -> float:
    """G(H, lambda) = -lambda * ln Tr exp(-H/lambda) for a dense Hermitian H."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("H must be a square matrix")
    if h.shape[0] > 2**_DENSE_SITE_CAP:
        raise ValueError(f"dense free energy capped at n={_DENSE_SITE_CAP} qubits")
    if np.abs(h - h.conj().T).max() > 1e-10 * max(1.0, np.abs(h).max()):
        raise ValueError("H must be Hermitian")
    ev = np.linalg.eigvalsh(h)
    return float(-lam * logsumexp(-ev / lam))


def _spectrum(h, n: int):
    """Spectrum access to H: a :class:`TwoLevelModes` as given, otherwise the
    eigenvalues of a dense matrix on n qubits or of an MPO on <= 12 sites."""
    if isinstance(h, TwoLevelModes):
        return h
    if isinstance(h, MPO):
        if h.n_sites > _DENSE_SITE_CAP:
            raise ValueError(
                f"free energy of a generic MPO on {h.n_sites} sites requires "
                "spectrum access; supply a TwoLevelModes description or a "
                "dense matrix instead")
        mat = h.to_dense()
    else:
        mat = np.asarray(h)
        if mat.shape[0] != 2**n:
            raise ValueError(f"dense H has dimension {mat.shape[0]} != 2^{n}")
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def free_energy_term(spec, c_nats: float, lam: float | None = None,
                     lo: float = 1e-8, hi: float = 1e9) -> tuple[float, float]:
    """max over lambda in [lo, hi] of lambda * c - lambda * ln Z(lambda), or
    its value at a fixed ``lam``; returns (term, lambda used).

    ``spec`` is a :class:`TwoLevelModes` or an array of eigenvalues.  The
    slope of the objective is c - S(lambda), with S the Gibbs entropy in
    nats, which grows with lambda; so the maximizer is where the entropy
    meets the cap c, or an end of [lo, hi] when it never does.
    """
    if isinstance(spec, TwoLevelModes):
        logz, entropy = spec.log_partition, spec.entropy
    else:
        ev = np.asarray(spec, dtype=float)
        gaps = ev - ev.min()

        def logz(la: float) -> float:
            return float(logsumexp(-ev / la))

        def entropy(la: float) -> float:
            # S = ln Z - <x> with x = -(E - E_0) / lambda
            x = -gaps / la
            lz = logsumexp(x)
            return float(lz - np.exp(x - lz) @ x)

    if lam is not None:
        if lam <= 0.0:
            raise ValueError("lambda_t must be positive")
        return lam * c_nats - lam * logz(lam), lam

    def objective(la: float) -> tuple[float, float]:
        return la * c_nats - la * logz(la), c_nats - entropy(la)

    lam_star, val = golden_section_max(objective, lo, hi)
    return val, lam_star


def info_bound(h, n: int, p: float, depth: int,
               lambda_c: float = DEFAULT_TEMPERATURE_CUTOFF,
               lambda_max: float = 1e9) -> BoundReport:
    """Architecture-free lower bound from the output information content.

    After d layers of depolarizing noise at rate p the entropy is at least
    S_d = N - N(1-p)^d bits regardless of the gates, so for every lambda
    above the cutoff

        Tr(H rho_d) >= lambda * ln2 * S_d + G(H, lambda).

    The bound maximizes the right-hand side over lambda in
    [lambda_c, lambda_max] (the objective is concave in lambda).
    ``h`` may be a dense Hermitian matrix, an MPO on <= 12 sites, or a
    :class:`TwoLevelModes` spectrum description (any size).
    """
    if lambda_c <= 0.0:
        raise ValueError("lambda_c must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    s_nats = LN2 * (n - n * (1.0 - p) ** depth)
    val, lam_star = free_energy_term(_spectrum(h, n), s_nats, lo=lambda_c,
                                     hi=lambda_max)
    return BoundReport(
        method="info_only", n_sites=n, depth=depth, resource=0, p=float(p),
        theta=0.0, seed=0, bound=val, boundary_term=val, penalty_sum=0.0,
        extra={"lambda_star": lam_star, "lambda_c": lambda_c})


def dual_value_info_dense(circuit: CircuitSpec, dual: "TebdDual | list[MPO]",
                          target: MPO, schedule: BoundSchedule,
                          lambdas: list[float] | None = None) -> DualValue:
    """Information-content dual bound, evaluated with dense per-step free
    energies (n <= 10):

        -Tr[rho_0 E_1^dag(sigma_1)]
            + sum_t [ G(H_t, lambda_t) + lambda_t * ln2 * (N - I_t) ]

    Each lambda_t is maximized independently by a concave 1-D search when
    not supplied.  Certified for any Hermitian duals and any positive
    lambdas, so the search only affects tightness.
    """
    if schedule.kind != "info":
        raise ValueError(f"expected an info schedule, got {schedule.kind!r}")
    if schedule.values.size != circuit.depth:
        raise ValueError("schedule length must equal circuit depth")
    n = circuit.n_sites
    if n > 10:
        raise ValueError("dense info dual capped at n=10")
    sigmas = dual.sigmas if isinstance(dual, TebdDual) else dual
    hs = defect_mpos(circuit, sigmas, target)
    boundary = boundary_term(circuit, sigmas[0])
    terms = []
    for t, h_mpo in enumerate(hs):
        c_nats = LN2 * (n - float(schedule.values[t]))
        lam = None if lambdas is None else lambdas[t]
        term, _ = free_energy_term(_spectrum(h_mpo, n), c_nats, lam)
        terms.append(term)
    terms = np.array(terms)
    return DualValue(boundary + float(np.sum(terms)), boundary, -terms)
