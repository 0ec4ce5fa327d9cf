"""Experiment configuration files: schema-versioned YAML with grids.

A config names a circuit family, parameter grids (depth, theta, noise rate),
the bound methods to run, and an ansatz-resource grid (MPO bond dimensions
or fermionic interaction radii).  Validation errors carry the dotted field
path of the offending entry.  parse -> serialize -> parse is the identity.
Each circuit family is declared once, in :data:`FAMILIES`; ``parse_config``
checks against it and ``sweep`` builds from it, so a valid config runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import circuits, fermion, info_dual
from .mpo import _DENSE_SITE_CAP, _SPECTRUM_MODE_CAP
from .report import METHODS

SCHEMA_VERSION = 1

NOISE_MODELS = ("depolarizing", "unital_pauli", "nonunital")
_MPO_METHODS = ("trace_dual", "tebd_error", "nonunital_dual")
_DEPTH_RULES = {"odd": lambda d: d % 2 == 1, "even": lambda d: d % 2 == 0,
                "1": lambda d: d == 1}


@dataclass(frozen=True)
class Family:
    """One circuit family.  ``build(cfg, pt, seed, noise)`` returns the
    (circuit, target) of a grid point; ``modes(cfg, target)`` is the
    closed-form target spectrum, or None when the spectrum methods
    diagonalize the target (n <= 12); ``depth`` is "odd", "even" or "1"."""

    build: Callable
    modes: Callable | None
    depth: str
    lattice: bool               # sized by circuit.lattice, not circuit.n
    noise_models: tuple[str, ...]
    methods: tuple[str, ...]


_QUBIT_METHODS = ("trace_dual", "tebd_error", "info_only", "purity_only")

# Builders call circuits and fermion through the module, so the span tracer's
# wrappers see each call.  single_qubit_circuit builds depolarizing noise only;
# nonunital_dual needs ZZ entanglers, which brickwall_1d alone takes.
FAMILIES: dict[str, Family] = {
    "single_qubit": Family(
        lambda cfg, pt, seed, noise: circuits.single_qubit_circuit(pt.theta, pt.p),
        None, "1", False, ("depolarizing",), _QUBIT_METHODS),
    "brickwall_1d": Family(
        lambda cfg, pt, seed, noise: circuits.brickwall_1d(
            cfg.n, pt.depth, pt.theta, pt.p, seed, noise=noise, entangler=(
                circuits.zz_gate if cfg.noise_model == "nonunital" else circuits.xx_gate)),
        lambda cfg, target: info_dual.chain_benchmark_modes(cfg.n),
        "odd", False, NOISE_MODELS, _QUBIT_METHODS + ("nonunital_dual",)),
    "brickwall_2d": Family(
        lambda cfg, pt, seed, noise: circuits.brickwall_2d_snake(
            *cfg.lattice, pt.depth, pt.theta, pt.p, seed, noise=noise),
        None, "even", True, NOISE_MODELS, _QUBIT_METHODS),
    "clifford": Family(
        lambda cfg, pt, seed, noise: circuits.clifford_entangle_unentangle(
            cfg.n, pt.depth, pt.p, seed, noise=noise),
        lambda cfg, target: info_dual.TwoLevelModes(np.full(cfg.n, 2.0), -float(cfg.n)),
        "even", False, NOISE_MODELS, _QUBIT_METHODS),
    "fermion_1d": Family(
        lambda cfg, pt, seed, noise: fermion.fermion_brickwall_1d(
            cfg.n, pt.depth, pt.p, seed),
        lambda cfg, target: fermion.two_level_modes(target),
        "even", False, ("depolarizing",), ("fermion_dual", "info_only")),
    "fermion_2d": Family(
        lambda cfg, pt, seed, noise: fermion.fermion_brickwall_2d(
            *cfg.lattice, pt.depth, pt.p, seed),
        lambda cfg, target: fermion.two_level_modes(target),
        "even", True, ("depolarizing",), ("fermion_dual", "info_only")),
}


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    family: str
    n: int
    depths: list[int]
    methods: list[str]
    seed: int
    output: str
    thetas: list[float] = field(default_factory=lambda: [0.0])
    ps: list[float] = field(default_factory=lambda: [0.0])
    noise_model: str = "depolarizing"
    eps: float = 0.0
    pauli_rates: list[float] | None = None
    bond_dims: list[int] = field(default_factory=list)
    radii: list[int] = field(default_factory=list)
    lattice: list[int] | None = None
    oracle: bool = False
    timings: bool = False


def _is_int(value) -> bool:
    """True for an int that is not a bool (YAML's true is an int to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _listify(value, path: str, kind, positive=False) -> list:
    if value is None:
        raise ConfigError(path, "missing required field")
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(path, "grid must be non-empty")
    out = []
    for i, item in enumerate(items):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}[{i}]", f"expected {kind.__name__}, got {item!r}")
        try:
            as_float = float(item)
        except OverflowError:
            raise ConfigError(f"{path}[{i}]", "too large for a float") from None
        if not math.isfinite(as_float):
            raise ConfigError(f"{path}[{i}]", f"must be finite, got {item!r}")
        if kind is int and not as_float.is_integer():
            raise ConfigError(f"{path}[{i}]", f"expected integer, got {item!r}")
        val = kind(item)
        if positive and val <= 0:
            raise ConfigError(f"{path}[{i}]", "must be positive")
        out.append(val)
    return out


def check_oracle_size(family: str, n: int) -> None:
    """Only the dense oracle of the qubit families is capped in size."""
    if "fermion_dual" not in FAMILIES[family].methods and n > _DENSE_SITE_CAP:
        raise ConfigError("oracle", f"the dense oracle needs n <= "
                          f"{_DENSE_SITE_CAP}, got n = {n}")


def parse_config(text: str) -> ExperimentConfig:
    import yaml

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"not parseable: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be a mapping")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"expected {SCHEMA_VERSION}, got {schema!r}")

    circuit = raw.get("circuit")
    if not isinstance(circuit, dict):
        raise ConfigError("circuit", "must be a mapping")
    family = circuit.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError("circuit.family",
                          f"must be one of {tuple(FAMILIES)}, got {family!r}")
    fam = FAMILIES[family]

    lattice = None
    if fam.lattice:
        lattice = circuit.get("lattice")
        if (not isinstance(lattice, list) or len(lattice) != 2
                or not all(_is_int(v) and v >= 1 for v in lattice)):
            raise ConfigError("circuit.lattice", "need [lx, ly] with positive ints")
        n = lattice[0] * lattice[1]
        if n < 2:
            raise ConfigError("circuit.lattice",
                              f"{family} needs at least two sites, got {lattice}")
        if "n" in circuit and (not _is_int(circuit["n"]) or circuit["n"] != n):
            raise ConfigError("circuit.n", f"inconsistent with lattice ({n})")
    else:
        n_raw = circuit.get("n")
        if n_raw is not None and not _is_int(n_raw):
            raise ConfigError("circuit.n", f"must be an integer, got {n_raw!r}")
        if family == "single_qubit":
            n = 1 if n_raw is None else n_raw
            if n != 1:
                raise ConfigError("circuit.n", "single_qubit circuits have n=1")
        else:
            if n_raw is None or n_raw < 2:
                raise ConfigError("circuit.n", f"{family} needs an integer n >= 2, "
                                  f"got {n_raw!r}")
            n = n_raw

    depths = _listify(circuit.get("depth"), "circuit.depth", int, positive=True)
    if not all(map(_DEPTH_RULES[fam.depth], depths)):
        raise ConfigError("circuit.depth", f"{family} depths must be {fam.depth}")
    thetas = _listify(circuit.get("theta", 0.0), "circuit.theta", float)

    noise = raw.get("noise")
    if not isinstance(noise, dict):
        raise ConfigError("noise", "must be a mapping")
    model = noise.get("model", "depolarizing")
    if model not in NOISE_MODELS:
        raise ConfigError("noise.model", f"must be one of {NOISE_MODELS}, got {model!r}")
    ps = _listify(noise.get("p"), "noise.p", float)
    for i, p in enumerate(ps):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"noise.p[{i}]", "must lie in [0, 1]")
        if model == "unital_pauli" and p == 1.0:
            raise ConfigError(f"noise.p[{i}]",
                              "unital_pauli needs px + py + pz < 1, so p < 1")
    eps = noise.get("eps", 0.0)
    if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not -0.5 < eps < 0.5:
        raise ConfigError("noise.eps", "must be a number in (-1/2, 1/2)")
    pauli_rates = noise.get("pauli_rates")
    if model == "unital_pauli":
        if (not isinstance(pauli_rates, list) or len(pauli_rates) != 3
                or not all(isinstance(v, (int, float)) and 0 < v for v in pauli_rates)
                or sum(pauli_rates) >= 1):
            raise ConfigError("noise.pauli_rates",
                              "need three positive rates summing below 1")
        pauli_rates = [float(v) for v in pauli_rates]
    elif pauli_rates is not None:
        raise ConfigError("noise.pauli_rates", "only valid with model unital_pauli")

    methods = raw.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError("methods", "must be a non-empty list")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"methods[{i}]", f"unknown method {m!r}")
        if m not in fam.methods:
            raise ConfigError(f"methods[{i}]", f"{m} does not run on {family}, "
                              f"which runs {', '.join(fam.methods)}")
        if m == "nonunital_dual" and model != "nonunital":
            raise ConfigError(f"methods[{i}]", "nonunital_dual needs noise.model nonunital")
        if m in ("trace_dual", "info_only", "purity_only", "fermion_dual") \
                and model == "nonunital":
            raise ConfigError(f"methods[{i}]",
                              f"{m} requires a unital noise model")
        if m in ("info_only", "purity_only") and n > _DENSE_SITE_CAP \
                and fam.modes is None:
            raise ConfigError(f"methods[{i}]",
                              f"{m} needs the spectrum of the {family} target, "
                              f"available only for n <= {_DENSE_SITE_CAP}; "
                              f"got n = {n}")
        if m == "purity_only" and n > _SPECTRUM_MODE_CAP:
            raise ConfigError(f"methods[{i}]",
                              "purity_only enumerates the full target spectrum, "
                              f"capped at n <= {_SPECTRUM_MODE_CAP}; got n = {n}")
    if model not in fam.noise_models:
        raise ConfigError("noise.model", f"{family} builds {fam.noise_models} only")
    if "nonunital_dual" in methods:
        for i, p in enumerate(ps):
            if not 0.0 < p < 1.0:
                raise ConfigError(f"noise.p[{i}]", "nonunital_dual needs a "
                                  "replacement fraction in (0, 1), so 0 < p < 1")

    ansatz = raw.get("ansatz", {})
    if not isinstance(ansatz, dict):
        raise ConfigError("ansatz", "must be a mapping")
    bond_dims = ansatz.get("bond_dims", [])
    bond_dims = _listify(bond_dims, "ansatz.bond_dims", int, positive=True) if bond_dims else []
    half = n // 2
    for i, bond in enumerate(bond_dims):
        # 4^floor(n/2) is the largest operator Schmidt rank on n sites, so a
        # larger D gives the same bound; the power is formed only when it
        # can be below the entry, so a huge n costs nothing
        if half < bond.bit_length() and bond > 4**half:
            raise ConfigError(f"ansatz.bond_dims[{i}]",
                              f"must be at most 4^floor(n/2) = {4**half}, the "
                              f"largest operator Schmidt rank on n = {n} sites")
    radii = ansatz.get("radii", [])
    radii = _listify(radii, "ansatz.radii", int) if radii else []
    for i, r in enumerate(radii):
        if r < 0:
            raise ConfigError(f"ansatz.radii[{i}]", "must be nonnegative")
    if any(m in _MPO_METHODS for m in methods) and not bond_dims:
        raise ConfigError("ansatz.bond_dims", "required by the requested methods")
    if "fermion_dual" in methods and not radii:
        raise ConfigError("ansatz.radii", "required by fermion_dual")

    seed = raw.get("seed")
    if not _is_int(seed):
        raise ConfigError("seed", "mandatory integer")
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    output = raw.get("output")
    if not isinstance(output, str) or not output:
        raise ConfigError("output", "mandatory non-empty string")
    oracle = raw.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError("oracle", "must be a boolean")
    if oracle:
        check_oracle_size(family, n)
    timings = raw.get("timings", False)
    if not isinstance(timings, bool):
        raise ConfigError("timings", "must be a boolean")

    return ExperimentConfig(
        family=family, n=n, depths=depths, methods=list(methods), seed=seed,
        output=output, thetas=thetas, ps=ps, noise_model=model, eps=float(eps),
        pauli_rates=pauli_rates, bond_dims=bond_dims, radii=radii,
        lattice=lattice, oracle=oracle, timings=timings)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_to_dict(cfg: ExperimentConfig) -> dict:
    circuit: dict = {"family": cfg.family, "depth": cfg.depths, "theta": cfg.thetas}
    if cfg.lattice is not None:
        circuit["lattice"] = list(cfg.lattice)
    else:
        circuit["n"] = cfg.n
    noise: dict = {"model": cfg.noise_model, "p": cfg.ps, "eps": cfg.eps}
    if cfg.pauli_rates is not None:
        noise["pauli_rates"] = list(cfg.pauli_rates)
    return {
        "schema": SCHEMA_VERSION,
        "circuit": circuit,
        "noise": noise,
        "methods": list(cfg.methods),
        "ansatz": {"bond_dims": list(cfg.bond_dims), "radii": list(cfg.radii)},
        "seed": cfg.seed,
        "output": cfg.output,
        "oracle": cfg.oracle,
        "timings": cfg.timings,
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    import yaml

    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
