"""Experiment configuration files: schema-versioned YAML with grids.

A config names a circuit family, parameter grids (depth, theta, noise rate),
the bound methods to run, and an ansatz-resource grid (MPO bond dimensions
or fermionic interaction radii).  Validation errors carry the dotted field
path of the offending entry.  parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .report import METHODS

SCHEMA_VERSION = 1

FAMILIES = ("single_qubit", "brickwall_1d", "brickwall_2d", "clifford",
            "fermion_1d", "fermion_2d")
NOISE_MODELS = ("depolarizing", "unital_pauli", "nonunital")
_FERMION_FAMILIES = ("fermion_1d", "fermion_2d")
_MPO_METHODS = ("trace_dual", "tebd_error", "nonunital_dual")


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


def _listify(value, path: str, kind, positive=False, allow_zero=True) -> list:
    if value is None:
        raise ConfigError(path, "missing required field")
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(path, "grid must be non-empty")
    out = []
    for i, item in enumerate(items):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"{path}[{i}]", f"expected {kind.__name__}, got {item!r}")
        if kind is int and not float(item).is_integer():
            raise ConfigError(f"{path}[{i}]", f"expected integer, got {item!r}")
        val = kind(item)
        if positive and val <= 0:
            raise ConfigError(f"{path}[{i}]", "must be positive")
        if not allow_zero and val < 0:
            raise ConfigError(f"{path}[{i}]", "must be nonnegative")
        out.append(val)
    return out


def parse_config(text: str) -> ExperimentConfig:
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
    if family not in FAMILIES:
        raise ConfigError("circuit.family", f"must be one of {FAMILIES}, got {family!r}")

    lattice = None
    if family in ("brickwall_2d", "fermion_2d"):
        lattice = circuit.get("lattice")
        if (not isinstance(lattice, list) or len(lattice) != 2
                or not all(isinstance(v, int) and v >= 1 for v in lattice)):
            raise ConfigError("circuit.lattice", "need [lx, ly] with positive ints")
        n = lattice[0] * lattice[1]
        if "n" in circuit and circuit["n"] != n:
            raise ConfigError("circuit.n", f"inconsistent with lattice ({n})")
    else:
        n_raw = circuit.get("n")
        if family == "single_qubit":
            n = 1 if n_raw is None else n_raw
            if n != 1:
                raise ConfigError("circuit.n", "single_qubit circuits have n=1")
        else:
            if not isinstance(n_raw, int) or n_raw < 1:
                raise ConfigError("circuit.n", "must be a positive integer")
            n = n_raw

    depths = _listify(circuit.get("depth"), "circuit.depth", int, positive=True)
    if family == "single_qubit" and depths != [1]:
        raise ConfigError("circuit.depth", "single_qubit circuits have depth 1")
    if family == "brickwall_1d" and any(d % 2 == 0 for d in depths):
        raise ConfigError("circuit.depth", "brickwall_1d depths must be odd")
    if family in ("brickwall_2d", "clifford", "fermion_1d", "fermion_2d") \
            and any(d % 2 for d in depths):
        raise ConfigError("circuit.depth", f"{family} depths must be even")
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
        if m == "fermion_dual" and family not in _FERMION_FAMILIES:
            raise ConfigError(f"methods[{i}]", "fermion_dual needs a fermion family")
        if m in _MPO_METHODS and family in _FERMION_FAMILIES:
            raise ConfigError(f"methods[{i}]", f"{m} needs a qubit circuit family")
        if m == "nonunital_dual" and model != "nonunital":
            raise ConfigError(f"methods[{i}]", "nonunital_dual needs noise.model nonunital")
        if m in ("trace_dual", "info_only", "purity_only", "fermion_dual") \
                and model == "nonunital":
            raise ConfigError(f"methods[{i}]",
                              f"{m} requires a unital noise model")
    if family in _FERMION_FAMILIES and model != "depolarizing":
        raise ConfigError("noise.model", "fermion families support depolarizing only")

    ansatz = raw.get("ansatz", {})
    if not isinstance(ansatz, dict):
        raise ConfigError("ansatz", "must be a mapping")
    bond_dims = ansatz.get("bond_dims", [])
    bond_dims = _listify(bond_dims, "ansatz.bond_dims", int, positive=True) if bond_dims else []
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
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed", "mandatory integer")
    output = raw.get("output")
    if not isinstance(output, str) or not output:
        raise ConfigError("output", "mandatory non-empty string")
    oracle = raw.get("oracle", False)
    if not isinstance(oracle, bool):
        raise ConfigError("oracle", "must be a boolean")
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
    out = {
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
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
