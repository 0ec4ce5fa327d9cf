"""The experiment pipeline: result records, config parsing, grid sweeps,
and the command-line entry points.

Determinism is the contract here: same config -> byte-identical CSV,
regardless of worker count, with exact float round trips through every
serialization boundary.
"""

import concurrent.futures
import copy
import dataclasses
import hashlib
import os

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from noisebound import cli, sweep
from noisebound.config import (
    FAMILIES,
    NOISE_MODELS,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
)
from noisebound.report import (
    CSV_COLUMNS,
    BoundReport,
    config_digest,
    METHODS,
    read_csv,
    write_csv,
)

BASE_YAML = """\
schema: 1
circuit:
  family: brickwall_1d
  n: 3
  depth: [1, 3]
  theta: [0.1]
noise:
  model: depolarizing
  p: [0.0, 0.1]
methods: [trace_dual, tebd_error, info_only, purity_only]
ansatz:
  bond_dims: [4]
seed: 7
output: OUTPUT
"""

FERMION_YAML = """\
schema: 1
circuit:
  family: fermion_1d
  n: 6
  depth: [2, 4]
noise:
  model: depolarizing
  p: [0.05]
methods: [fermion_dual]
ansatz:
  radii: [0, 1]
seed: 3
output: OUTPUT
"""


def write_config(tmp_path, text, name="cfg.yaml"):
    out = tmp_path / "results.csv"
    path = tmp_path / name
    path.write_text(text.replace("OUTPUT", str(out)))
    return str(path), str(out)


# ---------------------------------------------------------------------------
# result records


def test_report_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        BoundReport("bogus", 3, 1, 4, 0.0, 0.0, 0, 0.5)


def test_report_rejects_inconsistent_split():
    with pytest.raises(ValueError, match="inconsistent"):
        BoundReport("trace_dual", 3, 1, 4, 0.0, 0.0, 0,
                    bound=0.5, boundary_term=0.9, penalty_sum=0.1)


def test_csv_row_formats():
    rep = BoundReport("info_only", 4, 5, 0, 0.1, 0.25, 11, bound=0.123456789,
                      boundary_term=0.123456789, penalty_sum=0.0,
                      wall_time_s=1.5)
    row = rep.csv_row()
    assert row[0] == "info_only"
    assert float(row[7]) == 0.123456789
    assert row[-1] == "0.000"                 # timings masked by default
    assert rep.csv_row(timings=True)[-1] == "1.500"


def test_csv_round_trip(tmp_path):
    reps = [BoundReport("info_only", 5, d, 0, 0.1, 0.0, 1,
                        bound=-(1 / 3) * d, boundary_term=-(1 / 3) * d)
            for d in (1, 2, 3)]
    path = str(tmp_path / "r.csv")
    write_csv(path, reps)
    back = read_csv(path)
    assert len(back) == 3
    for a, b in zip(reps, back):
        assert b.bound == a.bound             # exact, via repr round trip
        assert (b.method, b.n_sites, b.depth) == (a.method, a.n_sites, a.depth)


def test_read_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("method,who,knows\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(str(path))


def test_config_digest_stable():
    a = config_digest({"x": 1, "y": [2, 3]})
    b = config_digest({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 12
    assert config_digest({"x": 2, "y": [2, 3]}) != a


# ---------------------------------------------------------------------------
# config files


def test_parse_minimal_config(tmp_path):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    assert cfg.family == "brickwall_1d"
    assert cfg.n == 3
    assert cfg.depths == [1, 3]
    assert cfg.ps == [0.0, 0.1]
    assert cfg.bond_dims == [4]
    assert cfg.output == out
    assert cfg.noise_model == "depolarizing"
    assert not cfg.oracle and not cfg.timings


def test_config_serialization_round_trip(tmp_path):
    path, _ = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # serialization is canonical: stable under a second pass
    assert serialize_config(again) == serialize_config(cfg)


@pytest.mark.parametrize("mutate,field", [
    (lambda t: t.replace("schema: 1", "schema: 2"), "schema"),
    (lambda t: t.replace("family: brickwall_1d", "family: hexagon"),
     "circuit.family"),
    (lambda t: t.replace("depth: [1, 3]", "depth: [2]"), "circuit.depth"),
    (lambda t: t.replace("p: [0.0, 0.1]", "p: [1.5]"), "noise.p[0]"),
    (lambda t: t.replace("seed: 7\n", ""), "seed"),
    (lambda t: t.replace("output: OUTPUT\n", ""), "output"),
    (lambda t: t.replace("  bond_dims: [4]", "  bond_dims: []"),
     "ansatz.bond_dims"),
    (lambda t: t.replace("methods: [trace_dual, tebd_error, info_only, "
                         "purity_only]", "methods: [fermion_dual]"),
     "methods[0]"),
])
def test_config_errors_carry_field_paths(tmp_path, mutate, field):
    text = mutate(BASE_YAML).replace("OUTPUT", str(tmp_path / "o.csv"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == field


@pytest.mark.parametrize("old,new,field", [
    ("seed: 7", "seed: -1", "seed"),
    ("theta: [0.1]", "theta: [.nan]", "circuit.theta[0]"),
    ("p: [0.0, 0.1]", "p: [0.0, .inf]", "noise.p[1]"),
    ("n: 3", "n: true", "circuit.n"),
], ids=["negative-seed", "nan-theta", "inf-p", "bool-n"])
def test_config_rejects_bad_values(tmp_path, old, new, field):
    text = BASE_YAML.replace(old, new).replace("OUTPUT", str(tmp_path / "o.csv"))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == field


def test_config_rejects_negative_radius(tmp_path):
    text = (FERMION_YAML.replace("radii: [0, 1]", "radii: [0, -1]")
            .replace("OUTPUT", str(tmp_path / "o.csv")))
    with pytest.raises(ConfigError, match=r"^ansatz\.radii\[1\]: must be nonnegative$"):
        parse_config(text)


BIG = "1" * 401


@pytest.mark.parametrize("old,new,field", [
    ("depth: [1, 3]", f"depth: [{BIG}]", "circuit.depth[0]"),
    ("theta: [0.1]", f"theta: [0.1, {BIG}]", "circuit.theta[1]"),
    ("bond_dims: [4]", f"bond_dims: [{BIG}]", "ansatz.bond_dims[0]"),
], ids=["depth", "theta", "bond_dims"])
def test_config_rejects_ints_too_large_for_a_float(tmp_path, capsys, old, new,
                                                   field):
    path, _ = write_config(tmp_path, BASE_YAML.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.path == field
    assert cli.main(["validate", path]) == 2
    assert field in capsys.readouterr().err


DEMO_YAML = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                         "chain_sweep.yaml")


def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


with open(DEMO_YAML, encoding="utf-8") as _fh:
    _DEMO_TEXT = _fh.read()
_DEMO = yaml.safe_load(_DEMO_TEXT)
_DEMO_LEAVES = _leaves(_DEMO)
_LEAF_VALUES = st.one_of(
    st.integers(-10, 100), st.integers(10**308, 10**400),
    st.integers(-(10**400), -(10**308)), st.floats(allow_nan=True),
    st.booleans(), st.none(), st.text(max_size=8),
    st.lists(st.one_of(st.integers(-3, 20), st.floats(), st.text(max_size=3)),
             max_size=3))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_DEMO_LEAVES), _LEAF_VALUES)
def test_config_one_bad_leaf_is_a_value_error(leaf, value):
    """Any one leaf of the demo config replaced by an arbitrary value: the
    parser returns a config or raises ValueError, never anything else."""
    raw = copy.deepcopy(_DEMO)
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    try:
        cfg = parse_config(yaml.safe_dump(raw))
    except ValueError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_config_nonunital_compatibility(tmp_path):
    text = BASE_YAML.replace("model: depolarizing", "model: nonunital")
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("OUTPUT", str(tmp_path / "o.csv")))
    assert err.value.path == "methods[0]"     # trace_dual needs unital noise


def test_config_2d_requires_lattice(tmp_path):
    text = BASE_YAML.replace("family: brickwall_1d", "family: brickwall_2d")
    text = text.replace("depth: [1, 3]", "depth: [2]")
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("OUTPUT", str(tmp_path / "o.csv")))
    assert err.value.path == "circuit.lattice"


def test_config_rejects_spectrum_methods_without_spectrum(tmp_path):
    """brickwall_2d has no closed-form target spectrum: its spectrum methods
    need n <= 12, while brickwall_1d's analytic one has no such limit."""
    text = (BASE_YAML
            .replace("family: brickwall_1d", "family: brickwall_2d\n  lattice: [4, 4]")
            .replace("  n: 3\n", "").replace("depth: [1, 3]", "depth: [2]")
            .replace("trace_dual, tebd_error, info_only, purity_only",
                     "purity_only, info_only")
            .replace("OUTPUT", str(tmp_path / "o.csv")))
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == "methods[0]"
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("purity_only, info_only", "tebd_error, info_only"))
    assert err.value.path == "methods[1]"
    assert parse_config(text.replace("lattice: [4, 4]", "lattice: [3, 4]")).n == 12
    chain = BASE_YAML.replace("n: 3", "n: 16").replace("OUTPUT", str(tmp_path / "o.csv"))
    assert parse_config(chain).methods[-1] == "purity_only"


@pytest.mark.parametrize("circuit", [
    "family: brickwall_1d\n  n: N\n  depth: [3]",
    "family: clifford\n  n: N\n  depth: [2]",
    "family: brickwall_2d\n  lattice: [3, 7]\n  depth: [2]",
])
def test_config_caps_purity_only_at_the_spectrum_limit(tmp_path, circuit):
    """purity_only enumerates all 2^n target energies, so above 20 sites it
    is rejected at the config, naming the method, on every family that runs
    it."""
    text = (BASE_YAML.replace("family: brickwall_1d\n  n: 3\n  depth: [1, 3]", circuit)
            .replace("trace_dual, tebd_error, info_only, purity_only", "purity_only")
            .replace("OUTPUT", str(tmp_path / "o.csv")))
    if "n: N" in text:
        assert parse_config(text.replace("n: N", "n: 20")).n == 20
    with pytest.raises(ConfigError) as err:
        parse_config(text.replace("n: N", "n: 21"))
    assert err.value.path == "methods[0]"
    assert "got n = 21" in str(err.value)


@pytest.mark.parametrize("n,bonds,bad", [
    (3, "[1, 4, 5]", 2), (4, "[16, 17]", 1), (1, "[2]", 0),
    (10**30, "[1.0e+300]", None), (8, "[1.0e+300]", 0),
])
def test_config_caps_bond_dims_at_the_largest_schmidt_rank(tmp_path, n, bonds, bad):
    """Bond dimensions above 4^floor(n/2) are rejected, naming the entry;
    n = 3 with D = 4 sits exactly at the cap.  purity_only is capped at
    n = 20 on its own, so the huge chain runs without it."""
    text = (BASE_YAML.replace("n: 3", f"n: {n}")
            .replace(", purity_only]", "]" if n > 20 else ", purity_only]")
            .replace("bond_dims: [4]", f"bond_dims: {bonds}")
            .replace("OUTPUT", str(tmp_path / "o.csv")))
    if n == 1:
        text = text.replace("family: brickwall_1d", "family: single_qubit").replace(
            "depth: [1, 3]", "depth: [1]")
    if bad is None:
        assert parse_config(text).bond_dims == [int(1.0e300)]
        return
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == f"ansatz.bond_dims[{bad}]"


_FAMILY_YAML = """\
schema: 1
circuit:
  family: {family}
  {size}
  depth: [{depth}]
  theta: [0.1]
noise:
  model: {model}
  p: [{p}]{rates}
methods: [{method}]
ansatz:
  bond_dims: [{bond}]
  radii: [0]
seed: 5
output: {output}
"""
_NOISE_KIND = {"depolarizing": "depolarizing", "unital_pauli": "unital_pauli",
               "nonunital": "replacement"}


@pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
def test_every_config_that_validates_runs(tmp_path, p):
    """Every family x noise model x single method at the smallest sizes: a
    config either fails at the model, the rate or the method, or it runs on
    the circuit it describes, with every bound below the exact energy that
    the point computes with the oracle on."""
    problems, admitted = [], {family: 0 for family in FAMILIES}
    for family, fam in FAMILIES.items():
        size = ("lattice: [2, 2]" if fam.lattice
                else "n: 1" if family == "single_qubit" else "n: 3")
        for model in NOISE_MODELS:
            rates = "\n  pauli_rates: [0.2, 0.2, 0.4]" if model == "unital_pauli" else ""
            rates += "\n  eps: 0.2" if model == "nonunital" else ""
            for method in METHODS:
                text = _FAMILY_YAML.format(
                    family=family, size=size, depth=2 if fam.depth == "even" else 1,
                    model=model, p=p, rates=rates, method=method,
                    bond=1 if family == "single_qubit" else 2,
                    output=tmp_path / "o.csv")
                where = f"{family}/{model}/{method}/p={p}"
                try:
                    cfg = parse_config(text)
                except ConfigError as err:
                    if err.path not in ("noise.model", "noise.p[0]", "methods[0]"):
                        problems.append(f"{where}: {err}")
                    continue
                admitted[family] += 1
                cfg.oracle = True
                pt = sweep.expand_grid(cfg)[0]
                rows = sweep.run_point_safe(cfg, pt)
                if isinstance(rows, str):
                    problems.append(f"{where}: {rows}")
                    continue
                problems += [f"{where}: {line}" for line in cli.oracle_check(rows)]
                circuit, _, _ = sweep.build_circuit(cfg, pt)
                if p > 0 and "fermion_dual" not in fam.methods:
                    kinds = {layer.noise.kind for layer in circuit.layers}
                    if kinds != {_NOISE_KIND[model]}:
                        problems.append(f"{where}: built {kinds} noise")
    assert not problems, "\n".join(problems)
    assert all(admitted.values()), admitted


@pytest.mark.parametrize("family,size,depth,model,method,field", [
    ("brickwall_2d", "lattice: [2, 2]", 2, "nonunital", "nonunital_dual", "methods[0]"),
    ("clifford", "n: 3", 2, "nonunital", "nonunital_dual", "methods[0]"),
    ("fermion_1d", "n: 3", 2, "depolarizing", "purity_only", "methods[0]"),
    ("fermion_2d", "lattice: [2, 2]", 2, "depolarizing", "purity_only", "methods[0]"),
    ("single_qubit", "n: 1", 1, "unital_pauli", "trace_dual", "noise.model"),
    ("single_qubit", "n: 1", 1, "nonunital", "tebd_error", "noise.model"),
], ids=["nonunital_dual-brickwall_2d", "nonunital_dual-clifford",
        "purity_only-fermion_1d", "purity_only-fermion_2d",
        "single_qubit-unital_pauli", "single_qubit-nonunital"])
def test_validate_rejects_what_the_family_cannot_run(tmp_path, capsys, family, size,
                                                      depth, model, method, field):
    rates = "\n  pauli_rates: [0.2, 0.2, 0.4]" if model == "unital_pauli" else ""
    path, _ = write_config(tmp_path, _FAMILY_YAML.format(
        family=family, size=size, depth=depth, model=model, p=0.1, rates=rates,
        method=method, bond=1, output="OUTPUT"))
    assert cli.main(["validate", path]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("family,size", [
    ("brickwall_1d", "n: 1"), ("brickwall_2d", "lattice: [1, 1]"),
    ("clifford", "n: 1"), ("fermion_1d", "n: 1"), ("fermion_2d", "lattice: [1, 1]"),
])
def test_validate_rejects_one_site_circuits_on_multi_site_families(
        tmp_path, capsys, family, size):
    """Only single_qubit builds a one-site circuit: every other family
    needs two sites, and says so at the field that sizes it."""
    fam = FAMILIES[family]
    text = _FAMILY_YAML.format(
        family=family, size=size, depth=2 if fam.depth == "even" else 1,
        model="depolarizing", p=0.1, rates="", method=fam.methods[0], bond=1,
        output="OUTPUT")
    path, _ = write_config(tmp_path, text)
    assert cli.main(["validate", path]) == 2
    field = "circuit.lattice" if fam.lattice else "circuit.n"
    assert f"config error: {field}:" in capsys.readouterr().err
    path, _ = write_config(tmp_path, text.replace("n: 1", "n: 2").replace(
        "[1, 1]", "[1, 2]"))
    assert cli.main(["validate", path]) == 0


@pytest.mark.parametrize("model,method,p", [
    ("unital_pauli", "trace_dual", 1.0),
    ("nonunital", "nonunital_dual", 0.0),
    ("nonunital", "nonunital_dual", 1.0),
])
def test_config_rejects_rates_the_noise_cannot_take(tmp_path, model, method, p):
    """unital_pauli needs p < 1 and nonunital_dual 0 < p < 1; tebd_error
    under non-unital noise takes every p in [0, 1]."""
    rates = "\n  pauli_rates: [0.2, 0.2, 0.4]" if model == "unital_pauli" else ""
    text = _FAMILY_YAML.format(
        family="brickwall_1d", size="n: 3", depth=1, model=model,
        p=f"0.5, {p}", rates=rates, method=method, bond=2,
        output=tmp_path / "o.csv")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.path == "noise.p[1]"
    if model == "nonunital":
        assert parse_config(text.replace(method, "tebd_error")).ps == [0.5, p]


# ---------------------------------------------------------------------------
# deterministic sweeps


def test_expand_grid_order(tmp_path):
    path, _ = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    pts = sweep.expand_grid(cfg)
    assert [(pt.depth, pt.p) for pt in pts] == [
        (1, 0.0), (1, 0.1), (3, 0.0), (3, 0.1)]
    assert [pt.index for pt in pts] == [0, 1, 2, 3]


def test_point_seed_deterministic_and_distinct():
    seeds = [sweep.point_seed(7, i) for i in range(6)]
    assert seeds == [sweep.point_seed(7, i) for i in range(6)]
    assert len(set(seeds)) == 6
    assert sweep.point_seed(8, 0) != seeds[0]


def test_run_experiment_writes_sorted_csv(tmp_path):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    reports, failures = sweep.run_experiment(cfg)
    assert not failures
    assert os.path.exists(out)
    back = read_csv(out)
    assert len(back) == len(reports)
    keys = [(r.method, r.depth, r.p, r.theta, r.resource) for r in back]
    assert keys == sorted(keys)
    # one row per (method, grid point), bounds all certified numbers
    assert {r.method for r in back} == {
        "trace_dual", "tebd_error", "info_only", "purity_only"}
    assert all(np.isfinite(r.bound) for r in back)


def test_run_experiment_byte_deterministic(tmp_path):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    sweep.run_experiment(cfg)
    first = open(out, "rb").read()
    sweep.run_experiment(cfg)
    assert open(out, "rb").read() == first


def test_worker_count_sources(monkeypatch):
    assert sweep.worker_count(4) == 4
    monkeypatch.setenv(sweep.WORKERS_ENV, "3")
    assert sweep.worker_count() == 3
    monkeypatch.setenv(sweep.WORKERS_ENV, "junk")
    assert sweep.worker_count() == 1


def test_parallel_matches_serial(tmp_path):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    sweep.run_experiment(cfg, workers=1)
    serial = open(out, "rb").read()
    sweep.run_experiment(cfg, workers=2)
    assert open(out, "rb").read() == serial


def test_failed_points_recorded(tmp_path, monkeypatch):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)

    real = sweep.run_point

    def flaky(cfg_, pt):
        if pt.index == 2:
            raise RuntimeError("synthetic point failure")
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "run_point", flaky)
    reports, failures = sweep.run_experiment(cfg)
    assert len(failures) == 1
    assert "synthetic point failure" in failures[0]
    assert os.path.exists(out + ".failures.txt")
    assert "synthetic" in open(out + ".failures.txt").read()
    # the surviving grid points still produced rows
    assert {r.depth for r in reports} == {1, 3}


def test_clean_rerun_removes_stale_failures_file(tmp_path, monkeypatch):
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    real = sweep.run_point

    def flaky(cfg_, pt):
        if pt.index == 2:
            raise RuntimeError("synthetic point failure")
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "run_point", flaky)
    assert sweep.run_experiment(cfg)[1]
    assert os.path.exists(out + ".failures.txt")
    monkeypatch.setattr(sweep, "run_point", real)
    assert sweep.run_experiment(cfg)[1] == []
    assert not os.path.exists(out + ".failures.txt")


def write_demo_config(tmp_path):
    """demos/chain_sweep.yaml with its output redirected into tmp_path."""
    text = _DEMO_TEXT.replace("output: chain_sweep_results.csv", "output: OUTPUT")
    assert "OUTPUT" in text
    return write_config(tmp_path, text)


def test_crashed_worker_fails_only_its_point(tmp_path, monkeypatch):
    """A pool worker that dies on point 1 of the demo grid breaks the pool:
    every point without a result runs again alone, so only point 1, which
    kills its own worker again, fails, and the other 7 points' rows equal
    those of a crash-free run."""
    path, out = write_demo_config(tmp_path)
    cfg = load_config(path)
    sweep.run_experiment(cfg, workers=1)
    clean = [r for r in read_csv(out) if (r.depth, r.p) != (1, 0.15)]
    real = sweep.run_point

    def crashing(cfg_, pt):
        if pt.index == 1:
            os._exit(3)
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "run_point", crashing)
    _, failures = sweep.run_experiment(cfg, workers=2)
    assert failures == ["point 1 (d=1, theta=0.1, p=0.15): worker died"]
    assert open(out + ".failures.txt").read() == failures[0] + "\n"
    assert read_csv(out) == clean


def test_streamed_rows_use_the_final_serializer(tmp_path, monkeypatch):
    """Without the sorted rewrite, the file a run streams is what
    ``report.write_csv`` makes of its rows in completion order: one
    serializer for both, down to the line ends."""
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    real = sweep.run_point
    completed = []

    def recorded(cfg_, pt):
        rows = real(cfg_, pt)
        completed.extend(rows)
        return rows

    monkeypatch.setattr(sweep, "run_point", recorded)
    monkeypatch.setattr(sweep, "write_csv", lambda *args, **kwargs: None)
    reports, _ = sweep.run_experiment(cfg, workers=1)
    assert sorted(completed, key=sweep._sort_key) == reports
    want = str(tmp_path / "want.csv")
    write_csv(want, completed, timings=cfg.timings)
    assert open(out, "rb").read() == open(want, "rb").read()


def test_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch):
    """A pool gets min(workers, grid points) workers, and one worker runs
    the grid in-process.  The recording stand-in for ProcessPoolExecutor
    runs the points on one thread and starts no process."""
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    sweep.run_experiment(cfg, workers=1)
    serial = open(out, "rb").read()
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)
            super().__init__(1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for workers in (5000, 3, 1):
        assert sweep.run_experiment(cfg, workers=workers)[1] == []
        assert open(out, "rb").read() == serial
    assert sizes == [4, 3]


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_validate_ok(tmp_path, capsys):
    path, _ = write_config(tmp_path, BASE_YAML)
    assert cli.main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_config(tmp_path, capsys):
    path, _ = write_config(tmp_path, BASE_YAML.replace("schema: 1", "schema: 9"))
    assert cli.main(["validate", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_file_is_exit_2(tmp_path):
    assert cli.main(["validate", str(tmp_path / "nope.yaml")]) == 2


def test_cli_run_and_oracle_check(tmp_path, capsys):
    path, out = write_config(tmp_path, BASE_YAML)
    assert cli.main(["run", path]) == 0
    assert os.path.exists(out)
    # oracle-check reruns every point and verifies the bounds against the
    # dense output energy: must pass on sound duals
    capsys.readouterr()
    assert cli.main(["oracle-check", path]) == 0
    assert "passed" in capsys.readouterr().out


def test_cli_run_with_failure_is_exit_3(tmp_path, monkeypatch):
    path, out = write_config(tmp_path, BASE_YAML)

    def boom(cfg_, pt):
        raise RuntimeError("dead point")

    monkeypatch.setattr(sweep, "run_point", boom)
    assert cli.main(["run", path]) == 3


def test_cli_plot_bound_vs_depth(tmp_path):
    path, out = write_config(tmp_path, BASE_YAML)
    assert cli.main(["run", path]) == 0
    plot_dir = str(tmp_path / "plots")
    assert cli.main(["plot", out, "--template", "bound_vs_depth",
                     "--out", plot_dir]) == 0
    files = sorted(os.listdir(plot_dir))
    assert "caption.txt" in files
    dat = [f for f in files if f.endswith(".dat")]
    # 4 methods x 2 p values x 1 theta x 1 resource = 8 curves
    assert len(dat) == 8
    # numeric round trip: plotted values equal the CSV bounds exactly
    reports = read_csv(out)
    curve = [r for r in reports
             if r.method == "trace_dual" and r.p == 0.1]
    name = [f for f in dat if f.startswith("trace_dual") and "p0_1" in f][0]
    lines = open(os.path.join(plot_dir, name)).read().splitlines()
    got = {int(l.split()[0]): float(l.split()[1]) for l in lines}
    for r in curve:
        assert got[r.depth] == r.bound
    caption = open(os.path.join(plot_dir, "caption.txt")).read()
    assert "trivial" in caption


def test_cli_plot_heatmap(tmp_path):
    text = BASE_YAML.replace("theta: [0.1]", "theta: [0.05, 0.2]")
    text = text.replace("depth: [1, 3]", "depth: [3]")
    path, out = write_config(tmp_path, text)
    assert cli.main(["run", path]) == 0
    plot_dir = str(tmp_path / "hm")
    assert cli.main(["plot", out, "--template", "bound_vs_p_theta_heatmap",
                     "--out", plot_dir]) == 0
    grid_files = [f for f in os.listdir(plot_dir) if f.endswith("_grid.dat")]
    assert grid_files
    stem = grid_files[0][:-len("_grid.dat")]
    grid = np.loadtxt(os.path.join(plot_dir, grid_files[0]))
    assert grid.shape == (2, 2)               # two p rows, two theta columns
    # axis sidecars: ascending p rows, ascending theta columns
    p_axis = np.loadtxt(os.path.join(plot_dir, stem + "_p.dat"))
    t_axis = np.loadtxt(os.path.join(plot_dir, stem + "_theta.dat"))
    np.testing.assert_array_equal(p_axis, [0.0, 0.1])
    np.testing.assert_array_equal(t_axis, [0.05, 0.2])
    # cell values tie back to the CSV exactly
    rows = read_csv(out)
    method = stem.split("_r")[0]
    pick = [r for r in rows if r.method == method and r.p == 0.1
            and r.theta == 0.2]
    assert grid[1, 1] == pick[0].bound


def test_cli_plot_incomplete_grid_is_exit_2(tmp_path, capsys):
    text = BASE_YAML.replace("theta: [0.1]", "theta: [0.05, 0.2]")
    text = text.replace("depth: [1, 3]", "depth: [3]")
    path, out = write_config(tmp_path, text)
    assert cli.main(["run", path]) == 0
    # drop one row: some method's 2x2 (p, theta) grid loses a cell
    lines = open(out).read().splitlines()
    open(out, "w").write("\n".join(lines[:-1]) + "\n")
    assert cli.main(["plot", out, "--template", "bound_vs_p_theta_heatmap",
                     "--out", str(tmp_path / "x")]) == 2
    assert "incomplete" in capsys.readouterr().err


def test_cli_fermion_pipeline(tmp_path):
    path, out = write_config(tmp_path, FERMION_YAML)
    assert cli.main(["run", path]) == 0
    back = read_csv(out)
    assert {r.method for r in back} == {"fermion_dual"}
    assert {r.resource for r in back} == {0, 1}
    assert cli.main(["oracle-check", path]) == 0
    plot_dir = str(tmp_path / "fp")
    assert cli.main(["plot", out, "--template", "fermion_vs_depth",
                     "--out", plot_dir]) == 0
    assert "caption.txt" in os.listdir(plot_dir)


def test_cli_run_oracle_flag(tmp_path, capsys):
    path, _ = write_config(tmp_path, BASE_YAML)
    assert cli.main(["run", path, "--oracle"]) == 0
    assert "oracle cross-check passed" in capsys.readouterr().out


def test_oracle_check_is_run_oracle(tmp_path, capsys):
    """``oracle-check`` and ``run --oracle`` write the same CSV, print the
    same lines and return the same code."""
    path, out = write_config(tmp_path, BASE_YAML)
    seen = []
    for argv in (["run", path, "--oracle"], ["oracle-check", path]):
        code = cli.main(argv)
        seen.append((code, capsys.readouterr(), open(out, "rb").read()))
    assert seen[0] == seen[1]
    assert seen[0][0] == 0
    assert "oracle cross-check passed" in seen[0][1].out


def test_oracle_check_reports_a_raising_point(tmp_path, monkeypatch, capsys):
    """A point that raises under ``oracle-check`` is one FAILED line and
    exit 3; the other points' rows are still checked against the oracle."""
    monkeypatch.delenv(sweep.WORKERS_ENV, raising=False)
    path, out = write_config(tmp_path, BASE_YAML)
    real = sweep.run_point

    def flaky(cfg_, pt):
        if pt.index == 1:
            raise RuntimeError("dead point")
        return real(cfg_, pt)

    checked = []
    real_check = cli.oracle_check

    def spy(reports):
        checked.extend((r.depth, r.p) for r in reports)
        return real_check(reports)

    monkeypatch.setattr(sweep, "run_point", flaky)
    monkeypatch.setattr(cli, "oracle_check", spy)
    assert cli.main(["oracle-check", path]) == 3
    captured = capsys.readouterr()
    failed = [l for l in captured.err.splitlines() if l.startswith("FAILED")]
    assert failed == ["FAILED point 1 (d=1, theta=0.1, p=0.1): dead point"]
    assert "oracle cross-check passed" in captured.out
    assert set(checked) == {(1, 0.0), (3, 0.0), (3, 0.1)}
    assert {(r.depth, r.p) for r in read_csv(out)} == set(checked)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_workers_below_one_is_exit_2(tmp_path, monkeypatch, capsys, workers):
    """``--workers`` below 1 is a config error naming the flag, raised
    before any grid point runs."""
    path, _ = write_config(tmp_path, BASE_YAML)
    calls = []
    monkeypatch.setattr(sweep, "run_point", lambda cfg_, pt: calls.append(pt) or [])
    assert cli.main(["run", path, "--workers", workers]) == 2
    assert cli.main(["oracle-check", path, "--workers", workers]) == 2
    assert calls == []
    assert capsys.readouterr().err.count("config error: --workers:") == 2


def test_run_oracle_checks_written_rows_without_rerun(tmp_path, monkeypatch, capsys):
    """`run --oracle` checks the rows the run returned: one run_point call
    per grid point, and a failed point is reported once, as a failure."""
    path, _ = write_config(tmp_path, BASE_YAML)
    real = sweep.run_point
    calls = []

    def counted(cfg_, pt):
        calls.append(pt.index)
        if pt.index == 1:
            raise RuntimeError("dead point")
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "run_point", counted)
    assert cli.main(["run", path, "--oracle"]) == 3
    assert sorted(calls) == [0, 1, 2, 3]
    err = capsys.readouterr().err
    assert err.count("dead point") == 1
    assert "ORACLE" not in err


def test_run_oracle_flags_a_planted_bound(tmp_path, monkeypatch, capsys):
    """A written row above its point's exact energy is still flagged."""
    path, _ = write_config(tmp_path, BASE_YAML)
    real = sweep.run_point

    def planted(cfg_, pt):
        rows = real(cfg_, pt)
        if pt.index == 2:
            # the planted row keeps the exact energy its point computed
            rows[0] = dataclasses.replace(rows[0], bound=1.5, boundary_term=1.5,
                                          penalty_sum=0.0)
        return rows

    monkeypatch.setattr(sweep, "run_point", planted)
    assert cli.main(["run", path, "--oracle"]) == 3
    err = capsys.readouterr().err
    assert err.count("ORACLE") == 1
    assert "bound 1.5 exceeds exact energy" in err


@pytest.mark.parametrize("how", ["config", "flag", "verb"])
def test_oracle_builds_each_point_once(tmp_path, monkeypatch, capsys, how):
    """`oracle: true`, `run --oracle` and `oracle-check` build each grid
    point's circuit once, for its bounds and its exact energy alike."""
    monkeypatch.delenv(sweep.WORKERS_ENV, raising=False)
    path, _ = write_config(tmp_path, BASE_YAML + ("oracle: true\n" if how == "config" else ""))
    real = sweep.build_circuit
    calls = []

    def counted(cfg_, pt):
        calls.append(pt.index)
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "build_circuit", counted)
    argv = {"config": ["run", path], "flag": ["run", path, "--oracle"],
            "verb": ["oracle-check", path]}[how]
    assert cli.main(argv) == 0
    assert "oracle cross-check passed" in capsys.readouterr().out
    assert sorted(calls) == [0, 1, 2, 3]


def test_run_oracle_bounds_a_repeated_point_once(tmp_path, monkeypatch, capsys):
    """A grid that repeats a (depth, theta, p) is checked with one run_point
    call per grid point."""
    monkeypatch.delenv(sweep.WORKERS_ENV, raising=False)
    path, _ = write_config(tmp_path, BASE_YAML.replace("depth: [1, 3]", "depth: [3, 3]"))
    real = sweep.run_point
    calls = []

    def counted(cfg_, pt):
        calls.append(pt.index)
        return real(cfg_, pt)

    monkeypatch.setattr(sweep, "run_point", counted)
    assert cli.main(["run", path, "--oracle"]) == 0
    assert "oracle cross-check passed" in capsys.readouterr().out
    assert sorted(calls) == [0, 1, 2, 3]


def test_oracle_check_refuses_rows_without_an_exact_energy(tmp_path):
    """A row from a run with the oracle off, or read back from a CSV, has no
    exact energy: checking it raises rather than passing vacuously."""
    path, out = write_config(tmp_path, BASE_YAML)
    cfg = load_config(path)
    rows = sweep.run_point(cfg, sweep.expand_grid(cfg)[0])
    assert rows and all(r.exact_energy is None for r in rows)
    with pytest.raises(ValueError, match="no exact energy"):
        cli.oracle_check(rows)
    sweep.run_experiment(cfg)
    with pytest.raises(ValueError, match="no exact energy"):
        cli.oracle_check(read_csv(out))


# sha256 of the CSV that `noisebound run demos/chain_sweep.yaml` writes; a
# change that moves a bound updates it and says why in CHANGES.md.
DEMO_CSV_SHA256 = "76a91d4f74862d3efca1eb271e78cd64b8e662b46a4f40abc43a80792be2c772"


def test_demo_csv_is_pinned(tmp_path, capsys):
    path, out = write_demo_config(tmp_path)
    assert cli.main(["run", path]) == 0
    assert "oracle cross-check passed" in capsys.readouterr().out
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DEMO_CSV_SHA256


def test_dense_oracle_size_checked_before_any_point(tmp_path, monkeypatch, capsys):
    """A qubit family above the dense oracle's size: ``oracle: true`` is a
    config error, and ``run --oracle`` and ``oracle-check`` refuse before
    any grid point runs."""
    big = BASE_YAML.replace("n: 3", "n: 13")
    path, _ = write_config(tmp_path, big + "oracle: true\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.path == "oracle"
    assert cli.main(["validate", path]) == 2
    calls = []
    monkeypatch.setattr(sweep, "run_point", lambda cfg_, pt: calls.append(pt) or [])
    path, _ = write_config(tmp_path, big, name="big.yaml")
    assert cli.main(["run", path, "--oracle"]) == 2
    assert cli.main(["oracle-check", path]) == 2
    assert calls == []
    assert capsys.readouterr().err.count("config error: oracle:") == 3


def test_fermion_oracle_has_no_size_cap(tmp_path, capsys):
    """The covariance oracle of a fermion family runs at any size."""
    text = (FERMION_YAML.replace("n: 6", "n: 16").replace("[2, 4]", "[2]")
            .replace("radii: [0, 1]", "radii: [0]") + "oracle: true\n")
    path, _ = write_config(tmp_path, text)
    assert cli.main(["run", path]) == 0
    assert "oracle cross-check passed" in capsys.readouterr().out
