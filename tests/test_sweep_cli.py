"""The experiment pipeline: result records, config parsing, grid sweeps,
and the command-line entry points.

Determinism is the contract here: same config -> byte-identical CSV,
regardless of worker count, with exact float round trips through every
serialization boundary.
"""

import os

import numpy as np
import pytest

from noisebound import cli, sweep
from noisebound.config import (
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)
from noisebound.report import (
    CSV_COLUMNS,
    BoundReport,
    config_digest,
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
    # oracle-check recomputes every point and verifies the bounds against
    # the dense output energy: must pass on sound duals
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
            rows[0] = BoundReport(
                method=rows[0].method, n_sites=rows[0].n_sites, depth=pt.depth,
                resource=rows[0].resource, p=pt.p, theta=pt.theta,
                seed=rows[0].seed, bound=1.5, boundary_term=1.5)
        return rows

    monkeypatch.setattr(sweep, "run_point", planted)
    assert cli.main(["run", path, "--oracle"]) == 3
    err = capsys.readouterr().err
    assert err.count("ORACLE") == 1
    assert "bound 1.5 exceeds exact energy" in err
