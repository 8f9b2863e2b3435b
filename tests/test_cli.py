import math
import os

import numpy as np
import pytest

from parabolic2d import build_grid
from parabolic2d.cli import (CSV_COLUMNS, ConfigError, RunConfig,
                             config_from_sources, emit_field_dump,
                             load_config_file, main, make_parser, parse_mesh,
                             parse_probe, probe_node, run_study,
                             validate_config)


def test_parse_mesh():
    assert parse_mesh("16x16x64") == (16, 16, 64)
    assert parse_mesh("8X4X2") == (8, 4, 2)
    with pytest.raises(ConfigError):
        parse_mesh("16x16")
    with pytest.raises(ConfigError):
        parse_mesh("ax4x4")


def test_parse_probe():
    assert parse_probe("center") == "center"
    assert parse_probe("sixth") == "sixth"
    assert parse_probe("3,5") == (3, 5)
    with pytest.raises(ConfigError):
        parse_probe("northwest")


def test_validate_rejects_empty_mesh_list():
    cfg = RunConfig(meshes=[])
    with pytest.raises(ConfigError, match="mesh"):
        validate_config(cfg)


@pytest.mark.parametrize("mesh", [(4, 4, 2.5), (4.5, 4, 2), (4, 4, True),
                                  (4, 1, 2), (4, 4)])
def test_validate_rejects_invalid_mesh_triples(mesh):
    # a fractional N used to pass and be truncated by the time grid
    with pytest.raises(ConfigError, match="mesh: invalid triple"):
        validate_config(RunConfig(meshes=[mesh]))


def test_validate_rejects_bad_theta():
    with pytest.raises(ConfigError, match="theta"):
        validate_config(RunConfig(theta=1.5, meshes=[(4, 4, 4)]))


def test_probe_divisibility_rules():
    cfg = RunConfig(problem="airpollution", probe="sixth",
                    meshes=[(8, 8, 4)])
    with pytest.raises(ConfigError, match="sixth"):
        validate_config(cfg)
    assert probe_node(RunConfig(probe="sixth"), 12, 12) == (2, 2)
    assert probe_node(RunConfig(probe="center"), 8, 8) == (4, 4)
    assert probe_node(RunConfig(probe=(3, 5)), 8, 8) == (3, 5)
    with pytest.raises(ConfigError):
        probe_node(RunConfig(probe=(9, 1)), 8, 8)


def test_field_dump_constant_round_trip(tmp_path):
    g = build_grid(1.0, 1.0, 2, 2)
    u = np.ones((10, 1))
    path = tmp_path / "dump.txt"
    emit_field_dump(u, g, 0.5, str(path),
                    boundary=lambda x, y, t: np.ones(np.shape(x)))
    parsed = np.loadtxt(path, delimiter=",",
                        comments=("#", "x")).reshape(10, -1, 3)
    assert parsed.shape == (10, 9, 3)
    assert np.all(parsed[:, :, 2] == 1.0)


def test_field_dump_exact_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    g = build_grid(3.0, 2.0, 5, 4)
    u = rng.standard_normal((2, g.n_interior))
    path = tmp_path / "dump.txt"
    emit_field_dump(u, g, 1.0, str(path),
                    boundary=lambda x, y, t: np.zeros(np.shape(x)))
    parsed = np.loadtxt(path, delimiter=",",
                        comments=("#", "x")).reshape(2, -1, 3)
    for l in range(2):
        vals = parsed[l, :, 2].reshape(g.My + 1, g.Mx + 1)
        assert np.array_equal(vals[1:-1, 1:-1].ravel(), u[l])
        assert np.all(vals[0, :] == 0.0)


def test_run_study_manufactured(tmp_path):
    cfg = RunConfig(problem="manufactured", scheme="cds",
                    meshes=[(4, 4, 4), (8, 8, 8)], out_dir=str(tmp_path / "out"))
    out = run_study(cfg)
    csv_path = os.path.join(out, "convergence.csv")
    with open(csv_path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f]
    assert tuple(header) == CSV_COLUMNS
    assert len(rows) == 20  # 2 meshes x 10 species
    by_species = [r for r in rows if r[6] == "0"]
    errs = [float(r[7]) for r in by_species]
    assert errs[0] == pytest.approx(5.702e-3, rel=0.02)
    ratio = float(by_species[1][8])
    assert 3.8 <= ratio <= 4.05
    assert os.path.exists(os.path.join(out, "run_metadata.txt"))
    dumps = [p for p in os.listdir(out) if p.startswith("fields_")]
    assert len(dumps) == 2


def test_run_study_deterministic_rerun(tmp_path):
    def run(tag):
        cfg = RunConfig(problem="manufactured", scheme="cds",
                        meshes=[(4, 4, 4)], out_dir=str(tmp_path / tag))
        out = run_study(cfg)
        with open(os.path.join(out, "convergence.csv")) as f:
            lines = f.read().splitlines()
        # drop the wall-clock column before comparing
        return ["," .join(line.split(",")[:-1]) for line in lines]
    assert run("a") == run("b")


def read_dump(path, L, Mx, My):
    """Field dump as an (L, My+1, Mx+1) array, boundary nodes included."""
    parsed = np.loadtxt(path, delimiter=",", comments=("#", "x"))
    return parsed[:, 2].reshape(L, My + 1, Mx + 1)


def test_run_study_airpollution_probe(tmp_path):
    cfg = RunConfig(problem="airpollution", scheme="cds", probe="sixth",
                    meshes=[(6, 6, 8), (12, 12, 8)],
                    out_dir=str(tmp_path / "air"))
    out = run_study(cfg)
    with open(os.path.join(out, "convergence.csv")) as f:
        f.readline()
        rows = [line.strip().split(",") for line in f]
    finest = [r for r in rows if r[3] == "12"]
    assert all(r[7] == "" for r in finest)  # reference rows carry no error
    coarse = [r for r in rows if r[3] == "6"]
    # the relative deviation from the finest mesh at the probe node, which
    # is (1, 1) on 6x6 and (2, 2) on 12x12
    v = read_dump(os.path.join(out, "fields_airpollution_cds_none_6x6x8.txt"),
                  10, 6, 6)[:, 1, 1]
    v_ref = read_dump(
        os.path.join(out, "fields_airpollution_cds_none_12x12x8.txt"),
        10, 12, 12)[:, 2, 2]
    assert [int(r[6]) for r in coarse] == list(range(10))
    assert [float(r[7]) for r in coarse] == list(np.abs(v - v_ref)
                                                 / np.abs(v_ref))


def test_spacetime_time_weight_follows_theta(tmp_path):
    # theta = 1 is first order in time, so the time pair must be weighted
    # for order 1: weighted for order 2, every species reads order 1.  NO2
    # (species 1), 20 times smaller, is still pre-asymptotic at 4/8 (1.78)
    out = run_study(RunConfig(problem="manufactured", scheme="cds", theta=1.0,
                              re_mode="spacetime",
                              meshes=[(4, 4, 4), (8, 8, 8)],
                              out_dir=str(tmp_path / "o")))
    with open(os.path.join(out, "convergence.csv")) as f:
        f.readline()
        orders = [float(line.split(",")[9]) for line in f
                  if line.split(",")[3] == "8"]
    assert len(orders) == 10 and orders[0] >= 1.9, orders
    assert min(orders) >= 1.75, orders


@pytest.mark.parametrize("re_mode,solves", [
    ("none", [(4, 4, 2), (8, 8, 2)]),
    ("space", [(4, 4, 2), (8, 8, 2), (8, 8, 2), (16, 16, 2)]),
    ("spacetime", [(4, 4, 2), (8, 8, 2), (4, 4, 4), (8, 8, 4),
                   (8, 8, 2), (16, 16, 2), (8, 8, 4), (16, 16, 4)]),
])
def test_companion_solves_per_re_mode(tmp_path, monkeypatch, re_mode, solves):
    # each --mesh entry solves its own mesh, then the companions its mode
    # extrapolates with, in this order; the dump is the extrapolated field
    from parabolic2d import cli, richardson
    real_integrate, recorded = cli.integrate, []

    def recorder(problem, grid, tg, scheme, **kwargs):
        W, reports = real_integrate(problem, grid, tg, scheme, **kwargs)
        recorded.append((grid, tg, W))
        return W, reports

    monkeypatch.setattr(cli, "integrate", recorder)
    out = run_study(RunConfig(problem="manufactured", scheme="cds",
                              re_mode=re_mode, meshes=[(4, 4, 2), (8, 8, 2)],
                              out_dir=str(tmp_path / "o")))
    assert [(g.Mx, g.My, tg.N) for g, tg, _ in recorded] == solves
    (grid, tg, W), *companions = recorded[:len(solves) // 2]
    if re_mode == "space":
        [(grid2, _, W2)] = companions
        W = richardson.extrapolate_space(W, W2, grid, grid2, 2)
    elif re_mode == "spacetime":
        (grid2, _, W2), (_, tgt, Wt), (_, _, W2t) = companions
        W = richardson.extrapolate_spacetime(W, Wt, W2, W2t, grid, grid2,
                                             tg, tgt, 2, 2)
    dump = read_dump(os.path.join(
        out, f"fields_manufactured_cds_{re_mode}_4x4x2.txt"), 10, 4, 4)
    assert np.array_equal(dump[:, 1:-1, 1:-1].reshape(10, -1), W)


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text(
        "problem = manufactured\nscheme = cfds\nmesh = 4x4x4, 8x8x16\n"
        "theta = 0.5\n# comment line\nmu = standard\n")
    out = tmp_path / "o"
    rc = main(["--config", str(cfgfile), "--scheme", "cds",
               "--mesh", "4x4x4", "--out", str(out)])
    assert rc == 0
    with open(out / "run_metadata.txt") as f:
        meta = dict(line.strip().split("=", 1) for line in f if "=" in line)
    assert meta["scheme"] == "cds"          # flag overrides file
    assert meta["mesh"] == "4x4x4"
    assert meta["problem"] == "manufactured"
    assert meta["git_revision"]


def test_run_metadata_whole_file(tmp_path):
    # every line of run_metadata.txt but the git revision, in order: floats
    # with 17 significant digits, mu as given, the tuple probe as a tuple
    cfgfile = tmp_path / "study.cfg"
    cfgfile.write_text(
        "problem = airpollution\nscheme = cfds\ntheta = 0.6\n"
        "mesh = 4x4x2, 8x8x2\nmu = fast\ncos_theta = 0.5\nprobe = 1,3\n")
    out = tmp_path / "o"
    assert main(["--config", str(cfgfile), "--out", str(out)]) == 0
    lines = (out / "run_metadata.txt").read_text().splitlines()
    assert lines[-1].startswith("git_revision=") and len(lines[-1]) > 13
    assert "\n".join(lines[:-1]) + "\n" == """\
problem=airpollution
scheme=cfds
theta=0.59999999999999998
mesh=4x4x2 8x8x2
re=none
mu=fast
mu_value=0.012566370614359173
cos_theta=0.5
probe=(1, 3)
"""


def test_main_config_error_exit_code(tmp_path):
    rc = main(["--problem", "manufactured", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_main_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    assert main(["--config", str(bad)]) == 2


@pytest.mark.parametrize("scheme", ["cds", "cfds"])
@pytest.mark.parametrize("line", ["cos-theta = 0.5", "cfds-variant = bogus",
                                  "chemistry = as-printed", "ell = 3",
                                  "newton_tol = 1e-9", "krylov_tol = 1e-10"])
def test_unknown_config_key_rejected(tmp_path, scheme, line):
    # the flag spelling cos-theta used to be ignored silently; cfds-variant,
    # chemistry and the solver tolerances (integrate's defaults) are no
    # longer keys
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh = 4x4x2\n{line}\n")
    with pytest.raises(ConfigError, match=repr(line.split()[0])):
        config_from_sources(load_config_file(str(cfg)),
                            make_parser().parse_args([]))
    assert main(["--config", str(cfg), "--scheme", scheme,
                 "--out", str(tmp_path / "x")]) == 2


def test_chemistry_flag_is_gone(tmp_path, monkeypatch):
    # the chemistry is fixed; argparse stops the unknown flag before any
    # solve or output
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["--problem", "airpollution", "--mesh", "4x4x2",
              "--chemistry", "corrected", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert solves == []
    assert not (tmp_path / "x").exists()


def test_mesh_order_checked_before_any_solve(tmp_path, monkeypatch):
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ConfigError, match="increase"):
        validate_config(RunConfig(meshes=[(4, 4, 2), (4, 4, 4)]))
    rc = main(["--problem", "manufactured", "--mesh", "4x4x2",
               "--mesh", "4x4x4", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert solves == []


@pytest.mark.parametrize("flag,value", [
    ("--mu", "nan"), ("--mu", "inf"), ("--cos-theta", "nan"),
    ("--cos-theta", "inf"), ("--cos-theta", "1.5")])
def test_nonfinite_wind_and_sun_rejected_before_any_solve(tmp_path, monkeypatch,
                                                          flag, value):
    # these used to reach step 0 (exit 1, non-finite residual) or, for
    # cos-theta inf, complete with a meaningless chemistry
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    argv = ["--problem", "airpollution", "--mesh", "4x4x2", flag, value]
    with pytest.raises(ConfigError, match=flag[2:]):
        validate_config(config_from_sources({}, make_parser().parse_args(argv)))
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert solves == []


def test_config_table_serves_file_and_flags(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("cos_theta = 0.5\nmesh = 4x4x2, 8x8x4\n"
                       "probe = 1,2\n")
    args = make_parser().parse_args(["--theta", "1", "--mesh", "6x6x2",
                                     "--mesh", "12x12x2"])
    cfg = config_from_sources(load_config_file(str(cfgfile)), args)
    assert (cfg.cos_theta, cfg.theta) == (0.5, 1.0)
    assert cfg.meshes == [(6, 6, 2), (12, 12, 2)]   # flags override the file
    assert cfg.probe == (1, 2)
    with pytest.raises(ConfigError, match="theta: bad value"):
        config_from_sources({}, make_parser().parse_args(["--theta", "x"]))
