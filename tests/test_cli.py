import io
import math
import os
import re
import shutil
import subprocess

import numpy as np
import pytest

from parabolic2d import build_grid, cli
from parabolic2d.cli import (CHOICES, CSV_COLUMNS, ConfigError, RunConfig,
                             emit_field_dump, main, make_parser, parse_config,
                             parse_mesh, probe_node, run_study,
                             validate_config)
from parabolic2d.stepper import SolverFailure


def test_parse_mesh():
    assert parse_mesh("16x16x64") == (16, 16, 64)
    assert parse_mesh("8X4X2") == (8, 4, 2)
    with pytest.raises(ConfigError):
        parse_mesh("16x16")
    with pytest.raises(ConfigError):
        parse_mesh("ax4x4")


def test_validate_rejects_empty_mesh_list():
    cfg = RunConfig(mesh=[])
    with pytest.raises(ConfigError, match="mesh"):
        validate_config(cfg)


@pytest.mark.parametrize("mesh", [(4, 4, 2.5), (4.5, 4, 2), (4, 4, True),
                                  (4, 1, 2), (4, 4)])
def test_validate_rejects_invalid_mesh_triples(mesh):
    # a fractional N used to pass and be truncated by the time grid
    with pytest.raises(ConfigError, match="mesh: invalid triple"):
        validate_config(RunConfig(mesh=[mesh]))


def test_validate_rejects_bad_theta():
    with pytest.raises(ConfigError, match="theta"):
        validate_config(RunConfig(theta=1.5, mesh=[(4, 4, 4)]))


@pytest.mark.parametrize("key,value", [("theta", True), ("theta", np.True_),
                                       ("cos_theta", True)])
def test_validate_rejects_bool_settings(key, value):
    # a bool passes the range checks as 0 or 1; a Python-built RunConfig
    # with one is rejected before any output
    with pytest.raises(ConfigError, match=key.replace("_", "-")):
        validate_config(RunConfig(mesh=[(4, 4, 2)], **{key: value}))


def test_probe_divisibility_rules():
    cfg = RunConfig(problem="airpollution", probe="sixth",
                    mesh=[(8, 8, 4)])
    with pytest.raises(ConfigError, match="sixth"):
        validate_config(cfg)
    assert probe_node(RunConfig(probe="sixth"), 12, 12) == (2, 2)
    assert probe_node(RunConfig(probe="sixth"), 6, 18) == (1, 3)
    assert probe_node(RunConfig(probe="center"), 8, 8) == (4, 4)
    assert probe_node(RunConfig(probe="center"), 6, 10) == (3, 5)
    with pytest.raises(ConfigError, match=r"^probe: center needs Mx, My "
                                          r"divisible by 2, got 8x5$"):
        probe_node(RunConfig(probe="center"), 8, 5)
    with pytest.raises(ConfigError, match=r"^probe: sixth needs Mx, My "
                                          r"divisible by 6, got 12x8$"):
        probe_node(RunConfig(probe="sixth"), 12, 8)


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


def test_field_dump_bytes_match_savetxt(tmp_path):
    # one formatted write per species block gives the bytes of np.savetxt
    # with fmt="%.17g", including negative, subnormal and signed-zero values
    g = build_grid(1.0, 1.0, 7, 6)
    rng = np.random.default_rng(17)
    u = rng.standard_normal((2, g.n_interior)) * 10.0 ** rng.integers(
        -320, 300, (2, g.n_interior))
    u[0, :4] = [-0.0, 0.0, -1e-310, 5e-324]
    ring = len(g.boundary_ring()[0][0])
    data = np.stack([np.full(ring, -0.0), -np.linspace(1e-305, 1.0, ring)])
    path = tmp_path / "dump.txt"
    emit_field_dump(u, g, 0.25, str(path), boundary=lambda x, y, t: data)
    XX, YY = g.full_mesh()
    full = np.empty((2, g.My + 1, g.Mx + 1))
    full[:, 1:-1, 1:-1] = u.reshape(2, g.ny, g.nx)
    (j, i), _ = g.boundary_ring()
    full[:, j, i] = data
    expected = io.BytesIO()
    for l in range(2):
        expected.write(f"# species {l} t 0.25\nx,y,value\n".encode())
        np.savetxt(expected, np.column_stack(
            [XX.ravel(), YY.ravel(), full[l].ravel()]), fmt="%.17g",
            delimiter=",")
    assert path.read_bytes() == expected.getvalue()
    assert all(v in expected.getvalue() for v in (b",-0\n", b",0\n",
                                                  b"e-311\n", b"e-324\n"))


def test_run_study_manufactured(tmp_path):
    cfg = RunConfig(problem="manufactured", scheme="cds",
                    mesh=[(4, 4, 4), (8, 8, 8)], out=str(tmp_path / "out"))
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
                        mesh=[(4, 4, 4)], out=str(tmp_path / tag))
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
                    mesh=[(6, 6, 8), (12, 12, 8)],
                    out=str(tmp_path / "air"))
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
                              re="spacetime",
                              mesh=[(4, 4, 4), (8, 8, 8)],
                              out=str(tmp_path / "o")))
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
                              re=re_mode, mesh=[(4, 4, 2), (8, 8, 2)],
                              out=str(tmp_path / "o")))
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


def test_run_metadata_whole_file(tmp_path):
    # every line of run_metadata.txt but the git revision, in order: floats
    # with 17 significant digits, mu by name and then its rate
    out = tmp_path / "o"
    assert main(["--problem", "airpollution", "--scheme", "cfds",
                 "--theta", "0.6", "--mesh", "6x6x2", "--mesh", "12x12x2",
                 "--mu", "fast", "--cos-theta", "0.5", "--probe", "sixth",
                 "--out", str(out)]) == 0
    lines = (out / "run_metadata.txt").read_text().splitlines()
    assert lines[-1].startswith("git_revision=") and len(lines[-1]) > 13
    assert "\n".join(lines[:-1]) + "\n" == """\
problem=airpollution
scheme=cfds
theta=0.59999999999999998
mesh=6x6x2 12x12x2
re=none
mu=fast
mu_value=0.0043633231299858239
cos_theta=0.5
probe=sixth
"""


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_revision_only_for_a_committed_cli(tmp_path, monkeypatch):
    # a work tree whose HEAD has pkg/cli.py, and an ignored copy of the
    # package beside it: only the committed module reports HEAD
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args], cwd=tmp_path, check=True,
            capture_output=True, text=True).stdout.strip()

    for d in ("pkg", ".venv/pkg"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "cli.py").write_text("")
    (tmp_path / ".gitignore").write_text(".venv/\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "pkg")
    for d, expected in (("pkg", git("rev-parse", "HEAD")),
                        (".venv/pkg", "unknown")):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / d / "cli.py"))
        assert cli.git_revision() == expected


def test_main_config_error_exit_code(tmp_path):
    rc = main(["--problem", "manufactured", "--out", str(tmp_path / "x")])
    assert rc == 2


def _assert_argparse_stops(tmp_path, monkeypatch, capsys, argv, message):
    # argparse stops an unknown flag or a malformed value with exit 2 and a
    # usage message before any solve or output
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    # some Python versions quote the listed choices, others do not
    err = re.sub(r"\(choose from (.*)\)",
                 lambda m: m[0].replace("'", ""), capsys.readouterr().err)
    assert f"parabolic2d: error: {message}\n" in err
    assert solves == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("scheme", ["cds", "cfds"])
@pytest.mark.parametrize("line", ["ell = 3", "newton_tol = 1e-9"])
def test_unknown_config_key_rejected(tmp_path, monkeypatch, capsys, scheme,
                                    line):
    # ell and newton_tol were config-file keys; there is no config file and
    # no solver setting on the command line, so the flag is unknown
    key, value = (part.strip() for part in line.split("="))
    flag = "--" + key.replace("_", "-")
    _assert_argparse_stops(tmp_path, monkeypatch, capsys, [
        "--problem", "manufactured", "--mesh", "4x4x2", "--scheme", scheme,
        flag, value], f"unrecognized arguments: {flag} {value}")


def test_config_flag_is_gone(tmp_path, monkeypatch, capsys):
    _assert_argparse_stops(tmp_path, monkeypatch, capsys, [
        "--problem", "manufactured", "--mesh", "4x4x2", "--config",
        "run.cfg"], "unrecognized arguments: --config run.cfg")


@pytest.mark.parametrize("flag,value,message", [
    ("--theta", "x", "invalid float value: 'x'"),
    ("--cos-theta", "x", "invalid float value: 'x'"),
    ("--mesh", "16x16", "mesh: expected MxxMyxN, got '16x16'"),
    ("--probe", "nw", "invalid choice: 'nw' (choose from center, sixth)")],
    ids=["theta", "cos-theta", "mesh", "probe"])
def test_malformed_value_is_a_usage_error(tmp_path, monkeypatch, capsys, flag,
                                          value, message):
    # each flag's parser runs inside argparse, so the usage error names the
    # flag and keeps the parser's own text
    _assert_argparse_stops(tmp_path, monkeypatch, capsys, [
        "--problem", "airpollution", "--mesh", "4x4x2", flag, value],
        f"argument {flag}: {message}")


def _assert_exit_2(argv, usage_error):
    """The CLI exits with 2: through argparse for a usage error, else as
    main's return value for a configuration error."""
    if usage_error:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == 2


@pytest.mark.parametrize("flag,value", [
    ("--mu", "fast"), ("--mu", "0.01"), ("--probe", "sixth"),
    ("--probe", "1,1")])
def test_manufactured_rejects_wind_and_probe(tmp_path, monkeypatch, flag,
                                             value):
    # the manufactured problem has a fixed wind and no probe: a requested one
    # would be ignored while run_metadata.txt records it.  A wind or probe
    # that is not a choice is a usage error (see
    # test_wind_and_probe_outside_their_choices_are_usage_errors)
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ConfigError, match=f"^{flag[2:]}: "):
        validate_config(RunConfig(problem="manufactured", mesh=[(4, 4, 2)],
                                  **{flag[2:]: value}))
    _assert_exit_2(["--problem", "manufactured", "--mesh", "4x4x2", flag,
                    value, "--out", str(tmp_path / "x")],
                   usage_error=value not in CHOICES[flag[2:]])
    assert solves == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag,value,choices", [
    ("--mu", "0.01", "standard, fast"), ("--probe", "1,3", "center, sixth")],
    ids=["mu", "probe"])
def test_wind_and_probe_outside_their_choices_are_usage_errors(
        tmp_path, monkeypatch, capsys, flag, value, choices):
    # wind and probe are named choices: a rate or a node pair is no value
    _assert_argparse_stops(tmp_path, monkeypatch, capsys, [
        "--problem", "airpollution", "--mesh", "6x6x2", flag, value],
        f"argument {flag}: invalid choice: '{value}' (choose from {choices})")


@pytest.mark.parametrize("key,value", [
    ("mu", 0.01), ("probe", (3, 5)), ("problem", "heat"), ("scheme", "fd"),
    ("re", "time")], ids=["mu", "probe", "problem", "scheme", "re"])
def test_run_study_rejects_values_outside_choices(tmp_path, monkeypatch, key,
                                                  value):
    # a RunConfig built in Python meets the table argparse takes its choices
    # from, before any solve and before the output directory is made
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    cfg = RunConfig(**{"problem": "airpollution", "mesh": [(6, 6, 2)],
                       "out": str(tmp_path / "x"), key: value})
    with pytest.raises(ConfigError, match=re.escape(
            f"{key}: must be one of {CHOICES[key]}, got {value!r}")):
        run_study(cfg)
    assert solves == []
    assert not (tmp_path / "x").exists()


def test_parser_takes_its_choices_from_the_table():
    assert {a.dest: a.choices for a in make_parser()._actions
            if a.choices} == CHOICES
    assert CHOICES == {"problem": ("manufactured", "airpollution"),
                       "scheme": ("cds", "cfds"),
                       "re": ("none", "space", "spacetime"),
                       "mu": ("standard", "fast"),
                       "probe": ("center", "sixth")}


def test_chemistry_flag_is_gone(tmp_path, monkeypatch, capsys):
    # the chemistry is fixed
    _assert_argparse_stops(tmp_path, monkeypatch, capsys, [
        "--problem", "airpollution", "--mesh", "4x4x2", "--chemistry",
        "corrected"], "unrecognized arguments: --chemistry corrected")


def test_mesh_order_checked_before_any_solve(tmp_path, monkeypatch):
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ConfigError, match="increase"):
        validate_config(RunConfig(mesh=[(4, 4, 2), (4, 4, 4)]))
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
    # cos-theta inf, complete with a meaningless chemistry; a wind is now a
    # named choice, so a non-finite rate is not one
    from parabolic2d import cli
    solves = []
    monkeypatch.setattr(cli, "integrate",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ConfigError, match=flag[2:]):
        validate_config(RunConfig(problem="airpollution", mesh=[(4, 4, 2)],
                                  **{flag[2:].replace("-", "_"): float(value)}))
    _assert_exit_2(["--problem", "airpollution", "--mesh", "4x4x2", flag,
                    value, "--out", str(tmp_path / "x")],
                   usage_error=flag == "--mu")
    assert solves == []


def test_flags_type_into_run_config():
    # each flag parses into the RunConfig field of its name; repeated --mesh
    # flags extend one list, and one --mesh may hold several triples
    cfg = parse_config([
        "--cos-theta", "0.5", "--theta", "1", "--mesh", "6x6x2",
        "--mesh", "12x12x2, 24x24x2", "--probe", "sixth", "--mu", "fast"])
    assert (cfg.cos_theta, cfg.theta) == (0.5, 1.0)
    assert cfg.mesh == [(6, 6, 2), (12, 12, 2), (24, 24, 2)]
    assert (cfg.probe, cfg.mu) == ("sixth", "fast")
    assert parse_config([]) == RunConfig()


def test_failed_study_keeps_its_settings(tmp_path, monkeypatch):
    # run_metadata.txt is written before the first solve, so a solver
    # failure on a later mesh still leaves the settings beside the dumps
    from parabolic2d import cli
    real_integrate = cli.integrate

    def fail_on_second_mesh(problem, grid, tg, scheme, **kwargs):
        if grid.Mx == 8:
            raise SolverFailure("stalled", step=0)
        return real_integrate(problem, grid, tg, scheme, **kwargs)

    monkeypatch.setattr(cli, "integrate", fail_on_second_mesh)
    out = tmp_path / "o"
    assert main(["--problem", "manufactured", "--theta", "0.6", "--mesh",
                 "4x4x2", "--mesh", "8x8x2", "--out", str(out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "fields_manufactured_cds_none_4x4x2.txt", "run_metadata.txt"]
    lines = (out / "run_metadata.txt").read_text().splitlines()
    assert lines[:-1] == [
        "problem=manufactured", "scheme=cds", "theta=0.59999999999999998",
        "mesh=4x4x2 8x8x2", "re=none", "mu=standard",
        "mu_value=7.2722052166430395e-05", "cos_theta=1", "probe=center"]
    assert lines[-1].startswith("git_revision=") and len(lines[-1]) > 13
