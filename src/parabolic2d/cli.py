"""Experiment runner: mesh-refinement studies with optional extrapolation.

Writes three kinds of artifacts into the output directory:

* convergence.csv: one row per (mesh, species) with the fixed column schema
  problem,scheme,re_mode,Mx,My,N,species,error,ratio,order,newton_avg,
  krylov_avg,wall_ms
* fields_*.txt: final-layer field dumps (x,y,value per node, boundary
  nodes included), one block per species
* run_metadata.txt: every setting of the run plus the git revision,
  written before the first solve

For the manufactured problem the error column is the final-layer max-norm
against the exact solution; for the air-pollution problem it is the relative
deviation of the probe-node value from the run on the finest mesh in the
list (whose own error cell is left empty).

Configuration comes from command-line flags only; argparse parses each
into the RunConfig field of its name (a malformed value is a usage error).
The closed settings problem, scheme, re, mu and probe take only the values
CHOICES lists; MU maps each wind to its rate and PROBES each probe to its
node.  Other winds and probes are library calls: model.make_example2(mu=...)
and analysis.probe_values.
Numbers are serialized with 17 significant digits so reruns diff exactly.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, model, richardson
from .airchem import rate_coefficients
from .grid import Grid2D, build_grid, build_time_grid, lex_index
from .stepper import (KINDS, SolverFailure, average_counts, build_scheme,
                      check_solver_options, integrate)

CSV_COLUMNS = ("problem", "scheme", "re_mode", "Mx", "My", "N", "species",
               "error", "ratio", "order", "newton_avg", "krylov_avg", "wall_ms")

# (space, time) refinement factors of one mesh entry's solves, in solve order
REFINEMENTS = {"none": [(1, 1)], "space": [(1, 1), (2, 1)],
               "spacetime": [(1, 1), (2, 1), (1, 2), (2, 2)]}
# the wind rate of each --mu; the divisor d of each --probe, node (Mx/d, My/d)
MU = {"standard": model.MU_STANDARD, "fast": model.MU_FAST}
PROBES = {"center": 2, "sixth": 6}
# the values of each closed setting, for make_parser and validate_config
CHOICES = {"problem": ("manufactured", "airpollution"), "scheme": KINDS,
           "re": tuple(REFINEMENTS), "mu": tuple(MU), "probe": tuple(PROBES)}


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Invalid run configuration; the message names the offending field.
    Raised by a flag's parser, it is an argparse usage error."""


@dataclass
class RunConfig:
    problem: str = "manufactured"
    scheme: str = "cds"
    theta: float = 0.5
    mesh: List[Tuple[int, int, int]] = field(default_factory=list)
    re: str = "none"
    mu: str = "standard"
    cos_theta: float = 1.0
    probe: str = "center"
    out: str = "runs"


def validate_config(cfg: RunConfig) -> None:
    for key, values in CHOICES.items():
        value = getattr(cfg, key)
        if value not in values:
            raise ConfigError(f"{key}: must be one of {values}, got {value!r}")
    for key, check in (("theta", lambda: check_solver_options(theta=cfg.theta)),
                       ("cos-theta", lambda: rate_coefficients(cfg.cos_theta))):
        try:   # the solver's and the chemistry's own rules
            check()
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if not cfg.mesh:
        raise ConfigError("mesh: at least one MxxMyxN triple is required")
    for m in cfg.mesh:
        try:   # the grid builders' rules, checked before any solve
            Mx, My, N = m
            build_grid(1.0, 1.0, Mx, My)
            build_time_grid(1.0, N)
        except (TypeError, ValueError):
            raise ConfigError(f"mesh: invalid triple {m}") from None
    mxs = [m[0] for m in cfg.mesh]
    if any(b <= a for a, b in zip(mxs, mxs[1:])):
        raise ConfigError(f"mesh: Mx must increase strictly, got {mxs}")
    if cfg.problem == "manufactured":   # fixed wind, error over all nodes
        for key, value, only in (("mu", cfg.mu, "standard"),
                                 ("probe", cfg.probe, "center")):
            if value != only:
                raise ConfigError(f"{key}: the manufactured problem takes "
                                  f"only {only}, got {value!r}")
    else:
        for Mx, My, _ in cfg.mesh:
            probe_node(cfg, Mx, My)  # raises if the probe misses a node


def probe_node(cfg: RunConfig, Mx: int, My: int) -> Tuple[int, int]:
    """Probe node (Mx/d, My/d) on an Mx x My mesh, d = PROBES[cfg.probe]."""
    d = PROBES[cfg.probe]
    if Mx % d or My % d:
        raise ConfigError(f"probe: {cfg.probe} needs Mx, My divisible by {d}, "
                          f"got {Mx}x{My}")
    return Mx // d, My // d


def build_problem(cfg: RunConfig) -> model.ProblemSpec:
    if cfg.problem == "manufactured":
        return model.make_example1(cos_theta=cfg.cos_theta)
    return model.make_example2(cos_theta=cfg.cos_theta, mu=MU[cfg.mu])


def _fmt(x) -> str:
    if isinstance(x, float):
        return "" if math.isnan(x) else format(x, ".17g")
    return str(x)


def _solve(cfg, problem, Mx: int, My: int, N: int):
    grid = build_grid(problem.X, problem.Y, Mx, My)
    tg = build_time_grid(problem.T, N)
    scheme = build_scheme(problem, grid, cfg.scheme)
    t0 = time.perf_counter()
    W, reports = integrate(problem, grid, tg, scheme, theta=cfg.theta)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return W, grid, tg, reports, wall_ms


def run_one_mesh(cfg: RunConfig, problem, Mx: int, My: int, N: int):
    """Solve one mesh entry on each mesh REFINEMENTS lists for cfg.re.

    Returns (field on the Mx x My grid, grid, time grid, the solves' joined
    reports, summed wall_ms); the field is extrapolated unless cfg.re is none.
    """
    runs = [_solve(cfg, problem, s * Mx, s * My, k * N)
            for s, k in REFINEMENTS[cfg.re]]
    (W, grid, tg, _, _), *companions = runs
    # orders of the leading error terms; in time only theta = 1/2 is second
    sigma_space = 2 if cfg.scheme == "cds" else 4
    sigma_time = 2 if cfg.theta == 0.5 else 1
    if cfg.re == "space":
        [(W2, grid2, *_)] = companions
        W = richardson.extrapolate_space(W, W2, grid, grid2, sigma_space)
    elif cfg.re == "spacetime":
        (W2, grid2, *_), (Wt, _, tgt, *_), (W2t, *_) = companions
        W = richardson.extrapolate_spacetime(W, Wt, W2, W2t, grid, grid2, tg,
                                             tgt, sigma_space, sigma_time)
    return (W, grid, tg, [rep for run in runs for rep in run[3]],
            sum(run[4] for run in runs))


def run_study(cfg: RunConfig) -> str:
    """Execute the configured mesh study; returns the output directory."""
    validate_config(cfg)
    problem = build_problem(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    write_metadata(cfg, os.path.join(cfg.out, "run_metadata.txt"))

    meshes, errors = [], []   # per mesh: (Mx, My, N, averages, wall), error
    for (Mx, My, N) in cfg.mesh:
        try:
            W, grid, tg, reports, wall = run_one_mesh(cfg, problem, Mx, My, N)
        except SolverFailure as exc:
            raise SolverFailure(
                f"mesh {Mx}x{My}x{N}: {exc}", step=exc.step) from exc
        dump = os.path.join(
            cfg.out,
            f"fields_{cfg.problem}_{cfg.scheme}_{cfg.re}_{Mx}x{My}x{N}.txt")
        emit_field_dump(W, grid, tg.T, dump, boundary=problem.boundary)
        if cfg.problem == "manufactured":
            errors.append(analysis.max_norm_error(
                W, model.manufactured_solution, grid, tg.T))
        else:   # the probe values, until the finest mesh is known
            i, j = probe_node(cfg, Mx, My)
            errors.append(W[:, lex_index(i, j, Mx)].copy())
        meshes.append((Mx, My, N, average_counts(reports), wall))
    errors = np.array(errors)
    if cfg.problem == "airpollution":   # the last mesh is the finest
        errors = np.abs(errors - errors[-1]) / np.abs(errors[-1])
        errors[-1] = math.nan

    with open(os.path.join(cfg.out, "convergence.csv"), "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for l in range(problem.L):
            # ratio and order against the previous mesh with a finite error
            finite = [r for r in range(len(meshes))
                      if math.isfinite(errors[r, l])]
            table = dict(zip(finite, analysis.ratio_and_order(
                [(meshes[r][0], errors[r, l]) for r in finite])))
            for r, (Mx, My, N, averages, wall) in enumerate(meshes):
                row = table.get(r, analysis.ConvergenceRow(Mx, math.nan))
                f.write(",".join(_fmt(v) for v in (
                    cfg.problem, cfg.scheme, cfg.re, Mx, My, N, l,
                    errors[r, l], row.ratio, row.order, *averages, wall)) + "\n")
    return cfg.out


def emit_field_dump(u: np.ndarray, grid: Grid2D, t: float, path: str,
                    boundary) -> None:
    """Text dump of a field: per species, rows "x,y,value" over all nodes.

    Rows are emitted row-major in y (all x for y=0, then y=hy, ...) and
    include boundary nodes; their values come from one call of
    boundary(x, y, t) for every species.  Values carry 17 significant digits
    so a parsed dump reproduces the field exactly.
    """
    L = u.shape[0]
    XX, YY = grid.full_mesh()
    full = np.empty((L, grid.My + 1, grid.Mx + 1))
    full[:, 1:-1, 1:-1] = u.reshape(L, grid.ny, grid.nx)
    (jr, ir), (xr, yr) = grid.boundary_ring()
    full[:, jr, ir] = model.species_field(
        "boundary", boundary(xr, yr, t), L, xr.shape)
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                        suffix=".part")
    try:
        with os.fdopen(tmp_fd, "w") as f:
            for l in range(L):
                f.write(f"# species {l} t {_fmt(float(t))}\n")
                f.write("x,y,value\n")
                values = np.column_stack([XX.ravel(), YY.ravel(),
                                          full[l].ravel()]).ravel().tolist()
                f.write("%.17g,%.17g,%.17g\n" * XX.size % tuple(values))
        os.replace(tmp_path, path)
    except OSError:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def git_revision() -> str:
    """The HEAD commit of the work tree holding this module, if that commit
    has this cli.py, else "unknown" (a copy not in the enclosing repo)."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD", "HEAD:./cli.py"],
                              capture_output=True, text=True, check=True,
                              cwd=os.path.dirname(os.path.abspath(__file__))
                              ).stdout.split()[0]
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_metadata(cfg: RunConfig, path: str) -> None:
    """One key=value line per RunConfig field but out, in field order, with
    mu followed by its rate mu_value; then the git revision."""
    lines = []
    for key in (f.name for f in fields(cfg)):
        value = getattr(cfg, key)
        if key == "mesh":
            value = " ".join(f"{a}x{b}x{c}" for a, b, c in value)
        if key == "mu":
            lines += [f"mu={value}", f"mu_value={_fmt(MU[value])}"]
        elif key != "out":
            lines.append(f"{key}={_fmt(value)}")
    with open(path, "w") as f:
        f.write("\n".join(lines + [f"git_revision={git_revision()}"]) + "\n")


def parse_mesh(text: str) -> Tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ConfigError(f"mesh: expected MxxMyxN, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"mesh: expected integers in {text!r}")


def parse_meshes(text: str) -> List[Tuple[int, int, int]]:
    """Mesh triples separated by commas or whitespace."""
    return [parse_mesh(t) for t in text.replace(",", " ").split()]


def make_parser() -> argparse.ArgumentParser:
    """Flags named as the RunConfig fields; an unset flag keeps its default."""
    p = argparse.ArgumentParser(
        prog="parabolic2d",
        description="Mesh-refinement studies for 2D semilinear parabolic "
                    "systems (central and compact schemes, optional "
                    "Richardson extrapolation).",
        argument_default=argparse.SUPPRESS)
    p.add_argument("--problem", choices=CHOICES["problem"])
    p.add_argument("--scheme", choices=CHOICES["scheme"])
    p.add_argument("--theta", type=float)
    p.add_argument("--mesh", type=parse_meshes, action="extend",
                   metavar="MxxMyxN",
                   help="mesh triple, e.g. 16x16x64 (repeatable)")
    p.add_argument("--re", choices=CHOICES["re"],
                   help="Richardson extrapolation mode")
    p.add_argument("--mu", choices=CHOICES["mu"], help="wind rate")
    p.add_argument("--cos-theta", type=float,
                   help="cosine of the solar zenith angle")
    p.add_argument("--probe", choices=CHOICES["probe"],
                   help="probe node: (Mx/2, My/2) or (Mx/6, My/6)")
    p.add_argument("--out", help="output directory")
    return p


def parse_config(argv: Optional[Sequence[str]] = None) -> RunConfig:
    return RunConfig(**vars(make_parser().parse_args(argv)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = parse_config(argv)
    try:
        out = run_study(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    print(f"study complete; artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
