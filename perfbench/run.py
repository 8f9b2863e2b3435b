"""Benchmark of the parabolic2d solver stack: three fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run repeats the workload's timed call while another
repetition fits in ``--seconds``, checks every result against
``perfbench/reference.json`` and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, timed under the speed meter of ``speed.py`` and rescaled
to its reference speed; with ``--trace 1`` traced and untraced repetitions
alternate and the metrics are the per-layer ones read from the trace.  The
workloads are fixed problem definitions, so the seed only changes the order
of the repetitions: which kind comes first in a traced run.  See NOTES.md
for the choice of workloads and metrics.
"""

from __future__ import annotations

import os

# A plain single-threaded baseline: pin BLAS and OpenMP pools before numpy
# is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

from speed import SpeedMeter  # noqa: E402
from tracer import Tracer, layer_bindings, patched, record_solve, wrap_problem  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench-out")
SETUP_BATCH = 4      # set-up samples taken around each solve, for setup_s
MU_ROT = 2.0 * math.pi / 1440.0   # the fast rotation of acceptance criterion 6
PROBE_RTOL = 1e-9    # relative tolerance of the air workloads' probe values


class PackageMissing(RuntimeError):
    """The checkout holds no importable src/parabolic2d."""


class NoResult(RuntimeError):
    """Every repetition raised, so there is no time to report."""


def ensure_package() -> None:
    """Put the checkout's src/ first on sys.path, or raise PackageMissing."""
    if not os.path.isfile(os.path.join(SRC, "parabolic2d", "__init__.py")):
        raise PackageMissing(f"no parabolic2d package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def fresh_import():
    """Import parabolic2d from scratch (numpy stays loaded); its modules."""
    for name in [m for m in sys.modules
                 if m == "parabolic2d" or m.startswith("parabolic2d.")]:
        del sys.modules[name]
    pkg = importlib.import_module("parabolic2d")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise PackageMissing(f"parabolic2d imported from {pkg.__file__}, "
                             f"not from {SRC}")
    names = ("cds", "cli", "grid", "krylov", "model", "richardson", "stepper")
    return argparse.Namespace(**{n: importlib.import_module(f"parabolic2d.{n}")
                                 for n in names})


# --------------------------------------------------------------- workloads

@dataclasses.dataclass
class LibraryWorkload:
    """integrate() on the air-pollution model; the timed call is integrate.

    mu=None is the standard wind.  The fingerprint is the Newton and Krylov
    averages and the ten species at the centre node.
    """

    kind: str
    M: int
    N: int
    mu: Optional[float] = None
    reference: Optional[dict] = None

    def setup(self, pkg, tracer):
        problem = (pkg.model.make_example2() if self.mu is None
                   else pkg.model.make_example2(mu=self.mu))
        if tracer is not None:
            problem = wrap_problem(tracer, problem)
        grid = pkg.grid.build_grid(problem.X, problem.Y, self.M, self.M)
        tgrid = pkg.grid.build_time_grid(problem.T, self.N)
        scheme = pkg.stepper.build_scheme(problem, grid, self.kind)
        return problem, grid, tgrid, scheme

    def timed_call(self, pkg, inputs, tracer):
        integrate = pkg.stepper.integrate
        if tracer is not None:
            integrate = tracer.wrap("stepper.integrate", integrate,
                                    record_solve(tracer))
        return integrate(*inputs, theta=0.5)

    def fingerprint(self, pkg, inputs, result):
        W, reports = result
        newton, krylov = pkg.stepper.average_counts(reports)
        centre = pkg.grid.lex_index(self.M // 2, self.M // 2, self.M)
        return {"newton_per_step": newton, "krylov_per_newton": krylov,
                "probe_centre": W[:, centre].tolist()}

    def mismatches(self, fp):
        ref, out = self.reference, []
        for key in ("newton_per_step", "krylov_per_newton"):
            if fp[key] != ref[key]:
                out.append(f"{key} {fp[key]!r} != reference {ref[key]!r}")
        for l, (v, r) in enumerate(zip(fp["probe_centre"],
                                       ref["probe_centre"])):
            if not abs(v - r) <= PROBE_RTOL * abs(r):
                out.append(f"probe species {l}: {v!r} vs reference {r!r}")
        return out

    def teardown(self, inputs):
        pass


@dataclasses.dataclass
class StudyWorkload:
    """cli.main on a manufactured-solution space-time extrapolation study.

    The fingerprint is read back from the study's convergence.csv: per mesh
    the max error over species and the Newton and Krylov averages.  The check
    reproduces acceptance criterion 4 (finest max error and observed order).
    """

    meshes: tuple
    reference: Optional[dict] = None

    def setup(self, pkg, tracer):
        os.makedirs(OUT_DIR, exist_ok=True)
        return tempfile.mkdtemp(prefix="study-", dir=OUT_DIR)

    def timed_call(self, pkg, out_dir, tracer):
        argv = ["--problem", "manufactured", "--scheme", "cds",
                "--re", "spacetime", "--out", out_dir]
        for mesh in self.meshes:
            argv += ["--mesh", mesh]
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli.main returned {code}")
        return code

    def fingerprint(self, pkg, out_dir, result):
        by_mesh = {}
        with open(os.path.join(out_dir, "convergence.csv")) as f:
            for row in csv.DictReader(f):
                key = (int(row["Mx"]), int(row["My"]), int(row["N"]))
                entry = by_mesh.setdefault(key, {
                    "max_error": 0.0, "newton_avg": float(row["newton_avg"]),
                    "krylov_avg": float(row["krylov_avg"])})
                entry["max_error"] = max(entry["max_error"],
                                         float(row["error"]))
        meshes = [by_mesh[k] for k in sorted(by_mesh)]
        return {field: [m[field] for m in meshes]
                for field in ("max_error", "newton_avg", "krylov_avg")}

    def mismatches(self, fp):
        ref, out = self.reference, []
        for key in ("newton_avg", "krylov_avg"):
            if fp[key] != ref[key]:
                out.append(f"{key} {fp[key]!r} != reference {ref[key]!r}")
        err = fp["max_error"]
        if not abs(err[-1] - ref["finest_max_error"]) \
                <= ref["finest_rtol"] * ref["finest_max_error"]:
            out.append(f"finest max error {err[-1]!r}, expected "
                       f"{ref['finest_max_error']} within "
                       f"{ref['finest_rtol']}")
        order = math.log2(err[-2] / err[-1])
        if not order >= ref["min_order"]:
            out.append(f"observed order {order!r} < {ref['min_order']}")
        return out

    def teardown(self, out_dir):
        shutil.rmtree(out_dir, ignore_errors=True)


def load_workloads():
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    return {
        "air-cfds-32": LibraryWorkload("cfds", 32, 64,
                                       reference=ref["air-cfds-32"]),
        "rot-cds-48": LibraryWorkload("cds", 48, 64, mu=MU_ROT,
                                      reference=ref["rot-cds-48"]),
        "study-cds-spacetime": StudyWorkload(
            ("4x4x4", "8x8x8", "16x16x16"),
            reference=ref["study-cds-spacetime"]),
    }


# -------------------------------------------------------------- measuring

@dataclasses.dataclass
class Rep:
    """One repetition.  Untraced, setup_s and solve_s are at the reference
    speed of speed.py and solve_wall_s is the wall time; traced, all three
    are wall times."""

    traced: bool
    setup_s: float
    solve_s: Optional[float] = None
    solve_wall_s: Optional[float] = None
    fingerprint: Optional[dict] = None
    problems: list = dataclasses.field(default_factory=list)
    tracer: Optional[Tracer] = None


def repetition(workload, traced: bool, solve: bool = True,
               meter: Optional[SpeedMeter] = None) -> Rep:
    """Set up from a fresh import, then (if solve) time and check one call.

    An untraced repetition runs under the speed meter, which rescales its
    times to the reference speed; a traced one keeps plain wall times, so
    that no burst falls inside a span.  A raised exception or a fingerprint
    mismatch is recorded in rep.problems; the repetition then counts as
    failed.
    """
    tracer = Tracer() if traced else None
    if not traced and meter is None:
        meter = SpeedMeter()
    t1 = t2 = None
    with (contextlib.nullcontext() if traced else meter.sampling()):
        t0 = time.perf_counter()
        pkg = fresh_import()
        bindings = layer_bindings(tracer, pkg) if traced else []
        with patched(bindings):
            inputs = workload.setup(pkg, tracer)
            t_setup = time.perf_counter()
            rep = Rep(traced=traced, setup_s=t_setup - t0, tracer=tracer)
            try:
                if solve:
                    t1 = time.perf_counter()
                    result = workload.timed_call(pkg, inputs, tracer)
                    t2 = time.perf_counter()
                    rep.solve_s = rep.solve_wall_s = t2 - t1
                    rep.fingerprint = workload.fingerprint(pkg, inputs, result)
                    rep.problems = workload.mismatches(rep.fingerprint)
            except Exception:  # a failed run is counted, not fatal
                rep.problems.append(traceback.format_exc())
            finally:
                workload.teardown(inputs)
    if not traced:
        rep.setup_s = meter.rescale(t0, t_setup)[0]
        if t2 is not None:
            rep.solve_s, rep.solve_wall_s = meter.rescale(t1, t2)
    return rep


def measure(workload, seed: int, seconds: float, trace: bool):
    """Repeat the workload while another repetition fits in `seconds`.

    A repetition is predicted to take as long as the previous one; the first
    (and, with trace, the second) always runs.  A batch of set-up samples
    precedes every solve and follows the last one, so that setup_s samples
    the whole run, not one moment of it.  With trace, traced and untraced
    repetitions alternate; the seed picks which kind comes first.
    """
    traced_first = random.Random(seed).random() < 0.5
    meter = SpeedMeter()
    reps, setups = [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        setups += [repetition(workload, False, solve=False, meter=meter)
                   for _ in range(SETUP_BATCH)]
        traced = trace and (len(reps) % 2 == 0) == traced_first
        reps.append(repetition(workload, traced, meter=meter))
        now = time.perf_counter()
        if (not trace or len(reps) >= 2) \
                and now - start + (now - rep_start) > seconds:
            break
    setups += [repetition(workload, False, solve=False, meter=meter)
               for _ in range(SETUP_BATCH)]
    return reps, setups


def end_to_end_metrics(reps, setups):
    solves = [r.solve_s for r in reps if not r.traced and r.solve_s is not None]
    return {
        "solve_s": (statistics.median(solves), "s"),
        "setup_s": (statistics.median(r.setup_s for r in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def layer_metrics(tr: Tracer, solve_s: float):
    """Per-layer metrics of one traced repetition.

    `_s` is inclusive time and `_self_s` self time.  A layer the workload
    never reaches reads 0, as does the distinct-solve ratio when the workload
    does not go through cli.
    """
    calls, incl, self_t, cnt = tr.calls, tr.incl, tr.self_time, tr.counters
    reports = [r for _, solve_reports in tr.solves for r in solve_reports]
    newton = float(np.mean([r.newton_iters for r in reports]))
    cycles = float(np.mean([c for r in reports for c in r.krylov_cycles]))
    keys = [key for key, _ in tr.solves]
    fold, mv = "cds.apply_full.fold", "cds.apply_full.matvec"
    stencil_s = incl[fold] + incl[mv]
    return {
        "stepper.newton_per_step": (newton, "iter/step"),
        "stepper.residual_calls": (calls["stepper.residual"], "count"),
        "stepper.residual_s": (incl["stepper.residual"], "s"),
        "stepper.residual_self_s": (self_t["stepper.residual"], "s"),
        "stepper.advance_self_s": (self_t["stepper.advance"], "s"),
        "stepper.build_scheme_s": (incl["stepper.build_scheme"], "s"),
        "krylov.cycles_per_newton": (cycles, "cycle/iter"),
        "krylov.bicgstab_calls": (calls["krylov.bicgstab_l"], "count"),
        "krylov.bicgstab_s": (incl["krylov.bicgstab_l"], "s"),
        "krylov.bicgstab_self_s": (self_t["krylov.bicgstab_l"], "s"),
        "krylov.matvec_calls": (calls["krylov.matvec"], "count"),
        "krylov.matvec_s": (incl["krylov.matvec"], "s"),
        "krylov.matvec_self_s": (self_t["krylov.matvec"], "s"),
        "cds.apply_full_calls": (calls[fold] + calls[mv], "count"),
        "cds.apply_full_s": (stencil_s, "s"),
        "cds.apply_full_matvec_calls": (calls[mv], "count"),
        "cds.apply_full_matvec_s": (incl[mv], "s"),
        "cds.apply_full_fold_calls": (calls[fold], "count"),
        "cds.apply_full_fold_s": (incl[fold], "s"),
        "cds.apply_full_flops": (cnt["apply_full_flops"], "flop"),
        "cds.apply_full_bytes": (cnt["apply_full_bytes"], "B"),
        "cds.apply_full_gflops": (
            cnt["apply_full_flops"] / stencil_s / 1e9 if stencil_s else 0.0,
            "GFLOP/s"),
        "model.reaction_calls": (calls["model.reaction"], "count"),
        "model.reaction_s": (incl["model.reaction"], "s"),
        "model.jacobian_calls": (calls["model.jacobian"], "count"),
        "model.jacobian_s": (incl["model.jacobian"], "s"),
        "model.forcing_calls": (calls["model.forcing"], "count"),
        "model.forcing_s": (incl["model.forcing"], "s"),
        "richardson.extrapolate_calls": (calls["richardson.extrapolate"],
                                         "count"),
        "richardson.extrapolate_s": (incl["richardson.extrapolate"], "s"),
        "cli.integrate_calls": (calls["cli.integrate"], "count"),
        "cli.distinct_solve_ratio": (
            len(set(keys)) / len(keys) if calls["cli.integrate"] else 0.0,
            "ratio"),
        "cli.field_dump_s": (incl["cli.field_dump"], "s"),
        "cli.field_dump_bytes": (cnt["field_dump_bytes"], "B"),
        "trace.solve_s": (solve_s, "s"),
    }


def per_layer_metrics(reps):
    """Median over traced repetitions, plus the tracing overhead (traced
    wall time over the untraced wall time, both medians of the run)."""
    traced = [r for r in reps if r.traced and r.solve_s is not None]
    untraced = [r.solve_wall_s for r in reps
                if not r.traced and r.solve_s is not None]
    per_rep = [layer_metrics(r.tracer, r.solve_s) for r in traced]
    out = {name: (statistics.median(m[name][0] for m in per_rep), unit)
           for name, (_, unit) in per_rep[0].items()}
    out["trace.overhead_s"] = (out["trace.solve_s"][0]
                               - statistics.median(untraced), "s")
    return out


def wall_times(reps) -> dict:
    """Untraced wall time and the machine's speed against the reference.

    speed_vs_reference above 1 means the machine ran slower than the
    reference speed of speed.py, so solve_s reads below the wall time.
    """
    plain = [r for r in reps if not r.traced and r.solve_s]
    if not plain:
        return {}
    return {"solve_wall_s": statistics.median(r.solve_wall_s for r in plain),
            "speed_vs_reference": statistics.median(
                r.solve_wall_s / r.solve_s for r in plain)}


# ------------------------------------------------------------ environment

def _read(path: str) -> Optional[str]:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def environment() -> dict:
    """Revision, processor, caches and library versions of this run."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown (not a git checkout)"
    cpu_model = platform.processor() or "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        fields = [_read(os.path.join(base, index, f))
                  for f in ("level", "type", "size")]
        if all(fields):
            caches[f"L{fields[0]} {fields[1]}"] = fields[2]

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------------- main

def run(workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record (result + details)."""
    reps, setups = measure(workload, seed, seconds, trace)
    timed = {r.traced for r in reps if r.solve_s is not None}
    if timed != ({False, True} if trace else {False}):
        raise NoResult("no repetition of each kind completed")
    failed = sum(1 for r in reps if r.problems)
    for r in reps:
        for problem in r.problems:
            print(f"{name}: failed repetition: {problem}", file=sys.stderr)
    if trace:
        metrics = per_layer_metrics(reps)
    else:
        metrics = end_to_end_metrics(reps, setups)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "result": result,
        "repetitions": [{"traced": r.traced, "setup_s": r.setup_s,
                         "solve_s": r.solve_s, "solve_wall_s": r.solve_wall_s,
                         "fingerprint": r.fingerprint,
                         "problems": r.problems} for r in reps],
        "setup_samples_s": [r.setup_s for r in setups],
        "timing": wall_times(reps),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    for i, r in enumerate(reps):
        if r.traced:
            r.tracer.write(f"{stem}-spans{i}.npz", rep=i)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def main(argv=None) -> int:
    workloads = load_workloads()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        ensure_package()
        record = run(workloads[args.workload], args.workload, args.seed,
                     args.seconds, bool(args.trace))
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except NoResult as exc:
        print(f"perfbench: {exc}; nothing to report", file=sys.stderr)
        return 1
    print("environment " + json.dumps(record["environment"]))
    print("timing " + json.dumps(record["timing"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
