"""Mesh-refinement study on the manufactured-solution problem.

Solves the 10-species system whose exact solution is
exp(-t/T) sin(pi x/X) sin(pi y/Y) with both spatial schemes and prints the
final-layer max-norm errors, consecutive ratios and observed orders.  Error
ratios near 4 confirm second order for the central scheme; ratios near 16
(with the time step refined four times faster) confirm fourth order for the
compact scheme.

Run:  python3 demos/manufactured_convergence.py
"""

import numpy as np

from parabolic2d import (build_grid, build_time_grid, build_scheme, integrate,
                         make_example1, manufactured_solution, max_norm_error,
                         ratio_and_order, average_counts)

problem = make_example1()


def exact(x, y, t):
    return manufactured_solution(x, y, t, problem.X, problem.Y, problem.T)


def study(kind, cases):
    print(f"\n{kind.upper()}: mesh refinement on [0,{problem.X:g}]^2, "
          f"T={problem.T:g}")
    print(f"{'M':>4} {'N':>5} {'error':>12} {'ratio':>8} {'order':>7} "
          f"{'newton':>7} {'krylov':>7}")
    errors = []
    stats = []
    for M, N in cases:
        grid = build_grid(problem.X, problem.Y, M, M)
        tg = build_time_grid(problem.T, N)
        scheme = build_scheme(problem, grid, kind)
        W, reports = integrate(problem, grid, tg, scheme, theta=0.5)
        err = max_norm_error(W, exact, grid, tg.T).max()
        errors.append((M, err))
        stats.append((N,) + average_counts(reports))
    for row, (N, newton, krylov) in zip(ratio_and_order(errors), stats):
        ratio = f"{row.ratio:8.3f}" if np.isfinite(row.ratio) else "       -"
        order = f"{row.order:7.3f}" if np.isfinite(row.order) else "      -"
        print(f"{row.Mx:>4} {N:>5} {row.error:>12.4e} {ratio} {order} "
              f"{newton:>7.2f} {krylov:>7.2f}")


if __name__ == "__main__":
    study("cds", [(4, 4), (8, 8), (16, 16), (32, 32)])
    study("cfds", [(4, 4), (8, 16), (16, 64)])
