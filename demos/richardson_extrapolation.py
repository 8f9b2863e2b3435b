"""Order lift from Richardson extrapolation, in space and in space-time.

The spatial variant combines solutions on a mesh pair (h, h/2) with weights
(-1/3, 4/3) for the second-order scheme and (-1/15, 16/15) for the
fourth-order compact scheme, lifting them to orders 4 and 6.  The space-time
variant tensors spatial and temporal weights over four solves and removes
both leading error terms at once.

Run:  python3 demos/richardson_extrapolation.py
"""

import numpy as np

from parabolic2d import (build_grid, build_time_grid, build_scheme, integrate,
                         extrapolate_space, extrapolate_spacetime,
                         make_example1, manufactured_solution, max_norm_error,
                         re_weights)

problem = make_example1()
cache = {}


def solve(kind, M, N):
    if (kind, M, N) not in cache:
        grid = build_grid(problem.X, problem.Y, M, M)
        tg = build_time_grid(problem.T, N)
        scheme = build_scheme(problem, grid, kind)
        W, _ = integrate(problem, grid, tg, scheme, theta=0.5)
        cache[(kind, M, N)] = (W, grid, tg)
    return cache[(kind, M, N)]


def space_study(kind, sigma, cases):
    gamma1, gamma2 = re_weights(sigma)
    print(f"\n{kind.upper()} + extrapolation in space "
          f"(weights {gamma1:+.4f}, {gamma2:+.4f}):")
    prev = None
    for M, N in cases:
        W, grid, tg = solve(kind, M, N)
        W2, _, _ = solve(kind, 2 * M, N)
        err_plain = max_norm_error(W, manufactured_solution, grid, tg.T).max()
        Wx = extrapolate_space(W, W2, grid, sigma)
        err = max_norm_error(Wx, manufactured_solution, grid, tg.T).max()
        ratio = f"{prev / err:8.2f}" if prev else "       -"
        print(f"  M={M:3d} N={N:4d}: plain {err_plain:.3e} -> "
              f"extrapolated {err:.3e}  ratio {ratio}")
        prev = err


def spacetime_study(kind, sigma, cases):
    print(f"\n{kind.upper()} + extrapolation in space and time (4 solves):")
    prev = None
    for M, N in cases:
        W, grid, tg = solve(kind, M, N)
        Wt, _, _ = solve(kind, M, 2 * N)
        Wf, _, _ = solve(kind, 2 * M, N)
        Wft, _, _ = solve(kind, 2 * M, 2 * N)
        Wx = extrapolate_spacetime(W, Wt, Wf, Wft, grid, sigma, 2)
        err = max_norm_error(Wx, manufactured_solution, grid, tg.T).max()
        order = f"{np.log2(prev / err) / np.log2(2):6.2f}" if prev else "     -"
        print(f"  M={M:3d} N={N:4d}: error {err:.3e}  order {order}")
        prev = err


if __name__ == "__main__":
    space_study("cds", 2, [(8, 16), (16, 64)])
    space_study("cfds", 4, [(8, 32)])
    spacetime_study("cds", 2, [(4, 4), (8, 8), (16, 16)])
    spacetime_study("cfds", 4, [(4, 4), (8, 16)])
