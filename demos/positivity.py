"""Positivity of NO2: central versus compact scheme.

Concentrations must stay nonnegative.  The 5-point central stencil satisfies
the sign conditions of the discrete maximum principle as long as the cell
Peclet number |c| h / (2K) stays below one, and then keeps the numerical
solution nonnegative; the 9-point compact stencil never satisfies them, and
its NO2 field dips below zero near the domain corners where the oscillating
boundary data meet.  At a much faster wind the cell Peclet number is ~19 and
both schemes lose positivity.

Run:  python3 demos/positivity.py   (takes a minute or two)
"""

from parabolic2d import (MU_FAST, MU_STANDARD, build_grid, build_time_grid,
                         build_scheme, integrate, make_example2,
                         positivity_scan)

if __name__ == "__main__":
    for mu, label in [(MU_STANDARD, "standard wind (Pe ~ 0.3)"),
                      (MU_FAST, "one-revolution wind (Pe ~ 19)")]:
        problem = make_example2(mu=mu)
        grid = build_grid(problem.X, problem.Y, 8, 8)
        tg = build_time_grid(problem.T, 256)
        print(f"\n{label}, M=8, N=256:")
        for kind in ("cds", "cfds"):
            scheme = build_scheme(problem, grid, kind)
            W, _ = integrate(problem, grid, tg, scheme, theta=0.5)
            mn, node = positivity_scan(W, grid)[1]
            verdict = "nonnegative" if mn >= 0 else f"NEGATIVE at node {node}"
            print(f"  {kind:4s}: min NO2 = {mn:+10.4e}  -> {verdict}")
