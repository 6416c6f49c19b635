#!/usr/bin/env python3
# Solving (Delta + 1) u = f two ways: direct division by 1 + |xi|^2 in
# coefficient space, and conjugate gradients that only ever touch grid
# fields.  The two agree to solver tolerance, and their wall times show
# what the diagonal shortcut buys (`toruskit bench` repeats this on seeded
# inputs and reports the medians).

import numpy as np

import toruskit as tk

grid = tk.TorusGrid(2, 9)
f = tk.random_field(grid, np.random.default_rng(8))

u_direct, report_direct = tk.solve_multiplier(f)
u_cg, report_cg = tk.solve_cg(f, tol=1e-10)

for name, report in (("direct", report_direct), ("cg", report_cg)):
    print(f"{name + ':':8} residual {report.residual_l2:.2e}, "
          f"{report.iterations} iterations, {report.wall_time * 1e3:.2f} ms")
print("solution gap (L2):", tk.grid_l2_norm(u_direct - u_cg))

# The resolvent is a contraction, so solutions never grow:
print("||u|| / ||f|| =", tk.grid_l2_norm(u_direct) / tk.grid_l2_norm(f))
