#!/usr/bin/env python3
# Grid <-> coefficient transforms on the torus, and the discrete Parseval
# identity that pins down the normalization.

import numpy as np

import toruskit as tk

grid = tk.TorusGrid(dimension=1, points_per_axis=9)
x = grid.axis_points()

# A trigonometric polynomial we know the coefficients of:
#   2 sin x = -i e^{ix} + i e^{-ix}
u = tk.GridField(grid, 2.0 * np.sin(x) + 0j)
c = tk.forward(u)
print("coefficients of 2 sin x:")
for xi in ((1,), (-1,), (0,), (2,)):
    print(f"  c{xi} = {c[xi]:+.3f}")

# Round trip: synthesis after analysis reproduces the samples.
back = tk.inverse(c)
print("round-trip max error:", np.max(np.abs(back.values - u.values)))

# The numpy.fft (pocketfft) path agrees with the direct-sum oracle.
rng = np.random.default_rng(0)
noisy = tk.random_field(grid, rng)
gap = np.max(
    np.abs(tk.forward(noisy).coefficients - tk.naive_forward(noisy).coefficients)
)
print("fast vs naive transform gap:", gap)

# Energy bookkeeping: sum_xi |c|^2 == M^{-n} sum_m |u|^2 with this
# normalization, so the transform is an isometry between the two sides.
print("Parseval defect on a random field:", tk.plancherel_defect(noisy, tk.forward(noisy)))

# Real-valued samples show up as conjugate-symmetric coefficients.
real = tk.GridField(grid, rng.standard_normal(grid.shape) + 0j)
print("real field conjugate-symmetric:", tk.forward(real).is_conjugate_symmetric())
