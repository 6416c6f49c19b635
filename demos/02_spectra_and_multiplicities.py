#!/usr/bin/env python3
# Eigenvalue levels of the Laplacian and the resolvent on the 2-torus.
# Multiplicities are lattice point counts, and some levels simply do not
# exist: 7 is not a sum of two squares, so there is no eigenvalue 7.

import toruskit as tk

n, cap = 2, 25

tables = tk.spectra(n, cap)
# each operator maps to its columns: float64 eigenvalues, integer multiplicities
lap_eig, mult = tables["laplacian"]
res_eig, _ = tables["resolvent"]

print(f"Laplacian levels k = |xi|^2 <= {cap} on the {n}-torus:")
print("   k  multiplicity     1/(1+k)")
for k, m, eig in zip(lap_eig.tolist(), mult.tolist(), res_eig.tolist()):
    print(f"  {int(k):2d}  {m:12d}     {eig:.6f}")

present = set(lap_eig.astype(int).tolist())
absent = sorted(set(range(cap + 1)) - present)
print("absent levels (not sums of two squares):", absent)

# The multiplicity of each level is the count of lattice points at that
# squared radius; summing them over a ball reproduces its cardinality.
radius = 4
total = int(mult[lap_eig <= radius**2].sum())
ball = tk.enumerate_ball(n, radius)
print(f"sum of multiplicities up to {radius}^2 = {total} = |ball| = {len(ball)}")
