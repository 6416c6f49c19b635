#!/usr/bin/env python3
# Finite-rank truncations of the resolvent obey an exact operator-norm
# error law: cutting at level N leaves norm 1/((N+1)^2 + 1).  A Lanczos
# iteration that only sees grid fields (never the diagonal shortcut)
# recovers the same numbers, and their decay to zero is a finite-rank
# approximation certificate for compactness.

import toruskit as tk

n = 2
print("  N   box M   exact 1/((N+1)^2+1)   Lanczos                diff")
for cutoff in range(7):
    grid = tk.TorusGrid(n, 2 * (cutoff + 2) + 1)
    exact = tk.truncation_error_exact(cutoff)
    est = tk.operator_norm_power_iteration(
        tk.resolvent_tail_symbol(cutoff), grid, tol=1e-10, seed=1
    )
    print(f"  {cutoff}   {grid.points_per_axis:5d}   {exact:.16f}   {est:.16f}   {abs(exact - est):.1e}")

# The resolvent itself has operator norm exactly 1 (attained at the
# constant mode), while the identity is a non-compact contrast case:
grid = tk.TorusGrid(2, 9)
print("resolvent norm:", tk.operator_norm_power_iteration(tk.resolvent_symbol(), grid, seed=2))
print("resolvent singular values:", tk.singular_values(tk.resolvent_symbol(), grid, 8))
print("identity singular values: ", tk.singular_values(tk.identity_symbol(), grid, 8))
