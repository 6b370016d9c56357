#!/usr/bin/env python3
"""Newton / Maclaurin inequality suites and the sharpened Newton constant.

The sharpened Newton inequality

    H_k^2 - H_{k+1} H_{k-1} >= c_n tau^2 H_{k+1;n,1}^2

holds with a dimensional constant c_n.  The pipeline runs at n = 2 and 3,
where c_n is exact: for n = 2 the ratio is identically 1/2; for n = 3 the
k = 1 ratio is identically 3/2, and the k = 2 ratio tends to its infimum
1/8 along kappa = (t, 2t, 1) as t -> 0 (the umbilic limit is 1/6).  For
n = 4 a brute-force infimum over random positive curvature vectors,
minus a 10% margin, estimates it.
"""

import numpy as np

from starpinch.symfun import (calibrate, default_c_n, maclaurin_gaps,
                              mean_curvatures, newton_gap,
                              sample_positive_curvatures,
                              sharpened_newton_gap, umbilicity_defect_sq,
                              partial_H_extremes, K1)


def sharpened_min(kappa, c_n):
    """Least sharpened-Newton gap over k = 1..n-1 and the samples."""
    n = kappa.shape[-1]
    return min(float(np.min(sharpened_newton_gap(kappa, k, c_n))) for k in range(1, n))


print("=" * 72)
print("Classical suites on 10^5 positive curvature vectors per dimension")
print("=" * 72)
rng_seed = 97
for n in (2, 3, 4, 5, 6):
    kappa = np.sort(np.random.Generator(np.random.Philox(rng_seed)).uniform(
        0.05, 2.5, size=(100_000, n)), axis=1)
    newton_min = min(float(np.min(newton_gap(kappa, k))) for k in range(1, n))
    mac_min = float(np.min(maclaurin_gaps(kappa, n - 1)))
    print(f"  n={n}: min Newton gap {newton_min:+.3e}, min Maclaurin gap {mac_min:+.3e}")

print()
print("=" * 72)
print("c_n: exact at n = 2 and 3, sampled at n = 4")
print("=" * 72)
kappa2 = sample_positive_curvatures(2, 10_000, seed=4242)
print(f"  n=2: exact c_2 = {default_c_n(2)} (the ratio is identically 1/2); "
      f"min gap on 10^4 samples {sharpened_min(kappa2, default_c_n(2)):+.3e}")
# kappa = (a, b, 1) with 0 < a <= b <= 1, dense near the corner a = b/2 -> 0
v = np.unique(np.concatenate([np.linspace(0.0, 1.0, 401)[1:], np.geomspace(1e-4, 1.0, 200),
                              2.0 * np.geomspace(1e-4, 0.5, 200)]))
a, b = np.meshgrid(v, v, indexing="ij")
keep = a <= b
grid = np.stack([a[keep], b[keep], np.ones(keep.sum())], axis=1)
corner = np.array([1e-3, 2e-3, 1.0])
print(f"  n=3: exact c_3 = {default_c_n(3)} (approached along (t, 2t, 1)); "
      f"min gap on {len(grid)} grid points (a, b, 1) {sharpened_min(grid, default_c_n(3)):+.3e}")
print(f"       k=2 gap at kappa = (1e-3, 2e-3, 1): "
      f"{float(sharpened_newton_gap(corner, 2, 1.0 / 8.0)):+.3e} with 1/8, "
      f"{float(sharpened_newton_gap(corner, 2, 1.01 / 8.0)):+.3e} with 1.01/8")
cal4 = calibrate(4, 3, samples=60_000, seed=31415)
print(f"  n=4: no exact value; sampled infimum {cal4.raw_c_inf:.6f} -> "
      f"c_n = {cal4.c_n:.6f} (margin {cal4.margin:.0%}, seed {cal4.seed})")

print()
print("Worked example (n=2, kappa=(0,2)): Newton gap 1, tau^2 = 2, H_{2;2,1} = 1")
for c_n in (0.0, 0.25, 0.45, 0.5):
    print(f"  c_n = {c_n:.2f}: sharpened gap = {sharpened_newton_gap([0.0, 2.0], 1, c_n):+.4f}")

print()
print("=" * 72)
print("Pointwise multiplier: tau^2 <= K1 (H H_r - H_{r+1}) on held-out samples")
print("=" * 72)
for n, r in ((2, 1), (3, 2), (4, 3)):
    # exact constants where they are known (every b is 1 for r <= 2)
    if n <= 3:
        c_n = default_c_n(n)
    else:
        # K1 takes no b-constants; fold min_k b_{n,k+1,r}^{2(k-1)} into c_n
        min_b_pow = min(b ** (2 * (k - 1)) for k, b in enumerate(cal4.b_consts, start=1))
        c_n = cal4.c_n * min_b_pow
    kappa = sample_positive_curvatures(n, 10_000, seed=4242)
    H = mean_curvatures(kappa)
    tau_sq = umbilicity_defect_sq(kappa)
    if r == 1:
        k1 = float(n * (n - 1))
    else:
        k1 = K1(n, r, float(np.min(partial_H_extremes(r + 1, kappa))),
                2.0 * float(np.min(H[:, r])), float(np.max(np.abs(kappa))), c_n)
    gap = k1 * (H[:, 1] * H[:, r] - H[:, r + 1]) - tau_sq
    print(f"  n={n}, r={r}: K1 = {k1:9.4f}, min gap over 10^4 samples = {float(np.min(gap)):+.3e}")

print()
print("Maclaurin chain for kappa = (1, 2, 3):",
      np.array2string(maclaurin_gaps([1.0, 2.0, 3.0], 2), precision=6),
      " Newton gap k=1:", f"{newton_gap([1.0, 2.0, 3.0], 1):.6f}")
