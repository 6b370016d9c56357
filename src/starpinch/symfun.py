"""Symmetric-function calculus on principal curvature vectors.

Everything here is exact algebra on curvature arrays (..., n), batched
along the last axis: elementary symmetric polynomials sigma_k, the
normalized mean curvatures H_k = sigma_k / C(n,k), the partial curvatures
H_{l;n,1} obtained by deleting the largest and the smallest entry, the
umbilicity defect ``tau^2 = sum (kappa_i - H_1)^2``, the Newton gap, and
the explicit constant K1 that turns the sharpened Newton inequality into the
pointwise bound

    tau^2 <= K1 (H H_r - H_{r+1}).

For n = 2 and 3, the dimensions the pipeline runs at, the sharpened
Newton constant c_n is exact (``default_c_n``) and every Maclaurin-chain
constant b_{n,l,r} is 1, so ``K1`` takes none.  For n >= 4 no closed form
is known here; ``calibrate`` estimates both by a seeded brute-force
infimum over random positive curvature vectors, minus a safety margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError

# ---------------------------------------------------------------------------
# symmetric functions of the curvatures along the last axis


def elementary_symmetric(kappa) -> np.ndarray:
    """All sigma_0..sigma_n of the entries along the last axis.

    Uses the stable one-root-at-a-time recurrence, i.e. expands
    prod_i (t + kappa_i) incrementally.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    sigma = np.zeros(kappa.shape[:-1] + (n + 1,))
    sigma[..., 0] = 1.0
    for i in range(n):
        k_i = kappa[..., i : i + 1]
        sigma[..., 1 : i + 2] = sigma[..., 1 : i + 2] + k_i * sigma[..., 0 : i + 1]
    return sigma


def mean_curvatures(kappa) -> np.ndarray:
    """H_0..H_n along the last axis, H_k = sigma_k / C(n,k)."""
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    return elementary_symmetric(kappa) / np.array([math.comb(n, k) for k in range(n + 1)],
                                                  dtype=float)


def umbilicity_defect_sq(kappa) -> np.ndarray:
    """tau^2 = sum_i (kappa_i - H_1)^2, zero exactly at umbilic points."""
    kappa = np.asarray(kappa, dtype=float)
    mean = kappa.mean(axis=-1, keepdims=True)
    return np.sum((kappa - mean) ** 2, axis=-1)


def partial_H_extremes(l: int, kappa_sorted) -> np.ndarray:
    """Batched H_{l;n,1}: delete the largest and smallest curvature.

    ``kappa_sorted`` has ascending entries along the last axis.
    """
    kappa_sorted = np.asarray(kappa_sorted, dtype=float)
    n = kappa_sorted.shape[-1]
    if not 2 <= l <= n + 1:
        raise ValueError(f"l must lie in [2, n+1], got l={l} with n={n}")
    middle = kappa_sorted[..., 1:-1]
    sig = elementary_symmetric(middle)[..., l - 2]
    return sig / math.comb(n, l)


# ---------------------------------------------------------------------------
# the Newton gap


def _check_index(name: str, k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"{name} must lie in [1, n-1], got {name}={k}")


def newton_gap(kappa, k: int) -> np.ndarray:
    """H_k^2 - H_{k+1} H_{k-1} along the last axis, nonnegative for real curvatures."""
    H = mean_curvatures(kappa)
    _check_index("k", k, H.shape[-1] - 1)
    return H[..., k] ** 2 - H[..., k + 1] * H[..., k - 1]


# ---------------------------------------------------------------------------
# the pointwise constant of the tau^2 bound (Lemma-style multiplier)


def K1(n: int, r: int, minH_partial: float, h: float, B_sup: float, c_n: float) -> float:
    """Multiplier K1 with tau^2 <= K1 (H H_r - H_{r+1}) pointwise.

    For r = 1 this is the exact dimensional constant n(n-1), from the
    identity tau^2 = n(n-1)(H^2 - H_2).  For r >= 2 it is the reciprocal
    of the explicit product

        c_n * (h / 2|B|) * sum_{k=1}^r (minH_partial^{1/(r-1)} / |B|)^{2(k-1)}.

    The lemma's product also carries min_k b_{n,k+1,r}^{2(k-1)}, which is 1
    for r <= 2, where every chain index k+1 is 2 or r+1; the pipeline runs
    at n <= 3 with c_n = default_c_n(n).  For r >= 3 a caller folds that
    factor into c_n.  Note K1 grows like 1/h: a weaker pinching hypothesis
    gives a weaker (larger) multiplier.  At r >= 2 an h <= 0 (a mean of H_r
    that is not positive) and then a minH_partial <= 0 raise HypothesisError.
    """
    if r == 1:
        return float(n * (n - 1))
    if h <= 0.0:
        raise HypothesisError(f"h = {h:.6g} must be positive at r = {r}")
    if B_sup <= 0.0:
        raise ValueError("B_sup must be positive")
    if minH_partial <= 0.0:
        raise HypothesisError(f"min H_{{{r + 1};{n},1}} = {minH_partial:.6g} must be positive "
                              f"at r = {r}")
    if c_n <= 0.0:
        raise ValueError("c_n must be positive")
    ratio = minH_partial ** (1.0 / (r - 1)) / B_sup
    total = 1.0
    for k in range(2, r + 1):
        total += ratio ** (2 * (k - 1))
    return 1.0 / (c_n * total / B_sup * (h / 2.0))


# ---------------------------------------------------------------------------
# calibration of c_n and the b-constants


@dataclass(frozen=True)
class Calibration:
    """Calibrated inequality constants with their provenance."""

    n: int
    r: int
    c_n: float
    b_consts: tuple
    seed: int
    samples: int
    margin: float
    raw_c_inf: float = field(default=float("nan"))


def sample_positive_curvatures(n: int, samples: int, seed: int) -> np.ndarray:
    """Deterministic positive curvature vectors, sorted ascending.

    Mixes log-normal spread, moderate uniform values, near-umbilic
    configurations and scaled copies of the near-boundary family
    (t, 2t, ..., 2t, 1) with 10^-4 <= t <= 10^-1.  At n = 3 that family
    approaches the infimum 1/8 of the sharpened-Newton ratio, which is not
    attained; the other groups stay about 1.5% above it, and the umbilic
    limit is 1/6.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n_log = n_uni = n_edge = samples // 4
    n_umb = samples - n_log - n_uni - n_edge
    logn = np.exp(rng.normal(0.0, 0.9, size=(n_log, n)))
    uni = rng.uniform(0.05, 3.0, size=(n_uni, n))
    base = rng.uniform(0.3, 2.0, size=(n_umb, 1))
    spread = 10.0 ** rng.uniform(-3.0, -0.5, size=(n_umb, 1))
    umb = base * (1.0 + spread * rng.normal(0.0, 1.0, size=(n_umb, n)))
    t = 10.0 ** rng.uniform(-4.0, -1.0, size=(n_edge, 1))
    shape = np.hstack([t] + [2.0 * t] * (n - 2) + [np.ones_like(t)])
    edge = rng.uniform(0.3, 2.0, size=(n_edge, 1)) * shape
    kappa = np.vstack([logn, uni, np.abs(umb) + 1e-6, edge])
    return np.sort(kappa, axis=-1)


def _newton_tau_ratios(kappa: np.ndarray, k: int) -> np.ndarray:
    """(H_k^2 - H_{k+1}H_{k-1}) / (tau^2 H_{k+1;n,1}^2), NaN where degenerate."""
    tau_sq = umbilicity_defect_sq(kappa)
    hp = partial_H_extremes(k + 1, kappa)
    num = newton_gap(kappa, k)
    den = tau_sq * hp**2
    scale = np.max(kappa, axis=-1) ** 2
    ok = tau_sq > 1e-6 * scale * kappa.shape[-1]
    return np.where(ok & (den > 0.0), num / np.where(den > 0.0, den, 1.0), np.nan)


# calibrate stays importable: bench/tracing.py wraps it at this name
def calibrate(n: int, r: int, samples: int = 100_000, seed: int = 31415,
              margin: float = 0.1) -> Calibration:
    """Brute-force estimate of c_n and b_{n,l,r} over random positive kappa.

    c_n is the sampled infimum over k of the sharpened-Newton ratio, scaled
    down by the safety margin; b_{n,l,r} likewise for the partial-curvature
    Maclaurin chain, except that b_{n,l,r} = 1 for l in {2, r+1} by
    construction (so every b is 1 for r <= 2).  A sampled infimum can only
    lie above the true one; for n = 2 and 3 use the exact ``default_c_n``.
    At n = 4 the infimum is unproven: 60 000 samples (seed 31415) reach
    0.0555630, along kappa = (t, 2t, 2t, 1) where the k = 3 ratio tends to
    1/18 as t -> 0.  Deterministic for a given (seed, samples).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 1 <= r <= n - 1:
        raise ValueError("r must lie in [1, n-1]")
    kappa = sample_positive_curvatures(n, samples, seed)
    ratios = [_newton_tau_ratios(kappa, k) for k in range(1, n)]
    raw_inf = float(np.nanmin(np.vstack(ratios)))
    c_n = (1.0 - margin) * raw_inf

    b = []
    for k_sum in range(1, r + 1):
        l = k_sum + 1  # chain index: b_{n,l,r} with l = k+1
        if l == 2 or l == r + 1:
            b.append(1.0)
            continue
        lhs = partial_H_extremes(l, kappa)
        rhs = partial_H_extremes(r + 1, kappa)
        good = (lhs > 0.0) & (rhs > 0.0)
        ratio = lhs[good] ** (1.0 / (l - 2)) / rhs[good] ** (1.0 / (r - 1))
        b.append((1.0 - margin) * float(np.min(ratio)))
    return Calibration(n=n, r=r, c_n=c_n, b_consts=tuple(b), seed=seed,
                       samples=samples, margin=margin, raw_c_inf=raw_inf)


# c_n = inf over k and positive kappa of the sharpened-Newton ratio
# (H_k^2 - H_{k+1} H_{k-1}) / (tau^2 H_{k+1;n,1}^2).  At k = 1 the ratio is
# identically n(n-1)/4.  At n = 3, k = 2 it tends to (1 - s + s^2) / (6 s^2)
# along kappa = (t, s t, 1) as t -> 0, least at s = 2; the infimum 1/8 is
# approached but not attained (the umbilic limit is 1/6).
_EXACT_C_N = {2: 0.5, 3: 0.125}


def default_c_n(n: int) -> float:
    """The exact sharpened-Newton constant c_n for n = 2 and 3."""
    if n not in _EXACT_C_N:
        raise ValueError(f"c_n is known exactly only for n = 2 and 3, got n={n}; "
                         "calibrate() estimates it for larger n")
    return _EXACT_C_N[n]
