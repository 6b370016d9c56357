"""Starshaped hypersurfaces as radial graphs over the parameter sphere.

A surface is the image of u -> rho(u) * u in the chart of a space form,
where rho is a positive combination of polynomial basis functions on the
parameter n-sphere: real spherical harmonics (degree <= 4) for n = 2 and
degree <= 2 sphere harmonics for n = 3.  All derivatives of the immersion
are exact (second-order forward-mode jets through the basis expansion), so
fundamental forms carry no truncation error.

Sign conventions.  The second fundamental form is B(X,Y) = -g(D_X nu, Y)
and the normal points inward in the chart, so geodesic spheres centered at
the base point have positive principal curvatures kappa_i = c_d(rho)/s_d(rho)
and support <Z,nu> = -s_d(rho) < 0.  For delta != 0 the Euclidean shape data
is carried through the conformal change h = e^{2 phi} h_euclid via

    kappa_i = e^{-phi} (kappa_tilde_i - d_nu~ phi),

which the geodesic-sphere oracle in the tests gates at 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError
from .jets import Jet2
from .spaceform import SpaceFormModel, geodesic_radius, s_delta

# ---------------------------------------------------------------------------
# polynomial bases on the parameter sphere
#
# Each basis function is a list of (coefficient, exponent-tuple) monomials in
# the ambient coordinates of the parameter sphere.  n = 2: real spherical
# harmonics Y_{l,m} (L2-orthonormal on S^2), written in Cartesian form.

_SQ = math.sqrt


def _sh2_tables():
    pi = math.pi
    t = {}
    t[(0, 0)] = [(0.5 * _SQ(1 / pi), (0, 0, 0))]
    c1 = _SQ(3 / (4 * pi))
    t[(1, -1)] = [(c1, (0, 1, 0))]
    t[(1, 0)] = [(c1, (0, 0, 1))]
    t[(1, 1)] = [(c1, (1, 0, 0))]
    c2 = 0.5 * _SQ(15 / pi)
    t[(2, -2)] = [(c2, (1, 1, 0))]
    t[(2, -1)] = [(c2, (0, 1, 1))]
    t[(2, 0)] = [(0.25 * _SQ(5 / pi) * 3, (0, 0, 2)), (-0.25 * _SQ(5 / pi), (0, 0, 0))]
    t[(2, 1)] = [(c2, (1, 0, 1))]
    t[(2, 2)] = [(0.25 * _SQ(15 / pi), (2, 0, 0)), (-0.25 * _SQ(15 / pi), (0, 2, 0))]
    c33 = 0.25 * _SQ(35 / (2 * pi))
    c32 = 0.5 * _SQ(105 / pi)
    c31 = 0.25 * _SQ(21 / (2 * pi))
    c30 = 0.25 * _SQ(7 / pi)
    t[(3, -3)] = [(3 * c33, (2, 1, 0)), (-c33, (0, 3, 0))]
    t[(3, -2)] = [(c32, (1, 1, 1))]
    t[(3, -1)] = [(5 * c31, (0, 1, 2)), (-c31, (0, 1, 0))]
    t[(3, 0)] = [(5 * c30, (0, 0, 3)), (-3 * c30, (0, 0, 1))]
    t[(3, 1)] = [(5 * c31, (1, 0, 2)), (-c31, (1, 0, 0))]
    t[(3, 2)] = [(0.25 * _SQ(105 / pi), (2, 0, 1)), (-0.25 * _SQ(105 / pi), (0, 2, 1))]
    t[(3, 3)] = [(c33, (3, 0, 0)), (-3 * c33, (1, 2, 0))]
    c44 = (3 / 16) * _SQ(35 / pi)
    c43 = (3 / 4) * _SQ(35 / (2 * pi))
    c42 = (3 / 8) * _SQ(5 / pi)
    c41 = (3 / 4) * _SQ(5 / (2 * pi))
    c40 = 3 / (16 * _SQ(pi))
    t[(4, -4)] = [(4 * c44, (3, 1, 0)), (-4 * c44, (1, 3, 0))]
    t[(4, -3)] = [(3 * c43, (2, 1, 1)), (-c43, (0, 3, 1))]
    t[(4, -2)] = [(2 * c42 * 7, (1, 1, 2)), (-2 * c42, (1, 1, 0))]
    t[(4, -1)] = [(7 * c41, (0, 1, 3)), (-3 * c41, (0, 1, 1))]
    t[(4, 0)] = [(35 * c40, (0, 0, 4)), (-30 * c40, (0, 0, 2)), (3 * c40, (0, 0, 0))]
    t[(4, 1)] = [(7 * c41, (1, 0, 3)), (-3 * c41, (1, 0, 1))]
    t[(4, 2)] = [(7 * c42, (2, 0, 2)), (-c42, (2, 0, 0)), (-7 * c42, (0, 2, 2)), (c42, (0, 2, 0))]
    t[(4, 3)] = [(c43, (3, 0, 1)), (-3 * c43, (1, 2, 1))]
    t[(4, 4)] = [(c44, (4, 0, 0)), (-6 * c44, (2, 2, 0)), (c44, (0, 4, 0))]
    return t


_SH2 = _sh2_tables()


def _s3_tables():
    """Degree <= 2 harmonics on S^3, L2-normalized w.r.t. the round measure."""
    pi = math.pi
    lin = _SQ(2.0) / pi          # 1/sqrt(2 pi^2 / 4)
    prod = 2.0 * _SQ(3.0) / pi   # 1/sqrt(2 pi^2 / 24)
    diag = _SQ(3.0) / pi         # 1/sqrt(pi^2 / 3)
    t = {}
    for i in range(4):
        e = [0, 0, 0, 0]
        e[i] = 1
        t[f"u{i + 1}"] = [(lin, tuple(e))]
    for i in range(4):
        for j in range(i + 1, 4):
            e = [0, 0, 0, 0]
            e[i] = 1
            e[j] = 1
            t[f"u{i + 1}u{j + 1}"] = [(prod, tuple(e))]
    for i in range(3):
        ei = [0, 0, 0, 0]
        ei[i] = 2
        e4 = [0, 0, 0, 2]
        t[f"u{i + 1}^2-u4^2"] = [(diag, tuple(ei)), (-diag, tuple(e4))]
    return t


_S3_BASIS = _s3_tables()
S3_BASIS_KEYS = tuple(_S3_BASIS.keys())


def basis_function(n: int, key):
    """Monomial table for one basis function; key is (l, m) for n=2."""
    if n == 2:
        key = (int(key[0]), int(key[1])) if not isinstance(key, str) else _parse_lm(key)
        if key not in _SH2:
            raise ValueError(f"unknown spherical harmonic {key} (degree <= 4 supported)")
        return _SH2[key]
    if n == 3:
        if isinstance(key, int):
            key = S3_BASIS_KEYS[key]
        if key not in _S3_BASIS:
            raise ValueError(f"unknown S^3 basis function {key!r}")
        return _S3_BASIS[key]
    raise ValueError(f"no perturbation basis for n={n}")


def _parse_lm(text: str):
    l, m = text.split(",")
    return (int(l), int(m))


def basis_values(n: int, key, points) -> np.ndarray:
    """Evaluate one basis function at unit vectors (batched)."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[:-1])
    for coeff, expo in basis_function(n, key):
        term = np.full(pts.shape[:-1], coeff)
        for axis, p in enumerate(expo):
            if p:
                term = term * pts[..., axis] ** p
        out += term
    return out


# ---------------------------------------------------------------------------
# surfaces


@dataclass
class RadialSurface:
    """rho(u) = rho0 * (1 + sum_k amp_k * B_k(u)) over the parameter n-sphere."""

    n: int
    model: SpaceFormModel
    rho0: float
    perturbation: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("hypersurface dimension must be >= 2")
        if self.model.ambient_dim != self.n + 1:
            raise ValueError("model ambient_dim must equal n+1")
        if self.rho0 <= 0.0:
            raise HypothesisError("rho0 must be positive")
        self.perturbation = tuple((k, float(a)) for k, a in self.perturbation)
        for key, _ in self.perturbation:
            basis_function(self.n, key)  # validates the key

    def rho_values(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        vals = np.ones(pts.shape[:-1])
        for key, amp in self.perturbation:
            vals = vals + amp * basis_values(self.n, key, pts)
        return self.rho0 * vals

    def fields(self, rule) -> "SurfaceBatch":
        """Batch of pointwise data at the nodes of a quadrature rule (cached)."""
        key = ("rule", rule.n, rule.order)
        if key not in self._cache:
            self._cache[key] = evaluate_nodes(self, rule.nodes)
        return self._cache[key]


def tangent_frames(u: np.ndarray) -> np.ndarray:
    """Orthonormal frames of u-perp via one Householder reflection per node.

    Returns (N, n, d) rows; deterministic and well-conditioned for every
    unit vector (the reflector norm is bounded below by sqrt(2)).
    """
    u = np.asarray(u, dtype=float)
    N, d = u.shape
    s = np.where(u[:, -1] >= 0.0, 1.0, -1.0)
    v = u.copy()
    v[:, -1] += s
    vv = np.sum(v * v, axis=1)
    frames = -2.0 * (v[:, : d - 1] / vv[:, None])[:, :, None] * v[:, None, :]
    idx = np.arange(d - 1)
    frames[:, idx, idx] += 1.0
    return frames


@dataclass(frozen=True)
class SurfaceBatch:
    """Pointwise extrinsic data at a set of parameter nodes (h-metric)."""

    nodes: np.ndarray          # (N, n+1) unit parameter directions
    X: np.ndarray              # (N, n+1) immersion points in the chart
    nu: np.ndarray             # (N, n+1) h-unit normal, chart components
    g: np.ndarray              # (N, n, n) first fundamental form
    B: np.ndarray              # (N, n, n) second fundamental form
    kappa: np.ndarray          # (N, n) principal curvatures, ascending
    support: np.ndarray        # (N,) <Z, nu> pairing
    r: np.ndarray              # (N,) geodesic radius of X
    area_element: np.ndarray   # (N,) h-volume density w.r.t. the round measure
    H_tilde: np.ndarray        # (N,) Euclidean mean curvature of the chart immersion
    area_element_euclid: np.ndarray  # (N,) Euclidean volume density
    rho: np.ndarray            # (N,) radial graph values

    @property
    def n(self) -> int:
        return self.kappa.shape[1]

    def mean_curvature_orders(self) -> np.ndarray:
        """H_0..H_n at every node, shape (N, n+1)."""
        from .symfun import mean_curvatures

        return mean_curvatures(self.kappa)

    def tau_norm_sq(self) -> np.ndarray:
        from .symfun import umbilicity_defect_sq

        return umbilicity_defect_sq(self.kappa)

    def point(self, idx: int) -> "SurfacePointData":
        """The data of node ``idx``."""
        return SurfacePointData(
            X=self.X[idx], nu=self.nu[idx], g_mat=self.g[idx], B_mat=self.B[idx],
            kappa=self.kappa[idx], support=float(self.support[idx]),
            r=float(self.r[idx]), area_element=float(self.area_element[idx]),
        )


@dataclass(frozen=True)
class SurfacePointData:
    """Spec view of a single node of a SurfaceBatch."""

    X: np.ndarray
    nu: np.ndarray
    g_mat: np.ndarray
    B_mat: np.ndarray
    kappa: np.ndarray
    support: float
    r: float
    area_element: float


def evaluate_nodes(surface: RadialSurface, nodes) -> SurfaceBatch:
    """All pointwise extrinsic data at the given parameter directions."""
    u = np.asarray(nodes, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    N, d = u.shape
    n = surface.n
    if d != n + 1:
        raise ValueError("nodes must be (N, n+1) unit vectors")
    frames = tangent_frames(u)  # (N, n, d)

    # jets of the local parametrization c(t) = (u + t_a E_a)/|u + t_a E_a|
    comps = []
    for i in range(d):
        g = frames[:, :, i]
        comps.append(Jet2(u[:, i], g, np.zeros((N, n, n))))
    s2 = comps[0] * comps[0]
    for i in range(1, d):
        s2 = s2 + comps[i] * comps[i]
    inv_norm = s2.sqrt().reciprocal()
    c = [comps[i] * inv_norm for i in range(d)]

    rho = _rho_jet(surface, c, N, n)
    if np.any(rho.v <= 0.0):
        bad = int(np.argmin(rho.v))
        raise HypothesisError(
            f"radial graph is nonpositive at node {bad}: rho = {rho.v[bad]:.6g}"
        )

    X = np.empty((N, d))
    Xa = np.empty((N, n, d))
    Xab = np.empty((N, n, n, d))
    for i in range(d):
        xi = rho * c[i]
        X[:, i] = xi.v
        Xa[:, :, i] = xi.g
        Xab[:, :, :, i] = xi.h

    surface.model.require_inside(X, margin=1e-9)

    g_euc = np.einsum("nad,nbd->nab", Xa, Xa)
    # X_a = rho_a u + rho E_a, so rho u - rho_a E_a is normal to the surface
    # and pairs positively with u; its negation is the inward normal
    outward = rho.v[:, None] * u - np.einsum("na,nad->nd", rho.g, frames)
    nu_euc = -outward / np.linalg.norm(outward, axis=1)[:, None]
    B_euc = np.einsum("nabd,nd->nab", Xab, nu_euc)

    # single conformal path: at delta = 0 every correction is an exact
    # float identity (q = 1, grad phi = 0), so the Euclidean case is
    # reproduced bit-for-bit
    delta = surface.model.delta
    q = 1.0 + 0.25 * delta * np.sum(X * X, axis=1)  # q = e^{-phi}
    grad_phi = surface.model.grad_phi(X)
    dphi_nu = np.sum(nu_euc * grad_phi, axis=1)
    B_mixed = B_euc - dphi_nu[:, None, None] * g_euc
    g_h = g_euc / q[:, None, None] ** 2
    B_h = B_mixed / q[:, None, None]
    kappa = q[:, None] * _pencil_eigenvalues(B_mixed, g_euc)
    nu_h = q[:, None] * nu_euc

    r = np.asarray(geodesic_radius(X, surface.model))
    support = s_delta(r, delta) * np.sum(u * nu_euc, axis=1)
    det_euc = np.linalg.det(g_euc)
    area_euc = np.sqrt(det_euc)
    area_h = area_euc / q**n

    H_tilde = _mean_curvature(B_euc, g_euc)

    return SurfaceBatch(
        nodes=u, X=X, nu=nu_h, g=g_h, B=B_h, kappa=kappa, support=support,
        r=r, area_element=area_h, H_tilde=H_tilde, area_element_euclid=area_euc,
        rho=rho.v,
    )


def _rho_jet(surface: RadialSurface, c, N, n):
    total = Jet2(np.ones(N), np.zeros((N, n)), np.zeros((N, n, n)))
    for key, amp in surface.perturbation:
        term = Jet2(np.zeros(N), np.zeros((N, n)), np.zeros((N, n, n)))
        for coeff, expo in basis_function(surface.n, key):
            mono = Jet2(np.full(N, coeff), np.zeros((N, n)), np.zeros((N, n, n)))
            for axis, p in enumerate(expo):
                if p:
                    mono = mono * c[axis] ** p
            term = term + mono
        total = total + amp * term
    return surface.rho0 * total


def _pencil_eigenvalues(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil (B, g) with g SPD, batched."""
    L = np.linalg.cholesky(g)
    Linv = np.linalg.inv(L)
    M = Linv @ B @ np.swapaxes(Linv, -1, -2)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    return np.linalg.eigvalsh(M)


def _mean_curvature(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    """trace(g^{-1} B)/n without an eigen-solve."""
    n = B.shape[-1]
    sol = np.linalg.solve(g, B)
    return np.trace(sol, axis1=-2, axis2=-1) / n


def evaluate_point(surface: RadialSurface, u) -> SurfacePointData:
    """Pointwise data at a single parameter direction."""
    return evaluate_nodes(surface, np.asarray(u, dtype=float)[None, :]).point(0)


# ---------------------------------------------------------------------------
# global reports


@dataclass(frozen=True)
class StarshapeReport:
    sign: int
    R0: float
    R: float


def _constant_sign(values: np.ndarray, atol: float = 1e-12):
    """Common sign of the support values, or the offending node index."""
    values = np.asarray(values, dtype=float)
    if np.any(np.abs(values) <= atol):
        return None, int(np.argmin(np.abs(values)))
    signs = np.sign(values)
    if np.all(signs == signs[0]):
        return int(signs[0]), None
    flip = int(np.argmax(signs != signs[0]))
    return None, flip


def starshape_report(surface: RadialSurface, rule) -> StarshapeReport:
    """Sign of <Z,nu>, R0 = min |<Z,nu>| and the containment radius R."""
    batch = surface.fields(rule)
    sign, bad = _constant_sign(batch.support)
    if sign is None:
        raise HypothesisError(
            f"surface is not starshaped: support sign degenerates at node {bad} "
            f"(u = {batch.nodes[bad]}, support = {batch.support[bad]:.6g})"
        )
    return StarshapeReport(sign=sign, R0=float(np.min(np.abs(batch.support))),
                           R=float(np.max(batch.r)))


def B_sup_norm(surface: RadialSurface, rule) -> float:
    """Sup of the shape-operator spectral norm, max_i |kappa_i| over nodes."""
    batch = surface.fields(rule)
    return float(np.max(np.abs(batch.kappa)))
