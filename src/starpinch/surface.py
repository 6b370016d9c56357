"""Starshaped hypersurfaces as radial graphs over the parameter sphere.

A surface is the image of u -> rho(u) * u in the chart of a space form,
where rho is a positive combination of polynomial basis functions on the
parameter n-sphere: real spherical harmonics (degree <= 4) for n = 2 and
degree <= 2 sphere harmonics for n = 3.  The basis functions are
polynomials in the ambient coordinates, so rho and its first and second
derivatives are exact, and the fundamental forms of the radial graph are
closed forms in them (no truncation error):

    g_ab = rho^2 delta_ab + rho_a rho_b,   W = sqrt(rho^2 + |d rho|^2),
    B_ab = (2 rho_a rho_b - rho (rho_ab - rho delta_ab)) / W,
    dA = rho^(n-1) W,   g^(-1/2) = (I - d rho d rho^T / (W (rho + W))) / rho.

The principal curvatures are the eigenvalues of M = g^(-1/2) B g^(-1/2) by
four sweeps of cyclic Jacobi.  Blocks of nodes are evaluated node-last, as
(d, N) directions and (n, n, N) forms, so contractions are einsums.

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
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import HypothesisError
from .spaceform import SpaceFormModel, geodesic_radius, s_delta
from .symfun import mean_curvatures, umbilicity_defect_sq

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

    Returns (N, n, d) rows, a view of node-last (n, d, N) frames; deterministic
    and well-conditioned for every unit vector (the reflector norm is bounded
    below by sqrt(2)).
    """
    u = np.asarray(u, dtype=float).T
    v = u.copy()
    v[-1] += np.where(u[-1] >= 0.0, 1.0, -1.0)
    frames = -2.0 * (v[:-1] / np.einsum("iN,iN->N", v, v))[:, None, :] * v[None, :, :]
    idx = np.arange(len(u) - 1)
    frames[idx, idx] += 1.0
    return frames.transpose(2, 0, 1)


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
        """H_0..H_n at every node, shape (N, n+1); computed once, read-only."""
        return self._symmetric_functions[0]

    def tau_norm_sq(self) -> np.ndarray:
        """tau^2 at every node, shape (N,); computed once, read-only."""
        return self._symmetric_functions[1]

    @cached_property
    def _symmetric_functions(self) -> tuple:
        H, tau_sq = mean_curvatures(self.kappa), umbilicity_defect_sq(self.kappa)
        H.flags.writeable = tau_sq.flags.writeable = False
        return H, tau_sq

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


# nodes per block of evaluate_nodes: every n = 2 rule up to order 64 is one block
_BLOCK = 8192


def evaluate_nodes(surface: RadialSurface, nodes) -> SurfaceBatch:
    """All pointwise extrinsic data at the given parameter directions."""
    u = np.asarray(nodes, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    N, d = u.shape
    n = surface.n
    if d != n + 1:
        raise ValueError("nodes must be (N, n+1) unit vectors")
    tables = _polynomial_tables(surface)
    out = {
        "X": np.empty((N, d)), "nu": np.empty((N, d)),
        "g": np.empty((N, n, n)), "B": np.empty((N, n, n)), "kappa": np.empty((N, n)),
        **{name: np.empty(N) for name in ("support", "r", "area_element", "H_tilde",
                                          "area_element_euclid", "rho")},
    }
    # every operation is per node, so blocks of nodes give the same bits as
    # one pass while the temporaries stay bounded by the block size
    for start in range(0, N, _BLOCK):
        block = slice(start, start + _BLOCK)
        for name, value in _node_block(surface, tables, u[block].T.copy(), start).items():
            out[name][block] = value
    return SurfaceBatch(nodes=u, **out)


def _polynomial_tables(surface: RadialSurface) -> list:
    """Monomial tables {exponents: coefficient} of P = rho0 (1 + sum_k amp_k B_k),
    of dP/dx_i (i < d) and of d2P/dx_i dx_j (i <= j), in that order."""
    d = surface.n + 1
    table = {(0,) * d: surface.rho0}
    for key, amp in surface.perturbation:
        for coeff, expo in basis_function(surface.n, key):
            table[expo] = table.get(expo, 0.0) + surface.rho0 * amp * coeff

    def diff(tab, axis):
        out = {}
        for expo, coeff in tab.items():
            if expo[axis]:
                lower = expo[:axis] + (expo[axis] - 1,) + expo[axis + 1:]
                out[lower] = out.get(lower, 0.0) + coeff * expo[axis]
        return out

    grad = [diff(table, i) for i in range(d)]
    return [table] + grad + [diff(grad[i], j) for i in range(d) for j in range(i, d)]


def _polynomial_derivatives(tables: list, u: np.ndarray):
    """P (N,), its ambient gradient (d, N) and Hessian (d, d, N) at the columns of u."""
    d, N = u.shape
    degree = max(max(expo) for expo in tables[0])
    powers = list(accumulate([u] * degree, np.multiply, initial=np.ones((d, N))))  # u**k
    monomials = {}
    values = []
    for table in tables:
        acc = np.zeros(N)
        for expo, coeff in table.items():
            if expo not in monomials:
                monomials[expo] = np.prod([powers[p][i] for i, p in enumerate(expo)], axis=0)
            acc += coeff * monomials[expo]
        values.append(acc)
    i, j = np.triu_indices(d)  # the (i, j) order of the Hessian tables
    hess = np.empty((d, d, N))
    hess[i, j] = hess[j, i] = values[d + 1:]
    return values[0], np.stack(values[1:d + 1]), hess


def _node_block(surface: RadialSurface, tables: list, u: np.ndarray, start: int) -> dict:
    """The SurfaceBatch fields of the nodes u (d, N); ``start`` offsets error indices.

    With rho = P(c(t)) along c(t) = (u + t_a E_a)/|u + t_a E_a|:
    rho_a = E_a . grad P, rho_ab = E_a^T Hess(P) E_b - (u . grad P) delta_ab,
    X_a = rho_a u + rho E_a and X_ab = (rho_ab - rho delta_ab) u + rho_a E_b + rho_b E_a.
    """
    n = surface.n
    frames = tangent_frames(u.T).transpose(1, 2, 0)  # (n, d, N)
    rho, grad, hess = _polynomial_derivatives(tables, u)
    if np.any(rho <= 0.0):
        bad = int(np.argmin(rho))
        raise HypothesisError(
            f"radial graph is nonpositive at node {start + bad}: rho = {rho[bad]:.6g}"
        )
    X = rho * u
    surface.model.require_inside(X.T, margin=1e-9)

    v = np.einsum("aiN,iN->aN", frames, grad)  # rho_a
    rho_ab = np.einsum("aiN,biN->abN", np.einsum("ijN,ajN->aiN", hess, frames), frames)
    rho_ab = 0.5 * (rho_ab + rho_ab.swapaxes(0, 1))
    eye = np.eye(n)[:, :, None]
    rho_ab -= np.einsum("iN,iN->N", u, grad) * eye
    vv = v[:, None] * v[None, :]
    W = np.sqrt(rho * rho + np.einsum("aN,aN->N", v, v))  # |rho u - rho_a E_a|

    g_euc = (rho * rho) * eye + vv
    B_euc = (2.0 * vv - rho * (rho_ab - rho * eye)) / W
    # rho u - rho_a E_a is normal to every X_a and pairs positively with u;
    # its negation is the inward normal
    nu_euc = -(rho * u - np.einsum("aN,aiN->iN", v, frames)) / W

    # single conformal path: at delta = 0 every correction is an exact
    # float identity (q = 1, grad phi = 0), so the Euclidean case is
    # reproduced bit-for-bit
    delta = surface.model.delta
    q = 1.0 + 0.25 * delta * np.einsum("iN,iN->N", X, X)  # q = e^{-phi}
    dphi_nu = np.einsum("iN,Ni->N", nu_euc, surface.model.grad_phi(X.T))
    B_mixed = B_euc - dphi_nu * g_euc

    # g^{-1/2} = (I - c v v^T)/rho with c = 1/(W (rho + W)) (Sherman-Morrison),
    # so M = g^{-1/2} B g^{-1/2} has the pencil eigenvalues of (B, g)
    c = 1.0 / (W * (rho + W))
    w = np.einsum("abN,bN->aN", B_mixed, v)
    vw = v[:, None] * w[None, :]
    M = (B_mixed - c * (vw + vw.swapaxes(0, 1))
         + (c * c * np.einsum("aN,aN->N", w, v)) * vv) / (rho * rho)
    del u, frames, grad, hess, rho_ab, vv, B_euc, w, vw  # bounds the block's peak memory

    r = np.asarray(geodesic_radius(X.T, surface.model))
    area_euc = rho ** (n - 1) * W  # matrix determinant lemma
    return {
        "X": X.T, "nu": (q * nu_euc).T, "g": (g_euc / q**2).transpose(2, 0, 1),
        "B": (B_mixed / q).transpose(2, 0, 1), "kappa": (q * _jacobi_eigenvalues(M)).T,
        "support": s_delta(r, delta) * (-rho / W), "r": r,
        "area_element": area_euc / q**n,
        "H_tilde": np.einsum("aaN->N", M) / n + dphi_nu,
        "area_element_euclid": area_euc, "rho": rho,
    }


def _jacobi_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (n, N) of symmetric (n, n, N) matrices by cyclic Jacobi.

    Four sweeps reach roundoff for n <= 3, so every node does the same work.
    The rotation t = sign(theta) a_pq / (|theta| + hypot(theta, a_pq)) with
    theta = (a_qq - a_pp)/2 is 0 exactly when a_pq = 0 and never overflows.
    """
    n = M.shape[0]
    a = {(i, j): M[i, j] for i in range(n) for j in range(i, n)}  # upper triangle
    for p, q in [(p, q) for _ in range(4) for p in range(n) for q in range(p + 1, n)]:
        apq, theta = a[p, q], 0.5 * (a[q, q] - a[p, p])
        den = theta + np.copysign(np.hypot(theta, apq), theta)  # sign(theta) (|theta| + hypot)
        t = apq / np.where(den != 0.0, den, 1.0)
        cos = 1.0 / np.sqrt(1.0 + t * t)
        a[p, p], a[q, q], a[p, q] = a[p, p] - t * apq, a[q, q] + t * apq, 0.0 * apq
        for r in set(range(n)) - {p, q}:
            rp, rq = tuple(sorted((r, p))), tuple(sorted((r, q)))
            a[rp], a[rq] = cos * (a[rp] - t * a[rq]), cos * (t * a[rp] + a[rq])
    return np.sort([a[i, i] for i in range(n)], axis=0)


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
