"""Starshaped hypersurfaces as radial graphs over the parameter sphere.

A surface is the image of u -> rho(u) * u in the chart of a space form,
where rho is a positive combination of polynomial basis functions on the
parameter n-sphere: real spherical harmonics (degree <= 4) for n = 2 and
degree <= 2 sphere harmonics for n = 3.  The basis functions are
polynomials in the ambient coordinates, so rho and its first and second
derivatives are exact, and the fundamental forms of the radial graph are
closed forms in them (no truncation error).  Take the orthonormal frame
E_a = e_a - beta w_a w (a < n) of u-perp, the rows of the Householder reflection
I - beta w w^T with w = u + sigma e_n, sigma = +1 where u_n >= 0 (-0.0 too) and -1
elsewhere, and beta = 2/|w|^2 = 1/(1 + |u_n|); it is never built.  With the
ambient partials P_i, P_ij of P, s = u . grad P, y = Hess(P) w and
t = beta y - (beta^2/2)(w . y) w, the tangential derivatives rho_a = E_a . grad P
and R = E Hess(P) E^T (symmetric by construction; rho_ab = R_ab - s delta_ab)
and, with W = sqrt(rho^2 + |v|^2), the forms are

    v_a = rho_a = P_a - beta w_a (s + sigma P_n),   R_ab = P_ab - (w_a t_b + t_a w_b),
    g = rho^2 I + v v^T,   B = (2 v v^T - rho (R - (s + rho) I)) / W,   dA = rho^(n-1) W,
    g^(-1/2) = K / rho   with   K = I - v v^T / (W (rho + W)).

The shape operator is q M with q = e^{-phi} and M = g^(-1/2) B g^(-1/2) -
(d_nu~ phi) I, whose eigenvalues are kappa_tilde_i - d_nu~ phi (see below).
As K v = (rho/W) v, K^2 = I - v v^T / W^2 and d_nu~ phi = (delta/2) rho^2 / (q W),
with c = 1/(W (rho + W)), z = c R v and p = z + ((rho - s)/W^2 - c z . v) v / 2,

    M = (rho - s)/(rho W^3) v v^T - K R K/(rho W) + ((s + rho)/(rho W) - d_nu~ phi) I
      = (v p^T + p v^T - R)/(rho W) + ((s + rho)/(rho W) - d_nu~ phi) I.

A batch stores M, and H_k and tau^2 come from its invariants: the
trace, the sum of the principal 2x2 minors, the determinant and the norm of
the trace-free part.  The principal curvatures are the eigenvalues of q M
by four sweeps of cyclic Jacobi, solved only where they are read: at every
node on the first read of ``SurfaceBatch.kappa``, at the few nodes that can
hold the maximum in ``SurfaceBatch.B_sup``.  g, B and the normal nu are
never built.  Blocks of nodes are evaluated node-last, as (d, N) directions
and (n, n, N) matrices, and every operation is elementwise across nodes, so
a block of one node gives the bits of any other block.

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
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .errors import HypothesisError, NumericalError
from .spaceform import SpaceFormModel, radius_from_chart_norm, s_delta

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
    """Monomial table for one basis function; key is (l, m) for n=2, a name for n=3."""
    if n == 2:
        if key not in _SH2:
            raise ValueError(f"unknown spherical harmonic {key} (degree <= 4 supported)")
        return _SH2[key]
    if n == 3:
        if key not in _S3_BASIS:
            raise ValueError(f"unknown S^3 basis function {key!r}")
        return _S3_BASIS[key]
    raise ValueError(f"no perturbation basis for n={n}")


# ---------------------------------------------------------------------------
# surfaces


@dataclass
class RadialSurface:
    """rho(u) = rho0 * (1 + sum_k amp_k * B_k(u)) over the parameter n-sphere."""

    n: int
    model: SpaceFormModel
    rho0: float
    perturbation: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("hypersurface dimension must be 2 or 3")
        if self.model.ambient_dim != self.n + 1:
            raise ValueError("model ambient_dim must equal n+1")
        if not 0.0 < self.rho0 < math.inf:  # nan fails both comparisons
            raise HypothesisError(f"rho0 must be positive and finite, got {self.rho0}")
        self.perturbation = tuple((k, float(a)) for k, a in self.perturbation)
        for key, amp in self.perturbation:
            basis_function(self.n, key)  # validates the key
            if not math.isfinite(amp):
                raise HypothesisError(f"amplitude of {key!r} must be finite, got {amp}")

    def rho_values(self, points) -> np.ndarray:
        """rho at unit vectors (..., n+1), bit for bit the rho of ``fields``."""
        pts = np.asarray(points, dtype=float)
        u = pts.reshape(-1, self.n + 1).T.copy()
        return _polynomial_derivatives(self._plan, u)[0].reshape(pts.shape[:-1])

    @cached_property
    def _plan(self) -> tuple:
        """The polynomial plan of rho (``_polynomial_plan``), built once per surface."""
        return _polynomial_plan(self)

    def fields(self, rule) -> "SurfaceBatch":
        """Batch of pointwise data at a rule's nodes with its weights, cached (base rules only)."""
        if rule not in self._cache:  # keyed by identity; the key keeps the rule alive
            with np.errstate(all="ignore"):  # out-of-range fields are rejected below
                batch = evaluate_nodes(self, rule.nodes, 0, rule.weights)
            bad = np.flatnonzero(~(np.isfinite(batch.H).all(axis=1) & (batch.area_element > 0)))
            if len(bad):  # once per base rule: the blocks of its doubled rule share its scale
                raise NumericalError(f"surface fields leave the float64 range at node {bad[0]}: "
                                     f"H = {batch.H[bad[0]]}, dA = {batch.area_element[bad[0]]}")
            self._cache[rule] = batch
        return self._cache[rule]

    def blocks(self, rule):
        """A rule's batch block by block with its weights, from ``evaluate_nodes``; uncached."""
        return (evaluate_nodes(self, nodes, b, weights) for b in range(0, rule.size, _BLOCK)
                for nodes, weights in [rule.block(b, b + _BLOCK)])


@dataclass(frozen=True)
class SurfaceBatch:
    """Pointwise extrinsic data at a set of parameter nodes (h-metric).

    The shape operator is q M (see the module docstring); H_k and tau^2
    come from the invariants of M, and the principal curvatures only when
    ``kappa`` is first read.  No integral, not even the volume, is kept on it.
    """

    nodes: np.ndarray          # (N, n+1) unit parameter directions
    X: np.ndarray              # (N, n+1) immersion points in the chart
    M: np.ndarray              # (N, n, n) symmetric; the shape operator is q M
    q: np.ndarray              # (N,) conformal factor e^{-phi}
    H: np.ndarray              # (N, n+1) H_0..H_n, read-only
    tau_sq: np.ndarray         # (N,) umbilicity defect tau^2, read-only
    support: np.ndarray        # (N,) <Z, nu> pairing
    r: np.ndarray              # (N,) geodesic radius of X
    area_element: np.ndarray   # (N,) h-volume density w.r.t. the round measure
    H_tilde: np.ndarray        # (N,) Euclidean mean curvature of the chart immersion
    area_element_euclid: np.ndarray  # (N,) Euclidean volume density
    rho: np.ndarray            # (N,) radial graph values
    weights: np.ndarray | None = None  # (N,) the rule's read-only weights; None off a rule
    start: int = 0             # index of the first node in its rule, for error messages

    @property
    def n(self) -> int:
        return self.M.shape[1]

    @cached_property
    def kappa(self) -> np.ndarray:
        """(N, n) principal curvatures, ascending; solved at the first read."""
        return _principal_curvatures(self.M, self.q)

    @cached_property
    def B_sup(self) -> float:
        """max_i |kappa_i| over the nodes, from ``B_sup_norm``; solved at the first read."""
        return B_sup_norm(self)


# Nodes per block.  The refinement pass holds one block at a time: it reduces the block,
# solves the block's B_sup candidates and drops it before the next one is evaluated.  The
# kernel's temporaries of a 2048-node n = 3 block peak at 1.2 MiB (traced).  They stay
# resident only once the process has freed a larger chunk: until then glibc's dynamic trim
# threshold (twice the largest chunk it has unmapped, 128 KiB at start) sits below them,
# and the heap top is returned to the system and faulted back in at every block.
_BLOCK = 2048


def evaluate_nodes(surface: RadialSurface, nodes, start: int = 0, weights=None) -> SurfaceBatch:
    """All pointwise extrinsic data at the given directions, with their rule's ``weights``
    if given; errors count from ``start``."""
    u = np.atleast_2d(np.asarray(nodes, dtype=float))
    N, d = u.shape
    n = surface.n
    if d != n + 1:
        raise ValueError("nodes must be (N, n+1) unit vectors")
    plan = surface._plan
    if N <= _BLOCK:  # one block: M and H stay views of the kernel's node-last arrays
        out = _node_block(surface, plan, u.T.copy(), start)
    else:
        # each field's array, shaped as the kernel's on no nodes, before the first block:
        # allocated after it, the batch would sit above the block's temporaries (higher RSS)
        out = {name: np.empty((N, *value.shape[1:]))
               for name, value in _node_block(surface, plan, u[:0].T.copy(), start).items()}
        # every operation is per node, so blocks of nodes give the same bits as
        # one pass while the temporaries stay bounded by the block size
        for b in range(0, N, _BLOCK):
            u_block = u[b:b + _BLOCK].T.copy()
            for name, value in _node_block(surface, plan, u_block, start + b).items():
                out[name][b:b + _BLOCK] = value
    out["H"].flags.writeable = out["tau_sq"].flags.writeable = False
    return SurfaceBatch(nodes=u, weights=weights, start=start, **out)


def _polynomial_plan(surface: RadialSurface) -> tuple:
    """How to evaluate P = rho0 (1 + sum_k amp_k B_k), dP/dx_i and d2P/dx_i dx_j
    (i, j < d), in that order: (degree, monomials, rows), where a monomial is its
    (power, axis) factors and rows[k] lists (coefficient, monomial index)."""
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
    tables = [table] + grad + [diff(grad[min(i, j)], max(i, j))
                               for i in range(d) for j in range(d)]
    index = {}
    rows = [[(coeff, index.setdefault(expo, len(index))) for expo, coeff in tab.items()]
            for tab in tables]
    monomials = [[(p, i) for i, p in enumerate(expo) if p] for expo in index]
    return max(max(expo) for expo in table), monomials, rows


def _polynomial_derivatives(plan: tuple, u: np.ndarray) -> tuple:
    """P (N,), its ambient gradient (d, N) and Hessian (d, d, N) at the columns of u;
    the Hessian is symmetric bit for bit."""
    degree, monomials, rows = plan
    d, N = u.shape
    powers = [None, *accumulate([u] * degree, np.multiply)]  # u**k
    values = [reduce(np.multiply, [powers[p][i] for p, i in factors]) if factors else 1.0
              for factors in monomials]  # 1.0 for the constant monomial
    out = np.zeros((len(rows), N))
    for acc, row in zip(out, rows):
        for coeff, m in row:
            acc += coeff * values[m]
    return out[0].copy(), out[1:d + 1], out[d + 1:].reshape(d, d, N)  # out dies with grad


def _tangential_derivatives(u: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> tuple:
    """s = u . grad P, rho_a = E_a . grad P (n, N) and R = E Hess(P) E^T (n, n, N)
    from u, grad P (d, N) and Hess(P) (d, d, N) by the Householder identities of the
    module docstring."""
    n = len(u) - 1
    sigma = np.where(u[n] >= 0.0, 1.0, -1.0)  # +1 at u_n = -0.0, where np.copysign gives -1
    w = u.copy()
    w[n] += sigma
    beta = 1.0 / (1.0 + np.abs(u[n]))  # 2 / |w|^2
    s = reduce(np.add, u * grad)
    v = grad[:n] - (beta * (s + sigma * grad[n])) * w[:n]
    y = reduce(np.add, hess * w[:, None])  # Hess(P) w
    t = beta * y[:n] - (0.5 * beta * beta * reduce(np.add, w * y)) * w[:n]
    return s, v, hess[:n, :n] - (w[:n, None] * t + t[:, None] * w[:n])


def _node_block(surface: RadialSurface, plan: tuple, u: np.ndarray, start: int) -> dict:
    """The SurfaceBatch fields of the nodes u (d, N); ``start`` offsets error indices.

    Along c(t) = (u + t_a E_a)/|u + t_a E_a|, rho = P(c) has rho_a = E_a . grad P, and
    X_a = rho_a u + rho E_a, X_ab = (rho_ab - rho delta_ab) u + rho_a E_b + rho_b E_a.
    """
    n, model = surface.n, surface.model
    rho, grad, hess = _polynomial_derivatives(plan, u)
    if np.any(rho <= 0.0):
        bad = int(np.argmin(rho))
        raise HypothesisError(f"radial graph is nonpositive at node {start + bad}: "
                              f"rho = {rho[bad]:.6g}")
    X = rho * u
    norm_sq = reduce(np.add, X * X)  # np.sum's order: q and r are those of the points X
    norm = np.sqrt(norm_sq)
    model.require_norms_inside(norm, margin=1e-9)
    s, v, R = _tangential_derivatives(u, grad, hess)
    del grad, hess  # frees the polynomial rows; with the del below, bounds the peak memory
    W = np.sqrt(rho * rho + reduce(np.add, v * v))  # |rho u - rho_a E_a|

    # one conformal path: q = 1 and d_nu~ phi = 0 exactly at delta = 0 (bitwise Euclidean)
    delta = model.delta
    q = model.conformal_factor_of_norm_sq(norm_sq)  # e^{-phi}
    dphi_nu = (0.5 * delta) * rho * rho / (q * W)  # nu~ . X = -rho^2 / W

    # M through z and p of the module docstring, as K R K = R - (v z^T + z v^T)
    # + c (z . v) v v^T; symmetric bit for bit, like R
    c = 1.0 / (W * (rho + W))
    z = c * reduce(np.add, R * v[:, None])
    p = z + (0.5 * ((rho - s) / (W * W) - c * reduce(np.add, z * v))) * v
    M = (v[:, None] * p + p[:, None] * v - R) / (rho * W)
    M[range(n), range(n)] += (s + rho) / (rho * W) - dphi_nu
    del u, R, z, p

    H, tau_sq = _curvature_invariants(M, q)
    r = radius_from_chart_norm(norm, delta)
    area_euc = rho ** (n - 1) * W  # matrix determinant lemma
    # X in C order: sums over its coordinates (geodesic_distance) keep their bits
    return {
        "X": X.T.copy(), "M": M.transpose(2, 0, 1), "q": q, "H": H.T, "tau_sq": tau_sq,
        "support": s_delta(r, delta) * (-rho / W), "r": r, "area_element": area_euc / q**n,
        "H_tilde": np.trace(M) / n + dphi_nu, "area_element_euclid": area_euc, "rho": rho,
    }


def _curvature_invariants(M: np.ndarray, q: np.ndarray) -> tuple:
    """H_0..H_n (n+1, N) and tau^2 (N,) of the shape operators q M, M (n, n, N).

    sigma_1..sigma_n of M are its trace, the sum of its principal 2x2 minors
    and (n = 3) its determinant, so H_k = q^k sigma_k / C(n, k).  tau^2 is
    q^2 |M - (tr M / n) I|_F^2 with the diagonal part written as
    (1/n) sum_{i<j} (M_ii - M_jj)^2: near umbilic points these differences
    are exact, so tau^2 keeps its relative accuracy where a route through
    the eigenvalues loses it.
    """
    n = len(M)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    off = sum(M[i, j] * M[i, j] for i, j in pairs)
    sigma = [np.ones_like(q), sum(M[i, i] for i in range(n)),
             sum(M[i, i] * M[j, j] for i, j in pairs) - off]
    if n == 3:
        sigma.append(M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[1, 2])
                     - M[0, 1] * (M[0, 1] * M[2, 2] - M[0, 2] * M[1, 2])
                     + M[0, 2] * (M[0, 1] * M[1, 2] - M[0, 2] * M[1, 1]))
    H = np.array([q**k * s / math.comb(n, k) for k, s in enumerate(sigma)])
    spread = sum((M[i, i] - M[j, j]) ** 2 for i, j in pairs) / n
    return H, q * q * (spread + 2.0 * off)


def _principal_curvatures(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Ascending principal curvatures (N, n) of the shape operators q M, M (N, n, n)."""
    return (q * _jacobi_eigenvalues(M.transpose(1, 2, 0))).T


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


# ---------------------------------------------------------------------------
# global reports


@dataclass(frozen=True)
class StarshapeReport:
    R0: float
    R: float


def starshape_report(batch: SurfaceBatch) -> StarshapeReport:
    """R0 = min |<Z,nu>| and the containment radius R; raises unless R0 > 1e-12 min(1,
    max |<Z,nu>|) (relative below unit size, so a tiny flat sphere keeps its verdict; a nan
    fails).  The support -s_d(r) rho / W < 0 by construction: the kernel rejects rho <= 0
    and points outside the chart, so only R0 can fail."""
    magnitude = np.abs(batch.support)
    R0 = float(np.min(magnitude))
    if not R0 > 1e-12 * min(1.0, np.max(magnitude)):
        bad = int(np.argmin(magnitude))
        raise HypothesisError(
            f"surface is not starshaped: support sign degenerates at node {bad} "
            f"(u = {batch.nodes[bad]}, support = {batch.support[bad]:.6g})"
        )
    return StarshapeReport(R0=R0, R=float(np.max(batch.r)))


def B_sup_norm(batch: SurfaceBatch, floor: float = -math.inf) -> float:
    """max(floor, max_i |kappa_i|), the sup of the shape-operator spectral norm over a batch.

    At least ``floor``, it is bitwise np.max(np.abs(batch.kappa)), but the Jacobi solve runs
    only where the maximum can be: it is at least every q |M_ii|, and a node's |kappa| lie
    within U = |H_1| + sqrt((n-1) tau^2 / n), so only nodes whose U reaches the larger of
    those and ``floor``, less 256 ulps for rounding, are solved (per node, so with the same
    bits).  With no floor, the node of largest U is solved first and its |kappa| is the floor.
    """
    n, M, q = batch.n, batch.M, batch.q
    upper = np.abs(batch.H[:, 1]) + np.sqrt((n - 1) / n * batch.tau_sq)
    if floor == -math.inf:
        i = int(np.argmax(upper))
        floor = np.max(np.abs(_principal_curvatures(M[i:i + 1], q[i:i + 1])))
    lower = max(floor, np.max(q * np.abs(np.diagonal(M, 0, 1, 2)).max(axis=1)))
    near = upper >= lower * (1.0 - 256 * np.finfo(float).eps)
    kappa = _principal_curvatures(M[near], q[near]) if near.any() else np.empty(0)
    return float(max(floor, np.max(np.abs(kappa), initial=-math.inf)))
