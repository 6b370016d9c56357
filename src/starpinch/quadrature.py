"""High-order quadrature on the parameter sphere and exact surface integrals.

S^2 rules are Gauss-Legendre in the polar cosine tensored with a uniform
periodic rule in azimuth (twice as many azimuthal nodes); S^3 rules add a
Gauss-Chebyshev (second kind) layer for the sin^2 polar weight.  Weights
are positive and sum to the sphere area, and spherical polynomials up to
the rule order integrate exactly.  An S^3 rule keeps its layers of the
S^2 rule and generates the nodes and weights of any index range from them.

Surface integrals read one batch of ``RadialSurface.fields(rule)``, which
carries the rule's weights, with its h-metric area element and an exactly
rounded sum, so results depend neither on the order of the nodes nor on
worker-thread count.  A volume is ``integrate_batch(batch, 1.0)``, reduced
where it is read like any other integral; nothing caches it.  ``_Sums`` gives
math.fsum's result for each row of a stream of (k, B) chunks by error-free
extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008): with 2^M > B
and sigma a power of two above 2^M max|x| in each row, a level takes
q = (sigma + x) - sigma, a multiple of 2^-53 sigma, and leaves x - q exactly; a
row's sum of q is below sigma, so np.sum is exact in any order.  The next
level's sigma is 2^(M-53) times this one; math.fsum of the exact level sums is
the correctly rounded total.  Non-finite values, a maximum within 60 binades
of overflow or a remainder whose sigma is subnormal send every row to math.fsum
over the stream again; ``_reduce`` sends arrays of 512 or fewer there.
``identities`` builds means, norms and refinement errors on them.
"""

from __future__ import annotations

import functools
import math
from itertools import chain

import numpy as np


class SphericalRule:
    """Positive rule on the parameter n-sphere: ``nodes`` (N, n+1) and ``weights`` (N,), or,
    from ``build_rule``, ``layers`` over an inner rule on S^(n-1) that build them when read."""

    def __init__(self, n: int, order: int, nodes=None, weights=None, *, layers=None):
        self.n, self.order, self.layers = n, order, layers
        if layers is None:
            self.arrays = np.asarray(nodes, float), np.asarray(weights, float)
        self.size = len(self.weights) if layers is None else layers[0].size * len(layers[1])

    @functools.cached_property
    def arrays(self) -> tuple:
        """(nodes, weights); a layered rule builds them, read-only, at their first read."""
        for array in (arrays := self.block(0, self.size)):
            array.flags.writeable = False
        return arrays

    nodes = property(lambda self: self.arrays[0])
    weights = property(lambda self: self.arrays[1])

    def block(self, start: int, stop: int) -> tuple:
        """Nodes and weights [start, stop), the whole arrays' slices bit for bit: node (k, l)
        of S^n is (sin_k u_l, cos_k) and weighs w_k w_l, for node u_l, w_l of the inner rule."""
        if "arrays" in vars(self):
            return self.nodes[start:stop], self.weights[start:stop]
        (inner, sin, cos, w), stop, size = self.layers, min(stop, self.size), self.layers[0].size
        nodes, weights = np.empty((stop - start, self.n + 1)), np.empty(stop - start)
        for k in range(start // size, (stop - 1) // size + 1):  # the layers the range meets
            a, b = max(start, k * size), min(stop, (k + 1) * size)
            out, part = slice(a - start, b - start), slice(a - k * size, b - k * size)
            np.multiply(sin[k], inner.nodes[part], out=nodes[out, :-1])
            nodes[out, -1], weights[out] = cos[k], w[k] * inner.weights[part]
        return nodes, weights


@functools.lru_cache(maxsize=8)
def build_rule(n: int, order: int) -> SphericalRule:
    """Tensor rule of the given polar order on S^2 or S^3 (memoized, its arrays read-only)."""
    if order < 4:
        raise ValueError("order must be at least 4")
    if n not in (2, 3):
        raise ValueError(f"unsupported parameter sphere dimension n={n} (only 2 and 3)")
    if n == 3:  # Gauss-Chebyshev (2nd kind) layers of the S^2 rule for the sin^2 weight
        theta = np.arange(1, order + 1) * math.pi / (order + 1)
        cos_1, w_1 = np.cos(theta), (math.pi / (order + 1)) * np.sin(theta) ** 2
        inner = build_rule.__wrapped__(2, order)  # not memoized: one cache slot per S^3 order
        return SphericalRule(3, order, layers=(inner, np.sqrt(1.0 - cos_1**2), cos_1, w_1))
    cos_t, w_t = np.polynomial.legendre.leggauss(order)  # Gauss-Legendre layers of a ring
    m = 2 * order
    phi = 2.0 * math.pi * np.arange(m) / m
    ring = SphericalRule(1, order, np.column_stack([np.cos(phi), np.sin(phi)]),
                         np.full(m, 2.0 * math.pi / m))
    rule = SphericalRule(2, order, layers=(ring, np.sqrt(1.0 - cos_t**2), cos_t, w_t))
    rule.arrays  # built now, read-only: a slice of them is far cheaper than a generated block
    return rule


# math.fsum is faster up to _FSUM_TERMS values, and the temporaries of _CHUNK stay in cache
_FSUM_TERMS, _CHUNK, _TINY = 512, 8192, np.finfo(float).tiny


class _Sums:
    """Exactly rounded running sums of the rows of (k, B) chunks (see the module docstring)."""
    levels, replay = (), False  # exact level sums, (k,) each; set when math.fsum must replay

    def add(self, chunk: np.ndarray) -> None:
        self.rows, step = len(chunk), max(_CHUNK // len(chunk), 1)
        buffers = np.empty((3, len(chunk) * min(step, chunk.shape[1])))  # q, x - q and sigma
        for start in range(0, chunk.shape[1], step):
            x = chunk[:, start:start + step]
            q, rest, sigma = (buffer[:x.size].reshape(x.shape) for buffer in buffers)
            bits, top = x.shape[1].bit_length(), np.abs(x, out=q).max(axis=1)  # 2^bits > B
            if self.replay or not top.max() < 2.0**964:  # non-finite, or near overflow
                self.replay = True
                return
            sigma[...] = np.ldexp(1.0, np.frexp(top * 2.0**bits)[1])[:, None]  # > 2^bits max|x|
            while sigma[:, 0].min() >= _TINY or not (sigma[x.any(axis=1), 0] < _TINY).any():
                np.add(x, sigma, out=q)
                q -= sigma  # on the grid of 2^-53 sigma, and x - q below it
                self.levels += (q.sum(axis=1),)
                x = np.subtract(x, q, out=rest)
                if not x.any():
                    break
                sigma *= 2.0 ** (bits - 53)
            else:  # a remainder whose sigma is subnormal
                self.replay = True

    def totals(self, replay) -> list:
        """Each row's math.fsum; ``replay()`` streams the chunks again when a guard failed."""
        if self.replay:
            return [math.fsum(chain.from_iterable(chunk[i].tolist() for chunk in replay()))
                    for i in range(self.rows)]
        return [math.fsum(row) for row in np.reshape(self.levels, (-1, self.rows)).T.tolist()]


def _reduce(values: np.ndarray) -> float:
    """Exactly rounded sum, bitwise equal to math.fsum (see the module docstring)."""
    if len(values) <= _FSUM_TERMS:
        return math.fsum(values.tolist())
    (sums := _Sums()).add(values[None])
    return sums.totals(lambda: [values[None]])[0]


def integrate_batch(batch, values, *, euclidean=False, into=None):
    """Fixed-order reduction of sum f * area_element * weight over a rule's batch.

    With ``into``, a running ``_Sums`` of a rule's blocks, ``values`` lists node columns and
    ``euclidean`` a flag for each; their summands are added to it as one (k, B) chunk."""
    if batch.weights is None:
        raise ValueError("the batch carries no rule weights; integrate surface.fields(rule)")
    if into is None:
        return _reduce(_summands(batch, [values], [euclidean])[0])
    into.add(_summands(batch, values, euclidean))


def _summands(batch, values, euclidean) -> np.ndarray:
    """Rows (f * area_element) * weight, as integrate_batch takes them, each with its area."""
    rows = np.empty((len(values), len(batch.weights)))
    for row, f, flag in zip(rows, values, euclidean):
        np.multiply(f, batch.area_element_euclid if flag else batch.area_element, out=row)
        row *= batch.weights
    return rows

