"""The node kernel's bits, pinned.

Each case's digest is the SHA-256 of every ``SurfaceBatch`` field of ``surface.fields(rule)``
(its name, shape and float64 bytes), then of ``B_sup`` (from ``B_sup_norm``, read first) and
``kappa``, on rules of three and four ``_BLOCK``-node blocks.  The surfaces are the bench's
perturbations and one unperturbed sphere for each n, at four curvatures; the n = 2 degree-3
surfaces take the full-width Hessian, the others its one-column form.  The digests were
written by the kernel before it folded in place and shared its outer products, with NumPy
2.4.6 on x86-64; another NumPy or libm may round ``pow``, ``sqrt`` or the transcendental
functions differently, and then the pins are that build's to rewrite, not a kernel fault.
Print a build's digests with ``python tests/test_kernel_digests.py``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from starpinch.quadrature import build_rule
from starpinch.spaceform import SpaceFormModel
from starpinch.surface import _BLOCK, RadialSurface

ORDERS = {2: 48, 3: 16}  # 4608 and 8192 nodes
SURFACES = {  # n -> (rho0, perturbation) of the bench workloads, then a sphere
    2: [(1.0, (((3, 1), 0.08),)), (1.0, (((3, 1), 0.12), ((2, 0), 0.06))), (1.0, ())],
    3: [(0.9, (("u1u2", 0.04),)), (0.9, (("u1u2", 0.08), ("u1^2-u4^2", 0.04))), (0.9, ())],
}
CASES = [(n, delta, rho0, perturbation) for n in (2, 3) for delta in (-1.0, 0.0, 1.0, 0.37)
         for rho0, perturbation in SURFACES[n]]


def digest(n, delta, rho0, perturbation) -> str:
    surface = RadialSurface(n=n, model=SpaceFormModel(delta=delta, ambient_dim=n + 1),
                            rho0=rho0, perturbation=perturbation)
    batch = surface.fields(build_rule(n, ORDERS[n]))
    names = [*(f.name for f in dataclasses.fields(batch)), "B_sup", "kappa"]
    sha = hashlib.sha256()
    for name in names:
        value = np.asarray(getattr(batch, name), dtype=float)
        sha.update(f"{name}{value.shape}".encode())
        sha.update(value.tobytes())
    return sha.hexdigest()


PINNED = {  # see the module docstring
    (2, -1.0, 1.0, (((3, 1), 0.08),)):
        '2fe0f6ed9c7460c4ac52898a63260447997255e74dee94e6fa933aca4ae5e5ae',
    (2, -1.0, 1.0, (((3, 1), 0.12), ((2, 0), 0.06))):
        '02158c96abd3e8f23f4ff2c8e5057d4872ff93d68405c4caabeea395447566ae',
    (2, -1.0, 1.0, ()):
        '3f766f1faee29eba63b192c65ef8d02ce7428752e2f7c4773cf2d9b887655086',
    (2, 0.0, 1.0, (((3, 1), 0.08),)):
        '252999e4ac336979878717b0fac0c5684a89e5f3ace53fed110f8a6db4457a76',
    (2, 0.0, 1.0, (((3, 1), 0.12), ((2, 0), 0.06))):
        '6acee528ff86daf57c146c56d3e8ee49ced57f7641e484d92ed37b7718722633',
    (2, 0.0, 1.0, ()):
        '532536ae6e2160639a36cbaacbf85ea942295cddcc4d9283fb6a2c49996c1701',
    (2, 1.0, 1.0, (((3, 1), 0.08),)):
        '563c1259dd9fba3bf2949ffd519e0abda5433dfacf0491d4362100582ca7a0ad',
    (2, 1.0, 1.0, (((3, 1), 0.12), ((2, 0), 0.06))):
        '34acf24aac898fe321b843636cf229caba079af14488feb66df151d59304e8f9',
    (2, 1.0, 1.0, ()):
        '2e027f1917d78bf8e26ca129a4ee54e787e68641911dc1fb157b538f41cefbde',
    (2, 0.37, 1.0, (((3, 1), 0.08),)):
        'dfec46007594356fdf34b8b4da527e140fb53bed4e705a42260896970d0e0fac',
    (2, 0.37, 1.0, (((3, 1), 0.12), ((2, 0), 0.06))):
        'b891582c31edecdc8e5b16003caaab83bd735afcf6b8fd2fce6b4b5828ac9d70',
    (2, 0.37, 1.0, ()):
        'c4e8fb2bf2b21299d047d563e9e97193f96877319e01cb0ab98a9b896a785091',
    (3, -1.0, 0.9, (('u1u2', 0.04),)):
        '9dbf4b1aa424e0111c66a755891cad80c66833b2de867bd8ffaa6d17843e5ce2',
    (3, -1.0, 0.9, (('u1u2', 0.08), ('u1^2-u4^2', 0.04))):
        '557c1ed465f97a5e5e1c307bb2deefb77f1a3f3148c1d69c1b8cfc9d71d30dc5',
    (3, -1.0, 0.9, ()):
        '2da3a801eaaea354ebf75d7e54252dc7a67fca6b380972909eee3f7a18a57107',
    (3, 0.0, 0.9, (('u1u2', 0.04),)):
        'c6d131d07a93b84365b631b5ae33fb153e129a1d938ead1a0de17f23b1b2309a',
    (3, 0.0, 0.9, (('u1u2', 0.08), ('u1^2-u4^2', 0.04))):
        'c685ea3e26456eeb147c3d811eace73eb127e10d383df1737a090e7df51f8696',
    (3, 0.0, 0.9, ()):
        'c42f8b1ef22d5221f2cdd4dada361c585f412a612d206ead6948608dc000de10',
    (3, 1.0, 0.9, (('u1u2', 0.04),)):
        '1c4c423083d903f3e5f245ee57dc86c6a0c7ade56cdb4cddbe47e0746e5e5de7',
    (3, 1.0, 0.9, (('u1u2', 0.08), ('u1^2-u4^2', 0.04))):
        '0854649877bd9af8a8d38ffe668e5a81d9e1e4074d82892c295aad038fbe2b01',
    (3, 1.0, 0.9, ()):
        'f1ad88a2d67ec6455226ff3828e778c0768bc47129565dd7d010e12eaaf7ebd1',
    (3, 0.37, 0.9, (('u1u2', 0.04),)):
        'befbcf72dcb0e2727103a48e0149c9c01c8adb8b4c63bca8009701ad91cdcfdd',
    (3, 0.37, 0.9, (('u1u2', 0.08), ('u1^2-u4^2', 0.04))):
        '97d01a12f6df6a91f61cce7246faa50d715dd8655851066a0d9ddbdcf4703919',
    (3, 0.37, 0.9, ()):
        '4a111fa3916ecb1b7118f5b8cbf15522a59f4098df41b7b900eabe3e25d0693d',
}


def test_rules_span_three_blocks():
    assert all(build_rule(n, order).size > 2 * _BLOCK for n, order in ORDERS.items())


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"n{c[0]}-d{c[1]}-{len(c[3])}terms")
def test_the_kernel_keeps_its_bits(case):
    assert digest(*case) == PINNED[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {digest(*case)!r},")
