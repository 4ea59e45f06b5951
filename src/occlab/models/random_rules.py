"""Random product-form rules for cross-validation against exact oracles."""

import numpy as np

from .. import rng
from ..rules import OccupancyRule, product_rows, require_bytes


def random_product_rule(n, seed, strength=0.8):
    """Random rule with multilinear survival/colonization products.

    S_i(x) = prod_{j != i} (1 - a_ij x_j),  C_i(x) = 1 - prod_{j != i} (1 - b_ij x_j)
    with independent uniform coefficients scaled by ``strength`` in [0, 1].
    The split identity and the affine-in-own-coordinate property hold by
    construction, and the analytic Jacobian is a product-rule computation.
    """
    if not 0 <= strength <= 1:
        raise ValueError("strength must lie in [0, 1]")
    require_bytes(2 * 8 * n * n)
    a = strength * rng.uniforms(rng.derive_seed(seed, "rand-a"), 0, n, rows=n,
                                tag=rng.TAG_SAMPLER)
    b = strength * rng.uniforms(rng.derive_seed(seed, "rand-b"), 1, n, rows=n,
                                tag=rng.TAG_SAMPLER)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(b, 0.0)

    def prod(coef, x):
        x = np.asarray(x, dtype=np.float64)
        return product_rows(coef, x.reshape(-1, n)).reshape(x.shape)

    def survive(x, t=0):
        return prod(a, x)

    def colonize(x, t=0):
        return 1.0 - prod(b, x)

    def jacobian(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        pa = prod(a, x)
        pb = prod(b, x)
        dS = -a * (pa[:, None] / (1.0 - a * x[None, :]))
        dC = b * (pb[:, None] / (1.0 - b * x[None, :]))
        J = x[:, None] * dS + (1.0 - x)[:, None] * dC
        J[np.arange(n), np.arange(n)] = pa - (1.0 - pb)
        return J

    return OccupancyRule(n=n, split=(survive, colonize),
                         jacobian=jacobian, homogeneous=True,
                         name=f"random-product(n={n},seed={seed})")
