"""One-dimensional torus cellular automaton with two-site local rules.

Node i looks at itself and its right neighbour (indices mod n):

    P_i(x) = (q2 - q1) x_i x_{i+1} + q1 (1 - x_i) x_{i+1},

so survival is (q2 - q1) x_{i+1} and colonization is q1 x_{i+1}.  The rule
is strictly local, which makes its deterministic companion a poor guide:
the mean projected fluctuation two steps after an iid Bernoulli(p0) start
grows like sqrt(n) and admits the exact closed form computed in
:func:`dk_exact_mean_zeta2`.

An iid start is realized with a state-independent first step: the rule at
time 0 returns p0 everywhere, so the chain state at time 1 is the iid
sample and the two automaton steps land at time 3 (see
:func:`dk_device_time`).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..rules import CoefficientSet, OccupancyRule


@dataclass(frozen=True)
class DomanyKinzel:
    n: int
    q1: float
    q2: float
    p0: float = 0.5

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("torus length must be at least 3")
        for name in ("q1", "q2", "p0"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.q2 < self.q1:
            raise ValueError("need q1 <= q2: survival is (q2 - q1) x_{i+1}")


def _right(x, scale):
    """scale * x shifted one node along the ring (node i reads node i + 1),
    formed in one array."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    out[..., :-1] = x[..., 1:]
    out[..., -1] = x[..., 0]
    out *= scale
    return out


def dk_rule(model, iid_start=True):
    """Torus automaton rule; with ``iid_start`` the step at time 0 is the
    constant rule p0 (the chain at time 1 is then iid Bernoulli(p0))."""
    n, q1, q2, p0 = model.n, model.q1, model.q2, model.p0
    b = q2 - 2.0 * q1

    def survive_dk(x, t=0):
        return _right(x, q2 - q1)

    def colonize_dk(x, t=0):
        return _right(x, q1)

    def jac_dk(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        J = np.zeros((n, n))
        idx = np.arange(n)
        nxt = (idx + 1) % n
        J[idx, idx] = b * x[nxt]
        J[idx, nxt] = q1 + b * x[idx]
        return J

    dk_coeffs = CoefficientSet(
        alpha=max(q1, abs(q2 - q1)),
        beta=max(q1, abs(q2 - q1)),
        big_gamma=abs(b),
        gamma=0.0,
        delta=0.0)
    zero_coeffs = CoefficientSet(0.0, 0.0, 0.0, 0.0, 0.0)

    plain = OccupancyRule(
        n=n, split=(survive_dk, colonize_dk),
        jacobian=jac_dk, coeff_oracle=lambda t: dk_coeffs,
        homogeneous=True, name=f"domany-kinzel(n={n},q1={q1},q2={q2})")
    if not iid_start:
        return plain

    def iid_first(step):
        """``step``, except that every node gets p0 at time 0."""
        def at(x, t=0):
            if t == 0:
                return np.full_like(np.asarray(x, dtype=np.float64), p0)
            return step(x, t)
        return at

    def jacobian(x, t=0):
        if t == 0:
            return np.zeros((n, n))
        return jac_dk(x, t)

    # evaluate is given, not derived: x * p0 + (1 - x) * p0 is not exactly p0
    return OccupancyRule(
        n=n, evaluate=iid_first(plain.evaluate),
        split=(iid_first(survive_dk), iid_first(colonize_dk)), jacobian=jacobian,
        coeff_oracle=lambda t: zero_coeffs if t == 0 else dk_coeffs,
        homogeneous=False,
        name=f"domany-kinzel(n={n},q1={q1},q2={q2},p0={p0})")


def dk_device_time(steps_after_start):
    """Chain time index for ``k`` automaton steps after the iid state.

    With the constant step at time 0, the iid sample sits at time 1, so
    k automaton steps land at time k + 1.
    """
    return steps_after_start + 1


def dk_exact_mean_zeta2(model, h=None):
    """Exact mean of <zeta_2, h> two automaton steps after an iid start.

    With b = q2 - 2 q1 and hbar the arithmetic mean of h,

        E <zeta_2, h> = sqrt(n) hbar b^2 p0^2 (1 - p0) (q1 + b p0).

    Derivation: the only deviation from the deterministic recursion after
    two steps is b * Cov(X_{i,1}, X_{i+1,1}), and conditioning on the iid
    start gives Cov = b p0^2 (1 - p0) (q1 + b p0).  Verified against exact
    enumeration of the chain for n in 3..5.
    """
    n, q1, q2, p0 = model.n, model.q1, model.q2, model.p0
    hbar = 1.0 if h is None else float(np.mean(np.asarray(h, dtype=np.float64)))
    b = q2 - 2.0 * q1
    return math.sqrt(n) * hbar * b ** 2 * p0 ** 2 * (1.0 - p0) * (q1 + b * p0)
