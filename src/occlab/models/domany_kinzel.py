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

    def iid(t):
        return iid_start and t == 0

    def start(x):
        return np.full_like(np.asarray(x, dtype=np.float64), p0)

    def survive(x, t=0):
        return start(x) if iid(t) else _right(x, q2 - q1)

    def colonize(x, t=0):
        return start(x) if iid(t) else _right(x, q1)

    # given, not derived, with the iid start: x * p0 + (1 - x) * p0 is not
    # exactly p0; after it, the derived form written out
    def evaluate(x, t=0):
        if iid(t):
            return start(x)
        x = np.asarray(x, dtype=np.float64)
        return x * survive(x, t) + (1.0 - x) * colonize(x, t)

    def jacobian(x, t=0):
        J = np.zeros((n, n))
        if iid(t):
            return J
        x = np.asarray(x, dtype=np.float64)
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

    return OccupancyRule(
        n=n, split=(survive, colonize), evaluate=evaluate if iid_start else None,
        jacobian=jacobian, coeff_oracle=lambda t: zero_coeffs if iid(t) else dk_coeffs,
        homogeneous=not iid_start,
        name=f"domany-kinzel(n={n},q1={q1},q2={q2}" + (f",p0={p0})" if iid_start else ")"))


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
