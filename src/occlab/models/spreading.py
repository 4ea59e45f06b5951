"""Contact-based epidemic spreading on a network.

Node i is infected in one step by infected node j with probability r_ij
(the reaction matrix, zero diagonal), contacts independent, so

    C_i(x) = 1 - prod_{j != i} (1 - r_ij x_j).

Recovery happens with probability mu; with reinfection allowed before the
next census the survival function is S_i(x) = 1 - mu [1 - C_i(x)],
otherwise simply S_i = 1 - mu.

An alternative extension of the same binary chain to the solid cube, the
exponential form, takes the product factor's binary-state value
exp(sum_j x_j log(1 - r_ij)) at every x.  Both forms read one log table,
log1p(-R).T, so they agree bit for bit on binary states; the exponential
form is not multilinear (its second derivatives are rank one).

Analytic coefficient summaries of W = R (product form) or of
W = L = -log1p(-R) >= R, the sups of the exponential form's first
partials: alpha is the max column sum of W, the mean-square coefficient
||W||_F / sqrt(n), the mixed-second budget the largest element of
G = (W+I)^T (W+I) - I.  The product form is multilinear, so its pure-second
and third budgets vanish; the exponential form's are gamma = sum(L^2) / n
and delta = max(L^T q + q), q the row sums of L^2.  Uniform reactions
r_ij = r (i != j) give closed forms in w = r or w = -log1p(-r), O(1)
without R.

Uniform reactions also make the nodes exchangeable: in both forms a binary
state with k occupied nodes has factor (1 - r)^(k-1) at an occupied node
and (1 - r)^k at an empty one, so the chain step needs only each row's
count (the rule's ``by_count``), and the transposed-Jacobian product (the
rule's ``vjp``) is O(n).  A mean-field model (``mean_field``) is (n, r) in
every path: its ``R_matrix`` is the marker ``_Uniform(n, r)``, and no
n x n array is formed.  A model built from an explicit R is scanned once
for uniformity and takes the same r paths when it is uniform.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..rules import CoefficientSet, OccupancyRule, product_rows, rule_jacobian
from ..deterministic import (det_trajectory, find_equilibrium, spectral_radius)


class _Uniform(NamedTuple):
    """What ``mean_field`` passes as the reaction matrix: r_ij = r off the
    diagonal of an n x n matrix that is not formed."""
    n: int
    r: float


@dataclass(frozen=True)
class SpreadingModel:
    R_matrix: np.ndarray          # (n, n) in [0, 1), zero diagonal; a mean field's _Uniform(n, r)
    mu: float                     # recovery probability
    reinfection: bool = False
    domain_form: str = "product"  # 'product' or 'exponential'

    def __post_init__(self):
        R = self.R_matrix
        if isinstance(R, _Uniform):
            n, uniform = R
            if not 0 <= uniform < 1:
                raise ValueError("reaction probabilities must lie in [0, 1)")
        else:
            R = np.asarray(R, dtype=np.float64)
            object.__setattr__(self, "R_matrix", R)
            if R.ndim != 2 or R.shape[0] != R.shape[1]:
                raise ValueError("reaction matrix must be square")
            if np.abs(np.diag(R)).max(initial=0.0) != 0.0:
                raise ValueError("reaction matrix must have zero diagonal")
            if R.min() < 0 or R.max() >= 1:
                raise ValueError("reaction probabilities must lie in [0, 1)")
            n, uniform = R.shape[0], None
        if not 0 <= self.mu <= 1:
            raise ValueError("recovery probability must lie in [0, 1]")
        if self.domain_form not in ("product", "exponential"):
            raise ValueError("domain_form must be 'product' or 'exponential'")
        if uniform is None and n > 1:
            # uniform all-to-all reactions admit an O(n) update; detect once.
            # The diagonal is zero, so R is uniform iff n^2 - n entries equal
            # R[0, 1] (or all n^2 when that is 0); counting row blocks copies
            # no n x n array.
            r = float(R[0, 1])
            hits = sum(int(np.count_nonzero(R[lo:lo + 256] == r))
                       for lo in range(0, n, 256))
            if hits == (n * n if r == 0.0 else n * n - n):
                uniform = r
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_uniform_r", uniform)

    @property
    def n(self):
        return self._n


def mean_field(n, rbar, mu, reinfection=False, domain_form="product"):
    """Uniform all-to-all reactions r_ij = rbar/n off the diagonal, kept as
    n and r: no n x n matrix is formed."""
    R = _Uniform(n, float(rbar / n)) if n > 1 else np.zeros((n, n))
    return SpreadingModel(R_matrix=R, mu=mu, reinfection=reinfection,
                          domain_form=domain_form)


def _product_factor(model):
    """``(factor, log_keep)``: x -> prod_{j != i} (1 - r_ij x_j) for each i,
    batched over leading axes, and the log table it reads.

    ``log_keep()`` is log1p(-R).T, built on its first call (two threads that
    race to it build the same table), or the scalar log1p(-r) of a uniform
    model.  On binary states the factor equals exp(x @ log1p(-R).T); the
    exponential form takes that log-linear expression at every x, which is
    exp(log1p(-r) (sum(x) - x_i)) when uniform."""
    n = model.n
    r = model._uniform_r
    exponential = model.domain_form == "exponential"
    if r is not None:
        ell = math.log1p(-r)

        def factor(x, t=0):
            x = np.asarray(x, dtype=np.float64)
            flat = x.reshape(-1, n)
            if exponential:
                return np.exp((flat.sum(axis=1, keepdims=True) - flat) * ell).reshape(x.shape)
            lg = np.log1p(-r * flat)
            return np.exp(lg.sum(axis=1, keepdims=True) - lg).reshape(x.shape)
        return factor, lambda: ell

    R = model.R_matrix
    table = None

    def log_keep():
        nonlocal table
        if table is None:
            table = np.log1p(-R).T
        return table

    def factor(x, t=0):
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, n)
        if exponential or ((flat == 0.0) | (flat == 1.0)).all():
            # on binary states log(1 - r_ij x_j) = x_j log(1 - r_ij): one matmul
            out = np.exp(flat @ log_keep())
        else:
            out = product_rows(R, flat)
        return out.reshape(x.shape)
    return factor, log_keep


def spreading_rule(model):
    """Occupancy rule with analytic split, Jacobian and coefficients, plus
    the count table and the O(n) transposed-Jacobian product for uniform
    reactions."""
    n = model.n
    mu = model.mu
    r = model._uniform_r
    exponential = model.domain_form == "exponential"
    prod_factor, log_keep = _product_factor(model)
    # the reactions the product-form Jacobian reads: the scalar r when uniform
    react = model.R_matrix if r is None else r

    def colonize(x, t=0):
        return 1.0 - prod_factor(x)

    if model.reinfection:
        def survive(x, t=0):
            return 1.0 - mu * prod_factor(x)
    else:
        def survive(x, t=0):
            # a read-only view: the chain step reads S, it never writes it
            return np.broadcast_to(1.0 - mu, np.shape(x))

    def evaluate(x, t=0):
        # the derived x * S + (1 - x) * C, with one product factor for S and C
        x = np.asarray(x, dtype=np.float64)
        pf = prod_factor(x)
        s = 1.0 - mu * pf if model.reinfection else 1.0 - mu
        return x * s + (1.0 - x) * (1.0 - pf)

    def coef_diag(x, pf):
        """coef with J_ij = coef_i * (-d_j pf_i) off the diagonal, and J_ii."""
        if model.reinfection:
            return mu * x + (1.0 - x), (1.0 - mu * pf) - (1.0 - pf)
        return 1.0 - x, (1.0 - mu) - (1.0 - pf)

    def jacobian(x, t=0):
        # assembled in one n x n array: J_ij = coef_i * (-d_j prod_factor_i)
        x = np.asarray(x, dtype=np.float64)
        pf = prod_factor(x)
        jac = np.empty((n, n))
        if exponential:
            # d_j exp(sum_k x_k log(1 - r_ik)) = log(1 - r_ij) * factor
            keep = log_keep() if r is not None else log_keep().T
            np.multiply(keep, -pf[:, None], out=jac)
        else:
            # product form: d_j prod_{k != i}(1 - r_ik x_k) = -r_ij * deleted product
            # (1 - r_ij x_j >= 1 - r_ij > 0, so dividing the factor out is safe);
            # a uniform r broadcasts to the same off-diagonal entries as R
            np.multiply(react, x[None, :], out=jac)
            np.subtract(1.0, jac, out=jac)
            np.divide(pf[:, None], jac, out=jac)
            np.multiply(react, jac, out=jac)
        coef, diag = coef_diag(x, pf)
        np.multiply(coef[:, None], jac, out=jac)
        jac[np.arange(n), np.arange(n)] = diag
        return jac

    by_count = vjp = None
    if r is not None:
        # exchangeable nodes: in both forms a binary row with k occupied nodes
        # has factor (1 - r)^(k - 1) at an occupied node and (1 - r)^k at an empty one
        ell = log_keep()

        def by_count(k, t=0):
            k = np.asarray(k, dtype=np.float64)
            if model.reinfection:
                # a row with no occupied node reads no S: take k = 1 there, as
                # (1 - r)^(-1) would put S below 0 once r > 1 - mu
                s = 1.0 - mu * np.exp((np.maximum(k, 1.0) - 1.0) * ell)
            else:
                s = np.full(k.shape, 1.0 - mu)
            return s, 1.0 - np.exp(k * ell)

        def vjp(x, t, g):
            # column j of the Jacobian off the diagonal is w_j times coef_i pf_i,
            # with w_j = r / (1 - r x_j) (product form) or -log1p(-r) (exponential),
            # so J^T g needs the sum of a = coef * pf * g once
            x = np.asarray(x, dtype=np.float64)
            pf = prod_factor(x)
            coef, diag = coef_diag(x, pf)
            a = coef * pf * g
            w = -ell if exponential else r / (1.0 - r * x)
            return w * (a.sum() - a) + diag * g

    def coeff_oracle(t):
        # W = R, or L = -log1p(-R) with the pure second and third budgets
        # of the exponential form, which is not multilinear
        if r is not None:   # set only for n >= 2; G is never formed
            w, m = (-log_keep() if exponential else r), n - 1
            return CoefficientSet(
                alpha=m * w,
                beta=w * math.sqrt(m),
                big_gamma=max(2 * w + (n - 2) * w * w, m * w * w),
                gamma=m * w * w if exponential else 0.0,
                delta=m * m * w ** 3 + m * w * w if exponential else 0.0)
        W = -log_keep().T if exponential else model.R_matrix
        off = ~np.eye(n, dtype=bool)
        G = (W + np.eye(n)).T @ (W + np.eye(n)) - np.eye(n)
        gamma = delta = 0.0
        if exponential:
            q = (W ** 2).sum(axis=1)
            gamma, delta = float(q.sum() / n), float((W.T @ q + q).max())
        return CoefficientSet(
            alpha=float(np.abs(W).sum(axis=0).max()),
            beta=float(math.sqrt((W[off] ** 2).sum() / n)),
            big_gamma=float(G.max()),
            gamma=gamma,
            delta=delta)

    return OccupancyRule(
        n=n, evaluate=evaluate, split=(survive, colonize), jacobian=jacobian,
        coeff_oracle=coeff_oracle, by_count=by_count, vjp=vjp, homogeneous=True,
        name=f"spreading(n={n},mu={mu},reinf={model.reinfection},{model.domain_form})")


@dataclass
class ThresholdReport:
    reaction_radius: float
    mu: float
    verdict: str                     # 'extinction' | 'endemic-possible' | 'no-recovery'
    p_inf: Optional[np.ndarray] = None
    residual: float = float("nan")
    equilibrium_radius: float = float("nan")


def epidemic_threshold(model, horizon=500, tol=1e-10):
    """Classify the long-run phase by the reaction spectral radius versus mu.

    Extinction (reaction radius <= mu) is verified by iterating the
    deterministic recursion from full occupancy; otherwise a positive
    equilibrium is located by fixed-point iteration.
    """
    rule = spreading_rule(model)
    r = model._uniform_r
    if r is not None:   # R = r (11^T - I) has eigenvalues (n - 1) r and -r
        r_R, reacts = (model.n - 1) * r, r > 0
    else:
        r_R, reacts = spectral_radius(model.R_matrix), model.R_matrix.max() > 0
    if model.mu == 0 and reacts:
        return ThresholdReport(reaction_radius=r_R, mu=0.0, verdict="no-recovery")
    if r_R <= model.mu:
        traj = det_trajectory(rule, np.ones(model.n), horizon)
        tail = float(np.abs(traj.p[-1]).max())
        return ThresholdReport(reaction_radius=r_R, mu=model.mu,
                               verdict="extinction", residual=tail)
    eq = find_equilibrium(rule, np.full(model.n, 0.5), tol=tol)
    if rule.vjp is not None:   # rho(J) = rho(J^T), applied in O(n)
        from scipy.sparse.linalg import LinearOperator
        j_inf = LinearOperator((model.n, model.n), dtype=np.float64,
                               matvec=lambda g: rule.vjp(eq.p_inf, 0, np.ravel(g)))
    else:
        j_inf = rule_jacobian(rule, eq.p_inf, 0)
    return ThresholdReport(reaction_radius=r_R, mu=model.mu,
                           verdict="endemic-possible", p_inf=eq.p_inf,
                           residual=eq.residual,
                           equilibrium_radius=spectral_radius(j_inf))
