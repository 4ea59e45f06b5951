"""Contact-based epidemic spreading on a network.

Node i is infected in one step by infected node j with probability r_ij
(the reaction matrix, zero diagonal), contacts independent, so

    C_i(x) = 1 - prod_{j != i} (1 - r_ij x_j).

Recovery happens with probability mu; with reinfection allowed before the
next census the survival function is S_i(x) = 1 - mu [1 - C_i(x)],
otherwise simply S_i = 1 - mu.

An alternative extension of the same binary chain to the solid cube writes
both functions through exponentials of weighted sums; it agrees with the
product form on binary states and exposes rank-one second derivatives.

Analytic coefficient summaries: alpha is the max column sum of R, the
mean-square coefficient is ||R||_F / sqrt(n), the mixed-second budget is
the largest element of the Gram matrix G = (R+I)^T (R+I) - I, the
pure-second and third budgets vanish (each local rule is multilinear).
For uniform reactions r_ij = r (i != j) these are closed forms, computed
in O(1) without R: alpha = (n-1) r, beta = r sqrt(n-1), and G has
diagonal (n-1) r^2 and off-diagonal 2r + (n-2) r^2, the larger of which
is big_gamma.

Uniform reactions in product form also make the nodes exchangeable: on a
binary state with k occupied nodes the product factor is (1 - r)^(k-1) at
an occupied node and (1 - r)^k at an empty one, so the chain step needs
only each row's count (the rule's ``by_count``).  The transposed-Jacobian
product is O(n) there (the rule's ``vjp``): off the diagonal, column j of
the Jacobian is r / (1 - r x_j) times the vector coef_i pf_i.

A mean-field model (``mean_field``) keeps only n and r: the product form,
its count table, transposed-Jacobian product, dense Jacobian and
coefficients read the scalar r, so no n x n array is formed.  Its
``R_matrix`` is built on first read, by the exponential form or a caller
that needs the dense matrix, after a size check.  A model built from an
explicit R is scanned once for uniformity and takes the same r paths when
it is uniform.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ..rules import CoefficientSet, OccupancyRule, product_rows, require_bytes
from ..deterministic import (det_trajectory, find_equilibrium, spectral_radius)


class _Uniform(NamedTuple):
    """What ``mean_field`` passes as the reaction matrix: r_ij = r off the
    diagonal of an n x n matrix that is not formed."""
    n: int
    r: float


@dataclass(frozen=True)
class SpreadingModel:
    R_matrix: np.ndarray          # (n, n) in [0, 1), zero diagonal
    mu: float                     # recovery probability
    reinfection: bool = False
    domain_form: str = "product"  # 'product' or 'exponential'

    def __post_init__(self):
        R = self.R_matrix
        if isinstance(R, _Uniform):
            # a mean field keeps n and r; R is built on its first read
            n, uniform = R
            if not 0 <= uniform < 1:
                raise ValueError("reaction probabilities must lie in [0, 1)")
            vars(self).pop("R_matrix")
            object.__setattr__(self, "_mean_field", R)
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

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a mean field's R
        if name != "R_matrix" or "_mean_field" not in vars(self):
            raise AttributeError(name)
        n, r = self._mean_field
        require_bytes(8 * n * n)
        R = np.full((n, n), r)
        np.fill_diagonal(R, 0.0)
        object.__setattr__(self, "R_matrix", R)
        return R

    def __repr__(self):   # reads no R, so it never builds a mean field's
        return (f"SpreadingModel(n={self.n}, uniform_r={self._uniform_r}, mu={self.mu}, "
                f"reinfection={self.reinfection}, domain_form={self.domain_form!r})")

    @property
    def n(self):
        return self._n


def mean_field(n, rbar, mu, reinfection=False, domain_form="product"):
    """Uniform all-to-all reactions r_ij = rbar/n off the diagonal.

    The model keeps n and r; its ``R_matrix`` is built on first read."""
    R = _Uniform(n, float(rbar / n)) if n > 1 else np.zeros((n, n))
    return SpreadingModel(R_matrix=R, mu=mu, reinfection=reinfection,
                          domain_form=domain_form)


def _is_binary(x):
    return bool(((x == 0.0) | (x == 1.0)).all())


def _product_factor(model):
    """x -> prod_{j != i} (1 - r_ij x_j) for each i, batched over leading axes."""
    n = model.n
    r = model._uniform_r
    if r is not None:
        def factor(x, t=0):
            x = np.asarray(x, dtype=np.float64)
            lg = np.log1p(-r * x.reshape(-1, n))
            return np.exp(lg.sum(axis=1, keepdims=True) - lg).reshape(x.shape)
        return factor

    R = model.R_matrix
    # log1p(-R).T, built on the first binary call (two threads that race to
    # it build the same table), so a rule that never simulates holds no copy
    log_keep = None

    def factor(x, t=0):
        nonlocal log_keep
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, n)
        if _is_binary(flat):
            # on binary states log(1 - r_ij x_j) = x_j log(1 - r_ij): one matmul
            if log_keep is None:
                log_keep = np.log1p(-R).T
            out = np.exp(flat @ log_keep)
        else:
            out = product_rows(R, flat)
        return out.reshape(x.shape)
    return factor


def spreading_rule(model):
    """Occupancy rule with analytic split, Jacobian and coefficients, plus
    the count table and the O(n) transposed-Jacobian product for uniform
    reactions in product form."""
    n = model.n
    mu = model.mu
    r = model._uniform_r

    if model.domain_form == "exponential":
        S_mat = n * np.abs(np.log1p(-model.R_matrix))

        def prod_factor(x, t=0):
            x = np.asarray(x, dtype=np.float64)
            return np.exp(-(x @ S_mat.T) / n)
    else:
        prod_factor = _product_factor(model)
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
        if model.domain_form == "exponential":
            jac = np.divide(S_mat, n)
            np.multiply(jac, pf[:, None], out=jac)
        else:
            # product form: d_j prod_{k != i}(1 - r_ik x_k) = -r_ij * deleted product
            # (1 - r_ij x_j >= 1 - r_ij > 0, so dividing the factor out is safe);
            # a uniform r broadcasts to the same off-diagonal entries as R
            jac = np.empty((n, n))
            np.multiply(react, x[None, :], out=jac)
            np.subtract(1.0, jac, out=jac)
            np.divide(pf[:, None], jac, out=jac)
            np.multiply(react, jac, out=jac)
        coef, diag = coef_diag(x, pf)
        np.multiply(coef[:, None], jac, out=jac)
        jac[np.arange(n), np.arange(n)] = diag
        return jac

    by_count = vjp = None
    if r is not None and model.domain_form == "product":
        # exchangeable nodes: a binary row with k occupied nodes has product
        # factor (1 - r)^(k - 1) at an occupied node and (1 - r)^k at an empty one
        log_keep = math.log1p(-r)

        def by_count(k, t=0):
            k = np.asarray(k, dtype=np.float64)
            if model.reinfection:
                # a row with no occupied node reads no S: take k = 1 there, as
                # (1 - r)^(-1) would put S below 0 once r > 1 - mu
                s = 1.0 - mu * np.exp((np.maximum(k, 1.0) - 1.0) * log_keep)
            else:
                s = np.full(k.shape, 1.0 - mu)
            return s, 1.0 - np.exp(k * log_keep)

        def vjp(x, t, g):
            # column j of the Jacobian off the diagonal is r / (1 - r x_j) times
            # coef_i pf_i, so J^T g needs the sum of a = coef * pf * g once
            x = np.asarray(x, dtype=np.float64)
            pf = prod_factor(x)
            coef, diag = coef_diag(x, pf)
            a = coef * pf * g
            return r / (1.0 - r * x) * (a.sum() - a) + diag * g

    def coeff_oracle(t):
        if r is not None:   # set only for n >= 2; G is never formed
            return CoefficientSet(
                alpha=(n - 1) * r,
                beta=r * math.sqrt(n - 1),
                big_gamma=max(2 * r + (n - 2) * r * r, (n - 1) * r * r),
                gamma=0.0,
                delta=0.0)
        R = model.R_matrix
        off = ~np.eye(n, dtype=bool)
        G = (R + np.eye(n)).T @ (R + np.eye(n)) - np.eye(n)
        return CoefficientSet(
            alpha=float(np.abs(R).sum(axis=0).max()),
            beta=float(math.sqrt((R[off] ** 2).sum() / n)),
            big_gamma=float(G.max()),
            gamma=0.0,
            delta=0.0)

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
    from ..rules import rule_jacobian
    j_inf = rule_jacobian(rule, eq.p_inf, 0)
    return ThresholdReport(reaction_radius=r_R, mu=model.mu,
                           verdict="endemic-possible", p_inf=eq.p_inf,
                           residual=eq.residual,
                           equilibrium_radius=spectral_radius(j_inf))
