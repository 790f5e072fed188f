"""End-to-end randomized reductions from k-partite planted dense subgraph.

Every pipeline is a deterministic function of (input instance, RngStream):
re-running with the same seed reproduces the output byte for byte.  Pipelines
never read the ground-truth trace to make decisions; when a trace is passed
in they only translate its coordinates so the verifier can condition on the
latent structure of the output.

The three public pipelines are

* ``pds_to_isgm``    — graph to imbalanced sparse Gaussian mixture samples,
* ``pds_to_semi_cr`` — graph to the semirandom community-recovery target law,
* ``pds_to_glsm``    — graph to a general sparse-mixture family given
  likelihood-ratio oracles for the planted marginals,

plus their shared sub-steps (``graph_clone``, ``to_k_partite_submatrix``,
``isgm_sample_clone``), the parameter planner, and the universality-condition
checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .geometry import build_H, is_prime
from .graphs import Graph, PlantedTrace, VertexPartition
from .kernels import (
    ComputablePair,
    gaussianize,
    rejection_delta,
    rk_gauss_mu_bound,
    srk3_array,
    tern_params_from_truncation,
    truncate_tern,
)
from .prob import RngStream, normal_cdf, sample as sample_dist

__all__ = [
    "IsgmInstance",
    "ReductionPlan",
    "clone_Q",
    "clone_pmfs",
    "graph_clone",
    "to_k_partite_submatrix",
    "plan_parameters",
    "pds_to_isgm",
    "sample_isgm",
    "isgm_mu_prime",
    "isgm_sample_clone",
    "pds_to_semi_cr",
    "semi_cr_mus",
    "pds_to_glsm",
    "check_uc",
]


# ---------------------------------------------------------------------------
# Shared parameter arithmetic
# ---------------------------------------------------------------------------

def clone_Q(p: float, q: float) -> float:
    """Q = 1 - sqrt((1-p)(1-q)), with the p = 1 branch collapsing to sqrt(q)."""
    if not (0.0 < q < p <= 1.0):
        raise ParameterError(f"need 0 < q < p <= 1, got p={p}, q={q}")
    Q = 1.0 - math.sqrt((1.0 - p) * (1.0 - q))
    if p == 1.0:
        Q += math.sqrt(q) - 1.0
    return Q


def _next_multiple_above(unit: int, x: float) -> int:
    """Smallest positive multiple of ``unit`` strictly exceeding ``x``."""
    return unit * (int(math.floor(x / unit)) + 1)


def proven_mu_bound(k: int, m: int, r: int, t: int, p: float, Q: float) -> float:
    """The fully explicit mean bound of the proven mixture-reduction regime."""
    delta = rejection_delta(p, Q)
    rt = r ** t
    return (
        delta
        / (2.0 * math.sqrt(3.0 * math.log(k * m * rt) + 2.0 * math.log(1.0 / (p - Q))))
        / math.sqrt(rt * (r - 1))
    )


def smallest_prime_above(x: float) -> int:
    r = int(math.floor(x)) + 1
    while not is_prime(r):
        r += 1
    return r


def isgm_mu_prime(mu: float, eps: float) -> float:
    """The balancing negative mean: eps * mu' + (1 - eps) * mu = 0."""
    return -mu * (1.0 - eps) / eps


def semi_cr_mus(mu: float, ell: int):
    """(mu1, mu2, mu3) of the target graph law after rotation and thresholding."""
    mu1 = float(normal_cdf(0.5 * mu * 3.0 ** (-ell)) - 0.5)
    mu23 = float(normal_cdf(0.5 * mu * 3.0 ** (-ell + 1)) - 0.5)
    return mu1, mu23, mu23


@dataclass
class IsgmInstance:
    """n samples in R^d (one per row) plus the verification trace."""

    samples: np.ndarray
    trace: PlantedTrace

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass
class ReductionPlan:
    """Derived parameters of one reduction run plus the regime report.

    ``report`` maps named proven-regime preconditions to booleans/values; failures
    there are advisory (desk-scale runs routinely violate asymptotic
    conditions), while structural violations raise at pipeline entry.
    """

    target: str
    p: float
    q: float
    N: int
    k: int
    r: int
    t: int
    m: int
    n: int
    d: int
    Q: float
    delta: float
    mu: float
    w: float
    eps: float
    ell: Optional[int] = None
    c: float = 1.0
    report: dict = field(default_factory=dict)

    @property
    def rt(self) -> int:
        return self.r ** self.t

    @property
    def n_hyperplanes(self) -> int:
        return (self.rt - 1) // (self.r - 1)

    def to_dict(self) -> dict:
        doc = {
            k: v
            for k, v in self.__dict__.items()
            if k != "report"
        }
        doc["report"] = self.report
        return doc


def _regime_report(plan: ReductionPlan) -> dict:
    kl = plan.k * plan.n_hyperplanes
    bound = proven_mu_bound(plan.k, plan.m, plan.r, plan.t, plan.p, plan.Q)
    report = {
        "k_divides_N": plan.N % plan.k == 0,
        "k_le_QN_over_4": plan.k <= plan.Q * plan.N / 4.0,
        "m_exceeds_(p/Q+1)N": plan.m > (plan.p / plan.Q + 1.0) * plan.N,
        "m_le_k_r^t": plan.m <= plan.k * plan.rt,
        "m_le_d": plan.m <= plan.d,
        "w_n_le_k_ell": plan.w * plan.n <= kl,
        "mu_le_proven_bound": plan.mu <= bound * (1 + 1e-12),
        "proven_mu_bound": bound,
        "k_sq_over_N": plan.k ** 2 / plan.N,
        "n_over_eps_N": plan.n / (plan.eps * plan.N),
    }
    if plan.target == "SEMI_CR":
        report.pop("m_le_k_r^t")
        report.pop("w_n_le_k_ell")
        report["(3^l-1)k_divides_m"] = plan.m % ((3 ** plan.ell - 1) * plan.k) == 0
        report["n_ge_m_rotated"] = plan.n >= plan.m // 2
    return report


def plan_parameters(
    target: str,
    p: float,
    q: float,
    w: float,
    *,
    eps: Optional[float] = None,
    r: Optional[int] = None,
    N: Optional[int] = None,
    k: Optional[int] = None,
    n: Optional[int] = None,
    d: Optional[int] = None,
    t: Optional[int] = None,
    ell: Optional[int] = None,
    beta: Optional[float] = None,
    c: float = 1.0,
) -> ReductionPlan:
    """Derive a full parameter plan for one reduction target.

    ISGM      needs (N, k) of the input graph and eps (or the prime r);
              n and d default to floor(k*l/w) and m.
    SEMI_CR   needs (N, k) and the blowup ell >= 2 (or the exponent beta);
              n defaults to the embedded matrix size m, and mu is the
              Gaussian kernel's proven bound at size m.
    GLSM      needs target (n, k); derives the source size; r is 2 and d
              defaults to m.

    Structural impossibilities raise ParameterError; asymptotic conditions
    that merely fail at finite size are recorded in ``plan.report``.
    """
    if target not in ("ISGM", "SEMI_CR", "GLSM"):
        raise ParameterError(f"unknown reduction target {target!r}")
    Q = clone_Q(p, q)
    delta = rejection_delta(p, Q)
    if not 0.0 < w < math.inf:
        raise ParameterError(f"w must be positive and finite, got {w}")

    if target == "ISGM":
        if N is None or k is None:
            raise ParameterError("ISGM planning needs the source sizes N and k")
        if r is None:
            if eps is None:
                raise ParameterError("ISGM planning needs eps or r")
            r = smallest_prime_above(1.0 / eps)
        if not is_prime(r):
            raise ParameterError(f"r={r} is not prime")
        eps = 1.0 / r
        m = _next_multiple_above(k, (p / Q + 1.0) * N)
        if t is None:
            t = 2
            while k * r ** t < m:
                t += 1
                if r ** t >= 2 ** 62:
                    raise ParameterError("no 64-bit power r^t accommodates m")
        elif t < 2 or k * r ** t < m:
            raise ParameterError(f"explicit t={t} needs t >= 2 and k r^t >= m = {m}")
        ellh = (r ** t - 1) // (r - 1)
        if n is None:
            n = max(1, int(k * ellh / w))
        if d is None:
            d = m
        mu = c * proven_mu_bound(k, m, r, t, p, Q)
        plan = ReductionPlan("ISGM", p, q, N, k, r, t, m, n, d, Q, delta, mu, w, eps, c=c)

    elif target == "SEMI_CR":
        if N is None or k is None:
            raise ParameterError("SEMI_CR planning needs the source sizes N and k")
        if ell is None:
            if beta is None:
                raise ParameterError("SEMI_CR planning needs ell or beta")
            ell = max(2, math.ceil(math.log(N ** beta / k, 3)))
        if not isinstance(ell, (int, np.integer)) or ell < 2:
            # the block rotation H_{3,ell} needs ell >= 2, and ell = 1 plants nothing
            raise ParameterError(f"ell must be an integer >= 2, got {ell!r}")
        ell = int(ell)
        unit = (3 ** ell - 1) * k
        m = _next_multiple_above(unit, (p / Q + 1.0) * N)
        if n is None:
            n = m
        mu = rk_gauss_mu_bound(p, Q, m)
        plan = ReductionPlan(
            "SEMI_CR", p, q, N, k, 3, ell, m, n, m // 2, Q, delta, mu, w, 1.0 / 3.0,
            ell=ell, c=c,
        )
        mu1, mu2, mu3 = semi_cr_mus(mu, ell)
        plan.report.update({"mu1": mu1, "mu2": mu2, "mu3": mu3,
                            "planted_size": (3 ** (ell - 1) - 1) * k // 2})

    else:  # GLSM
        if n is None or k is None:
            raise ParameterError("GLSM planning needs n and k")
        r = 2
        t = 2
        while 2 ** t <= w * k or k * (2 ** t - 1) < w * n:
            t += 1
        N = (int((2 ** t) * k / (p / Q + 1.0)) // k) * k
        m = _next_multiple_above(k, (p / Q + 1.0) * N)
        while N >= k and m > k * 2 ** t:
            N -= k
            m = _next_multiple_above(k, (p / Q + 1.0) * N)
        if N < k:
            raise ParameterError("planned source size collapsed below k")
        if d is None:
            d = m
        mu_fig = c * math.sqrt(k / (N * math.log(n)))
        mu_cap = proven_mu_bound(k, m, r, t, p, Q)
        mu = min(mu_fig, mu_cap)
        plan = ReductionPlan("GLSM", p, q, N, k, r, t, m, n, d, Q, delta, mu, w, 0.5, c=c)
        plan.report["mu_uncapped"] = mu_fig
        plan.report["mu_capped_at_proven_bound"] = mu_fig > mu_cap

    plan.report.update(_regime_report(plan))
    return plan


# ---------------------------------------------------------------------------
# Graph cloning
# ---------------------------------------------------------------------------

def clone_pmfs(p, q, P, Q, t):
    """Both per-edge output pmfs over {0,1}^t; index i encodes v via its bits.

    Returns (edge_pmf, nonedge_pmf) and raises ParameterError (naming the
    offending vector) on a negative mass or a sum away from 1.
    """
    if not (0.0 < q < p <= 1.0 and 0.0 < Q < P <= 1.0):
        raise ParameterError("need 0 < q < p <= 1 and 0 < Q < P <= 1")
    lhs = (1.0 - p) / (1.0 - q)
    if lhs > ((1.0 - P) / (1.0 - Q)) ** t * (1 + 1e-12):
        raise ParameterError(
            "(1-p)/(1-q) <= ((1-P)/(1-Q))^t fails: the edge pmf would be "
            f"negative at v={'0' * t}"
        )
    if (P / Q) ** t > (p / q) * (1 + 1e-12):
        raise ParameterError(
            "(P/Q)^t <= p/q fails: the non-edge pmf would be negative at "
            f"v={'1' * t}"
        )
    idx = np.arange(2 ** t, dtype=np.uint64)
    ones = np.zeros(2 ** t, dtype=np.int64)
    for b in range(t):
        ones += ((idx >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
    base_P = P ** ones * (1.0 - P) ** (t - ones)
    base_Q = Q ** ones * (1.0 - Q) ** (t - ones)
    pmf_edge = ((1.0 - q) * base_P - (1.0 - p) * base_Q) / (p - q)
    pmf_nonedge = (p * base_Q - q * base_P) / (p - q)
    for name, pmf in (("edge", pmf_edge), ("non-edge", pmf_nonedge)):
        bad = np.flatnonzero(pmf < -1e-12)
        if bad.size:
            v = format(int(bad[0]), f"0{t}b")[::-1]
            raise ParameterError(
                f"{name} clone pmf is negative ({pmf[bad[0]]:.3e}) at v={v}"
            )
        total = float(pmf.sum())
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"{name} clone pmf sums to {total}, not 1")
    return np.clip(pmf_edge, 0.0, None), np.clip(pmf_nonedge, 0.0, None)


def graph_clone(G: Graph, t_copies: int, p, q, P, Q, rng: RngStream):
    """Split one planted-subgraph sample into ``t_copies`` independent ones.

    Exact Markov kernel: G(n, q) inputs map to G(n, Q)^{x t} and
    G(n, S, p, q) inputs to G(n, S, P, Q)^{x t}, for every S.
    """
    if t_copies < 1 or t_copies > 30:
        raise ParameterError(f"t_copies must lie in [1, 30], got {t_copies}")
    pmf_edge, pmf_nonedge = clone_pmfs(p, q, P, Q, t_copies)
    gen = rng.child("clone").generator()
    e = G.triu_vector()
    u = gen.random(e.size)
    code_edge = np.searchsorted(np.cumsum(pmf_edge) / pmf_edge.sum(), u, side="right")
    code_non = np.searchsorted(np.cumsum(pmf_nonedge) / pmf_nonedge.sum(), u, side="right")
    code = np.where(e, code_edge, code_non).astype(np.uint64)
    return [
        Graph.from_triu(G.n, ((code >> np.uint64(b)) & np.uint64(1)).astype(bool))
        for b in range(t_copies)
    ]


# ---------------------------------------------------------------------------
# To-k-partite-submatrix
# ---------------------------------------------------------------------------

def to_k_partite_submatrix(G: Graph, E: VertexPartition, p, q, m, rng: RngStream,
                           trace: Optional[PlantedTrace] = None):
    """Embed a k-PDS instance into an m x m Bernoulli matrix with planted
    diagonals, preserving the k-partite promise.

    Returns ``(M, F, out_trace)`` where M is uint8, F is the contiguous
    partition of the rows/columns of M, and out_trace (when a trace was
    supplied) records the embedded planted k-subset U with |U ∩ F_i| = 1.
    """
    N, k = E.n, E.k
    if G.n != N:
        raise ParameterError(f"graph has {G.n} vertices, partition covers {N}")
    Q = clone_Q(p, q)
    if m % k != 0:
        raise ParameterError(f"k={k} must divide m={m}")
    if m < (p / Q + 1.0) * N:
        raise ParameterError(f"m={m} must be at least (p/Q + 1) N = {(p / Q + 1) * N:.2f}")
    if k > Q * N / 4.0:
        raise ParameterError(f"need k <= Q N / 4 = {Q * N / 4.0:.2f}, got k={k}")

    G1, G2 = graph_clone(G, 2, p, q, p, Q, rng.child("clone2"))
    A1 = G1.to_dense()
    A2 = G2.to_dense()
    gen = rng.child("embed").generator()

    M = (gen.random((m, m)) < Q).astype(np.uint8)
    np.fill_diagonal(M, 0)
    F = VertexPartition.contiguous(m, k)
    mk = m // k
    Nk = N // k
    planted = None
    out_planted = []
    if trace is not None and trace.planted_set is not None:
        planted = np.asarray(trace.planted_set, dtype=np.int64)

    # The union of the per-part embeddings carries the whole input graph:
    # S collects the embedded positions, src their source vertices under the
    # part-wise uniform bijections pi_t : S_t -> E_t.
    S_all = np.empty(N, dtype=np.int64)
    src_all = np.empty(N, dtype=np.int64)
    diag_T1 = []
    diag_T2 = []
    for part_idx, E_part in enumerate(E.parts()):
        F_part = np.arange(part_idx * mk, (part_idx + 1) * mk)
        S_t = np.sort(gen.choice(F_part, size=Nk, replace=False))
        pi = gen.permutation(E_part)  # pi[j] is the source vertex of S_t[j]
        s1 = int(gen.binomial(Nk, p))
        s2 = int(gen.binomial(mk, Q))
        T1 = gen.choice(Nk, size=s1, replace=False)
        rest = np.setdiff1d(F_part, S_t, assume_unique=False)
        if s2 - s1 > rest.size:
            raise ParameterError(
                f"part {part_idx}: the planted-diagonal draw needs s2 - s1 = "
                f"{s2} - {s1} = {s2 - s1} rows outside the embedded ones, but the "
                f"part has only m/k - N/k = {mk} - {Nk} = {rest.size} "
                f"(m={m}, N={N}, k={k}); this failure grows rare as N grows"
            )
        T2 = gen.choice(rest, size=max(s2 - s1, 0), replace=False)
        S_all[part_idx * Nk:(part_idx + 1) * Nk] = S_t
        src_all[part_idx * Nk:(part_idx + 1) * Nk] = pi
        diag_T1.append(S_t[T1])
        diag_T2.append(T2)
        if planted is not None:
            v = np.intersect1d(planted, E_part)
            if v.size != 1:
                raise ParameterError("trace must plant exactly one vertex per part")
            out_planted.append(int(S_t[int(np.flatnonzero(pi == v[0])[0])]))

    # Upper triangle of the embedded support from the first clone, lower
    # triangle from the second, diagonals from the per-part supports.
    sub1 = A1[np.ix_(src_all, src_all)]
    sub2 = A2[np.ix_(src_all, src_all)]
    block = np.triu(sub1, k=1) + np.tril(sub2, k=-1)
    M[np.ix_(S_all, S_all)] = block
    for T in diag_T1 + diag_T2:
        if len(T):
            M[T, T] = 1

    out_trace = None
    if planted is not None:
        out_trace = PlantedTrace(
            seed=rng.seed,
            planted_set=np.sort(np.array(out_planted, dtype=np.int64)),
            params=dict(trace.params, m=m, Q=Q),
        )
    return M, F, out_trace


# ---------------------------------------------------------------------------
# k-PDS -> ISGM
# ---------------------------------------------------------------------------

def pds_to_isgm(G: Graph, E: VertexPartition, plan: ReductionPlan, rng: RngStream,
                trace: Optional[PlantedTrace] = None, allow_unproven: bool = False,
                rotation_override=None) -> IsgmInstance:
    """Run the full graph-to-mixture reduction under ``plan``.

    Null inputs map (within negligible TV at proven parameters) to
    N(0, I_d)^{x n}; planted inputs map to the imbalanced sparse mixture with
    mean mu on a k-subset of coordinates, positive-component fraction
    1 - eps = 1 - 1/r.  ``rotation_override`` substitutes an arbitrary matrix
    for the incidence rotation and exists for fault-injection tests only.
    """
    p, q, k, m, r, t = plan.p, plan.q, plan.k, plan.m, plan.r, plan.t
    n, d = plan.n, plan.d
    rt, ellh = plan.rt, plan.n_hyperplanes
    if not is_prime(r):
        raise ParameterError(f"r={r} must be prime")
    if m > k * rt or m > d or n > k * ellh:
        raise ParameterError(
            f"structural sizes violated: need m <= k r^t, m <= d, n <= k l "
            f"(m={m}, k r^t={k * rt}, d={d}, n={n}, k l={k * ellh})"
        )
    if not allow_unproven:
        bound = proven_mu_bound(k, m, r, t, p, plan.Q)
        if plan.mu > bound * (1 + 1e-9):
            raise ParameterError(
                f"mu={plan.mu} exceeds the proven bound {bound:.6g}; "
                "pass allow_unproven=True to run anyway"
            )
        if plan.w * n > k * ellh:
            raise ParameterError(
                f"w n = {plan.w * n} exceeds k l = {k * ellh}; "
                "pass allow_unproven=True to run anyway"
            )

    # Step 1: symmetrize and plant diagonals.
    M1, F1, tr1 = to_k_partite_submatrix(G, E, p, q, m, rng.child("submatrix"), trace)

    # Step 2: pad each part to r^t columns with Bern(Q), then permute rows
    # globally and columns within each part.
    gen = rng.child("pad").generator()
    mk = m // k
    M2 = np.empty((m, k * rt), dtype=np.uint8)
    col_perms = []
    for i in range(k):
        fresh = (gen.random((m, rt - mk)) < plan.Q).astype(np.uint8)
        combined = np.concatenate([M1[:, i * mk:(i + 1) * mk], fresh], axis=1)
        perm = gen.permutation(rt)
        M2[:, i * rt:(i + 1) * rt] = combined[:, perm]
        col_perms.append(perm)
    del M1
    row_src = gen.permutation(m)
    M2 = M2[row_src]
    row_new = np.empty(m, dtype=np.int64)
    row_new[row_src] = np.arange(m)

    # Step 3: Gaussianize at entrywise mean sqrt(r^t (r-1)) mu.
    tau_entry = math.sqrt(rt * (r - 1)) * plan.mu
    M_G = gaussianize(M2, p, plan.Q, tau_entry, rng.child("gaussianize"),
                      allow_unproven=allow_unproven)
    del M2

    # Steps 4-6: rotate each part by the incidence matrix, keep n of the
    # k * out_cols rotated columns, and embed them as m random coordinates of
    # n samples in R^d.  Only the kept columns are ever computed: output
    # column c is part c // out_cols rotated by row c % out_cols of H.
    H = build_H(r, t) if rotation_override is None else None
    H_mat = rotation_override if rotation_override is not None else H.matrix
    out_cols = H_mat.shape[0]
    gen6 = rng.child("output").generator()
    col_choice = gen6.choice(k * out_cols, size=n, replace=False)
    row_pos = gen6.choice(d, size=m, replace=False)
    samples = np.empty((n, d))
    for i in range(k):
        kept = np.flatnonzero(col_choice // out_cols == i)
        samples[np.ix_(kept, row_pos)] = (
            H_mat[col_choice[kept] % out_cols] @ M_G[:, i * rt:(i + 1) * rt].T
        )
    del M_G
    others = np.setdiff1d(np.arange(d), row_pos)
    samples[:, others] = gen6.standard_normal((others.size, n)).T

    out_trace = PlantedTrace(seed=rng.seed, params={
        "mu": plan.mu, "eps": plan.eps, "r": r, "t": t, "m": m, "n": n, "d": d,
        "mu_prime": isgm_mu_prime(plan.mu, plan.eps),
    })
    if tr1 is not None:
        U_rows = row_new[tr1.planted_set]
        positive = np.zeros(k * out_cols, dtype=bool)
        for i in range(k):
            u = int(tr1.planted_set[np.searchsorted(tr1.planted_set, i * mk)])
            within_old = u - i * mk  # planted column's pre-permutation slot
            point = int(np.flatnonzero(col_perms[i] == within_old)[0])
            positive[i * out_cols:(i + 1) * out_cols] = H_mat[:, point] > 0
        out_trace.planted_set = np.sort(row_pos[U_rows])
        out_trace.component_set = np.sort(np.flatnonzero(positive[col_choice]))
    return IsgmInstance(samples=samples, trace=out_trace)


def sample_isgm(n: int, k: int, d: int, mu: float, eps: float, rng: RngStream) -> IsgmInstance:
    """Draw directly from the imbalanced sparse Gaussian mixture (planted law)."""
    if not (0 < k <= d):
        raise ParameterError(f"need 0 < k <= d, got k={k}, d={d}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    gen = rng.child("isgm").generator()
    S = np.sort(gen.choice(d, size=k, replace=False))
    positive = gen.random(n) < 1.0 - eps
    X = gen.standard_normal((n, d))
    mu_p = isgm_mu_prime(mu, eps)
    X[np.ix_(positive, S)] += mu
    X[np.ix_(~positive, S)] += mu_p
    trace = PlantedTrace(
        seed=rng.seed,
        planted_set=S,
        component_set=np.flatnonzero(positive),
        params={"mu": mu, "mu_prime": mu_p, "eps": eps, "n": n, "d": d},
    )
    return IsgmInstance(samples=X, trace=trace)


def isgm_sample_clone(inst: IsgmInstance, ell: int, n_prime: int, rng: RngStream) -> IsgmInstance:
    """Blow n samples up to 2^ell n by iterated (X+G)/sqrt2, (X-G)/sqrt2 splits,
    then subsample n_prime of them uniformly.  Means scale by 2^(-ell/2); the
    positive-component count scales exactly by 2^ell before subsampling."""
    if ell < 0:
        raise ParameterError(f"ell must be >= 0, got {ell}")
    n = inst.n
    if n_prime > (2 ** ell) * n:
        raise ParameterError(f"n'={n_prime} exceeds 2^ell n = {(2 ** ell) * n}")
    gen = rng.child("clone").generator()
    X = inst.samples
    comp = None
    if inst.trace.component_set is not None:
        comp = np.zeros(n, dtype=bool)
        comp[inst.trace.component_set] = True
    for _ in range(ell):
        Gm = gen.standard_normal(X.shape)
        X = np.concatenate([(X + Gm) / math.sqrt(2.0), (X - Gm) / math.sqrt(2.0)], axis=0)
        if comp is not None:
            comp = np.concatenate([comp, comp])
    pre_positive = int(comp.sum()) if comp is not None else None
    sel = gen.choice(X.shape[0], size=n_prime, replace=False)
    scale = 2.0 ** (-ell / 2.0)
    params = dict(inst.trace.params)
    for key in ("mu", "mu_prime"):
        if key in params:
            params[key] = params[key] * scale
    params["clone_ell"] = ell
    if pre_positive is not None:
        params["pre_subsample_positive"] = pre_positive
    trace = PlantedTrace(
        seed=rng.seed,
        planted_set=inst.trace.planted_set,
        component_set=None if comp is None else np.flatnonzero(comp[sel]),
        params=params,
    )
    return IsgmInstance(samples=X[sel], trace=trace)


# ---------------------------------------------------------------------------
# k-PDS -> semirandom community recovery
# ---------------------------------------------------------------------------

def pds_to_semi_cr(G: Graph, E: VertexPartition, plan: ReductionPlan, rng: RngStream,
                   trace: Optional[PlantedTrace] = None):
    """Reduce a k-PDS instance to the semirandom community-recovery target law
    under a ``SEMI_CR`` plan.

    Null inputs map to the tg_h0(n, m'', mu1) law and planted inputs to
    tg_h1 with |S| = (3^(ell-1) - 1) k / 2, |S'| = 3^(ell-1) k, where the
    mu's come from the Gaussian CDF of the thresholding step.  The returned
    trace records S (planted_set) plus S' and the rotated vertex set V in
    ``params``.
    """
    if plan.target != "SEMI_CR":
        raise ParameterError(f"pds_to_semi_cr needs a SEMI_CR plan, got {plan.target}")
    if (E.n, E.k) != (plan.N, plan.k):
        raise ParameterError(
            f"partition is over N={E.n}, k={E.k}; the plan is for N={plan.N}, k={plan.k}"
        )
    p, q, Q, k, ell, m, n, mu = plan.p, plan.q, plan.Q, plan.k, plan.ell, plan.m, plan.n, plan.mu
    three_l = 3 ** ell
    s = m // ((three_l - 1) * k)
    m_prime = three_l * k * s
    m_rot = m // 2  # (3^ell - 1) k s / 2 rows survive each block rotation
    if n < m_rot:
        raise ParameterError(f"need n >= {m_rot} output vertices, got n={n}")

    M_PD, F, tr1 = to_k_partite_submatrix(G, E, p, q, m, rng.child("submatrix"), trace)
    M_G = gaussianize(M_PD, p, Q, mu, rng.child("gaussianize"))
    del M_PD

    # Step 3: embed into blocks of size 3^ell, reserving offset 0 of each
    # block (the zero-point column of the rotation) for a fresh index.
    gen = rng.child("pad").generator()
    blk = three_l - 1
    old = np.arange(m)
    new_idx = (old // blk) * three_l + 1 + (old % blk)
    M_P = gen.standard_normal((m_prime, m_prime))
    M_P[np.ix_(new_idx, new_idx)] = M_G
    del M_G

    # Step 4: two-sided block rotation.
    H = build_H(3, ell)
    ks = k * s
    ellh = H.rows
    M4 = M_P.reshape(ks, three_l, ks, three_l)
    M_R = np.einsum("xi,aibj,yj->axby", H.matrix, M4, H.matrix, optimize=True)
    del M_P, M4
    M_R = M_R.reshape(m_rot, m_rot)

    # Step 5: threshold the below-diagonal entries, pad, relabel.
    thr = mu / (2.0 * three_l)
    adj = np.zeros((n, n), dtype=bool)
    low = np.tril_indices(m_rot, k=-1)
    vals = M_R[low] >= thr
    adj[low] = vals
    adj[(low[1], low[0])] = vals
    gen5 = rng.child("pad-vertices").generator()
    if n > m_rot:
        fresh_cols = gen5.random((m_rot, n - m_rot)) < 0.5
        adj[:m_rot, m_rot:] = fresh_cols
        adj[m_rot:, :m_rot] = fresh_cols.T
        fresh_block = np.zeros((n - m_rot, n - m_rot), dtype=bool)
        fiu = np.triu_indices(n - m_rot, k=1)
        fresh_block[fiu] = gen5.random(fiu[0].size) < 0.5
        adj[m_rot:, m_rot:] = fresh_block | fresh_block.T
    vertex_src = gen5.permutation(n)
    adj = adj[np.ix_(vertex_src, vertex_src)]
    label_of = np.empty(n, dtype=np.int64)
    label_of[vertex_src] = np.arange(n)
    G_out = Graph.from_dense(adj)

    mu1, mu2, mu3 = semi_cr_mus(mu, ell)
    params = {
        "mu": mu, "ell": ell, "m": m, "m_rotated": m_rot,
        "mu1": mu1, "mu2": mu2, "mu3": mu3,
        "V": [int(v) for v in np.sort(label_of[:m_rot])],
    }
    out_trace = PlantedTrace(seed=rng.seed, params=params)
    if tr1 is not None:
        U = np.asarray(tr1.planted_set, dtype=np.int64)
        S_rows, S2_rows = [], []
        for u in U:
            b = int(u // blk)
            offset = 1 + int(u % blk)
            col = H.matrix[:, offset]
            S_rows.extend(b * ellh + np.flatnonzero(col < 0))
            S2_rows.extend(b * ellh + np.flatnonzero(col > 0))
        out_trace.planted_set = np.sort(label_of[np.array(S_rows, dtype=np.int64)])
        params["S_prime"] = [int(v) for v in np.sort(label_of[np.array(S2_rows, dtype=np.int64)])]
    return G_out, out_trace


# ---------------------------------------------------------------------------
# k-PDS -> general learning sparse mixtures
# ---------------------------------------------------------------------------

def pds_to_glsm(G: Graph, E: VertexPartition, plan: ReductionPlan, tau: float,
                pair_family: Callable[[float], ComputablePair], D, rng: RngStream,
                trace: Optional[PlantedTrace] = None, allow_unproven: bool = False):
    """Reduce k-PDS to a general sparse-mixture family.

    ``pair_family(nu)`` must return the computable pair (P_nu, Q); ``D`` is a
    DistSpec for the mixing weights, sampled once per output vector and
    clipped to [-1, 1].  Step 1 is the r = 2 mixture reduction at eps = 1/2;
    step 2 truncates every entry to {-1, 0, +1} and pushes it through the
    symmetric 3-ary kernel toward (P_nu, P_-nu, Q).
    """
    if plan.r != 2 or plan.eps != 0.5:
        raise ParameterError("the mixture stage of the GLSM reduction needs r=2, eps=1/2")
    inst = pds_to_isgm(G, E, plan, rng.child("isgm"), trace, allow_unproven)
    n, d = inst.n, inst.d
    a, mu1, mu2 = tern_params_from_truncation(tau, plan.mu)
    n_iter = math.ceil(4.0 * math.log(d * n))
    nus = np.clip(np.asarray(sample_dist(D, rng.child("nu"), size=n), dtype=float), -1.0, 1.0)
    B = truncate_tern(inst.samples, tau)
    X = np.empty((n, d))
    for i in range(n):
        X[i] = srk3_array(
            B[i], pair_family(nus[i]), pair_family(-nus[i]),
            a, mu1, mu2, n_iter, rng.child("srk3", i),
        )
    out_trace = PlantedTrace(
        seed=rng.seed,
        planted_set=inst.trace.planted_set,
        component_set=inst.trace.component_set,
        params=dict(inst.trace.params, tau=tau, a=a, mu1=mu1, mu2=mu2,
                    nu=[float(v) for v in nus]),
    )
    return X, out_trace


def check_uc(n: int, k: int, d: int, D, pair_family, sample_budget: int,
             rng: RngStream, threshold_i: Optional[float] = None,
             threshold_ii: float = 1e-3, nu_draws: int = 32) -> dict:
    """Monte Carlo diagnostic for the universality conditions.

    Condition (i): nu ~ D lies in [-1, 1] except with probability at most
    ``threshold_i`` (default 1/n).  Condition (ii): under each of P_nu,
    P_-nu and Q, the likelihood-ratio statistics satisfy
    |dP_nu/dQ - dP_-nu/dQ| <= 1/sqrt(k log n) and
    |dP_nu/dQ + dP_-nu/dQ - 2| <= 1/(k log n) except with frequency at most
    ``threshold_ii``.  Reports observed quantiles; never raises.
    """
    if threshold_i is None:
        threshold_i = 1.0 / n
    bound1 = 1.0 / math.sqrt(k * math.log(n))
    bound2 = 1.0 / (k * math.log(n))
    gen = rng.child("uc-nu").generator()
    nus = np.asarray(sample_dist(D, rng.child("uc-d"), size=sample_budget), dtype=float)
    in_range = float(np.mean((nus >= -1.0) & (nus <= 1.0)))
    cond_i = in_range >= 1.0 - threshold_i

    per_source = max(1, sample_budget // (3 * nu_draws))
    ratios1, ratios2 = [], []
    viol = 0
    total = 0
    probe = np.clip(nus[:nu_draws], -1.0, 1.0)
    for j, nu in enumerate(probe):
        pp = pair_family(float(nu))
        pm = pair_family(float(-nu))
        for src_idx, src in enumerate((pp.sample_planted, pm.sample_planted, pp.sample_noise)):
            x = np.asarray(src(gen, per_source), dtype=float)
            l1 = pp.likelihood_ratio(x) - pm.likelihood_ratio(x)
            l2 = pp.likelihood_ratio(x) + pm.likelihood_ratio(x) - 2.0
            ok = (np.abs(l1) <= bound1) & (np.abs(l2) <= bound2)
            viol += int((~ok).sum())
            total += x.size
            ratios1.append(np.abs(l1) / bound1)
            ratios2.append(np.abs(l2) / bound2)
    ratios1 = np.concatenate(ratios1)
    ratios2 = np.concatenate(ratios2)
    freq = viol / total
    cond_ii = freq <= threshold_ii
    qs = [0.5, 0.9, 0.99, 0.999]
    return {
        "n": n, "k": k, "d": d,
        "bound_l1": bound1, "bound_l2": bound2,
        "condition_i": {"in_range_freq": in_range, "threshold": threshold_i, "pass": cond_i},
        "condition_ii": {
            "violation_freq": freq,
            "threshold": threshold_ii,
            "pass": cond_ii,
            "l1_over_bound_quantiles": {str(q): float(np.quantile(ratios1, q)) for q in qs},
            "l2_over_bound_quantiles": {str(q): float(np.quantile(ratios2, q)) for q in qs},
        },
        "pass": bool(cond_i and cond_ii),
    }
