"""End-to-end randomized reductions from k-partite planted dense subgraph.

Every pipeline is a deterministic function of (input instance, RngStream):
re-running with the same seed reproduces the output byte for byte.  Pipelines
never read the ground-truth trace to make decisions; when a trace is passed
in they only translate its coordinates so the verifier can condition on the
latent structure of the output.

The three public pipelines are

* ``pds_to_isgm``    — graph to imbalanced sparse Gaussian mixture samples,
* ``pds_to_semi_cr`` — graph to the semirandom community-recovery target law,
* ``pds_to_glsm``    — graph to the sparse-PCA (spiked covariance) target,
  the one sparse-mixture family run here: planted marginals N(shift, 1)
  against Q = N(0, 1),

plus their shared sub-steps (``graph_clone``, ``to_k_partite_submatrix``,
``isgm_sample_clone``) and one parameter planner per target
(``plan_isgm``, ``plan_semi_cr``, ``plan_glsm``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import ParameterError
from .geometry import build_H, is_prime
from .graphs import Graph, PlantedTrace, _pair_indices
from .kernels import (
    _srk3_params_check,
    gaussianize,
    gaussianize_mu_bound,
    rejection_delta,
    srk3_array,
    tern_params_from_truncation,
    truncate_tern,
)
from .prob import (RngStream, _check_fits, _random_bands, _run_blocks, normal_cdf,
                   uniform_below)

__all__ = [
    "ReductionPlan",
    "clone_Q",
    "clone_pmfs",
    "graph_clone",
    "to_k_partite_submatrix",
    "plan_isgm",
    "plan_semi_cr",
    "plan_glsm",
    "pds_to_isgm",
    "sample_isgm",
    "isgm_mu_prime",
    "isgm_sample_clone",
    "pds_to_semi_cr",
    "semi_cr_mus",
    "pds_to_glsm",
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


@dataclass(frozen=True)
class ReductionPlan:
    """Derived parameters of one reduction run plus the regime report, from
    ``plan_isgm``, ``plan_semi_cr`` or ``plan_glsm``.

    The planners are the only gate: each takes sizes as positive integers and
    raises ParameterError on any plan its pipeline cannot run, and the plan
    is frozen, so no field leaves what its planner checked.  ``report`` maps
    named proven-regime preconditions to booleans/values; each plan holds a
    read-only copy of its own, which ``dataclasses.replace`` does not share.
    In a returned plan ``k_le_QN_over_4``, ``m_le_d``, ``m_le_k_r^t``,
    ``w_n_le_k_ell``, ``mu_le_proven_bound`` and ``n_ge_m_rotated`` always
    read True (the planner refuses the rest), and so do
    ``m_exceeds_(p/Q+1)N`` and ``(3^l-1)k_divides_m``, by construction.
    The other keys are values, and the pipelines read their derived ones from
    here (SEMI-CR's ``mu1``-``mu3``, GLSM's ``tau``, ``a``, ``mu1``, ``mu2``, ``shift_scale``).
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
    w: Optional[float]
    eps: float
    ell: Optional[int] = None
    report: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "report", MappingProxyType(dict(self.report)))

    @property
    def rt(self) -> int:
        return self.r ** self.t

    @property
    def n_hyperplanes(self) -> int:
        return (self.rt - 1) // (self.r - 1)

    @property
    def mu_bound(self) -> float:
        """The largest proven ``mu``: SEMI-CR's at mu over its m x m submatrix
        (it Gaussianizes that matrix's block lower triangle, whose own bound
        is larger), ISGM's and GLSM's over their m x k r^t matrix at
        sqrt(r^t (r-1)) mu."""
        if self.target == "SEMI_CR":
            return gaussianize_mu_bound(self.p, self.Q, self.m, self.m)
        return (gaussianize_mu_bound(self.p, self.Q, self.m, self.k * self.rt)
                / math.sqrt(self.rt * (self.r - 1)))

    def to_dict(self) -> dict:
        return dict(self.__dict__, report=dict(self.report))


def _admit(plan: ReductionPlan, **report) -> ReductionPlan:
    """Refuse a plan its pipeline cannot run; return it with ``report`` and
    the proven-regime conditions as its report."""
    m, n, k = plan.m, plan.n, plan.k
    if k > plan.Q * plan.N / 4.0:  # the same gate as to_k_partite_submatrix's
        raise ParameterError(f"need k <= Q N / 4 = {plan.Q * plan.N / 4.0:.2f}, got k={k}")
    if plan.target == "SEMI_CR":
        if n < m // 2:  # (3^ell - 1) k s / 2 rows survive each block rotation
            raise ParameterError(f"need n >= m/2 = {m // 2} output vertices, got n={n}")
        report["(3^l-1)k_divides_m"] = m % ((3 ** plan.ell - 1) * k) == 0
        report["n_ge_m_rotated"] = n >= m // 2
        # the largest array the pipeline holds; it Gaussianizes and rotates
        # a few blocks at a time, never its m x m matrix as float64
        _check_fits(*max((m * m, f"the {m} x {m} k-partite matrix, as uint8,"),
                         (n * (n - 1) // 2, f"the {n * (n - 1) // 2} output pairs, as bool,")))
    else:
        # the m rows land on m of the d coordinates, and the n samples are n
        # of the k l rotated columns, at most k l / w of them in the proven
        # regime
        rt, k_ell = plan.rt, k * plan.n_hyperplanes
        if m > plan.d:
            raise ParameterError(f"need m <= d, got m={m}, d={plan.d}")
        if n > k_ell:
            raise ParameterError(f"need n <= k l = {k_ell} rotated columns, got n={n}")
        if plan.w * n > k_ell:
            raise ParameterError(f"w n = {plan.w * n:g} exceeds k l = {k_ell}, outside the "
                                 "proven regime; lower --w or --n")
        report["m_le_k_r^t"] = m <= k * rt
        report["m_le_d"] = m <= plan.d
        report["w_n_le_k_ell"] = plan.w * n <= k_ell
        report["n_over_eps_N"] = n / (plan.eps * plan.N)
        # the largest array the pipeline holds; it Gaussianizes and rotates
        # one block of the padded parts per worker, never a whole part as
        # float64
        _check_fits(*max((8 * n * plan.d, f"the {n} x {plan.d} samples, as float64,"),
                         (m * k * rt, f"the {k} x {m} x {rt} padded parts, as uint8,")))
    bound = plan.mu_bound
    report.update({
        "k_le_QN_over_4": k <= plan.Q * plan.N / 4.0,
        "m_exceeds_(p/Q+1)N": m > (plan.p / plan.Q + 1.0) * plan.N,
        "mu_le_proven_bound": plan.mu <= bound * (1 + 1e-12),
        "proven_mu_bound": bound,
        "k_sq_over_N": k ** 2 / plan.N,
    })
    return replace(plan, report=report)


def _check_sizes(**sizes) -> None:
    for name, v in sizes.items():
        if v is not None and (isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1):
            raise ParameterError(f"{name} must be a positive integer, got {v!r}")


def _clone_Q_delta(p: float, q: float):
    Q = clone_Q(p, q)
    return Q, rejection_delta(p, Q)


def _check_partition(N: int, k: int) -> None:
    # the k-partite promise: the parts [i N/k, (i+1) N/k) of the N vertices
    if N % k:
        raise ParameterError(f"k={k} must divide N={N}")


def _check_w(w: Optional[float]) -> None:
    if w is None or not 0.0 < w < math.inf:
        raise ParameterError(f"w must be positive and finite, got {w}")


def plan_isgm(p: float, q: float, w: float, *, N: int, k: int, eps: Optional[float] = None,
              r: Optional[int] = None, n: Optional[int] = None, d: Optional[int] = None,
              t: Optional[int] = None) -> ReductionPlan:
    """Plan k-PDS -> ISGM from a source of N vertices in k parts (k | N).

    Needs the slow-growth factor w > 0 and either eps in (0, 1) or the prime
    r, not both: eps picks the smallest prime r > 1/eps, and the plan's eps
    is 1/r.  t defaults to the least t >= 2 with k r^t >= m, n to
    floor(k l / w) for l = (r^t - 1) / (r - 1), and d to m.  ``mu`` is the
    proven bound.
    """
    Q, delta = _clone_Q_delta(p, q)
    _check_sizes(N=N, k=k, n=n, d=d, r=r, t=t)
    if eps is not None and not 0.0 < eps < 1.0:  # NaN fails this too
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if eps is not None and r is not None:
        raise ParameterError(f"ISGM planning takes eps or r, not both (eps={eps}, r={r})")
    _check_w(w)
    _check_partition(N, k)
    if r is None:
        if eps is None:
            raise ParameterError("ISGM planning needs eps or r")
        if eps <= 2.0 ** -31:  # r > 1/eps, and r^2 must fit in 64 bits
            raise ParameterError(f"eps={eps} is too small: r^t would overflow 64 bits")
        r = smallest_prime_above(1.0 / eps)
    if not is_prime(r):
        raise ParameterError(f"r={r} is not prime")
    m = _next_multiple_above(k, (p / Q + 1.0) * N)
    if t is None:
        t = 2
        while k * r ** t < m:
            t += 1
    elif t < 2 or k * r ** t < m:
        raise ParameterError(f"explicit t={t} needs t >= 2 and k r^t >= m = {m}")
    if r ** t >= 2 ** 62:
        raise ParameterError(f"r^t = {r}^{t} overflows 64 bits")
    if n is None:
        n = max(1, int(k * ((r ** t - 1) // (r - 1)) / w))
    if d is None:
        d = m
    plan = ReductionPlan("ISGM", p, q, N, k, r, t, m, n, d, Q, delta, 0.0, w, 1.0 / r)
    return _admit(replace(plan, mu=plan.mu_bound))


def plan_semi_cr(p: float, q: float, *, N: int, k: int, ell: int,
                 n: Optional[int] = None) -> ReductionPlan:
    """Plan k-PDS -> SEMI-CR from a source of N vertices in k parts (k | N).

    Needs the blowup ell >= 2 of the rotation over F_3 (r = 3, t = ell); n
    defaults to the embedded matrix size m.  ``mu`` is the proven bound on
    the m x m submatrix, and the report adds the target law's mu1, mu2, mu3.
    """
    Q, delta = _clone_Q_delta(p, q)
    _check_sizes(N=N, k=k, n=n)
    _check_partition(N, k)
    if not isinstance(ell, (int, np.integer)) or ell < 2:
        # the block rotation H_{3,ell} needs ell >= 2, and ell = 1 plants nothing
        raise ParameterError(f"ell must be an integer >= 2, got {ell!r}")
    ell = int(ell)
    m = _next_multiple_above((3 ** ell - 1) * k, (p / Q + 1.0) * N)
    if n is None:
        n = m
    plan = ReductionPlan("SEMI_CR", p, q, N, k, 3, ell, m, n, m // 2, Q, delta, 0.0,
                         None, 1.0 / 3.0, ell=ell)
    plan = replace(plan, mu=plan.mu_bound)
    mu1, mu2, mu3 = semi_cr_mus(plan.mu, ell)
    return _admit(plan, mu1=mu1, mu2=mu2, mu3=mu3,
                  planted_size=(3 ** (ell - 1) - 1) * k // 2)


def plan_glsm(p: float, q: float, w: float, *, n: int, k: int, tau: float, theta: float,
              d: Optional[int] = None) -> ReductionPlan:
    """Plan k-PDS -> GLSM for n >= 2 target samples with planted size k:
    sparse PCA at spike strength ``theta`` >= 0, through truncation at ``tau``.

    Needs the slow-growth factor w > 0; r is 2 and eps 1/2.  The source size
    N is derived, a multiple of k, and d defaults to m.  ``mu`` is
    sqrt(k / (N log n)), capped at the proven bound; the report adds tau,
    theta, the law Tern(a, mu1, mu2) of N(mu, 1) truncated at tau, and the
    shift scale sqrt(3 theta log n / k).
    """
    Q, delta = _clone_Q_delta(p, q)
    _check_sizes(k=k, n=n, d=d)
    _check_w(w)
    if n < 2:  # the planned mean divides by log n
        raise ParameterError(f"GLSM planning needs n >= 2, got n={n}")
    if not 0.0 <= theta < math.inf:  # NaN fails this too
        raise ParameterError(f"theta must be finite and nonnegative, got {theta}")
    shift_scale = math.sqrt(3.0 * theta * math.log(n) / k)
    if shift_scale == math.inf:
        raise ParameterError(f"theta={theta} overflows the shift scale; srk3 needs finite shifts")
    t = 2
    while 2 ** t <= w * k or k * (2 ** t - 1) < w * n:
        t += 1
        if t >= 62:  # also ends the search when w k or w n overflows to inf
            raise ParameterError(f"no 2^t below 2^62 exceeds w k and w n (w={w})")
    N = (int((2 ** t) * k / (p / Q + 1.0)) // k) * k
    m = _next_multiple_above(k, (p / Q + 1.0) * N)
    while N >= k and m > k * 2 ** t:
        N -= k
        m = _next_multiple_above(k, (p / Q + 1.0) * N)
    if N < k:
        raise ParameterError("planned source size collapsed below k")
    if d is None:
        d = m
    plan = ReductionPlan("GLSM", p, q, N, k, 2, t, m, n, d, Q, delta, 0.0, w, 0.5)
    mu_fig, bound = math.sqrt(k / (N * math.log(n))), plan.mu_bound
    plan = replace(plan, mu=min(mu_fig, bound))
    a, mu1, mu2 = tern_params_from_truncation(tau, plan.mu)
    try:
        _srk3_params_check(a, mu1, mu2)
    except ParameterError as err:
        raise ParameterError(f"tau={tau} truncates to a degenerate three-point law: {err}") from None
    return _admit(plan, mu_uncapped=mu_fig, mu_capped_at_proven_bound=mu_fig > bound,
                  tau=tau, theta=theta, a=a, mu1=mu1, mu2=mu2, shift_scale=shift_scale)


def _check_source_size(G: Graph, plan: ReductionPlan) -> None:
    if G.n != plan.N:
        raise ParameterError(
            f"input graph has {G.n} vertices but the {plan.target} plan needs "
            f"N={plan.N}; generate the source instance at that size"
        )


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


@functools.lru_cache(maxsize=8, typed=True)
def _clone_cdfs(p, q, P, Q, t):
    """The CDFs of ``clone_pmfs``, read-only, kept for the last 8 tuples."""
    edge, non = (np.cumsum(pmf) / pmf.sum() for pmf in clone_pmfs(p, q, P, Q, t))
    edge.flags.writeable = non.flags.writeable = False
    return edge, non


def graph_clone(G: Graph, t_copies: int, p, q, P, Q, rng: RngStream):
    """Split one planted-subgraph sample into ``t_copies`` independent ones.

    Exact Markov kernel: G(n, q) inputs map to G(n, Q)^{x t} and
    G(n, S, p, q) inputs to G(n, S, P, Q)^{x t}, for every S.  The pairs'
    uniforms are one ``gen.random`` draw made in bands on the pool, so the
    output does not depend on the band size or the number of workers.
    """
    if (isinstance(t_copies, bool) or not isinstance(t_copies, (int, np.integer))
            or not 1 <= t_copies <= 30):
        raise ParameterError(f"t_copies must be an integer in [1, 30], got {t_copies!r}")
    cdf_edge, cdf_non = _clone_cdfs(p, q, P, Q, t_copies)
    e = G.triu_vector()
    bits = np.empty((t_copies, e.size), dtype=bool)

    def split(lo, hi, u):
        # pair j's uniform picks its t-bit code from its edge or non-edge
        # pmf; bit b of the code is pair j of copy b
        code = np.searchsorted(cdf_non, u, side="right")
        edge = e[lo:hi]
        code[edge] = np.searchsorted(cdf_edge, u[edge], side="right")
        for b in range(t_copies):
            bits[b, lo:hi] = (code >> b) & 1

    _random_bands(rng.child("clone").generator(), e.size, split)
    return [Graph.from_triu(G.n, copy) for copy in bits]


# ---------------------------------------------------------------------------
# To-k-partite-submatrix
# ---------------------------------------------------------------------------

# Entries per row band of the k-partite embedding, the one pool loop of
# ``to_k_partite_submatrix``.  It bounds a task's transient memory; the
# output does not depend on it.
_PAD_CHUNK = 1 << 20


def to_k_partite_submatrix(G: Graph, k: int, p, q, m, rng: RngStream,
                           trace: Optional[PlantedTrace] = None):
    """Embed a k-PDS instance into an m x m Bernoulli matrix with planted
    diagonals, preserving the k-partite promise: part i of the N = G.n
    vertices, [i N/k, (i+1) N/k), lands in rows and columns
    F_i = [i m/k, (i+1) m/k) of M.

    Returns ``(M, out_trace)`` where M is uint8 and out_trace (when a trace
    was supplied) records the embedded planted k-subset U with |U ∩ F_i| = 1.
    """
    N = G.n
    Q = clone_Q(p, q)
    if k < 1 or N % k or m % k:
        raise ParameterError(f"k={k} must divide N={N} and m={m}")
    if m < (p / Q + 1.0) * N:
        raise ParameterError(f"m={m} must be at least (p/Q + 1) N = {(p / Q + 1) * N:.2f}")
    if k > Q * N / 4.0:
        raise ParameterError(f"need k <= Q N / 4 = {Q * N / 4.0:.2f}, got k={k}")

    G1, G2 = graph_clone(G, 2, p, q, p, Q, rng.child("clone2"))
    gen = rng.child("embed").generator()

    M = uniform_below(gen, (m, m), Q).view(np.uint8)
    np.fill_diagonal(M, 0)
    mk = m // k
    Nk = N // k
    planted = None
    out_planted = []
    if trace is not None and trace.planted_set is not None:
        planted = np.asarray(trace.planted_set, dtype=np.int64)
        outside = planted[(planted < 0) | (planted >= N)]
        if outside.size:
            raise ParameterError(f"trace plants vertices outside [0, {N}): "
                                 f"{[int(v) for v in outside]}")

    # The union of the per-part embeddings carries the whole input graph:
    # S collects the embedded positions, src their source vertices under the
    # part-wise uniform bijections pi_t : S_t -> E_t.
    S_all = np.empty(N, dtype=np.int64)
    src_all = np.empty(N, dtype=np.int64)
    diag_T1 = []
    diag_T2 = []
    for part_idx in range(k):
        E_part = np.arange(part_idx * Nk, (part_idx + 1) * Nk)
        F_part = np.arange(part_idx * mk, (part_idx + 1) * mk)
        S_t = np.sort(gen.choice(F_part, size=Nk, replace=False))
        pi = gen.permutation(E_part)  # pi[j] is the source vertex of S_t[j]
        s1 = int(gen.binomial(Nk, p))
        s2 = int(gen.binomial(mk, Q))
        T1 = gen.choice(Nk, size=s1, replace=False)
        free = np.ones(mk, dtype=bool)
        free[S_t - part_idx * mk] = False
        rest = F_part[free]  # F_part minus S_t, ascending
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
            v = planted[(planted >= part_idx * Nk) & (planted < (part_idx + 1) * Nk)]
            if v.size == 0 or (v != v[0]).any():  # one vertex, perhaps listed twice
                raise ParameterError("trace must plant exactly one vertex per part")
            out_planted.append(int(S_t[int(np.flatnonzero(pi == v[0])[0])]))

    # Upper triangle of the embedded support from the first clone, lower
    # triangle from the second, diagonals from the per-part supports.  S_all
    # ascends, so row band [lo, hi) of the N x N embedded block lands in
    # rows S_all[lo:hi] of M, and the block's diagonal is the band's
    # diagonal lo.
    A1, A2 = G1.to_dense(), G2.to_dense()
    band = max(1, _PAD_CHUNK // N)

    def embed(i):
        lo, hi = i * band, min((i + 1) * band, N)
        rows = src_all[lo:hi]
        sub = np.triu(np.take(A1[rows], src_all, axis=1), lo + 1)
        sub |= np.tril(np.take(A2[rows], src_all, axis=1), lo - 1)
        M[S_all[lo:hi, None], S_all] = sub

    _run_blocks(embed, -(-N // band))
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
    return M, out_trace


# ---------------------------------------------------------------------------
# k-PDS -> ISGM
# ---------------------------------------------------------------------------

def pds_to_isgm(G: Graph, plan: ReductionPlan, rng: RngStream,
                trace: Optional[PlantedTrace] = None):
    """Run the full graph-to-mixture reduction under ``plan``; returns
    ``(samples, trace)``, one sample per row of the (n, d) array.

    Null inputs map (within negligible TV at proven parameters) to
    N(0, I_d)^{x n}; planted inputs map to the imbalanced sparse mixture with
    mean mu on a k-subset of coordinates, positive-component fraction
    1 - eps = 1 - 1/r.  ``G`` must have the plan's N vertices.
    """
    if plan.target == "SEMI_CR":
        raise ParameterError("pds_to_isgm needs an ISGM or GLSM plan, got SEMI_CR")
    _check_source_size(G, plan)
    p, q, k, m, r, t = plan.p, plan.q, plan.k, plan.m, plan.r, plan.t
    n, d, rt = plan.n, plan.d, plan.rt

    # Step 1: symmetrize and plant diagonals.
    M1, tr1 = to_k_partite_submatrix(G, k, p, q, m, rng.child("submatrix"), trace)

    # Step 2: pad each part to r^t columns with Bern(Q), then permute rows
    # globally and columns within each part, into the (k, m, r^t) stack of
    # the padded parts.  Every draw is made first, in order; each part is
    # then gathered, rows and then columns, one pool task per part.
    gen = rng.child("pad").generator()
    mk = m // k
    fresh, col_perms = [], []
    for i in range(k):
        fresh.append(uniform_below(gen, (m, rt - mk), plan.Q).view(np.uint8))
        col_perms.append(gen.permutation(rt))
    row_src = gen.permutation(m)
    parts = np.empty((k, m, rt), dtype=np.uint8)

    def pad(i):
        combined = np.concatenate([M1[:, i * mk:(i + 1) * mk], fresh[i]], axis=1)
        np.take(combined[row_src], col_perms[i], axis=1, out=parts[i])

    _run_blocks(pad, k)
    del M1, fresh
    row_new = np.empty(m, dtype=np.int64)
    row_new[row_src] = np.arange(m)

    # Steps 3-6: Gaussianize each part at entrywise mean sqrt(r^t (r-1)) mu
    # and, on the worker that finishes each block of it, rotate the block's
    # whole rows by the incidence matrix in one product, on the one BLAS
    # thread the kernel runs its consumers on.  So only the pool's blocks in
    # flight are ever held as float64, and every bit is fixed by the
    # kernel's block rule and r^t, never by the pool or the BLAS thread
    # count (threaded GEMM rounds differently at some shapes, r^t = 243 for
    # one).  Of the k * out_cols rotated columns, n are kept and embedded as
    # m random coordinates of n samples in R^d, and only those are computed:
    # output column c is part c // out_cols rotated by row c % out_cols of H.
    H_mat = build_H(r, t)
    out_cols = H_mat.shape[0]
    gen6 = rng.child("output").generator()
    col_choice = gen6.choice(k * out_cols, size=n, replace=False)
    row_pos = gen6.choice(d, size=m, replace=False)
    samples = np.empty((n, d))
    kept = [np.flatnonzero(col_choice // out_cols == i) for i in range(k)]
    h_rows = [col_choice[cols] % out_cols for cols in kept]  # part i's kept rows of H

    def rotate(i, first, rows):
        samples[np.ix_(kept[i], row_pos[first:first + len(rows)])] = H_mat[h_rows[i]] @ rows.T

    gaussianize(parts, p, plan.Q, math.sqrt(rt * (r - 1)) * plan.mu, rng.child("gaussianize"),
                rotate)
    del parts
    others = np.flatnonzero(np.bincount(row_pos, minlength=d) == 0)
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
    return samples, out_trace


def sample_isgm(n: int, k: int, d: int, mu: float, eps: float, rng: RngStream):
    """Draw ``(samples, trace)`` directly from the imbalanced sparse Gaussian
    mixture (planted law), one sample per row."""
    if n < 1:
        raise ParameterError(f"need n >= 1 samples, got n={n}")
    if not (0 < k <= d):
        raise ParameterError(f"need 0 < k <= d, got k={k}, d={d}")
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must lie in (0, 1), got {eps}")
    if not math.isfinite(mu):
        raise ParameterError(f"mu must be finite, got {mu}")
    _check_fits(8 * n * d, f"the {n} x {d} float64 sample matrix")
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
    return X, trace


def isgm_sample_clone(samples, trace: PlantedTrace, ell: int, n_prime: int, rng: RngStream):
    """Blow n samples up to 2^ell n by iterated (X+G)/sqrt2, (X-G)/sqrt2 splits,
    then subsample n_prime of them uniformly; returns ``(samples, trace)``.
    Means scale by 2^(-ell/2); the positive-component count scales exactly
    by 2^ell before subsampling."""
    if ell < 0:
        raise ParameterError(f"ell must be >= 0, got {ell}")
    n = samples.shape[0]
    if n_prime > (2 ** ell) * n:
        raise ParameterError(f"n'={n_prime} exceeds 2^ell n = {(2 ** ell) * n}")
    gen = rng.child("clone").generator()
    X = samples
    comp = None
    if trace.component_set is not None:
        comp = np.zeros(n, dtype=bool)
        comp[trace.component_set] = True
    for _ in range(ell):
        Gm = gen.standard_normal(X.shape)
        X = np.concatenate([(X + Gm) / math.sqrt(2.0), (X - Gm) / math.sqrt(2.0)], axis=0)
        if comp is not None:
            comp = np.concatenate([comp, comp])
    pre_positive = int(comp.sum()) if comp is not None else None
    sel = gen.choice(X.shape[0], size=n_prime, replace=False)
    scale = 2.0 ** (-ell / 2.0)
    params = dict(trace.params)
    for key in ("mu", "mu_prime"):
        if key in params:
            params[key] = params[key] * scale
    params["clone_ell"] = ell
    if pre_positive is not None:
        params["pre_subsample_positive"] = pre_positive
    out_trace = PlantedTrace(
        seed=rng.seed,
        planted_set=trace.planted_set,
        component_set=None if comp is None else np.flatnonzero(comp[sel]),
        params=params,
    )
    return X[sel], out_trace


# ---------------------------------------------------------------------------
# k-PDS -> semirandom community recovery
# ---------------------------------------------------------------------------

def pds_to_semi_cr(G: Graph, plan: ReductionPlan, rng: RngStream,
                   trace: Optional[PlantedTrace] = None):
    """Reduce a k-PDS instance on the plan's N vertices to the semirandom
    community-recovery target law under a ``SEMI_CR`` plan.

    Null inputs map to the tg_h0(n, m'', mu1) law and planted inputs to
    tg_h1 with |S| = (3^(ell-1) - 1) k / 2, |S'| = 3^(ell-1) k, where the
    mu's come from the Gaussian CDF of the thresholding step.  The returned
    trace records S (planted_set) plus S' and the rotated vertex set V in
    ``params``.

    Of the m x m submatrix only the (3^ell - 1)-blocks (I, J) with J <= I,
    those that reach the output, are Gaussianized, padded and rotated, on
    the worker that finishes each kernel block of them, as ``pds_to_isgm``
    rotates its blocks; so no float64 array larger than a few kernel blocks
    exists.  The output's pair vector is drawn first, a fair coin per pair,
    with the uniform labels of the rotated vertices, and each worker writes
    its thresholded rotated entries straight into their relabelled pairs;
    no n x n array exists, and the output does not depend on the number of
    workers.
    """
    if plan.target != "SEMI_CR":
        raise ParameterError(f"pds_to_semi_cr needs a SEMI_CR plan, got {plan.target}")
    _check_source_size(G, plan)
    p, q, Q, k, ell, m, n, mu = plan.p, plan.q, plan.Q, plan.k, plan.ell, plan.m, plan.n, plan.mu
    three_l = 3 ** ell
    s = m // ((three_l - 1) * k)
    m_rot = m // 2  # (3^ell - 1) k s / 2 rows survive each block rotation

    # Step 2: gather the kept blocks.  Rotated block (I, J) of the output
    # depends on input block (I, J) alone, and only the blocks J <= I reach
    # the thresholded lower triangle.  Row b of ``blocks`` is block
    # (bI[b], bJ[b]) flattened, in row-major (I, J) order, and the kernel
    # Gaussianizes these rows.
    M_PD, tr1 = to_k_partite_submatrix(G, k, p, q, m, rng.child("submatrix"), trace)
    blk = three_l - 1
    ks = k * s
    bI, bJ = np.tril_indices(ks)
    blocks = M_PD.reshape(ks, blk, ks, blk)[bI, :, bJ].reshape(bI.size, blk * blk)
    del M_PD

    # The output, drawn whole before the kernel runs: a fair coin for every
    # pair, and then the labels, rotated vertex r being output vertex
    # label_of[r].  So V = label_of[:m''] is uniform, and every pair outside
    # V^2 keeps its coin; the pairs inside it are overwritten below.
    gen5 = rng.child("pad-vertices").generator()
    triu = uniform_below(gen5, (n * (n - 1) // 2,), 0.5)
    label_of = gen5.permutation(n)

    # Steps 3-5, on the worker that finishes each kernel block, for the
    # blocks in it.  Padded block (I, J) is 3^ell x 3^ell: fresh N(0, 1) at
    # offset 0 of either axis (the zero-point row and column of the
    # rotation) and the Gaussianized block at offsets 1..3^ell-1.  It is
    # rotated as H . block . H^T, and its rotated entries (r, c), r > c, of
    # the m'' x m'' matrix are thresholded into pair (label_of[r],
    # label_of[c]) of the output.  label_of is a bijection, so no two
    # workers write the same pair.  The kernel block from row ``first`` on
    # draws its fresh entries from ``rng.child("pad", first)``: per block,
    # its offset-0 row and then the rest of its offset-0 column.  So the
    # stream is fixed by the kernel's block rule alone.  Each kernel block's
    # two products are whole ones, on the one BLAS thread the kernel runs
    # its consumers on: splitting a product, or threading it, can change
    # its bits.
    H = build_H(3, ell)
    ellh = H.shape[0]
    thr = mu / (2.0 * three_l)
    within = np.arange(ellh)
    below = within[:, None] > within  # a diagonal block's kept entries

    def rotate(_, first, rows):
        b = slice(first, first + len(rows))
        fresh = rng.child("pad", first).generator().standard_normal((len(rows), 2 * three_l - 1))
        # the kernel block's blocks side by side: padded[:, i] is its block i
        padded = np.empty((three_l, len(rows), three_l))
        padded[0] = fresh[:, :three_l]
        padded[1:, :, 0] = fresh[:, three_l:].T
        padded[1:, :, 1:] = rows.reshape(-1, blk, blk).transpose(1, 0, 2)
        M_R = H @ padded.reshape(three_l, -1)
        kept = ((M_R.reshape(-1, three_l) @ H.T) >= thr).reshape(ellh, -1, ellh).transpose(1, 0, 2)
        u = label_of[bI[b, None] * ellh + within][:, :, None]
        v = label_of[bJ[b, None] * ellh + within][:, None, :]
        keep = (bI[b] != bJ[b])[:, None, None] | below
        triu[_pair_indices(n, np.minimum(u, v)[keep], np.maximum(u, v)[keep])] = kept[keep]

    gaussianize(blocks, p, Q, mu, rng.child("gaussianize"), rotate)
    del blocks
    G_out = Graph.from_triu(n, triu)

    params = {
        "mu": mu, "ell": ell, "m": m, "m_rotated": m_rot,
        **{key: plan.report[key] for key in ("mu1", "mu2", "mu3")},
        "V": [int(v) for v in np.sort(label_of[:m_rot])],
    }
    out_trace = PlantedTrace(seed=rng.seed, params=params)
    if tr1 is not None:
        U = np.asarray(tr1.planted_set, dtype=np.int64)
        # u sits at offset 1 + u % blk of block u // blk; its rotated rows split by sign
        rot_rows = (U // blk) * ellh + np.arange(ellh)[:, None]
        col = H[:, 1 + U % blk]
        out_trace.planted_set = np.sort(label_of[rot_rows[col < 0]])
        params["S_prime"] = [int(v) for v in np.sort(label_of[rot_rows[col > 0]])]
    return G_out, out_trace


# ---------------------------------------------------------------------------
# k-PDS -> general learning sparse mixtures
# ---------------------------------------------------------------------------

def pds_to_glsm(G: Graph, plan: ReductionPlan, rng: RngStream,
                trace: Optional[PlantedTrace] = None):
    """Reduce k-PDS to sparse PCA under a ``GLSM`` plan.

    The target is the spiked-covariance family of the paper's corollary:
    P_nu = N(nu * shift_scale, 1) against Q = N(0, 1), the mixing weight nu
    of each output vector drawn from N(0, 1 / (3 log n)) and clipped to
    [-1, 1]; theta = 0 plants nothing.  Step 1 is the r = 2 mixture
    reduction at eps = 1/2; step 2 truncates every entry at tau to
    {-1, 0, +1} and pushes it through the symmetric 3-ary kernel at
    (a, mu1, mu2) toward (P_nu, P_-nu, Q), with the row's mean shift and one
    stream per row; tau, (a, mu1, mu2) and shift_scale are the plan's.  The
    trace records each row's nu; its ``srk3_fallback_entries`` counts the
    entries that kept their Q initializer: those that ran out of their
    proposal budget, and every entry of a row whose gate set is empty, which
    srk3 settles before its loop.
    """
    if plan.target != "GLSM":
        raise ParameterError(f"pds_to_glsm needs a GLSM plan, got {plan.target}")
    tau, a, mu1, mu2 = (plan.report[key] for key in ("tau", "a", "mu1", "mu2"))
    nu_sd = 1.0 / math.sqrt(3.0 * math.log(plan.n))
    samples, in_trace = pds_to_isgm(G, plan, rng.child("isgm"), trace)
    n, d = samples.shape
    n_iter = math.ceil(4.0 * math.log(d * n))
    nus = np.clip(nu_sd * rng.child("nu").generator().standard_normal(n), -1.0, 1.0)
    B = truncate_tern(samples, tau)
    del samples  # the Gaussian samples, before the kernel allocates its output
    X, fallback = srk3_array(B, nus * plan.report["shift_scale"], a, mu1, mu2, n_iter,
                             [rng.child("srk3", i) for i in range(n)])
    return X, replace(in_trace, seed=rng.seed, params=dict(
        in_trace.params, tau=tau, a=a, mu1=mu1, mu2=mu2,
        srk3_fallback_entries=fallback, nu=[float(v) for v in nus]))
