"""Cesaro means of the h-harmonic expansion at coordinate vectors.

The central object is the (C, delta) kernel at (x, e_ell), a simplex
integral of the one-variable Cesaro kernel against the axis-weighted
Dirichlet measure: vk_axis of that profile on polynomial_rule, at one point
or at all the nodes of a sphere rule in one call.  Lebesgue constants are
sphere integrals of its absolute value; sweeping them in the degree n and
fitting growth models against the top three quarters of the range gives a
desk-scale probe of the critical Cesaro index.  The envelope checks at the
end of the module evaluate the same kernels against explicit majorants and
report the fitted constants, whose stability under n-doubling is the check.

Sweeps do not integrate the simplex once per sphere node and degree.  They
build one table of degree-k projection kernels per sphere node, k <= n_max,
and the lower-triangular Cesaro-weight matrices of every delta, stacked,
multiply that table in one product.  Neither sphere rule of a sweep is
built: both come from harmonics.sphere_rule_blocks, the one way nodes are
formed, as a stream of chunks that it forms from the rule's
one-dimensional factors.  Where 2 kappa is not even that rule is the
Weyl-chamber rule, whose Jacobi weights take the |x_i - x_j|^(2 kappa)
walls of h^2, and elsewhere the surface-measure product rule.
A sweep walks a hemisphere and reflects it: every rule is antipodal by
halves, h^2 is even and row k of the table has parity (-1)^k, so the
stream's first half gives the kernels at -x too, by a sign on the odd rows.
Each chunk adds to one running sum that holds every delta, so a sweep's
memory is O(chunk * n_max), never the whole table or the whole rule; within
a chunk, the tensor table runs in cache-sized blocks
(simplexquad.block_slices), and the Cesaro products in segments of a fixed
number of columns, written into two buffers allocated once per sweep.
For kappa = 0, and
for integer kappa at d = 3 and 4, the table is exact: V_kappa of a Jacobi
polynomial at x is a confluent divided difference of a shifted Jacobi
polynomial at the coordinates of x, which one three-term recurrence on
short vectors gives for every degree at once.  Every other (d, kappa)
integrates the Jacobi moments of <x, t> on polynomial_rule(params, n_max),
exact for every degree k <= n_max.  lebesgue_constant, one degree through
cesaro_kernel_axis, is the separate route the tests hold the sweep against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .harmonics import (
    MIN_SPHERE_ORDER,
    SphereRule,
    _check_on_sphere,
    build_sphere_rule,
    hweight,
    require_fit,
    require_sphere_rule,
    sphere_rule_blocks,
)
from .intertwine import polynomial_rule, vk_axis
from .orthopoly import (
    CesaroOrder,
    JacobiParams,
    cesaro_kernel_endpoint,
    cesaro_weight_matrix,
    divided_difference_rows,
    jacobi_all,
    jacobi_eval,
    jacobi_rows,
    kernel_normalizer,
)
from .polycore import KappaParams, check_axis
from .simplexquad import (
    SelfCheckError,
    block_slices,
    build_rule,
    chunk_slices,
    default_order,
    dirichlet_mass,
    require_normal,
)


@dataclass(frozen=True)
class SweepRecord:
    """One point of a Lebesgue-constant sweep."""

    n: int
    delta: float
    value: float
    quad_error_estimate: float
    d: int
    kappa: float
    ell: int


def _jacobi_params(params: KappaParams) -> JacobiParams:
    lam = float(params.lambda_kappa)
    return JacobiParams(lam - 0.5, lam - 0.5)


def cesaro_kernel_axis(n: int, delta, ell: int, x, params: KappaParams):
    """(C, delta) kernel of the h-harmonic expansion at (x, e_ell):
    c_kappa times the simplex integral of k_n^delta(w_lambda; <x, t>, 1)
    t_{ell-1} against the Dirichlet weight, on the simplex rule exact for it
    (polynomial_rule).  kappa = 0 collapses to the classical one-variable
    kernel at x_ell.  x is one point (float) or an (N, d) array (array)."""
    x = np.asarray(x, dtype=float)
    _check_on_sphere(x)
    jp = _jacobi_params(params)
    value = vk_axis(lambda s: cesaro_kernel_endpoint(n, jp, delta, s), ell, x, params,
                    polynomial_rule(params, n))
    return value if x.ndim == 2 else float(value)


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------


def _table_scale(n_max: int, params: KappaParams) -> tuple[bool, np.ndarray]:
    """(exact, scale): whether _axis_kernel_table takes its exact branch, and
    the factor scale[k] of its row k <= n_max: kernel_normalizer, times
    N! prod_{j=1..N} 2 / (k + 2 alpha + 1 - j), N = d kappa, on the exact
    branch.  check_sweep refuses a sweep whose factors are not normal floats.
    The partial products fall far below the last (to 5e-316 at d = 3, kappa
    = 300, where the last is 6e-270), so each is kept as a mantissa and a
    power of two (np.frexp, which is exact): no digit is lost below the
    normal range, and a product that stays normal has the plain loop's bits."""
    jp = _jacobi_params(params)
    scale = kernel_normalizer(n_max, jp)
    shift = params.lambda_kappa - Fraction(1, 2) - params.d * params.kappa
    exact = params.kappa.denominator == 1 and shift > -1
    if exact:
        degrees = np.arange(n_max + 1)
        power = np.zeros(n_max + 1, dtype=int)
        for j in range(1, params.d * int(params.kappa) + 1):
            scale, e = np.frexp(scale * (2 * j / (degrees + 2 * jp.alpha + 1 - j)))
            power += e
        scale = np.ldexp(scale, power)
    return exact, scale


def _axis_kernel_table(n_max: int, ell: int, params: KappaParams, X: np.ndarray,
                       table_scale: tuple[bool, np.ndarray] | None = None) -> np.ndarray:
    """B[k, i]: degree-k projection kernel at (X[i], e_ell), for k <= n_max.

    Cesaro kernels for every (n <= n_max, delta) follow by weighting rows,
    so the table is built once per point set, on one of two branches chosen
    from (d, kappa).  Exact: integer kappa with alpha - N > -1, where alpha =
    lambda - 1/2 and N = d kappa (kappa = 0 at d <= 4, integer kappa at d = 3
    and 4).  By Hermite-Genocchi, V[g(x_ell)](x) = N! [z] G with G^(N) = g,
    where z lists x_ell kappa + 1 times and every other coordinate kappa
    times; for g = P_k^(alpha, alpha), G = prod_{j=1..N} 2 / (k + 2 alpha +
    1 - j) P_{k+N}^(alpha-N, alpha-N).  Tensor: the Jacobi moments of <x, t>
    on polynomial_rule(params, n_max), exact for the degree n_max + 1
    integrand P_k(<x, t>) t_ell, so a larger order changes the table only by
    rounding.  The exact branch takes points in chunks whose
    divided-difference vectors stay within simplexquad.CHUNK_ELEMENTS.  The
    tensor branch takes them in cache-sized blocks (simplexquad.block_slices):
    each block forms its node products S = X @ T.T, runs the Jacobi
    recurrence on S and sums each row against the rule's weights, so no
    temporary spans more than a block.  The table has the same bits
    whatever the blocks: no block has a single row, whose node product
    numpy would compute by a matrix-vector call.  On both branches each row
    is written into the table by the multiply that applies its normalizer.
    table_scale is _table_scale(n_max, params), which a caller that builds
    one table per chunk computes once.  OverflowError where the exact
    branch's recurrence leaves float range (from about kappa 230 at d = 3),
    which would otherwise fill the table with inf and nan."""
    jp = _jacobi_params(params)
    X = np.asarray(X, dtype=float)
    A = np.empty((n_max + 1, len(X)))
    exact, scale = _table_scale(n_max, params) if table_scale is None else table_scale
    if exact:
        N = params.d * int(params.kappa)
        repeats = [int(params.kappa) + (i == ell - 1) for i in range(params.d)]
        shifted = JacobiParams(jp.alpha - N, jp.alpha - N)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for sl in chunk_slices(len(X), N + 1):
                    z = np.repeat(X[sl], repeats, axis=1)
                    rows = divided_difference_rows(n_max + N, shifted, z)
                    for k, row in enumerate(islice(rows, N, None)):
                        np.multiply(row, scale[k], out=A[k, sl])
        except FloatingPointError as exc:
            raise OverflowError(f"kappa = {params.kappa} at d = {params.d}: the exact kernel "
                                f"table's recurrence overflows float range") from exc
    else:
        rule = polynomial_rule(params, n_max)
        T = rule.nodes
        w_eff = params.c_kappa * rule.weights * T[:, ell - 1]
        # about eight temporaries per (sphere node, simplex node) pair: S, the
        # recurrence's two rows and its intermediates, and W * row
        for sl in block_slices(len(X), 8 * len(rule)):
            S = X[sl] @ T.T
            W = np.broadcast_to(w_eff, S.shape)
            rows = jacobi_rows(n_max, jp, S)
            next(rows)
            np.multiply(W.sum(axis=1), scale[0], out=A[0, sl])  # P_0 = 1 needs no product
            for k, row in enumerate(rows, start=1):
                np.multiply((W * row).sum(axis=1), scale[k], out=A[k, sl])
    return A


def _sweep_node_cost(n_max: int) -> int:
    """Elements per sphere node of a sweep chunk: the table B, the
    divided-difference or tensor work on it, and a share of headroom."""
    return 3 * (n_max + 1)


# Table columns of one Cesaro product pair of a sweep (_sweep_values): a power
# of two, and fixed, so no record bit depends on simplexquad.BLOCK_ELEMENTS.
SEGMENT_COLUMNS = 256


def _sweep_values(params: KappaParams, weights: dict[float, np.ndarray], n_max: int,
                  ell: int, chunks, table_scale: tuple[bool, np.ndarray]
                  ) -> dict[float, np.ndarray]:
    """I_n for n = 0..n_max and each delta, on one sphere rule given by its
    first half, whose reflection is the rest of the rule
    (sphere_rule_blocks(..., hemisphere=True)), as an iterable of (nodes,
    weights) chunks of at most simplexquad.CHUNK_ELEMENTS //
    _sweep_node_cost(n_max) nodes: the stream cut by chunk_slices, or one
    chunk a caller holds.

    weights maps each delta to its cesaro_weight_matrix W, so W @ B is every
    Cesaro kernel K_n^delta(x, e_ell) at once.  Row k of the table B has
    parity (-1)^k, as P_k^(a, a) has, and h^2 is even; so with E = W[:,
    even] @ B[even] and O = W[:, odd] @ B[odd], K_n is E + O at x and E - O
    at -x, and the two nodes add (|E + O| + |E - O|) w h^2 = 2 max(|E|, |O|)
    w h^2.  Every delta's W is stacked into one matrix, so one product pair
    gives E and O for all of them.  Each chunk builds its own table and
    h^2 weights and walks it in segments of SEGMENT_COLUMNS columns: E and O
    go into two buffers allocated once per sweep (fresh ones per segment
    cost a fresh process a page fault per page each time, as glibc hands
    blocks this large back to the system), max(|E|, |O|) is taken in place,
    and its product with the segment's 2 w h^2 is added to one running sum
    that holds every delta's rows.  So memory is O(chunk * n_max); a rule of
    up to about 40 000 nodes at n_max = 64 is one chunk.  Of 128, 256 and
    512 columns, 256 ran the four-delta n_max = 64 sweeps of the pushforward
    benchmark fastest; 512-column buffers outgrow a 2 MB L2 cache (2-core
    x86-64, five fresh-process runs each).  A segment is one product of
    each parity; blocking within a product is the BLAS's own."""
    stacked = np.concatenate(list(weights.values()))
    even, odd = stacked[:, ::2].copy(), stacked[:, 1::2].copy()
    E, O = (np.empty((len(stacked), SEGMENT_COLUMNS)) for _ in range(2))
    total = np.zeros(len(stacked))
    for nodes, chunk_weights in chunks:
        B = _axis_kernel_table(n_max, ell, params, nodes, table_scale)
        wh2 = 2 * params.a_kappa * chunk_weights * hweight(nodes, params) ** 2
        for start in range(0, B.shape[1], SEGMENT_COLUMNS):
            seg = slice(start, min(start + SEGMENT_COLUMNS, B.shape[1]))
            Es, Os = E[:, :seg.stop - start], O[:, :seg.stop - start]
            np.matmul(even, B[::2, seg], out=Es)
            np.matmul(odd, B[1::2, seg], out=Os)
            np.maximum(np.abs(Es, out=Es), np.abs(Os, out=Os), out=Es)
            total += Es @ wh2[seg]
        del B  # free this chunk's table before the next one is built
    return dict(zip(weights, np.split(total, len(weights))))


def default_sphere_order(n_max: int, params: KappaParams) -> int:
    """Sphere-rule order of a sweep to degree n_max when none is given.  At
    integer kappa: the smallest order from n_max + 16 whose coarse rule
    (coarse_sphere_order), exact to degree 2 coarse - 1, integrates h^2, of
    degree d (d - 1) kappa.  Otherwise n_max + 24, on the chamber rule: at
    (d, kappa, n_max) = (3, 1/2, 8) the error estimate against the coarse
    rule reads 2.52 digits at order 24, though the values there are within
    3.35 digits of order 400's, and 3.29 digits at order 32."""
    if params.kappa.denominator != 1:
        return n_max + 24
    degree = params.d * (params.d - 1) * int(params.kappa)
    # 3 order // 4 >= degree // 2 + 1
    return max(n_max + 16, -(-4 * (degree // 2 + 1) // 3))


def coarse_sphere_order(order: int) -> int:
    """Order of the sphere rule each quadrature error estimate compares with;
    ValueError unless it is below order, since an estimate against the main
    rule itself reads 0.  So every sweep needs order >= MIN_SPHERE_ORDER + 1."""
    coarse = max(MIN_SPHERE_ORDER, 3 * order // 4)
    if coarse >= order:
        raise ValueError(f"sphere order must be >= {MIN_SPHERE_ORDER + 1}: the error estimate "
                         f"needs a coarser rule, of order max({MIN_SPHERE_ORDER}, 3 order // 4)")
    return coarse


def lebesgue_constant(n: int, delta, ell: int, params: KappaParams,
                      sphere_rule: SphereRule) -> SweepRecord:
    """I_n = a_kappa int |K_n^delta(x, e_ell)| h^2(x) dsigma(x).

    The error estimate compares against a sphere rule of order
    coarse_sphere_order(sphere_rule.order); the sphere integral of the
    kinked |K| dominates the error budget, not the smooth simplex integral.
    The coarse rule is of sphere_rule's family, so a chamber rule of order
    below 8, whose coarse rule has order 5, fails its mass check."""
    require_fit(sphere_rule, params)
    coarse = build_sphere_rule(params.d, coarse_sphere_order(sphere_rule.order),
                               kappa_hint=params.kappa)

    def value_on(rule: SphereRule) -> float:
        K = cesaro_kernel_axis(n, delta, ell, rule.nodes, params)
        wh2 = params.a_kappa * rule.weights * hweight(rule.nodes, params) ** 2
        return float(np.dot(wh2, np.abs(K)))

    value = value_on(sphere_rule)
    estimate = abs(value - value_on(coarse))
    return SweepRecord(n=n, delta=float(delta), value=value,
                       quad_error_estimate=estimate, d=params.d,
                       kappa=params.kappa_float, ell=ell)


def check_sweep(params: KappaParams, deltas, n_max: int, ell: int,
                sphere_order: int | None = None) -> None:
    """ValueError for arguments lebesgue_sweep refuses, raised before any
    work, so a caller can validate before it writes output, among them a
    sphere order that coarse_sphere_order refuses.  OverflowError for a kappa
    out of float range: its a_kappa, which every sweep multiplies by,
    overflows, or a kernel table factor is not a normal float, the
    dirichlet_mass of the tensor branch's simplex rule or a row factor
    (_table_scale) of the exact branch."""
    require_sphere_rule(params.d, params.kappa)
    params.a_kappa
    for delta in deltas:
        CesaroOrder(float(delta))
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    check_axis(ell, params.d)
    if sphere_order is not None:
        coarse_sphere_order(sphere_order)
    exact, scale = _table_scale(n_max, params)
    if exact:
        require_normal(scale, f"kappa = {params.kappa} at d = {params.d}: "
                              f"a row factor of the exact kernel table")
    else:
        dirichlet_mass(params.d, params.kappa_float)


def lebesgue_sweep(params: KappaParams, deltas, n_max: int, ell: int = 1, *,
                   sphere_order: int | None = None,
                   progress=None) -> list[SweepRecord]:
    """Lebesgue constants for n = 1..n_max at each delta, via the moment
    table.  Emits records in (delta, n) order; progress, when given, is
    called once per record as it is produced."""
    deltas = [float(x) for x in deltas]
    check_sweep(params, deltas, n_max, ell, sphere_order)
    order = sphere_order if sphere_order is not None else default_sphere_order(n_max, params)
    weights = {delta: cesaro_weight_matrix(n_max, delta) for delta in deltas}
    table_scale = _table_scale(n_max, params)

    def values(rule_order: int) -> dict[float, np.ndarray]:
        chunks = sphere_rule_blocks(params.d, rule_order, params.kappa,
                                    _sweep_node_cost(n_max), chunk_slices, hemisphere=True)
        return _sweep_values(params, weights, n_max, ell, chunks, table_scale)

    main, coarse = values(order), values(coarse_sphere_order(order))
    if not all(np.isfinite(v).all() for v in (*main.values(), *coarse.values())):
        raise SelfCheckError("a Lebesgue sum is not finite")
    # K_0 = 1, so I_0 = a_kappa sum w h^2 is a rule's h^2 mass: held to the sphere
    # rules' mass tolerance on both rules (a chamber rule's stream checks it too)
    for sums in (main, coarse):
        mass = float(next(iter(sums.values()))[0])
        if not abs(mass - 1) <= 1e-10:
            raise SelfCheckError(f"a sweep rule's h^2 mass is {mass!r}, not 1: sphere order "
                                 f"{order} does not integrate h^2; order "
                                 f"{default_sphere_order(n_max, params)} does")
    records = []
    for delta in deltas:
        for n in range(1, n_max + 1):
            rec = SweepRecord(
                n=n, delta=delta, value=float(main[delta][n]),
                quad_error_estimate=float(abs(main[delta][n] - coarse[delta][n])),
                d=params.d, kappa=params.kappa_float, ell=ell)
            records.append(rec)
            if progress is not None:
                progress(rec)
    return records


# ---------------------------------------------------------------------------
# growth classification
# ---------------------------------------------------------------------------


def _fit_models(ns: np.ndarray, I: np.ndarray) -> dict:
    """Least squares of I_n against a constant, a + b log n, and a n^p.

    The power fit is linear in log-log; its residual is reported back in
    linear space so the three numbers are comparable.  Standard errors are
    the usual OLS ones."""
    ns = np.asarray(ns, dtype=float)
    I = np.asarray(I, dtype=float)
    m = len(ns)
    design = np.stack([np.ones(m), np.log(ns)], axis=1)
    rss_const = float(np.sum((I - I.mean()) ** 2))

    beta, *_ = np.linalg.lstsq(design, I, rcond=None)
    resid = I - design @ beta
    rss_log = float(np.sum(resid ** 2))
    cov = rss_log / max(m - 2, 1) * np.linalg.inv(design.T @ design)
    b, se_b = float(beta[1]), float(np.sqrt(cov[1, 1]))

    logI = np.log(I)
    gamma, *_ = np.linalg.lstsq(design, logI, rcond=None)
    resid_l = logI - design @ gamma
    cov_l = float(np.sum(resid_l ** 2)) / max(m - 2, 1) * np.linalg.inv(design.T @ design)
    p, se_p = float(gamma[1]), float(np.sqrt(cov_l[1, 1]))
    rss_power = float(np.sum((I - np.exp(design @ gamma)) ** 2))

    return {"mean": float(I.mean()), "b": b, "se_b": se_b, "p": p, "se_p": se_p,
            "rss_const": rss_const, "rss_log": rss_log, "rss_power": rss_power}


# Below this fitted power the trend over a window is treated as bounded.
# Quadrature-converged sweep data is so smooth that even a 2 percent drift
# across the window is dozens of standard errors, so a pure significance
# rule never says "bounded"; the exponent cutoff separates the regimes by
# effect size instead (an order of magnitude below the slowest genuine
# growth the sweeps produce).
BOUNDED_POWER_THRESHOLD = 0.05


def classify_growth(fit: dict) -> tuple[str, str]:
    """(classification, model) for a fitted sweep window.

    Bounded when the trend is statistically indistinguishable from flat or
    its fitted power is below BOUNDED_POWER_THRESHOLD; otherwise growing,
    with the log/power model chosen by linear-space residual."""
    flat = abs(fit["b"]) < 2 * fit["se_b"] and abs(fit["p"]) < 2 * fit["se_p"]
    if flat or fit["p"] < BOUNDED_POWER_THRESHOLD:
        return "bounded", "constant"
    model = "log" if fit["rss_log"] <= fit["rss_power"] else "power"
    return "growing", model


def critical_sweep(params: KappaParams, delta_grid, n_max: int, ell: int = 1, *,
                   sphere_order: int | None = None, progress=None) -> dict:
    """Sweep Lebesgue constants across a delta grid straddling the critical
    index and classify the growth of each delta on n in [n_max/4, n_max].

    Returns the records, per-delta fits and classifications, and the
    critical index."""
    if n_max < 64:
        raise ValueError("n_max must be >= 64 to support the fit window")
    deltas = sorted(float(x) for x in delta_grid)
    crit = float(params.critical_delta)
    if not deltas[0] <= crit <= deltas[-1]:
        raise ValueError(
            f"delta grid {deltas} must straddle the critical index {crit}")
    records = lebesgue_sweep(params, deltas, n_max, ell,
                             sphere_order=sphere_order, progress=progress)
    n_lo = max(2, n_max // 4)
    ns = np.arange(n_lo, n_max + 1)
    per_delta = []
    by_delta: dict[float, dict[int, float]] = {}
    for rec in records:
        by_delta.setdefault(rec.delta, {})[rec.n] = rec.value
    for delta in deltas:
        I = np.array([by_delta[delta][n] for n in ns])
        fit = _fit_models(ns, I)
        classification, model = classify_growth(fit)
        per_delta.append({"delta": delta, "classification": classification,
                          "model": model, **fit})
    return {
        "d": params.d,
        "kappa": params.kappa_float,
        "ell": ell,
        "n_max": n_max,
        "window": [int(n_lo), int(n_max)],
        "critical_delta": crit,
        "per_delta": per_delta,
        "records": records,
    }


def cesaro_mean_at_axis(f, n: int, delta, ell: int, params: KappaParams,
                        sphere_rule: SphereRule) -> float:
    """S_n^delta f(e_ell) = a_kappa int f(x) K_n^delta(x, e_ell) h^2 dsigma.

    f receives the (N, d) sphere nodes and returns a length-N vector.  For
    f = 1 this returns 1 for every n and delta up to quadrature error, and
    for smooth f it converges to f(e_ell) when delta clears the critical
    index."""
    require_fit(sphere_rule, params)
    K = cesaro_kernel_axis(n, delta, ell, sphere_rule.nodes, params)
    wh2 = params.a_kappa * sphere_rule.weights * hweight(sphere_rule.nodes, params) ** 2
    return float(np.dot(wh2, np.asarray(f(sphere_rule.nodes)) * K))


# ---------------------------------------------------------------------------
# envelope checks
# ---------------------------------------------------------------------------


def default_sample_points(d: int, seed: int = 20260815) -> np.ndarray:
    """Sphere points for the envelope checks: generic random points plus
    points pushed toward the first axis and toward a coordinate diagonal.

    The envelopes are sharp near the axes and blow up on the diagonals, so
    a purely generic sample leaves the max ratio dominated by whichever
    point happens to sit closest to the singular set at each n and the
    fitted constant wanders.  Pinning points at geometric distances from
    the singular set keeps the max stable under n-doubling."""
    rng = np.random.default_rng(seed)
    pts = []
    generic = rng.normal(size=(6, d))
    pts.extend(generic / np.linalg.norm(generic, axis=1, keepdims=True))
    for eps in (1e-1, 1e-2, 1e-3):
        v = rng.normal(size=d - 1)
        v = v / np.linalg.norm(v) * math.sqrt(2 * eps - eps * eps)
        pts.append(np.concatenate([[1.0 - eps], v]))
    for eps in (1e-1, 1e-2):
        v = rng.normal(size=d)
        v[1] = v[0] + eps * rng.normal()
        pts.append(v / np.linalg.norm(v))
    return np.array(pts)


def _envelope_sum(x: np.ndarray, n: int, kappa: float, exponent: float, front: float):
    """front * sum_i prod_{j != i} |x_j - x_i|^(-kappa) (sqrt(1-|x_i|) + 1/n)^(-exponent)
    for one point x, or for every row of an (N, d) array.

    On the diagonals x_i = x_j the envelope is infinite and the ratio
    against it is 0: still a correct, finite observation.  Anywhere else an
    infinite envelope is an overflow, and an OverflowError: a ratio of 0
    against it would be a degraded number, not an observation."""
    gaps = np.abs(x[..., None, :] - x[..., :, None])  # [..., i, j] = |x_j - x_i|
    # 0^(-kappa) divides by zero; inf times a finite value raises no overflow
    try:
        with np.errstate(divide="ignore", over="raise"):
            factors = np.where(gaps == 0.0, math.inf, gaps ** (-kappa))
            factors[..., np.eye(x.shape[-1], dtype=bool)] = 1.0
            edge = np.sqrt(np.maximum(1.0 - np.abs(x), 0.0)) + 1.0 / n
            return front * np.sum(np.prod(factors, axis=-1) * edge ** (-exponent), axis=-1)
    except FloatingPointError as exc:
        raise OverflowError(f"the envelope at kappa {kappa} overflows float range "
                            f"away from the diagonals x_i = x_j") from exc


def estimate_check(n: int, params: KappaParams, alpha: float, beta: float,
                   x_samples, ell: int = 1) -> float:
    """Ratio of the axis-weighted Jacobi simplex integral to its envelope.

    LHS = |int P_n^{(alpha,beta)}(<x, t>) t_{ell-1} (t_0...t_{d-1})^(kappa-1) dt|,
    envelope (no constant) = n^{-(d-1)kappa - 1/2} sum_i
    prod_{j != i} |x_j - x_i|^(-kappa) (sqrt(1-|x_i|) + 1/n)^{-(alpha + 1/2
    - (d-1)kappa)}.  Returns the max ratio over the samples; a bounded fitted
    constant under n-doubling is the check.  Hypotheses n >= 1, alpha >= beta
    and alpha >= (d-1)kappa - 1/2 are enforced."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if params.kappa == 0:
        raise ValueError("the envelope needs kappa > 0")
    k = params.kappa_float
    d = params.d
    if beta > alpha:
        raise ValueError("alpha >= beta is required")
    if alpha < (d - 1) * k - 0.5:
        raise ValueError("alpha >= (d-1) kappa - 1/2 is required")
    jp = JacobiParams(float(alpha), float(beta))
    X = np.atleast_2d(np.asarray(x_samples, dtype=float))
    lhs = np.abs(vk_axis(lambda s: jacobi_eval(n, jp, s), ell, X, params,
                         polynomial_rule(params, n))) / params.c_kappa
    front = float(n) ** (-(d - 1) * k - 0.5)
    envelope = _envelope_sum(X, n, k, alpha + 0.5 - (d - 1) * k, front)
    return float(np.max(lhs / envelope, initial=0.0))


def kernel_bound_check(n: int, delta, ell: int, params: KappaParams,
                       x_samples) -> float:
    """Ratio of |K_n^delta(x, e_ell)| to its two-term envelope, n >= 1.

    First term: n^(lambda - (d-1)kappa - delta) times the edge sum with gap
    exponent lambda - (d-1)kappa + delta + 1; second term: n^(-1) times the
    intertwined profile (1 - s + n^(-2))^(-(lambda+1)) along axis ell, not a
    polynomial, on a default_order(n) rule.  Returns the max over samples."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = float(params.lambda_kappa)
    k = params.kappa_float
    d = params.d
    rule = build_rule(d, k, default_order(n))
    front = float(n) ** (lam - (d - 1) * k - delta)
    exponent = lam - (d - 1) * k + float(delta) + 1.0
    X = np.atleast_2d(np.asarray(x_samples, dtype=float))
    lhs = np.abs(cesaro_kernel_axis(n, delta, ell, X, params))
    tail = vk_axis(lambda s: (1.0 - s + 1.0 / n**2) ** (-(lam + 1.0)), ell, X, params, rule) / n
    envelope = _envelope_sum(X, n, k, exponent, front) + tail
    return float(np.max(lhs / envelope, initial=0.0))


def knd_positivity_check(n_max: int, jp: JacobiParams, delta,
                         t_grid=None) -> dict:
    """Non-negativity and upper envelope of the one-variable Cesaro kernel
    k_n^delta(t, 1) for n <= n_max, on a t grid.

    Requires delta >= alpha + beta + 2 and alpha, beta >= -1/2 (outside that
    range the kernel does go negative).  Reports the most negative grid
    value and the fitted constant max n k_n^delta(t, 1) (1-t+n^(-2))^(alpha
    + 3/2), whose stability under doubling n_max is the check."""
    delta = CesaroOrder(float(delta)).delta
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if jp.alpha < -0.5 or jp.beta < -0.5:
        raise ValueError("alpha and beta must be >= -1/2")
    if delta < jp.alpha + jp.beta + 2:
        raise ValueError("delta >= alpha + beta + 2 is required")
    if t_grid is None:
        t_grid = np.linspace(-1.0, 1.0, 801)
    t_grid = np.asarray(t_grid, dtype=float)
    # Everything in extended precision, with the kernel coefficients built
    # by ratio recurrences rather than exp(lgamma) differences: the kernel
    # has exact zeros on the grid (t = -1 at the threshold delta), and the
    # non-negativity margin being certified there is smaller than the
    # absolute error either float64 route leaves on O(n)-sized terms.
    ld = np.longdouble
    P = jacobi_all(n_max, jp, t_grid, dtype=ld)
    a, b = ld(jp.alpha), ld(jp.beta)
    p_one = np.empty(n_max + 1, dtype=ld)   # P_k(1)
    h_ratio = np.empty(n_max + 1, dtype=ld)  # h_k / h_0
    p_one[0] = 1.0
    h_ratio[0] = 1.0
    if n_max >= 1:
        p_one[1] = 1.0 + a
        h_ratio[1] = (a + 1) * (b + 1) / (a + b + 3)
        for k in range(2, n_max + 1):
            p_one[k] = p_one[k - 1] * (k + a) / k
            h_ratio[k] = h_ratio[k - 1] * ((k + a) * (k + b) * (2 * k + a + b - 1)
                                           / (k * (2 * k + a + b + 1) * (k + a + b)))
    normalizer = p_one / h_ratio
    dd = ld(delta)
    binom = np.empty(n_max + 1, dtype=ld)    # C(m + delta, m)
    binom[0] = 1.0
    for m in range(1, n_max + 1):
        binom[m] = binom[m - 1] * (m + dd) / m
    min_value = math.inf
    fitted_c = 0.0
    for n in range(1, n_max + 1):
        coeff = (binom[n - np.arange(n + 1)] / binom[n]) * normalizer[: n + 1]
        kernel = coeff @ P[: n + 1]
        min_value = min(min_value, float(kernel.min()))
        shaped = n * kernel.astype(float) * (1.0 - t_grid + 1.0 / n**2) ** (jp.alpha + 1.5)
        fitted_c = max(fitted_c, float(shaped.max()))
    return {
        "n_max": n_max,
        "alpha": jp.alpha,
        "beta": jp.beta,
        "delta": delta,
        "grid_points": len(t_grid),
        "min_value": min_value,
        "fitted_c": fitted_c,
    }
