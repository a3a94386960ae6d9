"""Exact sparse multivariate polynomials and Dunkl operators for the symmetric group.

Polynomial is a ``fractions.Fraction`` API over an integer Dunkl core: every
operator here is exact, and no floating point enters until a polynomial is
evaluated at a numeric point.  The Dunkl operator of the transposition group
S_d acting on R^d is

    D_i f = d f / d x_i + kappa * sum_{j != i} (f(x) - f(x (i,j))) / (x_i - x_j),

where x(i,j) swaps coordinates i and j.  The difference quotient is a genuine
polynomial, computed by term-wise telescoping.  The core, dunkl_sums, works on
integer arrays: rows (exponent tuple, integer coefficient, group), expanded
into their derivative and telescoped terms and summed per (group, monomial)
key by one sort, on int64 when an exact bound allows and on Python ints
otherwise.  The Polynomial operators cross into it once and back once: they
clear the denominators of p, run dunkl_sums or laplacian_sums on its rows
(for kappa = p/q in lowest terms, q D_i and q^2 Delta_kappa) and rescale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class Polynomial:
    """Sparse polynomial over Q with a fixed ambient dimension.

    Zero coefficients are never stored.  terms iterates in insertion order,
    and float evaluation sums in that order; sorted_terms, and through it
    printing and to_json, follow the sorted order of exponent tuples, so
    serialization is deterministic.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Monomial, Scalar] | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != dim:
                    raise ValueError(f"monomial {mono} does not have dimension {dim}")
                c = Fraction(coef)
                if c != 0:
                    self.terms[tuple(int(e) for e in mono)] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "Polynomial":
        return Polynomial(dim)

    @staticmethod
    def constant(dim: int, value: Scalar) -> "Polynomial":
        return Polynomial(dim, {(0,) * dim: Fraction(value)})

    @staticmethod
    def variable(dim: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_i, with i in 1..dim."""
        check_axis(i, dim)
        return Polynomial.monomial(k == i - 1 for k in range(dim))

    @staticmethod
    def monomial(exponents: Iterable[int], coef: Scalar = 1) -> "Polynomial":
        exp = tuple(int(e) for e in exponents)
        return Polynomial(len(exp), {exp: Fraction(coef)})

    # -- ring operations ---------------------------------------------------

    def _compatible(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            c = out.get(mono, Fraction(0)) + coef
            if c == 0:
                out.pop(mono, None)
            else:
                out[mono] = c
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            s = Fraction(other)
            return Polynomial(self.dim, {m: c * s for m, c in self.terms.items()})
        self._compatible(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = out.get(m, Fraction(0)) + c1 * c2
                if c == 0:
                    out.pop(m, None)
                else:
                    out[m] = c
        return Polynomial(self.dim, out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, tuple(sorted(self.terms.items()))))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def coefficient(self, mono: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(int(e) for e in mono), Fraction(0))

    def sorted_terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        for mono in sorted(self.terms):
            yield mono, self.terms[mono]

    def __call__(self, x):
        """Evaluate at a point.

        Accepts a sequence of Fractions/ints (exact result) or floats/arrays
        (numeric result, vectorized over trailing axes when x is an ndarray
        of shape (..., dim))."""
        if isinstance(x, np.ndarray):
            acc = np.zeros(x.shape[:-1])
            for mono, coef in self.terms.items():
                term = float(coef) * np.ones(x.shape[:-1])
                for k, e in enumerate(mono):
                    if e:
                        term = term * x[..., k] ** e
                acc = acc + term
            return acc
        if len(x) != self.dim:
            raise ValueError("point dimension mismatch")
        acc = Fraction(0) if all(isinstance(v, (int, Fraction)) for v in x) else 0.0
        for mono, coef in self.terms.items():
            term = coef if isinstance(acc, Fraction) else float(coef)
            for v, e in zip(x, mono):
                if e:
                    term = term * v**e
            acc = acc + term
        return acc

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for mono, coef in self.sorted_terms():
            vars_part = "*".join(
                f"x{k+1}" + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(mono)
                if e
            )
            bits.append(f"{coef}" + (f"*{vars_part}" if vars_part else ""))
        return "Polynomial(" + " + ".join(bits) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "d": self.dim,
            "terms": [
                {"exp": list(mono), "num": coef.numerator, "den": coef.denominator}
                for mono, coef in self.sorted_terms()
            ],
        }
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "Polynomial":
        obj = json.loads(text)
        terms = {
            tuple(t["exp"]): Fraction(t["num"], t["den"]) for t in obj["terms"]
        }
        return Polynomial(obj["d"], terms)


def check_axis(i: int, dim: int) -> None:
    """ValueError unless 1 <= i <= dim: i names axis e_i of R^dim."""
    if not 1 <= i <= dim:
        raise ValueError(f"axis {i} out of range 1..{dim}")


# ---------------------------------------------------------------------------
# kappa parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaParams:
    """Multiplicity parameter kappa for S_d with the derived constants.

    lambda_kappa = C(d,2) kappa + (d-2)/2 is the Gegenbauer index of the
    reduced one-variable theory, critical_delta = lambda_kappa - (d-1) kappa
    the summability threshold at the coordinate vectors, and c_kappa the
    normalization of the simplex representation of the intertwining operator.
    kappa = 0 is admitted for the classical reductions (the operator is then
    the identity, represented by the unit vertex masses with c_kappa = 1).
    """

    d: int
    kappa: Fraction
    lambda_kappa: Fraction = field(init=False)
    critical_delta: Fraction = field(init=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("need d >= 2")
        kappa = Fraction(self.kappa)
        if kappa < 0:
            raise ValueError("kappa must be >= 0")
        object.__setattr__(self, "kappa", kappa)
        lam = math.comb(self.d, 2) * kappa + Fraction(self.d - 2, 2)
        object.__setattr__(self, "lambda_kappa", lam)
        object.__setattr__(self, "critical_delta", lam - (self.d - 1) * kappa)

    @property
    def kappa_float(self) -> float:
        return float(self.kappa)

    @property
    def c_kappa(self) -> float:
        """Gamma(d kappa + 1) / (kappa Gamma(kappa)^d); 1 at kappa = 0, where
        the simplex measure tends to the unit vertex masses of the vertex rule."""
        if self.kappa == 0:
            return 1.0
        k = self.kappa_float
        return math.exp(
            math.lgamma(self.d * k + 1) - math.lgamma(k + 1) - (self.d - 1) * math.lgamma(k)
        )

    @property
    def a_kappa(self) -> float:
        """Closed-form normalization making a_kappa * integral_S h^2 dsigma = 1."""
        d, k = self.d, self.kappa_float
        nck = math.comb(d, 2)
        omega = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
        log_val = (
            nck * k * math.log(2.0)
            + math.lgamma(nck * k + d / 2)
            - math.lgamma(d / 2)
            + sum(math.lgamma(k + 1) - math.lgamma(j * k + 1) for j in range(2, d + 1))
        )
        return math.exp(log_val) / omega

    @staticmethod
    def from_string(d: int, text: str) -> "KappaParams":
        """Parse kappa from 'p/q' (exact) or a decimal (the nearest rational
        with denominator at most 10^6)."""
        text = text.strip()
        if "/" in text:
            kappa = Fraction(text)
        else:
            kappa = Fraction(text).limit_denominator(10**6)
        return KappaParams(d, kappa)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def compositions(d: int, n: int) -> np.ndarray:
    """Every exponent tuple of length d summing to n, in sorted order, as the
    rows of an int64 array: each pass appends one coordinate 0..n - (sum so far)."""
    rows, sums = np.zeros((1, 0), dtype=np.int64), np.zeros(1, dtype=np.int64)
    for _ in range(d - 1):
        count = n - sums + 1
        src = np.repeat(np.arange(len(rows)), count)
        a = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
        rows, sums = np.column_stack([rows[src], a]), sums[src] + a
    return np.column_stack([rows, n - sums])


INT64_LIMIT = 2**63


def dunkl_sums(exps: np.ndarray, coefs: np.ndarray, axes: np.ndarray, groups: np.ndarray,
               dcoef: int, tcoef: int, partner: int | None = None,
               plus: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer Dunkl core: exact sums, per group, of

        dcoef d/dx_k + tcoef sum_j (1 - (k,j)) / (x_k - x_j)

    applied to the rows coefs[r] x^exps[r], k = axes[r] (0-based), j over
    every other axis or over partner alone, plus the rows of
    plus = (exps, coefs, groups) as they are.

    Each row expands into its derivative term and its telescoped terms: for
    exponents a > b on axes (k, j), (x_k^a x_j^b - x_k^b x_j^a) / (x_k - x_j)
    = sum_{r<a-b} x_k^{a-1-r} x_j^{b+r}.  (group, monomial) is one
    mixed-radix int64 key, and equal keys are summed by one argsort and
    np.add.reduceat (the sums are exact in any order, so the sort need not
    be stable).  The coefficients run on int64 when an exact Python-int
    bound on the sum of the absolute contributions, which bounds every
    partial sum, is below 2^63, and on Python ints (object arrays)
    otherwise; the same code serves both.

    Returns (groups, exps, coefs) of the nonzero sums, sorted by group and
    then by exponent tuple.  ValueError if the keys would not fit int64."""
    exps = np.asarray(exps, dtype=np.int64)
    d = exps.shape[1]
    pexps, pcoefs, pgroups = plus if plus is not None else (exps[:0], coefs[:0], groups[:0])
    pexps, pcoefs = np.asarray(pexps, dtype=np.int64), np.asarray(pcoefs)
    radix = int(max(exps.max(initial=0), pexps.max(initial=0))) + 1
    span = radix**d
    if span * (int(max(np.max(groups, initial=0), np.max(pgroups, initial=0))) + 1) >= INT64_LIMIT:
        raise ValueError("monomial keys exceed int64: degree or group count too large")
    weight = radix ** np.arange(d - 1, -1, -1, dtype=np.int64)
    base = np.asarray(groups, dtype=np.int64) * span + exps @ weight

    # Terms come in units that share a coefficient: a plus row, a derivative
    # term, or the |a - b| telescoped terms of a pair (row, j), whose keys
    # step by weight[j] - weight[k].  A unit is (coefficient array, source
    # rows, int64 factors, scalar, key of the first term, key step, count);
    # only the plus unit, whose scalar is 1, may be empty.
    a = exps[np.arange(len(exps)), axes]
    top = int(abs(np.asarray(coefs, dtype=object)).max(initial=0))
    bound = int(abs(pcoefs.astype(object)).sum())
    ones = np.ones(len(pexps), dtype=np.int64)
    units = [(pcoefs, np.arange(len(pexps)), ones, 1,
              np.asarray(pgroups, dtype=np.int64) * span + pexps @ weight, 0 * ones, ones)]
    if dcoef:
        bound += abs(dcoef) * top * int(a.sum())
        row = np.flatnonzero(a)
        ones = np.ones(len(row), dtype=np.int64)
        if len(row):
            units.append((coefs, row, a[row], dcoef, base[row] - weight[axes[row]], 0 * ones, ones))
    if tcoef:
        cols = np.arange(d)
        mask = cols != axes[:, None] if partner is None else cols == partner
        reach = np.abs(exps - a[:, None]) * mask
        bound += abs(tcoef) * top * int(reach.sum())
        row, j = np.nonzero(reach)
        ak, b, wk, wj = a[row], exps[row, j], weight[axes[row]], weight[j]
        first = base[row] + (np.maximum(ak, b) - 1 - ak) * wk + (np.minimum(ak, b) - b) * wj
        if len(row):
            units.append((coefs, row, np.sign(ak - b), tcoef, first, wj - wk, reach[row, j]))
    dtype = np.int64 if bound < INT64_LIMIT else object

    # rows without terms are left out of the bound, so convert after the gather
    values = np.concatenate([np.asarray(c)[row].astype(dtype) * factor * scalar
                             for c, row, factor, scalar, *_ in units])
    first, step, count = (np.concatenate(column) for column in list(zip(*units))[4:])
    offset = np.cumsum(count) - count  # index of each unit's first term
    keys = (np.repeat(first - offset * step, count)
            + np.arange(count.sum()) * np.repeat(step, count))
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate((keys[:1] >= 0, keys[1:] != keys[:-1])))  # keys >= 0
    sums = np.add.reduceat(np.repeat(values, count)[order], starts)
    keep = sums != 0
    out_groups, mono = np.divmod(keys[starts[keep]], span)
    return out_groups, (mono[:, None] // weight) % radix, sums[keep]


def laplacian_sums(exps: np.ndarray, coefs: np.ndarray, groups: np.ndarray,
                   params: KappaParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q^2 Delta_kappa = sum_i (q D_i)^2, kappa = p/q, summed per group: two
    dunkl_sums passes, the first keyed by (group, i)."""
    d, p, q = params.d, params.kappa.numerator, params.kappa.denominator
    axes = np.tile(np.arange(d), len(exps))
    inner, exps, coefs = dunkl_sums(np.repeat(exps, d, axis=0), np.repeat(coefs, d), axes,
                                    np.repeat(groups, d) * d + axes, q, p)
    return dunkl_sums(exps, coefs, inner % d, inner // d, q, p)


def _through_core(p: Polynomial, scale: int, core) -> Polynomial:
    """core(L p) / (L scale), L the least common denominator of p: core takes
    the rows (exps, coefs, groups) of L p, all in group 0, and returns
    (groups, exps, coefs) as dunkl_sums does."""
    lcd = math.lcm(*(c.denominator for c in p.terms.values()))
    exps = np.array(list(p.terms), dtype=np.int64).reshape(len(p.terms), p.dim)
    coefs = np.array([c.numerator * (lcd // c.denominator) for c in p.terms.values()],
                     dtype=object)
    _, exps, coefs = core(exps, coefs, np.zeros(len(coefs), dtype=np.int64))
    return Polynomial(p.dim, {tuple(m): Fraction(c, lcd * scale)
                              for m, c in zip(exps.tolist(), coefs.tolist())})


def _check_params(p: Polynomial, params: KappaParams) -> None:
    if p.dim != params.d:
        raise ValueError(f"polynomial dimension {p.dim} != params.d {params.d}")


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Exact formal d/dx_i, axis i in 1..d."""
    check_axis(i, p.dim)
    # every row is in group 0 and acts on axis i: the axes are the groups + i - 1
    return _through_core(p, 1, lambda e, c, g: dunkl_sums(e, c, g + i - 1, g, 1, 0))


def transposition_action(p: Polynomial, i: int, j: int) -> Polynomial:
    """p(x (i,j)): swap variables x_i and x_j."""
    check_axis(i, p.dim)
    check_axis(j, p.dim)
    if i == j:
        raise ValueError("transposition needs i != j")
    perm = list(range(p.dim))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    return Polynomial(p.dim, {tuple(m[k] for k in perm): c for m, c in p.terms.items()})


def divided_difference(p: Polynomial, i: int, j: int) -> Polynomial:
    """(p - p(x(i,j))) / (x_i - x_j), exact, by term-wise telescoping."""
    check_axis(i, p.dim)
    check_axis(j, p.dim)
    if i == j:
        raise ValueError("divided difference needs i != j")
    return _through_core(p, 1, lambda e, c, g: dunkl_sums(e, c, g + i - 1, g, 0, 1, j - 1))


def dunkl_apply(p: Polynomial, i: int, params: KappaParams) -> Polynomial:
    """The Dunkl operator D_i p for S_d with multiplicity params.kappa: for
    kappa = r/q in lowest terms, q D_i = q d/dx_i + r sum_{j != i} (1 - (i,j))
    / (x_i - x_j) by dunkl_sums on p with its denominators cleared."""
    _check_params(p, params)
    check_axis(i, p.dim)
    r, q = params.kappa.numerator, params.kappa.denominator
    return _through_core(p, q, lambda e, c, g: dunkl_sums(e, c, g + i - 1, g, q, r))


def dunkl_laplacian(p: Polynomial, params: KappaParams) -> Polynomial:
    """Delta_kappa p = sum_i D_i^2 p: q^2 Delta_kappa by laplacian_sums on p
    with its denominators cleared."""
    _check_params(p, params)
    return _through_core(p, params.kappa.denominator**2,
                         lambda e, c, g: laplacian_sums(e, c, g, params))
