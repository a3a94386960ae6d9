"""Exact sparse multivariate polynomials and Dunkl operators for the symmetric group.

Polynomial is a ``fractions.Fraction`` API over an integer Dunkl core: every
operator here is exact, and no floating point enters until a polynomial is
evaluated at a numeric point.  The Dunkl operator of the transposition group
S_d acting on R^d is

    D_i f = d f / d x_i + kappa * sum_{j != i} (f(x) - f(x (i,j))) / (x_i - x_j),

where x(i,j) swaps coordinates i and j.  The difference quotient is a genuine
polynomial, computed by term-wise telescoping.  For kappa = p/q in lowest
terms the core, scaled_dunkl, applies q D_i to an integer-coefficient map
dict[Monomial, int]; dunkl_apply and dunkl_laplacian clear the denominators,
run it and rescale.
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
        _check_axis(i, dim)
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


def _check_axis(i: int, dim: int) -> None:
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
    def from_string(d: int, text: str, max_denominator: int = 10**6) -> "KappaParams":
        """Parse kappa from 'p/q' (exact) or a decimal (nearest rational)."""
        text = text.strip()
        if "/" in text:
            kappa = Fraction(text)
        else:
            kappa = Fraction(text).limit_denominator(max_denominator)
        return KappaParams(d, kappa)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def compositions(d: int, n: int) -> Iterator[Monomial]:
    """Every exponent tuple of length d summing to n, in sorted order."""
    if d == 1:
        return iter([(n,)])
    return ((a,) + rest for a in range(n + 1) for rest in compositions(d - 1, n - a))


def _accumulate(out: dict, terms: Mapping[Monomial, Scalar], k: int, dcoef: Scalar,
                tcoef: Scalar, partners: Iterable[int]) -> dict:
    """Add dcoef d/dx_k + tcoef sum_{j in partners} (1 - (k,j)) / (x_k - x_j)
    of terms into out (axes 0-based; coefficients in the ring terms uses;
    cancelled entries stay as zeros).  For exponents a > b on axes (k, j),
    (x_k^a x_j^b - x_k^b x_j^a) / (x_k - x_j) = sum_{r<a-b} x_k^{a-1-r} x_j^{b+r}."""
    if dcoef:
        for mono, coef in terms.items():
            e = mono[k]
            if e:
                m = mono[:k] + (e - 1,) + mono[k + 1:]
                out[m] = out.get(m, 0) + dcoef * e * coef
    if tcoef:
        for j in partners:
            for mono, coef in terms.items():
                a, b = mono[k], mono[j]
                if a == b:
                    continue
                step = tcoef * coef if a > b else -tcoef * coef
                lo, hi = min(a, b), max(a, b)
                base = list(mono)
                for r in range(hi - lo):
                    base[k] = hi - 1 - r
                    base[j] = lo + r
                    m = tuple(base)
                    out[m] = out.get(m, 0) + step
    return out


def scaled_dunkl(terms: Mapping[Monomial, int], i: int, params: KappaParams,
                 out: dict[Monomial, int] | None = None) -> dict[Monomial, int]:
    """q D_i on an integer-coefficient map, for kappa = p/q in lowest terms:
    adds q d/dx_i + p sum_{j != i} (1 - (i,j)) / (x_i - x_j) of every term
    into out (a new dict when None), drops the entries that cancel, and
    returns out.  Integer in, integer out: no Fraction is built."""
    _check_axis(i, params.d)
    k = i - 1
    out = _accumulate({} if out is None else out, terms, k, params.kappa.denominator,
                      params.kappa.numerator, [j for j in range(params.d) if j != k])
    for m in [m for m, c in out.items() if not c]:
        del out[m]
    return out


def scaled_laplacian(terms: Mapping[Monomial, int], params: KappaParams) -> dict[Monomial, int]:
    """q^2 Delta_kappa = sum_i (q D_i)^2 on an integer-coefficient map."""
    out: dict[Monomial, int] = {}
    for i in range(1, params.d + 1):
        scaled_dunkl(scaled_dunkl(terms, i, params), i, params, out)
    return out


def _through_core(p: Polynomial, params: KappaParams, core, q_power: int) -> Polynomial:
    """core(L p) / (L q^q_power), L the least common denominator of p."""
    if p.dim != params.d:
        raise ValueError(f"polynomial dimension {p.dim} != params.d {params.d}")
    lcd = math.lcm(*(c.denominator for c in p.terms.values()))
    out = core({m: c.numerator * (lcd // c.denominator) for m, c in p.terms.items()})
    scale = lcd * params.kappa.denominator ** q_power
    return Polynomial(p.dim, {m: Fraction(c, scale) for m, c in out.items()})


def partial_derivative(p: Polynomial, i: int) -> Polynomial:
    """Exact formal d/dx_i, axis i in 1..d."""
    _check_axis(i, p.dim)
    return Polynomial(p.dim, _accumulate({}, p.terms, i - 1, 1, 0, ()))


def transposition_action(p: Polynomial, i: int, j: int) -> Polynomial:
    """p(x (i,j)): swap variables x_i and x_j."""
    _check_axis(i, p.dim)
    _check_axis(j, p.dim)
    if i == j:
        raise ValueError("transposition needs i != j")
    perm = list(range(p.dim))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    return Polynomial(p.dim, {tuple(m[k] for k in perm): c for m, c in p.terms.items()})


def divided_difference(p: Polynomial, i: int, j: int) -> Polynomial:
    """(p - p(x(i,j))) / (x_i - x_j), exact, by term-wise telescoping."""
    _check_axis(i, p.dim)
    _check_axis(j, p.dim)
    if i == j:
        raise ValueError("divided difference needs i != j")
    return Polynomial(p.dim, _accumulate({}, p.terms, i - 1, 0, 1, (j - 1,)))


def dunkl_apply(p: Polynomial, i: int, params: KappaParams) -> Polynomial:
    """The Dunkl operator D_i p for S_d with multiplicity params.kappa, via
    scaled_dunkl on p with its denominators cleared."""
    return _through_core(p, params, lambda terms: scaled_dunkl(terms, i, params), 1)


def dunkl_laplacian(p: Polynomial, params: KappaParams) -> Polynomial:
    """Delta_kappa p = sum_i D_i^2 p, via scaled_laplacian."""
    return _through_core(p, params, lambda terms: scaled_laplacian(terms, params), 2)
