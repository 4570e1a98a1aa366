"""Sparse multivariate polynomial arithmetic over exact rationals or floats.

A polynomial is a map from exponent tuples to coefficients:

    x0^2 * x1 + 3   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3)}

Zero coefficients are never stored, so the zero polynomial is the empty map
and equality testing is exact dict comparison.  Every polynomial carries a
coefficient mode: RATIONAL (arbitrary-precision ``Fraction``) or FLOAT
(64-bit floats).  Arithmetic never mixes modes; :meth:`SparsePoly.to_float`
converts a rational polynomial explicitly.

The text serialization is one term per line, ``numerator/denominator e1 e2
... en``, with terms listed in descending graded-lex order so that files are
byte-stable.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import isfinite, lcm
from typing import Mapping, Sequence

import numpy as np

Exponent = tuple[int, ...]


class CoeffMode(enum.Enum):
    """Coefficient domain of a :class:`SparsePoly`."""

    RATIONAL = "rational"
    FLOAT = "float64"


def _coerce(value, mode: CoeffMode):
    if mode is CoeffMode.RATIONAL:
        if type(value) is Fraction:  # the constructor's type checks are slow
            return value
        if isinstance(value, float):
            raise TypeError("float value in rational mode; convert explicitly")
        return Fraction(value)
    return float(value)


def grlex_key(exponent: Exponent) -> tuple:
    """Sort key realizing graded-lex order with the first variable largest."""
    return (sum(exponent), exponent)


class SparsePoly:
    """Immutable sparse polynomial in ``nvars`` variables.

    Do not mutate ``terms`` after construction; all operations return new
    polynomials.
    """

    __slots__ = ("nvars", "terms", "mode", "_integer_form")

    def __init__(self, nvars: int, terms: Mapping[Exponent, object] = (),
                 mode: CoeffMode = CoeffMode.RATIONAL):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: dict[Exponent, object] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for expo, coeff in items:
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent {expo} has length {len(expo)}, expected {nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            value = _coerce(coeff, mode)
            if expo in clean:
                value = clean[expo] + value
            if value == 0:
                clean.pop(expo, None)
            else:
                clean[expo] = value
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_integer_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, mode: CoeffMode = CoeffMode.RATIONAL) -> "SparsePoly":
        return cls(nvars, {}, mode)

    @classmethod
    def constant(cls, nvars: int, value, mode: CoeffMode = CoeffMode.RATIONAL) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: value}, mode)

    @classmethod
    def variable(cls, nvars: int, index: int, mode: CoeffMode = CoeffMode.RATIONAL) -> "SparsePoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): 1}, mode)

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: Sequence[int]):
        key = tuple(int(e) for e in exponent)
        zero = Fraction(0) if self.mode is CoeffMode.RATIONAL else 0.0
        return self.terms.get(key, zero)

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        """Terms in descending graded-lex order (canonical listing)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.mode is other.mode
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.mode, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return (f"SparsePoly(nvars={self.nvars}, mode={self.mode.value}, "
                f"terms={self.num_terms}, degree={self.degree})")

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparsePoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        if self.mode is not other.mode:
            raise ValueError(f"mode mismatch: {self.mode.value} vs {other.mode.value}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            value = out.get(expo, 0) + coeff
            if value == 0:
                out.pop(expo, None)
            else:
                out[expo] = value
        return SparsePoly(self.nvars, out, self.mode)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()}, self.mode)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_compatible(other)
        out: dict[Exponent, object] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(a + b for a, b in zip(ea, eb))
                value = out.get(expo, 0) + ca * cb
                if value == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = value
        return SparsePoly(self.nvars, out, self.mode)

    def scale(self, scalar) -> "SparsePoly":
        scalar = _coerce(scalar, self.mode)
        if scalar == 0:
            return SparsePoly.zero(self.nvars, self.mode)
        return SparsePoly(self.nvars, {e: c * scalar for e, c in self.terms.items()}, self.mode)

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        result = SparsePoly.constant(self.nvars, 1, self.mode)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and calculus -------------------------------------------

    def evaluate(self, point: Sequence):
        """Evaluate at ``point`` (length ``nvars``); exact in rational mode.

        Rational mode is the one-point case of :func:`cleared_values`: the
        point is cleared to the integers (L, L * point), L the least common
        denominator of its coordinates, and with M and the integer
        coefficients of :meth:`integer_form` the value is that integer
        M * L^D * p(point) over M * L^D.
        """
        values = [_coerce(v, self.mode) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"point has length {len(values)}, expected {self.nvars}")
        if self.mode is CoeffMode.FLOAT:
            total = 0.0
            for expo, coeff in self.terms.items():
                term = coeff
                for e, v in zip(expo, values):
                    if e:
                        term *= v ** e
                total += term
            return total
        if not self.terms:
            return Fraction(0)
        top, denom, exponents, ints = self.integer_form()
        lead = lcm(*[v.denominator for v in values])
        cleared = [lead] + [v.numerator * (lead // v.denominator)
                            for v in values]
        value = cleared_values(exponents, [ints], top, [cleared])[0, 0]
        return Fraction(value, denom * lead ** top)

    def integer_form(self) -> tuple[int, int, list[Exponent], list[int]]:
        """The degree D of a rational polynomial, the least common
        denominator M of its coefficients, its exponents and, in the same
        order, the integers M * coefficient: the input of
        :func:`cleared_values`.  Computed once per polynomial."""
        if self._integer_form is None:
            denom = lcm(*[c.denominator for c in self.terms.values()])
            form = (self.degree, denom, list(self.terms),
                    [c.numerator * (denom // c.denominator)
                     for c in self.terms.values()])
            object.__setattr__(self, "_integer_form", form)
        return self._integer_form

    def partial(self, index: int) -> "SparsePoly":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[Exponent, object] = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            new = list(expo)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return SparsePoly(self.nvars, out, self.mode)

    def gradient(self, point: Sequence) -> tuple:
        """All partial derivatives evaluated at ``point``."""
        return tuple(self.partial(i).evaluate(point) for i in range(self.nvars))

    def restrict(self, assignments: Mapping[int, object]) -> "SparsePoly":
        """Substitute values for a subset of variables.

        The result is a polynomial in the remaining variables, in their
        original order.  An empty assignment returns the polynomial itself.
        """
        if not assignments:
            return self
        fixed = {int(i): _coerce(v, self.mode) for i, v in assignments.items()}
        for i in fixed:
            if not 0 <= i < self.nvars:
                raise ValueError(f"variable index {i} out of range for nvars={self.nvars}")
        keep = [i for i in range(self.nvars) if i not in fixed]
        out: dict[Exponent, object] = {}
        for expo, coeff in self.terms.items():
            value = coeff
            for i, v in fixed.items():
                e = expo[i]
                if e:
                    value *= v ** e
            if value == 0:
                continue
            new = tuple(expo[i] for i in keep)
            acc = out.get(new, 0) + value
            if acc == 0:
                out.pop(new, None)
            else:
                out[new] = acc
        return SparsePoly(len(keep), out, self.mode)

    # -- mode conversion ----------------------------------------------------

    def to_float(self) -> "SparsePoly":
        if self.mode is CoeffMode.FLOAT:
            return self
        return SparsePoly(self.nvars, {e: float(c) for e, c in self.terms.items()},
                          CoeffMode.FLOAT)

    # -- text format ---------------------------------------------------------

    def dumps(self) -> str:
        """Serialize as one term per line: ``numerator/denominator e1 ... en``."""
        lines = []
        for expo, coeff in self.sorted_terms():
            if self.mode is CoeffMode.RATIONAL:
                head = f"{coeff.numerator}/{coeff.denominator}"
            else:
                head = repr(coeff)
            lines.append(" ".join([head, *map(str, expo)]))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def loads(cls, text: str) -> "SparsePoly":
        """Parse the text format; infers nvars and the mode from the first
        term.  Text without terms, a coefficient that is not a finite
        number (``nan``, ``1e400``, ``1/0``), or a float one after a
        rational first coefficient, is a ValueError."""
        terms: dict[Exponent, object] = {}
        nvars = mode = None
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, *rest = line.split()
            expo = tuple(int(tok) for tok in rest)
            if nvars is None:
                nvars = len(expo)
            is_float = "/" not in head and any(ch in head for ch in ".eE")
            try:
                coeff = float(head) if is_float else Fraction(head)
                finite = isfinite(coeff)
            except (ValueError, ZeroDivisionError, OverflowError):
                finite = False
            if not finite:
                raise ValueError(f"coefficient {head!r} is not a finite number")
            if mode is None:
                mode = CoeffMode.FLOAT if is_float else CoeffMode.RATIONAL
            if mode is CoeffMode.FLOAT:
                coeff = float(coeff)
            elif is_float:
                raise ValueError(f"float coefficient {head!r} in a rational polynomial")
            terms[expo] = terms.get(expo, 0) + coeff
        if nvars is None:
            raise ValueError("the polynomial text has no terms")
        return cls(nvars, terms, mode or CoeffMode.RATIONAL)

    @classmethod
    def load_file(cls, path) -> "SparsePoly":
        with open(path, "r", encoding="ascii") as fh:
            return cls.loads(fh.read())


def kept_exponents(exponents: Sequence[Exponent], top: int,
                   factors: int) -> list[set[int]]:
    """The powers :func:`cleared_values` keeps of each of the ``factors``
    entries (L, L*x_1, ..., L*x_n) of a cleared point: L^(top - |e|) and
    (L*x_i)^(e_i) for every exponent e."""
    used: list[set[int]] = [set() for _ in range(factors)]
    for expo in exponents:
        used[0].add(top - sum(expo))
        for wanted, e in zip(used[1:], expo):
            wanted.add(e)
    return used


def cleared_values(exponents: Sequence[Exponent], vectors: Sequence[Sequence[int]],
                   top: int, points: Sequence[Sequence[int]]) -> np.ndarray:
    """Exact values of integer coefficient vectors at cleared points.

    Each point is given as the integers (L, L*x_1, ..., L*x_n) over its
    common denominator L, and each vector as its integer coefficients on
    ``exponents`` (each of total degree at most ``top``).  Entry (k, j) of
    the result, an object array of Python ints, is

        sum_t vectors[k][t] * L^(top - |e_t|) * (L*x)^(e_t)

    at point j: L^top times the value at x of vector k's polynomial.  Each
    monomial is computed once per point and multiplied into every vector
    with a nonzero coefficient on it.

    For each coordinate only the powers that some monomial uses are kept,
    in increasing order, each the previous kept power e' times the entry
    to the power e - e' (a plain product when e - e' = 1): a lone 128th
    power is one ``**``, not 128 products.  L takes the pads
    top - |e_t|.  A full table of every power of every coordinate
    would not do: for two terms of degree 128 at frequency-64 secant
    points it held over a gigabyte for 256 points.
    """
    base = np.array(points, dtype=object).T
    powers = []
    for row, wanted in zip(base, kept_exponents(exponents, top, len(base))):
        kept, power, last = {0: 1}, 1, 0
        for e in sorted(wanted - {0}):
            power = power * (row if e - last == 1 else row ** (e - last))
            kept[e], last = power, e
        powers.append(kept)
    sums = np.zeros((len(vectors), len(points)), dtype=object)
    for t, expo in enumerate(exponents):
        value = powers[0][top - sum(expo)]
        for kept, e in zip(powers[1:], expo):
            if e:
                value = value * kept[e]
        for vec, total in zip(vectors, sums):
            if vec[t]:
                total += vec[t] * value
    return sums


def monomials_up_to_degree(nvars: int, max_degree: int) -> list[Exponent]:
    """All exponents of total degree <= max_degree, by degree, then descending."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    out: list[Exponent] = []
    for d in range(max_degree + 1):
        block: list[Exponent] = []

        def fill(prefix: list[int], remaining: int, slots: int) -> None:
            if slots == 1:
                block.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining + 1):
                fill(prefix + [e], remaining - e, slots - 1)

        fill([], d, nvars)
        block.sort(reverse=True)
        out.extend(block)
    return out
