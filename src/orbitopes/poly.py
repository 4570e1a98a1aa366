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

    __slots__ = ("nvars", "terms", "mode", "_cleared")

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
        object.__setattr__(self, "_cleared", None)

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

        Rational mode works on Python ints: with M the common denominator of
        the coefficients and L that of the point, M * L^D * p(point) is the
        integer-coefficient homogenization of M * p at (L, L * point).
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
        if self._cleared is None:
            object.__setattr__(self, "_cleared", self._cleared_terms())
        top, denom, terms = self._cleared
        lead, *rows = cleared_power_table(values, top)
        total = 0
        for coeff, pad, factors in terms:
            term = coeff * lead[pad]
            for i, e in factors:
                term *= rows[i][e]
            total += term
        return Fraction(total, denom * lead[top])

    def _cleared_terms(self) -> tuple[int, int, list]:
        """Degree D, common coefficient denominator M and, per term, the
        integer M * coefficient, D - |e| and the nonzero (variable, exponent)
        pairs; computed once for the rational evaluator."""
        top = self.degree
        denom = lcm(*[c.denominator for c in self.terms.values()])
        terms = [(c.numerator * (denom // c.denominator), top - sum(expo),
                  [(i, e) for i, e in enumerate(expo) if e])
                 for expo, c in self.terms.items()]
        return top, denom, terms

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


def cleared_power_table(point: Sequence[Fraction], degree: int) -> list[list[int]]:
    """Integer powers 0..degree of the cleared point (L, L*x_1, ..., L*x_n).

    L is the least common denominator of the point.  Row 0 holds the powers
    of L and row i those of the integer L*x_i, so L^degree * x^e for
    |e| <= degree is row 0 at degree - |e| times row i at e_i over all i.
    """
    denom = lcm(*[v.denominator for v in point])
    table = []
    for base in [denom] + [v.numerator * (denom // v.denominator) for v in point]:
        powers = [1]
        for _ in range(degree):
            powers.append(powers[-1] * base)
        table.append(powers)
    return table


def monomials_up_to_degree(nvars: int, max_degree: int) -> list[Exponent]:
    """All exponent tuples of total degree <= max_degree, ascending graded-lex."""
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
