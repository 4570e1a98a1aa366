"""Exact nullspaces of integer/rational matrices.

Two solvers with the same contract (a certified basis of the right kernel):

* :func:`nullspace_bareiss` — single-pass fraction-free (Bareiss) elimination
  over the integers with exact rational back-substitution.  Entry growth is
  bounded by minors of the input, which is fine for a few dozen columns
  but far slower than the modular solver beyond that.
* :func:`nullspace_modular` — elimination over word-size prime fields
  (:func:`rref_mod_p`: in-place numpy row operations on int64 residues,
  forward on the trailing block, then back substitution on the free
  columns), Chinese remaindering and rational reconstruction of the kernel
  vectors, then one exact kernel test of the whole basis.  It never sees
  the integer matrix: its inputs are the residues modulo a given prime and
  the exact test, so a caller can form the residues without forming the
  integers.  The prime-field nullity bounds the rational nullity from
  above and the verified vectors bound it from below, so it stops at the
  first prime whose reconstruction passes the test; that is often the
  first prime.

Both eliminate only the first ``ncols + _PREFIX_MARGIN`` rows of a taller
matrix, check the result against the remaining rows and eliminate all rows
if the check fails.  A passing check proves the prefix has the whole
matrix's row space, so the results are those of all rows, whatever the
margin; a prefix of lower rank always fails it.

:func:`nullspace_exact` solves a matrix given as column blocks, each block
on its own, and picks one solver for all of them by the total column
count.  Both solvers return the same basis of a kernel, as coprime
integer vectors: per free column in increasing order, the kernel vector
that is nonzero there and zero on the other free columns, that is the
reduced echelon form of the kernel with its columns in reverse order.
Every prime of ``PRIMES`` is 1 modulo 4, so -1 has a square root modulo it
(:func:`sqrt_minus_one`), which lets a caller reduce Gaussian integers
modulo the prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from typing import Callable, Sequence

import numpy as np

# The largest primes below 2**30 that are 1 modulo 4: products of two
# residues stay well inside int64 during vectorized elimination, and each
# has a square root of -1.
PRIMES = (
    1073741789, 1073741741, 1073741717, 1073741689, 1073741621,
    1073741561, 1073741477, 1073741441, 1073741381, 1073741329,
)

_BAREISS_MAX_COLS = 35

# Rows eliminated beyond the column count before the rest are checked
# against the result; a prefix short of the full rank costs only the
# fallback to all rows.
_PREFIX_MARGIN = 8


def _to_integer_rows(rows: Sequence[Sequence]) -> list[Sequence[int]]:
    """Clear denominators row by row (row scaling preserves the kernel).

    Rows of Python ints are passed through as they are, not copied.
    """
    out = []
    for row in rows:
        if set(map(type, row)) <= {int}:
            out.append(row)
            continue
        denom = 1
        for x in row:
            if isinstance(x, Fraction):
                denom = denom * x.denominator // gcd(denom, x.denominator)
        out.append([int(x * denom) if isinstance(x, Fraction) else int(x) * denom
                    for x in row])
    return out


def bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns the echelon matrix and the list of pivot column indices.  All
    intermediate entries are exact minors of the input (Bareiss one-step
    formula), so the arithmetic stays in the integers.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        for i in range(r + 1, nrows):
            factor = m[i][col]
            row_i = m[i]
            row_r = m[r]
            for j in range(col, ncols):
                row_i[j] = (row_i[j] * pivot - factor * row_r[j]) // prev
        prev = pivot
        pivots.append(col)
        r += 1
    return m[:r], pivots


def nullspace_bareiss(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Exact kernel basis via fraction-free elimination; small matrices only.

    A matrix with more than ``ncols + _PREFIX_MARGIN`` rows is eliminated
    on that prefix first, and the prefix kernel's vectors are tested on the
    remaining rows.  The prefix kernel contains the whole kernel, so if
    every vector passes the two are equal.  The pivot columns depend only
    on the kernel, and so does the basis (per free column, the kernel
    vector that is 1 there and 0 on the other free columns), so it is the
    one all rows give.  If a vector fails, all rows are eliminated.
    """
    int_rows = _to_integer_rows(rows)
    if not int_rows:
        return []
    head = len(int_rows[0]) + _PREFIX_MARGIN
    if len(int_rows) > head:
        basis = _bareiss_kernel(int_rows[:head])
        if _verify_kernel(int_rows[head:], basis):
            return basis
    return _bareiss_kernel(int_rows)


def _bareiss_kernel(int_rows: list[Sequence[int]]) -> list[tuple[int, ...]]:
    """Kernel basis of nonempty integer rows: Bareiss, then exact rational
    back-substitution for each free column."""
    ncols = len(int_rows[0])
    echelon, pivots = bareiss_echelon(int_rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[tuple[int, ...]] = []
    for fc in free:
        v: list[Fraction] = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            row = echelon[i]
            acc = Fraction(0)
            for j in range(pc + 1, ncols):
                if v[j]:
                    acc += row[j] * v[j]
            v[pc] = -acc / row[pc]
        basis.append(tuple(_clear_vector(v)))
    return basis


def _clear_vector(v: list[Fraction]) -> list[int]:
    """Rescale to coprime integers with a positive leading entry."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def sqrt_minus_one(p: int) -> int:
    """A square root of -1 modulo the prime p = 1 (mod 4): c^((p-1)/4) for
    the least quadratic non-residue c, whose (p-1)/2-th power is -1."""
    if p % 4 != 1:
        raise ValueError(f"-1 has no square root modulo {p}")
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    return pow(c, (p - 1) // 4, p)


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) and its pivot columns.

    A matrix with more than ``ncols + _PREFIX_MARGIN`` rows is eliminated
    on that prefix first, and the remaining rows are multiplied modulo p by
    the prefix's kernel.  Over GF(p) the row space is the annihilator of
    the kernel, so a zero product means the prefix spans the whole row
    space; the reduced form is unique, so it is then the whole matrix's.
    Otherwise the whole matrix is eliminated.
    """
    head = matrix.shape[1] + _PREFIX_MARGIN
    if matrix.shape[0] > head:
        rref, pivots = _rref(matrix[:head], p)
        kernel = _kernel_mod_p(rref, pivots, p)
        if not _matmul_mod_p(matrix[head:], kernel, p).any():
            return rref, pivots
    return _rref(matrix, p)


def _rref(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """:func:`rref_mod_p` of all the rows.

    Two phases on the int64 residues: forward elimination in place, where
    each pivot clears only the trailing block below and right of it, then
    one back-substitution pass, last pivot first, on the free columns
    alone; the pivot columns become the identity.  The reduced form is
    unique, so it does not depend on the choice of pivot rows.

    The forward phase reduces the trailing block modulo p only once every
    ``reduce_every`` pivots: one update adds less than (p-1)^2 in absolute
    value, and ``reduce_every`` of them stay inside int64.  The pivot
    column and the pivot row are reduced before each use, so every product
    is below p^2.
    """
    a = np.mod(matrix, p).astype(np.int64)
    nrows, ncols = a.shape
    reduce_every = (2 ** 63 - 1 - p) // (p - 1) ** 2
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        column = a[r:, col]
        column %= p
        hits = np.flatnonzero(column)
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            a[[r, i], col:] = a[[i, r], col:]
        row = a[r, col:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        below = a[r + 1:, col:]
        below -= np.outer(below[:, 0], row)
        pivots.append(col)
        r += 1
        if r % reduce_every == 0:
            below %= p
    # Above its pivot a pivot column holds the multipliers and is then
    # cleared, so back substitution computes only the free columns.
    is_pivot = set(pivots)
    free = [c for c in range(ncols) if c not in is_pivot]
    tail = a[:r, free]
    for k in range(r - 1, 0, -1):
        tail[:k] -= np.outer(a[:k, pivots[k]], tail[k])
        tail[:k] %= p
    a = a[:r]
    a[:, pivots] = np.eye(r, dtype=np.int64)
    a[:, free] = tail
    return a, pivots


def _kernel_mod_p(rref: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Kernel of the reduced form modulo p, one column per free column fc
    in order: e_fc minus the sum of rref[i, fc] e_pivots[i]."""
    ncols = rref.shape[1]
    is_pivot = set(pivots)
    free = [c for c in range(ncols) if c not in is_pivot]
    kernel = np.zeros((ncols, len(free)), dtype=np.int64)
    kernel[free, np.arange(len(free))] = 1
    kernel[pivots] = -rref[:, free] % p
    return kernel


def _matmul_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` modulo p for int64 arrays, b with entries in [0, p).

    For p < 2^30, as for every prime of PRIMES, b is split into 15-bit
    halves: each product is then below 2^45, and a dot product of fewer
    than 2^18 terms stays inside int64.
    """
    high, low = np.divmod(b, 1 << 15)
    a = np.mod(a, p)
    return ((a @ high) % p * (1 << 15) + a @ low) % p


def rational_reconstruction(a: int, m: int) -> Fraction | None:
    """Recover n/d = a (mod m) with |n|, d <= sqrt(m/2); None if impossible."""
    a %= m
    if a == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def nullspace_modular(ncols: int, residues: Callable[[int], np.ndarray],
                      is_kernel: Callable[[list[tuple[int, ...]]], bool]
                      ) -> tuple[list[tuple[int, ...]], dict]:
    """Certified kernel basis of an integer matrix with ``ncols`` columns.

    ``residues(p)`` gives the matrix modulo the prime p as an int64 array,
    and ``is_kernel(basis)`` tells, in exact arithmetic, whether every
    integer vector of the candidate basis is in the kernel.  For each prime
    of PRIMES in turn, the loop takes the reduced row echelon form modulo
    p.  The primes whose nullity and pivot columns match the best seen so
    far (least nullity, then least pivot columns) are combined by Chinese
    remaindering, each kernel entry is reconstructed as a rational and
    each vector is cleared to coprime integers.  The loop stops at the
    first prime whose reconstruction passes ``is_kernel``.

    :func:`rref_mod_p` eliminates only a prefix of the rows, but it returns
    the whole matrix's reduced form: it checks the prefix kernel against
    the remaining rows modulo p and falls back to all rows when the prefix
    has the lower rank.  The exact test still runs on every row, so the
    certificate below is the one of all rows.

    Why the first such prime certifies the kernel: the rank modulo p is
    at most the rank over the rationals (a minor that is nonzero modulo p
    is nonzero), so the nullity modulo p bounds the rational nullity from
    above.  The returned vectors pass the exact test and are independent
    (each is nonzero on its own free column and zero on the other free
    columns), so they bound it from below by the same number.  A prime
    whose candidates fail the exact test (its modulus too small for the
    entries, or the prime divides a pivot minor) only moves the loop on.
    Modulo p every leading set of columns has at most its rational rank,
    so no prime has a smaller nullity or earlier pivot columns than the
    rational matrix; a prime with a larger nullity, or later pivots, loses
    to any prime without.

    Returns ``(basis, info)``; ``info`` records the primes combined, the
    prime-field nullity and whether it is met (``certified``).  Raises
    ``ArithmeticError`` if no prime of PRIMES gives a certified basis.
    """
    best: tuple[int, list[int]] | None = None
    mods: list[tuple[int, list[int], np.ndarray]] = []
    for p in PRIMES:
        # no local name keeps the residue matrix alive past the elimination
        rref, pivots = rref_mod_p(residues(p), p)
        key = (ncols - len(pivots), pivots)
        if best is None or key < best:
            best, mods = key, [(p, pivots, rref)]
        elif key == best:
            mods.append((p, pivots, rref))
        else:
            continue
        basis = _try_finish(mods, is_kernel)
        if basis is not None:
            return basis, {
                "primes": [q for q, _, _ in mods],
                "nullity_upper_bound": best[0],
                "certified": len(basis) == best[0],
            }
    raise ArithmeticError(
        f"kernel reconstruction failed with primes {list(PRIMES)}; "
        f"matrix may be degenerate")


def _try_finish(mods, is_kernel) -> list[tuple[int, ...]] | None:
    """CRT-combine the prime kernels, reconstruct, and verify exactly."""
    modulus = 1
    combined: list[list[int]] = []
    for p, pivots, rref in mods:
        vectors = _kernel_mod_p(rref, pivots, p).T.tolist()
        if modulus == 1:
            combined = vectors
        else:
            inv = pow(modulus % p, -1, p)
            combined = [
                [(o + modulus * (((v - o) * inv) % p)) % (modulus * p)
                 for o, v in zip(old, vec)]
                for old, vec in zip(combined, vectors)
            ]
        modulus *= p

    basis: list[tuple[int, ...]] = []
    for residues in combined:
        vec: list[Fraction] = []
        for a in residues:
            frac = rational_reconstruction(a, modulus)
            if frac is None:
                return None
            vec.append(frac)
        basis.append(tuple(_clear_vector(vec)))
    if basis and not is_kernel(basis):
        return None
    return basis


def _verify_kernel(int_rows: Sequence[Sequence[int]],
                   basis: Sequence[Sequence[int]]) -> bool:
    """Whether every integer vector of ``basis`` is in the kernel of the
    integer rows."""
    return all(sum(a * b for a, b in zip(row, ints) if b) == 0
               for row in int_rows for ints in basis)


def nullspace_exact(widths: Sequence[int],
                    rows: Callable[[int], Sequence[Sequence]],
                    residues: Callable[[int, int], np.ndarray],
                    is_kernel: Callable[[int, list[tuple[int, ...]]], bool]
                    ) -> tuple[list[list[tuple[int, ...]]], dict]:
    """Exact kernel basis of each column block of a matrix, the block j
    being ``widths[j]`` columns wide; the one place that picks the solver
    by width.

    The solver is picked once, by the width of the whole matrix.  Up to
    ``_BAREISS_MAX_COLS`` columns, Bareiss eliminates ``rows(j)``, block j
    as integer or rational rows.  Wider matrices send every block to
    :func:`nullspace_modular` with ``residues(j, p)`` and
    ``is_kernel(j, basis)``.  Returns the bases, block by block, and the
    report: the summed nullity bounds, whether every block met its bound
    (``certified``), and for the modular solver the primes any block
    combined, in ``PRIMES`` order.
    """
    blocks = range(len(widths))
    if sum(widths) <= _BAREISS_MAX_COLS:
        bases = [nullspace_bareiss(rows(j)) for j in blocks]
        return bases, {"method": "bareiss", "certified": True,
                       "nullity_upper_bound": sum(map(len, bases))}
    bases, primes, bound, certified = [], set(), 0, True
    for j in blocks:
        basis, info = nullspace_modular(widths[j], partial(residues, j),
                                        partial(is_kernel, j))
        bases.append(basis)
        primes.update(info["primes"])
        bound += info["nullity_upper_bound"]
        certified = certified and info["certified"]
    return bases, {"primes": [p for p in PRIMES if p in primes],
                   "nullity_upper_bound": bound, "certified": certified,
                   "method": "modular"}


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals (small matrices; fraction-free elimination)."""
    int_rows = _to_integer_rows(rows)
    if not int_rows:
        return 0
    _, pivots = bareiss_echelon(int_rows)
    return len(pivots)
