import random
from fractions import Fraction
from functools import partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitopes import exactla
from orbitopes.curve import Representation
from orbitopes.exactla import (PRIMES, _to_integer_rows,
                               _verify_kernel, bareiss_echelon,
                               exact_rank, nullspace_bareiss,
                               nullspace_exact, nullspace_modular,
                               rational_reconstruction, rref_mod_p,
                               sqrt_minus_one)
from orbitopes.poly import CoeffMode
from orbitopes.secantfit import fit_hypersurface, weight_blocks


def random_low_rank(rng, rows, cols, rank):
    left = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(cols)] for i in range(rows)]


def is_kernel(matrix, vec):
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in matrix)


def _row_residues(int_rows, p):
    """Integer rows modulo p, the ``residues`` of nullspace_modular."""
    return np.array([[x % p for x in row] for row in int_rows], dtype=np.int64)


def modular(matrix):
    """nullspace_modular of integer rows, through the two row adapters."""
    return nullspace_modular(len(matrix[0]), partial(_row_residues, matrix),
                             partial(_verify_kernel, matrix))


def test_bareiss_known_kernel():
    matrix = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    basis = nullspace_bareiss(matrix)
    assert len(basis) == 1
    assert is_kernel(matrix, basis[0])


def test_bareiss_full_rank_has_empty_kernel():
    assert nullspace_bareiss([[2, 0], [1, 1], [0, 3]]) == []


def test_bareiss_handles_rational_rows():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]
    assert nullspace_bareiss(matrix) == []
    matrix = [[Fraction(1, 2), Fraction(1, 4)]]
    basis = nullspace_bareiss(matrix)
    assert len(basis) == 1 and is_kernel([[2, 1]], basis[0])


def test_integer_rows_pass_through_and_rational_rows_are_cleared():
    ints = [1, -2, 3]
    rows = _to_integer_rows([ints, [Fraction(1, 2), Fraction(1, 3), 1]])
    assert rows[0] is ints
    assert rows[1] == [3, 2, 6]


def test_bareiss_echelon_pivots():
    echelon, pivots = bareiss_echelon([[0, 1, 2], [0, 2, 4], [3, 0, 0]])
    assert len(pivots) == 2
    assert len(echelon) == 2


def spy_on_eliminations(monkeypatch):
    """Row counts of the eliminations inside rref_mod_p, as a list."""
    eliminated = []
    rref = exactla._rref

    def spy(matrix, p):
        eliminated.append(matrix.shape[0])
        return rref(matrix, p)

    monkeypatch.setattr(exactla, "_rref", spy)
    return eliminated


def test_bareiss_falls_back_when_the_prefix_repeats_one_row():
    # the first ncols + margin rows are copies of one row, so the prefix
    # kernel has dimension 5 and fails on the later rows
    rng = random.Random(39)
    ncols = 6
    matrix = ([[rng.randint(-9, 9) for _ in range(ncols)]]
              * (ncols + exactla._PREFIX_MARGIN)
              + random_low_rank(rng, 6, ncols, 3))
    basis = nullspace_bareiss(matrix)
    assert len(basis) == ncols - exact_rank(matrix) < ncols - 1
    assert basis == exactla._bareiss_kernel(matrix)
    assert sorted(basis) == sorted(modular(matrix)[0])


def test_degree_8_fit_eliminates_one_prefix(monkeypatch):
    # one rref_mod_p call per weight block for the one prime, each of which
    # eliminates the block's columns + margin of the 130 rows (2.5 x the
    # largest block) and needs no fallback
    shapes = []
    rref_mod_p = exactla.rref_mod_p

    def spy(matrix, p):
        shapes.append(matrix.shape)
        return rref_mod_p(matrix, p)

    monkeypatch.setattr(exactla, "rref_mod_p", spy)
    eliminated = spy_on_eliminations(monkeypatch)
    rep = Representation((1, 3))
    fit = fit_hypersurface(rep, r=2, degree=8, seed=0, mode=CoeffMode.RATIONAL)
    assert fit.report["primes"] == [PRIMES[0]] and fit.report["certified"]
    widths = [block.size for block in weight_blocks(rep, 8)]
    assert sum(widths) == 495 and len(widths) == 24
    assert shapes == [(130, w) for w in widths]
    assert eliminated == [w + exactla._PREFIX_MARGIN for w in widths]


def test_modular_matches_bareiss_random():
    rng = random.Random(31)
    for trial in range(10):
        rows, cols = rng.randint(4, 10), rng.randint(3, 9)
        rank = rng.randint(1, min(rows, cols))
        matrix = random_low_rank(rng, rows, cols, rank)
        nb = nullspace_bareiss(matrix)
        nm, info = modular(matrix)
        assert info["certified"]
        assert sorted(nb) == sorted(nm), f"trial {trial}"


def test_modular_certifies_kernel_vectors():
    rng = random.Random(32)
    matrix = random_low_rank(rng, 20, 12, 7)
    basis, info = modular(matrix)
    assert len(basis) == 5
    assert info["nullity_upper_bound"] == 5
    for vec in basis:
        assert is_kernel(matrix, vec)


def test_modular_with_large_entries_and_small_kernel():
    # entries far exceed the primes, but the kernel itself is small: exactly
    # the regime of the interpolation matrices this solver exists for
    rng = random.Random(33)
    cols = [[rng.randint(-9, 9) * 10 ** 40 + rng.randint(-9, 9)
             for _ in range(6)] for _ in range(4)]
    cols.append([3 * a - 2 * b for a, b in zip(cols[0], cols[1])])
    matrix = [list(row) for row in zip(*cols)]
    basis, info = modular(matrix)
    assert info["certified"] and len(basis) == 1
    assert is_kernel(matrix, basis[0])
    assert sorted(abs(v) for v in basis[0]) == [0, 0, 1, 2, 3]


def column_blocks(matrix, widths):
    """The arguments of nullspace_exact for integer rows cut into column
    blocks of the given widths."""
    starts = np.cumsum([0, *widths]).tolist()
    blocks = [[row[a:b] for row in matrix] for a, b in zip(starts, starts[1:])]
    return (widths, lambda j: blocks[j],
            lambda j, p: _row_residues(blocks[j], p),
            lambda j, basis: _verify_kernel(blocks[j], basis))


def test_nullspace_exact_dispatches_by_width():
    # the solver is picked by the whole width, not by the block widths
    narrow = [[1, 2, 3, 0], [2, 4, 6, 5]]
    bases, info = nullspace_exact(*column_blocks(narrow, [3, 1]))
    assert info == {"method": "bareiss", "certified": True,
                    "nullity_upper_bound": 2}
    assert bases == [nullspace_bareiss([row[:3] for row in narrow]), []]
    wide = [[(i * j + 1) % 7 for j in range(200)] for i in range(4)]
    bases, info = nullspace_exact(*column_blocks(wide, [30, 170]))
    assert info["method"] == "modular" and info["certified"]
    assert info["primes"] == [PRIMES[0]]
    assert [len(b) for b in bases] == [30 - exact_rank([r[:30] for r in wide]),
                                       170 - exact_rank([r[30:] for r in wide])]
    assert info["nullity_upper_bound"] == sum(map(len, bases))
    for vec in bases[1][:3]:
        assert is_kernel([r[30:] for r in wide], vec)


def test_nullspace_exact_lists_the_primes_of_every_block_in_order():
    # the second block needs two primes, the first one: the report lists
    # both primes once, in PRIMES order
    rng = random.Random(40)
    rows = [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(60)]
    matrix = [[a, 2 * a, a, b, 10 ** 6 * a + b]
              + [rng.randint(-9, 9) for _ in range(32)] for a, b in rows]
    bases, info = nullspace_exact(*column_blocks(matrix, [2, 35]))
    assert info == {"primes": list(PRIMES[:2]), "nullity_upper_bound": 2,
                    "certified": True, "method": "modular"}
    assert bases[0] == [(Fraction(2), Fraction(-1))]
    assert bases[1] == [(Fraction(10 ** 6), Fraction(1), Fraction(-1))
                        + (Fraction(0),) * 32]


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_primes_are_one_mod_four_with_a_square_root_of_minus_one():
    assert len(set(PRIMES)) == 10 and list(PRIMES) == sorted(PRIMES)[::-1]
    for p in PRIMES + (5, 13):
        assert is_prime(p) and p % 4 == 1 and p < 2 ** 30
        i = sqrt_minus_one(p)
        assert 0 < i < p and i * i % p == p - 1
    # the ten largest such primes below 2^30
    assert [n for n in range(PRIMES[-1], 2 ** 30)
            if n % 4 == 1 and is_prime(n)] == sorted(PRIMES)
    for p in (3, 7, 1073741783):
        with pytest.raises(ValueError):
            sqrt_minus_one(p)


def test_modular_certifies_from_the_first_prime_that_reconstructs():
    # two column relations with small coefficients
    rng = random.Random(35)
    cols = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(5)]
    cols.append([2 * a - b for a, b in zip(cols[0], cols[1])])
    cols.append([c + 3 * d for c, d in zip(cols[2], cols[3])])
    matrix = [list(row) for row in zip(*cols)]
    basis, info = modular(matrix)
    assert info == {"primes": [PRIMES[0]], "nullity_upper_bound": 2,
                    "certified": True}
    assert sorted(basis) == sorted(nullspace_bareiss(matrix))


def test_modular_falls_back_to_two_primes_for_large_kernel_entries():
    # column 2 = 10**6 * column 0 + column 1: the cleared kernel vector has
    # an entry 10**6 > sqrt(p/2), beyond reconstruction from one prime
    rng = random.Random(36)
    rows = [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(5)]
    matrix = [[a, b, 10 ** 6 * a + b] for a, b in rows]
    basis, info = modular(matrix)
    assert info["certified"] and info["primes"] == list(PRIMES[:2])
    assert basis == [(Fraction(10 ** 6), Fraction(1), Fraction(-1))]


@pytest.mark.parametrize("matrix,kernel", [
    # 7 divides the 2 x 2 determinant: the rank drops modulo 7
    ([[7, 14], [1, 3]], []),
    # 7 divides the entry of the first pivot: modulo 7 the pivots move
    # from columns 0, 2 to columns 1, 2 at the same rank
    ([[7, 1, 0], [0, 0, 1]], [(Fraction(1), Fraction(-7), Fraction(0))]),
])
def test_modular_moves_on_from_an_unlucky_first_prime(monkeypatch, matrix,
                                                       kernel):
    monkeypatch.setattr(exactla, "PRIMES", (7,) + PRIMES)
    basis, info = modular(matrix)
    assert info["certified"] and info["primes"] == [PRIMES[0]]
    assert basis == kernel


def test_modular_refuses_candidates_that_fail_the_exact_test(monkeypatch):
    rng = random.Random(37)
    matrix = random_low_rank(rng, 10, 7, 4)
    tested = []

    def corrupted(rows, p):
        # the first prime sees column 0 zeroed: wrong candidate vectors
        residues = _row_residues(rows, p)
        if p == PRIMES[0]:
            residues[:, 0] = 0
        return residues

    def exact_test(basis):
        tested.append((basis, all(is_kernel(matrix, vec) for vec in basis)))
        return tested[-1][1]

    basis, info = nullspace_modular(7, partial(corrupted, matrix), exact_test)
    assert info["certified"] and PRIMES[0] not in info["primes"]
    assert any(not ok for _, ok in tested)
    assert all(is_kernel(matrix, vec) for vec in basis)
    assert sorted(basis) == sorted(nullspace_bareiss(matrix))

    with pytest.raises(ArithmeticError):
        nullspace_modular(7, partial(_row_residues, matrix),
                          lambda basis: False)


def test_exact_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 3), Fraction(2, 3)]]) == 1


def test_rref_mod_p_basic():
    p = PRIMES[0]
    rref, pivots = rref_mod_p(np.array([[2, 4], [1, 2]], dtype=np.int64), p)
    assert pivots == [0]
    assert rref.shape == (1, 2)
    inv2 = pow(2, -1, p)
    assert rref[0, 1] == (4 * inv2) % p


def test_rational_reconstruction_round_trip():
    m = PRIMES[0] * PRIMES[1]
    for value in (Fraction(0), Fraction(3, 7), Fraction(-22, 101),
                  Fraction(5), Fraction(-1, 2), Fraction(10 ** 8, 10 ** 8 + 7)):
        residue = (value.numerator * pow(value.denominator, -1, m)) % m
        assert rational_reconstruction(residue, m) == value


def test_rational_reconstruction_failure_is_none():
    # a residue corresponding to a fraction beyond the Wang bound
    m = 101
    assert rational_reconstruction(37, m) in (None, Fraction(37 - m), Fraction(37)) \
        or isinstance(rational_reconstruction(37, m), Fraction)
    big = Fraction(10 ** 30, 10 ** 30 + 1)
    residue = (big.numerator * pow(big.denominator, -1, PRIMES[0])) % PRIMES[0]
    assert rational_reconstruction(residue, PRIMES[0]) != big


def gauss_jordan_mod_p(rows, ncols, p):
    """Textbook Gauss-Jordan over GF(p) on lists of Python ints."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m[:r], pivots


@st.composite
def shaped_matrices(draw):
    kind = draw(st.sampled_from(
        ["tall", "wide", "rank-deficient", "zero-columns", "all-zero", "1xn",
         "short-prefix"]))
    entries = st.integers(-10 ** 12, 10 ** 12) | st.integers(-3, 3)
    # up to 12 pivots, so that the forward phase's deferred reduction
    # (every 8 pivots for primes near 2^30) takes place
    if kind == "1xn":
        nrows, ncols = 1, draw(st.integers(1, 12))
    elif kind == "tall":
        ncols = draw(st.integers(1, 12))
        nrows = draw(st.integers(ncols + 1, 16))
    elif kind == "wide":
        nrows = draw(st.integers(1, 12))
        ncols = draw(st.integers(nrows + 1, 16))
    elif kind == "short-prefix":
        ncols = draw(st.integers(1, 12))
        head = ncols + exactla._PREFIX_MARGIN
        nrows = draw(st.integers(head + 1, head + 6))
    else:
        nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if kind == "all-zero":
        return [[0] * ncols for _ in range(nrows)]
    if kind == "rank-deficient":
        rank = draw(st.integers(1, max(1, min(nrows, ncols) - 1)))
        left = draw(st.lists(st.lists(st.integers(-5, 5), min_size=rank,
                                      max_size=rank),
                             min_size=nrows, max_size=nrows))
        right = draw(st.lists(st.lists(st.integers(-5, 5), min_size=ncols,
                                       max_size=ncols),
                              min_size=rank, max_size=rank))
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if kind == "zero-columns":
        zero = draw(st.sets(st.integers(0, ncols - 1), min_size=1))
        rows = [[0 if j in zero else x for j, x in enumerate(row)]
                for row in rows]
    if kind == "short-prefix":
        # the rows that rref_mod_p eliminates first vanish on the last
        # column and a later row does not: modulo every prime the prefix
        # has a lower rank than the whole matrix
        for row in rows[:head]:
            row[-1] = 0
        rows[draw(st.integers(head, nrows - 1))][-1] = 1
    return rows


@settings(max_examples=150, deadline=None)
@given(shaped_matrices(), st.sampled_from([7, PRIMES[0], PRIMES[-1]]))
def test_rref_mod_p_matches_gauss_jordan(rows, p):
    ncols = len(rows[0])
    # residues first: the kernel takes int64 input, as nullspace_modular gives it
    matrix = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
    rref, pivots = rref_mod_p(matrix, p)
    expected, expected_pivots = gauss_jordan_mod_p(rows, ncols, p)
    assert pivots == expected_pivots
    assert rref.shape == (len(expected), ncols)
    assert rref.tolist() == expected


def test_rref_mod_p_many_pivots_matches_gauss_jordan():
    # 40 pivots: far more updates than int64 holds without the deferred
    # reduction of the trailing block
    rng = random.Random(34)
    p = PRIMES[0]
    for rows in ([[rng.randrange(p) for _ in range(40)] for _ in range(50)],
                 random_low_rank(rng, 50, 45, 30)):
        matrix = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
        rref, pivots = rref_mod_p(matrix, p)
        expected, expected_pivots = gauss_jordan_mod_p(rows, len(rows[0]), p)
        assert pivots == expected_pivots
        assert rref.tolist() == expected


def test_rref_mod_p_checks_the_prefix_without_overflow(monkeypatch):
    # full 30-bit residues and a 5-dimensional kernel: a residue times a
    # kernel entry nears 2^60, so a plain int64 product over 40 columns
    # would overflow and send this full-rank prefix to the fallback
    rng = random.Random(38)
    p = PRIMES[0]
    left = [[rng.randrange(p) for _ in range(35)] for _ in range(100)]
    right = [[rng.randrange(p) for _ in range(40)] for _ in range(35)]
    rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
            for row in left]
    eliminated = spy_on_eliminations(monkeypatch)
    rref, pivots = rref_mod_p(np.array(rows, dtype=np.int64), p)
    assert eliminated == [40 + exactla._PREFIX_MARGIN]
    expected, expected_pivots = gauss_jordan_mod_p(rows, 40, p)
    assert len(pivots) == 35
    assert pivots == expected_pivots
    assert rref.tolist() == expected
