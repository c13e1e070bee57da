"""Exact integer/rational linear algebra.

Everything in this package runs on Python ints and ``fractions.Fraction``;
floating point is banned.  A matrix argument is any sequence of rows
(lists or tuples) and a vector any sequence of numbers; the matrices and
vectors computed are lists (of lists), the short vectors of
`short_vectors` tuples.  All routines are deterministic: pivot selection
is always "smallest nonzero absolute value, then lowest (row, col) index"
so that normal forms and certificates are reproducible bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul


class VerificationError(Exception):
    """An internal certificate failed: the computed result is not trusted."""


# ---------------------------------------------------------------------------
# the exact-number boundary: callers skip these for values already exact


def as_int(x):
    """x if it is an int; a bool, a float or a non-number raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an int")
    return x


def as_rational(x):
    """x as a Fraction if it is an int or a Fraction; a bool, a float or a
    non-number raises ValueError."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"{x!r} is not an int or a Fraction")
    return Fraction(x)


# ---------------------------------------------------------------------------
# basic matrix helpers


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [list(row) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    """Matrix times column vector."""
    return [sum(map(mul, row, v)) for row in a]


def vec_mat(v, a):
    """Row vector times matrix."""
    return [sum(map(mul, v, col)) for col in zip(*a)]


def dot_gram(u, gram, v):
    """Pairing u·v with respect to a Gram matrix (zero coordinates of u skipped)."""
    return sum(x * sum(map(mul, row, v)) for x, row in zip(u, gram) if x)


def gram_of(rows, gram):
    """B·G·Bᵀ: the pairings of the vectors `rows` (the rows of B) under `gram`."""
    return [[sum(map(mul, a, b)) for b in rows] for a in mat_mul(rows, gram)]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(a):
    """Return (U, facs, V, W) with U·a·V = D, U and V unimodular, W = V⁻¹.

    D is the m×n matrix with the invariant factors facs = [d₁, d₂, …],
    d₁ | d₂ | … all positive, leading its diagonal and zeros elsewhere, so
    len(facs) is the rank.  W tracks every column operation on V as the
    inverse row operation (Cohen, GTM 138, §2.4.4).

    Pivot rule: smallest nonzero absolute value, ties broken by lowest
    (row, col) index.
    """
    A = copy_matrix(a)
    m = len(A)
    n = len(A[0]) if m else 0
    U = identity_matrix(m)
    V = identity_matrix(n)
    W = identity_matrix(n)

    def row_sub(i, k, q):
        if q:
            A[i] = [x - q * y for x, y in zip(A[i], A[k])]
            U[i] = [x - q * y for x, y in zip(U[i], U[k])]

    def col_sub(j, k, q):
        if q:
            for row in A:
                row[j] -= q * row[k]
            for row in V:
                row[j] -= q * row[k]
            W[k] = [x + q * y for x, y in zip(W[k], W[j])]

    def row_swap(i, k):
        A[i], A[k] = A[k], A[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]
        W[j], W[k] = W[k], W[j]

    k = 0
    while k < min(m, n):
        # pivot search
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            row_swap(piv[0], k)
        if piv[1] != k:
            col_swap(piv[1], k)

        while True:
            # clear column k
            for i in range(k + 1, m):
                while A[i][k]:
                    row_sub(i, k, A[i][k] // A[k][k])
                    if A[i][k]:
                        row_swap(i, k)
            # clear row k
            for j in range(k + 1, n):
                while A[k][j]:
                    col_sub(j, k, A[k][j] // A[k][k])
                    if A[k][j]:
                        col_swap(j, k)
            if all(A[i][k] == 0 for i in range(k + 1, m)) and all(
                A[k][j] == 0 for j in range(k + 1, n)
            ):
                break

        # enforce divisibility of the remaining block by the pivot
        d = A[k][k]
        bad = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if A[i][j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            # fold the offending row into row k and redo this pivot
            A[k] = [x + y for x, y in zip(A[k], A[bad])]
            U[k] = [x + y for x, y in zip(U[k], U[bad])]
            continue

        if A[k][k] < 0:
            A[k] = [-x for x in A[k]]
            U[k] = [-x for x in U[k]]
        k += 1

    return U, [A[i][i] for i in range(k)], V, W


def invariant_factors(a):
    """Invariant factors d₁ | d₂ | … of a (positive; as many as its rank)."""
    return smith_normal_form(a)[1]


# ---------------------------------------------------------------------------
# determinants and solving


def det_bareiss(a):
    """Exact determinant of an integer matrix (Bareiss fraction-free)."""
    A = copy_matrix(a)
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if A[i][k]), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def symmetric_bareiss(g):
    """Integral Gram–Schmidt data of a symmetric integer g (Cohen, GTM 138,
    §2.6.3) by fraction-free elimination without pivoting: a[i][i] = d[i+1],
    the (i+1)-th leading minor (d[0] = 1), and a[i][j] = λ[j][i] = d[i+1]·μ_ji
    for j > i; entries below the diagonal are unspecified.  Raises ValueError
    at the first leading minor ≤ 0, so it returns iff g is positive definite.
    """
    a = copy_matrix(g)
    n = len(a)
    prev = 1
    for k, row_k in enumerate(a):
        p = row_k[k]
        if p <= 0:
            raise ValueError("Gram matrix is not positive definite")
        # a stays symmetric: read a[i][k] as a[k][i], update only j ≥ i
        for i in range(k + 1, n):
            c, row = row_k[i], a[i]
            for j in range(i, n):
                row[j] = (row[j] * p - c * row_k[j]) // prev
        prev = p
    return a


def pivot_columns(a):
    """Indices of the columns of a that are not in the ℚ-span of earlier columns.

    Greedy: column j is kept when it raises the rank (the number of invariant
    factors) of the columns already kept.  They index a basis of the column
    space, and their number is the rank over ℚ.
    """
    cols = []
    for j in range(len(a[0]) if a else 0):
        if len(invariant_factors([[row[t] for t in cols + [j]] for row in a])) > len(cols):
            cols.append(j)
    return cols


def solve_unique(a, b):
    """Solve a·x = b (column convention) for an integer a of full column rank.

    With P·a·V = D (Smith form) and r the rank, a·x = b is solvable iff
    (P·b)ᵢ = 0 for i ≥ r, and then x = V·y with yᵢ = (P·b)ᵢ / dᵢ.  b may hold
    Fractions.  Returns a list of Fractions, or None when the system is
    inconsistent.  Raises ValueError when the solution is not unique.
    """
    n = len(a[0]) if a else 0
    p, facs, v, _ = smith_normal_form(a)
    if len(facs) < n:
        raise ValueError("solution not unique (rank-deficient system)")
    pb = mat_vec(p, b)
    if any(pb[n:]):
        return None
    den = lcm(*facs)
    y = [x * (den // di) for x, di in zip(pb, facs)]
    return [Fraction(x, den) for x in mat_vec(v, y)]


# ---------------------------------------------------------------------------
# kernels


def integer_kernel(a):
    """Basis (list of vectors) of {x ∈ ℤⁿ : a·x = 0}; automatically saturated:
    the columns of V past the rank."""
    _, facs, v, _ = smith_normal_form(a)
    return transpose(v)[len(facs):]


# ---------------------------------------------------------------------------
# LLL reduction on a Gram matrix (integral: Cohen, GTM 138, Alg. 2.6.7)

LLL_DELTA = (3, 4)  # Lovász constant δ = 3/4, as (numerator, denominator)


def lll_reduce_gram(g0):
    """LLL-reduce a positive definite Gram matrix (δ = 3/4).

    Returns (g, u) with g = u·g0·uᵀ the reduced Gram and u unimodular.
    Integral LLL: d[i] is the i-th leading minor of the current Gram
    (d[0] = 1) and lam[k][j] = d[j+1]·μ_kj, all Python ints; every division
    below is exact.  Raises ValueError when g0 is not positive definite.
    """
    n = len(g0)
    p, q = LLL_DELTA
    g = copy_matrix(g0)
    u = identity_matrix(n)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def new_row(k):
        # incremental Gram–Schmidt for row k: lam[k][0..k-1] and d[k+1]
        for j in range(k + 1):
            t = g[k][j]
            for i in range(j):
                t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = t
            elif t <= 0:
                raise ValueError("Gram matrix is not positive definite")
            else:
                d[k + 1] = t

    def red(k, l):
        # size-reduce b_k against b_l
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        u[k] = [x - r * y for x, y in zip(u[k], u[l])]
        row = [x - r * y for x, y in zip(g[k], g[l])]
        row[k] -= r * row[l]
        g[k] = row
        for j, x in enumerate(row):
            g[j][k] = x
        lam[k][l] -= r * d[l + 1]
        for i in range(l):
            lam[k][i] -= r * lam[l][i]

    def swap(k):
        # exchange b_{k-1} and b_k, then update d[k] and column k-1, k of lam
        u[k - 1], u[k] = u[k], u[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
        d[k] = b

    if n:
        new_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            new_row(k)
        red(k, k - 1)
        if q * d[k + 1] * d[k - 1] < p * d[k] ** 2 - q * lam[k][k - 1] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return g, u


# ---------------------------------------------------------------------------
# short vector enumeration (Fincke–Pohst on integral Gram–Schmidt data)


def _level_range(r, w, den, c):
    """(lo, hi) with lo ≤ x ≤ hi iff w·(den·x + c)² ≤ r, for r ≥ 0, w, den > 0."""
    s = isqrt(r // w)
    return -((s + c) // den), (s - c) // den


def short_vectors(gram, bound):
    """All x ≠ 0 with 0 < xᵀ·gram·x ≤ bound (an int or a Fraction), one per ±pair.

    `gram` must be positive definite (ValueError otherwise).  Coordinates are
    w.r.t. the basis of `gram`; each representative has its last nonzero
    coordinate positive (the recursion runs from the last index down).

    Fincke–Pohst in ints: with d, λ from `symmetric_bareiss`, level i adds
    (d[i+1]·x_i + C_i)² / (d[i]·d[i+1]), C_i = Σ_{j>i} λ[j][i]·x_j.  Times
    S = lcm_i d[i]·d[i+1], that is w_i·(d[i+1]·x_i + C_i)² with the integer
    w_i = S / (d[i]·d[i+1]), and the budget is ⌊bound·S⌋.
    """
    n = len(gram)
    a = symmetric_bareiss(gram)
    d = [1] + [a[i][i] for i in range(n)]
    scale = lcm(*(d[i] * d[i + 1] for i in range(n)))
    levels = [
        (scale // (d[i] * d[i + 1]), d[i + 1],
         [(j, a[i][j]) for j in range(i + 1, n) if a[i][j]])
        for i in range(n)
    ]
    budget = bound.numerator * scale // bound.denominator
    results = []
    x = [0] * n

    def rec(i, remaining, nonzero_above):
        if i < 0:
            if remaining < budget:
                results.append(tuple(x))
            return
        w, den, cols = levels[i]
        c = sum(lam * x[j] for j, lam in cols)
        lo, hi = _level_range(remaining, w, den, c)
        if not nonzero_above:
            lo = max(lo, 0)
        for xi in range(lo, hi + 1):
            x[i] = xi
            rec(i - 1, remaining - w * (den * xi + c) ** 2, nonzero_above or xi != 0)
        x[i] = 0

    if budget >= 0:
        rec(n - 1, budget, False)
    return results


def vectors_of_norm(gram, norm):
    """All x (one per ±pair) with xᵀ·gram·x exactly `norm` (gram pos. def.)."""
    return [x for x in short_vectors(gram, norm)
            if dot_gram(x, gram, x) == norm]
