import hashlib
import json
import random
import re
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import fraction_oracle as oracle
from exact_oracle import rref_mod, saturation

from paramodular import exactmat
from paramodular.altlat import _solve_mod_squarefree
from paramodular.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    PrimalityUnproven,
    ScaleLimit,
    SingularMatrix,
)
from paramodular.exactmat import (
    Mat,
    crt,
    echelon_mod,
    factor,
    hermite_normal_form,
    hnf_rows,
    is_prime,
    is_symplectic,
    leading_minors,
    lattice_intersection,
    left_kernel,
    lll_gram,
    rational_inverse,
    smith_divisors,
    smith_normal_form,
    solve_right,
    valuation,
    xgcd,
)
from paramodular.heckelocal import LocalShape


def test_snf_identity():
    I = Mat.identity(2)
    U, D, V = smith_normal_form(I)
    assert D == I and U @ I @ V == D


def test_snf_diag_2_3():
    U, D, V = smith_normal_form(Mat.diagonal([2, 3]))
    assert [D[0, 0], D[1, 1]] == [1, 6]
    assert U @ Mat.diagonal([2, 3]) @ V == D


def test_snf_diag_1_p():
    A = Mat.diagonal([1, 7])
    U, D, V = smith_normal_form(A)
    assert D == A


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_snf_properties(nr, nc, seed):
    rng = random.Random(seed)
    A = Mat([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
    U, D, V = smith_normal_form(A)
    assert U @ A @ V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    ds = [D[i, i] for i in range(min(nr, nc))]
    for a, b in zip(ds, ds[1:]):
        assert a >= 0
        assert (b % a == 0) if a else (b == 0)


def test_hnf_examples():
    I = Mat.identity(3)
    H, U = hermite_normal_form(I)
    assert H == I and U == I
    H, U = hermite_normal_form(Mat([[2, 0], [1, 1]]))
    assert H == Mat([[1, 1], [0, 2]])
    assert U @ Mat([[2, 0], [1, 1]]) == H
    H, _ = hermite_normal_form(Mat.zeros(2, 2))
    assert H.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hnf_uniqueness(seed):
    # two bases of the same lattice have the same Hermite form
    rng = random.Random(seed)
    A = Mat([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
    ops = Mat.identity(3)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        E = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        E[i][j] = rng.randint(-3, 3)
        ops = Mat(E) @ ops
    H1, _ = hermite_normal_form(A)
    H2, _ = hermite_normal_form(ops @ A)
    assert H1 == H2


def test_rational_inverse():
    assert rational_inverse(Mat.identity(2)) == Mat.identity(2)
    D = Mat.diagonal([1, Fraction(3)])
    assert rational_inverse(D) == Mat.diagonal([1, Fraction(1, 3)])
    with pytest.raises(SingularMatrix):
        rational_inverse(Mat([[1, 1], [1, 1]]))


def _lll_reduced(H, delta=Fraction(3, 4)) -> bool:
    """Size reduction |mu_kj| <= 1/2 and the Lovasz condition, from the
    Gram-Schmidt data of the Gram H in Fractions."""
    n = len(H)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (H[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))) / B[j]
        B[i] = Fraction(H[i][i]) - sum(mu[i][k] ** 2 * B[k] for k in range(i))
    return (all(abs(mu[i][j]) <= Fraction(1, 2) for i in range(n) for j in range(i))
            and all(B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1] for k in range(1, n)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**6))
@example(6, 803096)     # the Lovasz condition holds with equality at k = 1
def test_lll_gram_is_an_lll_reduced_basis_change(n, seed):
    # B B^T for a random nonsingular B, in a basis skewed by large
    # elementary operations
    rng = random.Random(seed)
    while True:
        B = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if B.det():
            break
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 10) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-10**4, 10**4)
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    G = Mat(U) @ B @ B.transpose() @ Mat(U).transpose()
    V, H, d = lll_gram(G.rows)
    assert Mat(V) @ G @ Mat(V).transpose() == Mat(H)
    assert d == leading_minors(Mat(H))
    assert abs(Mat(V).det()) == 1
    assert _lll_reduced(H)
    assert prod(H[i][i] for i in range(n)) <= G.det() * 2 ** (n * (n - 1) // 2)


def test_lll_gram_examples():
    # a Gram on which the float enumerator once found no vector at Q = 2
    fault = [[6661984, -233340260, -193191218],
             [-233340260, 8172892180, 6766646248],
             [-193191218, 6766646248, 5602362106]]
    U, H, d = lll_gram(fault)
    assert H == [[4, 0, 0], [0, 6, 0], [0, 0, 6]] and d == [1, 4, 24, 144]
    assert U[0] == [1366, 39, 0]
    # a reduced Gram is kept as it is
    a2 = [[2, -1], [-1, 2]]
    assert lll_gram(a2) == ([[1, 0], [0, 1]], a2, [1, 2, 3])
    assert lll_gram([]) == ([], [], [1])
    for bad in ([[0]], [[-2]], [[2, 3], [3, 2]]):
        with pytest.raises(NotPositiveDefinite):
            lll_gram(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_inverse_roundtrip(seed):
    rng = random.Random(seed)
    while True:
        A = Mat([[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(3)] for _ in range(3)])
        if A.det() != 0:
            break
    assert A @ rational_inverse(A) == Mat.identity(3)
    assert rational_inverse(rational_inverse(A)) == A


def test_is_symplectic():
    J = Mat([[0, 1], [-1, 0]])
    assert is_symplectic(Mat.identity(2), J)
    assert not is_symplectic(Mat.diagonal([2, 2]), J)
    # the paramodular flip for the level form
    t = 3
    Jt = Mat([[0, t], [-t, 0]])
    flip = Mat([[0, Fraction(-1, t)], [t, 0]])
    assert is_symplectic(flip, Jt)
    with pytest.raises(DimensionMismatch):
        is_symplectic(Mat.identity(3), Mat.identity(3))


def test_kernel_and_saturation():
    A = Mat([[1, 2, 3], [2, 4, 6]])
    K = left_kernel(A)
    assert K.nrows == 1 and (K @ A).is_zero()
    S = saturation(Mat([[2, 4], [0, 0]]))
    assert S == Mat([[1, 2]])
    X = lattice_intersection(Mat([[2, 0], [0, 1]]), Mat([[1, 0], [0, 3]]))
    assert X == Mat([[2, 0], [0, 3]])


def test_json_codec():
    A = Mat([[1, Fraction(-3, 7)], [0, 12345678901234567890]])
    assert Mat.from_json(A.to_json()) == A


def test_crt_xgcd():
    g, s, t = xgcd(12, 18)
    assert g == 6 and s * 12 + t * 18 == 6
    x = crt([1, 2], [3, 5])
    assert x % 3 == 1 and x % 5 == 2


def test_hnf_rows_key():
    assert hnf_rows([[0, 0], [0, 0]]) == []
    assert hnf_rows([[2, 2], [0, 2]]) == [[2, 0], [0, 2]]


# -- the exact kernel against sympy ----------------------------------------


def test_factor():
    assert factor(1) == []
    assert factor(12) == [(2, 2), (3, 1)]
    assert factor(7) == [(7, 1)]
    assert [n for n in range(-3, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(7.0) and not is_prime("7")
    assert valuation(-48, 2) == 4 and valuation(5, 3) == 0
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        valuation(0, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_factor_matches_sympy(n):
    assert factor(n) == sorted(sympy.factorint(n).items())
    assert all(valuation(n, p) == e for p, e in factor(n))


def test_prime_test_and_factor_match_sympy_below_10_5():
    primes = set(sympy.sieve.primerange(2, 10**5))
    for n in range(-3, 10**5):
        assert is_prime(n) == (n in primes)
    for n in range(1, 10**5):
        f = factor(n)
        assert [p for p, _ in f] == sorted({p for p, _ in f}) and all(p in primes for p, _ in f)
        assert prod(p**e for p, e in f) == n


@pytest.mark.parametrize("n", [561, 3215031751, 2**61 - 1, 2**64 + 13, 1031 * 1033 * (2**61 - 1)])
def test_prime_test_and_factor_match_sympy_on_large_n(n):
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7; the last
    # n has factors past 2^10 and a prime cofactor that ends the search
    assert is_prime(n) == sympy.isprime(n)
    assert factor(n) == sorted(sympy.factorint(n).items())


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10**24 - 1))
def test_prime_test_and_factor_match_sympy_below_10_24(n):
    assert is_prime(n) == sympy.isprime(n)
    assert factor(n) == sorted(sympy.factorint(n).items())


def test_large_numbers_are_factored_or_refused_at_once():
    # rho splits the product of two Mersenne primes; from 3.3 * 10^24 on a
    # base that n fails proves it composite, but passing every base proves
    # nothing, so a prime there raises
    t0 = time.perf_counter()
    assert factor((2**61 - 1) * (2**31 - 1)) == [(2**31 - 1, 1), (2**61 - 1, 1)]
    assert time.perf_counter() - t0 < 1
    t0 = time.perf_counter()
    with pytest.raises(PrimalityUnproven):
        is_prime(2**89 - 1)
    assert time.perf_counter() - t0 < 1
    assert not is_prime((2**89 - 1) * (2**61 - 1))
    with pytest.raises(PrimalityUnproven):
        factor(3 * (2**89 - 1))


def test_rho_refuses_past_its_step_budget(monkeypatch):
    # rho splits two primes near 2^40 in about 2^20 steps; with a budget of
    # 2^10 it raises at once, and says how far it got, which is never past
    # the budget: a run of steps that would pass it is refused before it starts
    n = sympy.prevprime(2**40) * sympy.nextprime(2**40)
    for budget in (1 << 10, 1000, 5000):
        monkeypatch.setattr(exactmat, "_RHO_STEPS", budget)
        t0 = time.perf_counter()
        with pytest.raises(ScaleLimit, match=rf"Pollard's rho reached (\d+) steps on {n}, "
                                             rf"over the budget of {budget}") as info:
            factor(n)
        assert time.perf_counter() - t0 < 1
        steps = int(re.search(r"reached (\d+) steps", str(info.value)).group(1))
        assert 0 < steps <= budget


def test_large_prime_moduli_return_at_once():
    d = 2**64 + 13
    t0 = time.perf_counter()
    x = _solve_mod_squarefree(Mat([[2, 3], [5, 7]]), [1, 4], d)
    assert time.perf_counter() - t0 < 0.1
    assert ((2 * x[0] + 3 * x[1] - 1) % d, (5 * x[0] + 7 * x[1] - 4) % d) == (0, 0)
    t0 = time.perf_counter()
    LocalShape(2**61 - 1, 1, 0)
    assert time.perf_counter() - t0 < 0.1


def _int_matrix(rng, nr, nc, k):
    # alternate dense small entries with sparse ones whose pivots often fail
    # to divide the rest of the block
    pool = range(-9, 10) if k % 2 else (0, 0, 0, 2, -3, 4, 6, 9, -10, 15)
    return Mat([[rng.choice(pool) for _ in range(nc)] for _ in range(nr)])


def test_snf_transforms_pinned():
    # U, D, V of 400 seeded matrices, as computed before smith_normal_form
    # and smith_divisors shared one elimination
    rng = random.Random(2024)
    out = []
    for k in range(400):
        A = _int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), k)
        out.append([M.to_json() for M in smith_normal_form(A)])
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "4040cfa1eaa75c8c9af15b12d2c94d656e06d4b4be49af0c452b8e49927ac655"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 10**6))
def test_smith_divisors(nr, nc, seed):
    A = _int_matrix(random.Random(seed), nr, nc, seed)
    divs = smith_divisors([list(r) for r in A.rows])
    _, D, _ = smith_normal_form(A)
    assert divs == [D[i, i] for i in range(min(nr, nc)) if D[i, i]]
    # d_1 ... d_k is the gcd of the k x k minors
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows in combinations(A.rows, k):
            for cols in combinations(range(nc), k):
                g = gcd(g, int(sympy.Matrix([[r[c] for c in cols] for r in rows]).det()))
        if g == 0:
            assert len(divs) == k - 1
            break
        assert divs[k - 1] * prev == g
        prev = g


def _rational_matrix(rng, nr, nc):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.8 else 0
             for _ in range(nc)] for _ in range(nr)]


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in map(Fraction, r)] for r in rows])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_det_and_inverse_match_sympy(n, seed):
    rows = _rational_matrix(random.Random(seed), n, n)
    A, S = Mat(rows), _sym(rows)
    assert A.det() == S.det()
    if S.det() == 0:
        with pytest.raises(SingularMatrix):
            rational_inverse(A)
    else:
        assert rational_inverse(A) == Mat([[Fraction(int(x.p), int(x.q)) for x in S.inv().row(i)]
                                           for i in range(n)])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_solve_right_matches_sympy(nr, nc, seed):
    rng = random.Random(seed)
    rows = _rational_matrix(rng, nr, nc)
    b = [Fraction(rng.randint(-3, 3)) for _ in range(nr)]
    x = solve_right(Mat(rows), b)
    try:
        sol, params = _sym(rows).gauss_jordan_solve(_sym([[v] for v in b]))
    except ValueError:
        assert x is None
        return
    # both set the free variables to zero
    sol = sol.subs({t: 0 for t in params})
    assert x == tuple(Fraction(int(v.p), int(v.q)) for v in sol)


def _kernel_input(rng, nr, nc, kind):
    """An nr x nc matrix: integers up to 10^6, small Fractions, or of rank
    below min(nr, nc) with either kind of entries."""
    big = kind == "int" or kind == "deficient" and rng.random() < 0.5

    def entry():
        if big:
            return rng.randint(-10**6, 10**6)
        return Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 30))
    if kind in ("int", "fraction"):
        return [[entry() for _ in range(nc)] for _ in range(nr)]
    basis = [[entry() for _ in range(nc)] for _ in range(rng.randint(0, min(nr, nc) - 1))]
    return [[sum((rng.randint(-3, 3) * b[j] for b in basis), Fraction(0)) for j in range(nc)]
            for _ in range(nr)]


def _qq(rows, nc):
    return DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in map(Fraction, r)]
                         for r in rows], (len(rows), nc), sympy.QQ)


def _frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.sampled_from(["int", "fraction", "deficient"]),
       st.integers(0, 10**6))
def test_fraction_free_kernel_matches_oracle_and_sympy(n, nc, kind, seed):
    rng = random.Random(seed)
    A = Mat(_kernel_input(rng, n, n, kind))
    d = A.det()
    assert d == oracle.det(A) == _frac(_qq(A.rows, n).det())
    assert type(d) is type(oracle.det(A))
    if d == 0:
        with pytest.raises(SingularMatrix):
            rational_inverse(A)
    else:
        inv = rational_inverse(A)
        assert inv == oracle.rational_inverse(A)
        assert inv.rows == tuple(tuple(map(_frac, r)) for r in _qq(A.rows, n).inv().to_list())
        # normalized entries: ints where integral, as Mat keeps them
        assert all(type(x) is int or x.denominator > 1 for r in inv.rows for x in r)
    # a system A x = b, rank deficient when kind says so, consistent or not
    R = _kernel_input(rng, n, nc, kind)
    b = [sum(rng.randint(-2, 2) * x for x in r) for r in R]
    if rng.random() < 0.5:
        b = [x + rng.randint(-1, 1) for x in b]
    x = solve_right(Mat(R), b)
    assert x == oracle.solve_right(Mat(R), b)
    assert x is None or all(type(v) is int or v.denominator > 1 for v in x)
    rref, piv = _qq([list(r) + [v] for r, v in zip(R, b)], nc + 1).rref()
    if nc in piv:
        assert x is None
    else:
        want = [Fraction(0)] * nc
        for i, c in enumerate(piv):
            want[c] = _frac(rref.to_list()[i][nc])
        assert x == tuple(want)


def test_leading_minors():
    assert leading_minors(Mat([[2, -1], [-1, 2]])) == [1, 2, 3]
    assert leading_minors(Mat([[0, 2], [2, 0]])) is None
    assert leading_minors(Mat([[1, 1], [1, 1]])) is None
    assert leading_minors(Mat([[4, 2, 0], [2, -1, 1], [0, 1, 3]])) == [1, 4, -8, -28]
    assert leading_minors(Mat([])) == [1]


def _span_mod(rows, p, n):
    return {tuple(sum(c * r[j] for c, r in zip(cs, rows)) % p for j in range(n))
            for cs in product(range(p), repeat=len(rows))}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**6))
def test_echelon_mod(p, nr, nc, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-2 * p, 2 * p) for _ in range(nc)] for _ in range(nr)]
    out = [r for r in echelon_mod([rows], p)[0].tolist() if any(r)]
    leads = [next(c for c, x in enumerate(r) if x) for r in out]
    assert leads == sorted(set(leads))
    for r, c in zip(out, leads):
        assert r[c] == 1 and all(0 <= x < p for x in r)
        assert all(other[c] == 0 for other in out if other is not r)
    assert _span_mod(out, p, nc) == _span_mod(rows, p, nc)


def _solvable_mod(rows, b, p):
    A = DomainMatrix([[sympy.GF(p)(x) for x in r] for r in rows], (len(rows), len(rows[0])),
                     sympy.GF(p))
    Ab = DomainMatrix([[sympy.GF(p)(x) for x in list(r) + [y]] for r, y in zip(rows, b)],
                      (len(rows), len(rows[0]) + 1), sympy.GF(p))
    return A.rank() == Ab.rank()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 6, 10, 15, 30]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10**6))
def test_solve_mod_squarefree(d, nr, nc, seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(nc)]
            for _ in range(nr)]
    b = [rng.randint(-6, 6) for _ in range(nr)]
    x = _solve_mod_squarefree(Mat(rows), b, d)
    if not all(_solvable_mod(rows, b, p) for p, _ in factor(d)):
        assert x is None
        return
    assert x is not None
    assert all((sum(a * v for a, v in zip(r, x)) - y) % d == 0 for r, y in zip(rows, b))


# primes on either side of the int64 kernel: (p - 1)^2 < 2^63 holds at the
# prime 3,037,000,493 and fails at the next one, 3,037,000,507
KERNEL_PRIMES = [2, 3, 5, 7, 1_000_003, 3_037_000_493, 3_037_000_507, 4_294_967_311,
                 2**61 - 1, 2**64 + 13]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(KERNEL_PRIMES), st.integers(1, 12), st.integers(1, 4),
       st.integers(1, 5), st.integers(0, 10**6), st.booleans())
def test_echelon_mod_matches_rref_mod(p, N, nr, nc, seed, big):
    # a random stack, each matrix against the oracle; big entries (beyond
    # int64) come in as an object array, and a few rows repeat or vanish
    rng = random.Random(seed)
    hi = 2**70 if big else 2 * p

    def row():
        kind = rng.random()
        return [0] * nc if kind < 0.15 else [rng.randint(-hi, hi) for _ in range(nc)]

    stack = []
    for _ in range(N):
        rows = [row() for _ in range(nr)]
        if nr > 1 and rng.random() < 0.3:
            rows[-1] = [(a + 2 * b) for a, b in zip(rows[0], rows[1])]
        stack.append(rows)
    wide = any(abs(x) >= 2**63 for rows in stack for r in rows for x in r)
    arr = np.array(stack, dtype=object if big or wide else np.int64)
    out = echelon_mod(arr, p)
    assert out.shape == (N, nr, nc)
    assert out.dtype == (np.int64 if (p - 1) ** 2 < 2**63 else object)
    for rows, E in zip(stack, out.tolist()):
        want = rref_mod(rows, p)
        assert E == want + [[0] * nc] * (nr - len(want))


def test_kernel_primes():
    assert all(sympy.isprime(p) for p in KERNEL_PRIMES)


def test_echelon_mod_keeps_its_input():
    A = np.array([[[2, 4], [1, 3]]], dtype=np.int64)
    assert echelon_mod(A, 5).tolist() == [[[1, 0], [0, 1]]]
    assert A.tolist() == [[[2, 4], [1, 3]]]


@pytest.mark.parametrize("d", [1_000_003, 4_294_967_311])
def test_solve_mod_squarefree_large_prime(d):
    # a single large prime: no table of size d, and no int64 overflow
    assert sympy.isprime(d)
    rng = random.Random(d)
    cases = [([[2, 3], [5, 7]], [1, 4]), ([[2, 4], [1, 2]], [2, 1]), ([[2, 4], [1, 2]], [1, 1])]
    cases += [([[rng.randint(-10**12, 10**12) for _ in range(3)] for _ in range(3)],
               [rng.randint(-10**12, 10**12) for _ in range(3)]) for _ in range(3)]
    for rows, b in cases:
        t0 = time.perf_counter()
        x = _solve_mod_squarefree(Mat(rows), b, d)
        assert time.perf_counter() - t0 < 0.1
        if _solvable_mod(rows, b, d):
            assert x is not None
            assert all((sum(a * v for a, v in zip(r, x)) - y) % d == 0 for r, y in zip(rows, b))
        else:
            assert x is None
