"""Lattices with a nondegenerate alternating bilinear form.

A lattice is described by its Gram matrix on a fixed basis.  The routines
here produce para-symplectic bases, adapt a basis to a primitive totally
isotropic submodule, classify such submodules by their d-invariant, count
the boundary components attached to a group of isometries of the lattice,
and construct coset representatives for them.

Coordinate conventions: vectors are coordinate ROWS with respect to the
lattice basis, and the pairing of rows x, y is  x G (t_y).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
import random

from .approx import sl_lift
from .errors import (
    DegenerateForm,
    DimensionMismatch,
    InadmissibleD,
    IntegralityViolation,
    InvalidInvariant,
    InvalidLevel,
    InvalidRank,
    NonSquareFreeLevel,
    NotIsotropic,
    NotPrimitive,
)
from .exactmat import (
    Mat,
    _hnf_inplace,
    crt,
    echelon_mod,
    factor,
    hnf_rows,
    lattice_intersection,
    left_kernel,
    matmul_int,
    smith_divisors,
    smith_normal_form,
    solve_right,
    valuation,
    xgcd,
)


@dataclass(frozen=True)
class ParaBasis:
    """Unimodular change of basis to the shape (0, T; -T, 0), T = diag(divisors).

    ``transform`` rows are the new basis vectors (e_1..e_m, f_1..f_m) in the
    old coordinates; divisors form a chain d_i | d_{i+1}.
    """

    transform: Mat
    divisors: tuple[int, ...]


class AltLattice:
    """Full-rank lattice with an alternating nonsingular Gram matrix."""

    def __init__(self, gram: Mat, basis: Mat | None = None):
        if not gram.is_square() or gram.nrows % 2:
            raise DegenerateForm("alternating Gram must be square of even size")
        if not gram.is_integral():
            raise DegenerateForm("Gram must be integral")
        n = gram.nrows
        for i in range(n):
            if gram[i, i] != 0:
                raise DegenerateForm("nonzero diagonal entry")
            for j in range(i):
                if gram[i, j] != -gram[j, i]:
                    raise DegenerateForm("Gram is not skew-symmetric")
        self.gram = gram
        self.basis = basis
        self.rank = n
        self.m = n // 2
        self._para: ParaBasis | None = None
        self._level_det: tuple[int, int] | None = None
        self._gram_list = [list(r) for r in gram.rows]

    def __repr__(self):
        return f"AltLattice(rank={self.rank})"

    def para_basis(self) -> ParaBasis:
        if self._para is None:
            self._para = para_symplectic_basis(self)
        return self._para


@dataclass(frozen=True)
class IsotropicSubmodule:
    """Primitive totally isotropic submodule, given by generator rows."""

    generators: Mat
    rank: int

    @classmethod
    def from_rows(cls, L: AltLattice, rows) -> "IsotropicSubmodule":
        Z = Mat(rows)
        _isotropic_pairing(L, Z.rows)
        return cls(Mat(hnf_rows([list(r) for r in Z.rows])), Z.nrows)


def _isotropic_pairing(L: AltLattice, rows) -> list[list[int]]:
    """The pairings rows @ gram of generator rows checked to be integral and
    to span a primitive totally isotropic submodule of L."""
    if any(len(r) != L.rank for r in rows):
        raise DimensionMismatch(f"generators must have {L.rank} coordinates")
    if not all(isinstance(x, int) for r in rows for x in r):
        raise IntegralityViolation("generators must be integral")
    P = matmul_int(rows, L._gram_list)
    if any(map(any, matmul_int(P, list(zip(*rows))))):
        raise NotIsotropic("generators do not span a totally isotropic module")
    if not _primitive_rows(rows):
        raise NotPrimitive("generators are not a primitive system")
    return P


def standard_lattice(T) -> AltLattice:
    """Rank 2m lattice with Gram (0, diag(T); -diag(T), 0)."""
    T = list(T)
    if not T or any(t <= 0 for t in T):
        raise InvalidLevel("divisors must be positive")
    m = len(T)
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for i, t in enumerate(T):
        rows[i][m + i] = t
        rows[m + i][i] = -t
    return AltLattice(Mat(rows))


def para_symplectic_basis(L: AltLattice) -> ParaBasis:
    """Ordered para-symplectic basis via pair splitting.

    Repeatedly extracts a hyperbolic pair whose pairing divides every
    remaining pairing, which forces the divisor chain.
    """
    n = L.rank
    if L.gram.det() == 0:
        raise DegenerateForm("form is degenerate")
    basis = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    G = L.gram
    P = [[int(x) for x in row] for row in (Mat(basis) @ G @ Mat(basis).transpose()).rows]

    def addrow(k, c, src):
        if not c:
            return
        bk, bs = basis[k], basis[src]
        for t in range(n):
            bk[t] += c * bs[t]
        for t in range(n):
            P[k][t] += c * P[src][t]
        P[k][k] = 0
        for t in range(n):
            P[t][k] = -P[k][t]

    active = list(range(n))
    pairs = []
    while active:
        best = None
        for ii in active:
            for jj in active:
                x = P[ii][jj]
                if x > 0 and (best is None or x < P[best[0]][best[1]]):
                    best = (ii, jj)
        if best is None:
            raise DegenerateForm("form is degenerate")
        i, j = best
        while True:
            d = P[i][j]
            if d < 0:
                i, j = j, i
                d = -d
            progressed = False
            for k in active:
                if k in (i, j):
                    continue
                r = P[i][k] % d
                if r:
                    # <b_i, b_k - q b_j> = P[i][k] - q d = r
                    addrow(k, -(P[i][k] - r) // d, j)
                    j = k
                    progressed = True
                    break
                r = P[j][k] % d
                if r:
                    # <b_j, b_k + q b_i> = P[j][k] - q d = r
                    addrow(k, (P[j][k] - r) // d, i)
                    i, j = j, k
                    progressed = True
                    break
            if progressed:
                continue
            # exact clearing of the complement block against rows i, j
            for k in active:
                if k in (i, j):
                    continue
                addrow(k, -P[i][k] // d, j)
                addrow(k, P[j][k] // d, i)
            # pairing of the pair must divide the remaining block
            bad = None
            rest = [k for k in active if k not in (i, j)]
            for a_ in rest:
                for b_ in rest:
                    if P[a_][b_] % d:
                        bad = a_
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addrow(i, 1, bad)
        pairs.append((i, j, P[i][j]))
        active = [k for k in active if k not in (i, j)]
    pairs.sort(key=lambda t: t[2])
    order = [p[0] for p in pairs] + [p[1] for p in pairs]
    transform = Mat([basis[k] for k in order])
    divisors = tuple(p[2] for p in pairs)
    if any(b % a for a, b in zip(divisors, divisors[1:])):
        raise InvalidInvariant("pair splitting did not give a divisor chain")
    return ParaBasis(transform, divisors)


def level_and_det(L: AltLattice) -> tuple[int, int]:
    """(level N, positive determinant-root D) with D**2 = |det gram|."""
    if L._level_det is None:
        pb = L.para_basis()
        N, D = lcm(*pb.divisors), prod(pb.divisors)
        if D * D != abs(L.gram.det()):
            raise InvalidInvariant("divisor product does not match the determinant")
        L._level_det = (N, D)
    return L._level_det


def _solve_mod_squarefree(A: Mat, b, d: int):
    """Some integer x with A x = b (mod d), d squarefree; None if unsolvable."""
    nc = A.ncols
    aug = [list(r) + [bb] for r, bb in zip(A.rows, b)]
    sols, mods = [], []
    for p, _ in factor(d):
        x = [0] * nc
        for row in filter(any, echelon_mod([[[v % p for v in r] for r in aug]], p)[0].tolist()):
            lead = next(c for c, v in enumerate(row) if v)
            if lead == nc:
                return None
            x[lead] = row[nc]
        sols.append(x)
        mods.append(p)
    return tuple(crt([s[idx] for s in sols], mods) for idx in range(nc))


def adapt_to_isotropic(L: AltLattice, Z: IsotropicSubmodule):
    """Hyperbolic pairs (e_i, f_i, d_i) spanning off Z, plus the complement.

    The e_i span Z, the f_i span a totally isotropic module, pairings are
    <e_i, f_j> = d_i delta_ij with d_i | level, and the lattice splits as
    the span of the pairs orthogonal to the returned complement.  Vectors
    are rows in the coordinates of L; the complement carries its basis.
    """
    N, _ = level_and_det(L)
    if any(e > 1 for _, e in factor(N)):
        raise NonSquareFreeLevel(f"level {N} is not squarefree")
    _isotropic_pairing(L, Z.generators.rows)

    n = L.rank
    embed = Mat.identity(n)          # rows: current sublattice basis in L coords
    G = L.gram
    Zc = Z.generators
    pairs = []
    for _ in range(Z.rank):
        Gc = embed @ G @ embed.transpose()
        dim = Gc.nrows
        # pick e in Z with minimal pairing content (first Smith divisor)
        pairing = Zc @ Gc
        U, D, _V = smith_normal_form(pairing)
        d = D[0, 0]
        if not d or N % d:
            raise InvalidInvariant(f"pairing content {d} does not divide the level {N}")
        e = Mat([U.rows[0]]) @ Zc
        erow = list(e.rows[0])
        a = matmul_int([erow], Gc.rows)[0]
        # particular solution of a . y = d
        if gcd(*a) != d:
            raise InvalidInvariant("pairing content differs from the Smith divisor")
        y0 = _solve_linear_one([x // d for x in a])
        # kernel of a . y = 0
        ker = left_kernel(Mat([[x] for x in a]))
        # impose Gc y = 0 mod d on y = y0 + t K; -Gc y0 = y0 Gc, as Gc alternates
        if ker.nrows:
            GK = Gc @ ker.transpose()
            t = _solve_mod_squarefree(GK, matmul_int([y0], Gc.rows)[0], d)
            if t is None:
                raise InvalidInvariant("dual-adjusted partner must exist at squarefree level")
            frow = [x + y for x, y in zip(y0, matmul_int([t], ker.rows)[0])]
        else:
            frow = list(y0)
        # orthogonal complement of the pair inside the current lattice
        cols = matmul_int(Gc.rows, list(zip(erow, frow)))
        if matmul_int([erow], cols)[0][1] != d:
            raise InvalidInvariant("the partner does not pair to the Smith divisor")
        C = left_kernel(Mat(cols))
        if C.nrows != dim - 2:
            raise DegenerateForm("the hyperbolic pair has a degenerate complement")
        pairs.append((tuple((Mat([erow]) @ embed).rows[0]),
                      tuple((Mat([frow]) @ embed).rows[0]), d))
        # restrict Z to the complement and change coordinates
        Znext = lattice_intersection(Zc, C)
        newZ = []
        for row in Znext.rows:
            sol = solve_right(C.transpose(), row)
            if sol is None or not all(isinstance(v, int) for v in sol):
                raise IntegralityViolation("Z does not restrict to the complement")
            newZ.append(list(sol))
        Zc = Mat(newZ) if newZ else Mat.zeros(0, C.nrows)
        embed = C @ embed
    comp_gram = embed @ G @ embed.transpose()
    complement = AltLattice(comp_gram, basis=embed)
    return pairs, complement


def _solve_linear_one(a: list[int]) -> list[int]:
    """Integer y with a . y = 1 for a primitive integer vector a."""
    n = len(a)
    y = [0] * n
    g = 0
    coeffs = [0] * n
    for i, x in enumerate(a):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            coeffs = [0] * n
            coeffs[i] = 1 if x > 0 else -1
            continue
        gg, s, t = xgcd(g, x)
        coeffs = [s * c for c in coeffs]
        coeffs[i] += t
        g = gg
    if g != 1:
        raise NotPrimitive("vector is not primitive")
    return coeffs


def d_invariant(L: AltLattice, Z: IsotropicSubmodule) -> int:
    """Product of the modular scales of a hyperbolic companion of Z.

    Equals the index of the pairing image of the ambient lattice inside
    Hom(Z, Z[1]), computed from the Smith divisors of the pairing matrix.
    """
    N, _ = level_and_det(L)
    if any(e > 1 for _, e in factor(N)):
        raise NonSquareFreeLevel(f"level {N} is not squarefree")
    return prod(smith_divisors(_isotropic_pairing(L, Z.generators.rows)))


def orbit_equivalent(L: AltLattice, Z1: IsotropicSubmodule, Z2: IsotropicSubmodule) -> bool:
    """Same isometry-group orbit: equal rank and equal d-invariant."""
    if Z1.rank != Z2.rank:
        return False
    return d_invariant(L, Z1) == d_invariant(L, Z2)


def admissible_d_values(m: int, u: int, N: int, D: int) -> list[int]:
    """All d | D with d | N**u and (D/d) | N**(m-u), ascending."""
    if not (0 <= u <= m):
        raise InvalidRank(f"need 0 <= u <= m, got u={u}, m={m}")
    if N < 1 or D < 1:
        raise InvalidLevel(f"need N >= 1 and D >= 1, got N={N}, D={D}")
    fN = factor(N)
    if any(e > 1 for _, e in fN):
        raise NonSquareFreeLevel(f"N={N} is not squarefree")
    primes = [p for p, _ in fN]
    exps = {}
    rest = D
    for p in primes:
        e = valuation(D, p)
        if e > m:
            raise InvalidRank(f"multiplicity of {p} in D exceeds m")
        exps[p] = e
        rest //= p ** e
    if rest != 1:
        raise InvalidRank("D has a prime factor outside N")
    out = [1]
    for p in primes:
        lo = max(0, exps[p] - (m - u))
        hi = min(u, exps[p])
        if lo > hi:
            return []
        out = [d * p**s for d in out for s in range(lo, hi + 1)]
    return sorted(out)


def cusp_count(m: int, u: int, ell: dict[int, int]) -> int:
    """Number of boundary components of codimension-u type."""
    if not (0 <= u <= m):
        raise InvalidRank(f"need 0 <= u <= m, got u={u}")
    out = 1
    for p, lp in ell.items():
        if not (0 <= lp <= m):
            raise InvalidRank(f"need 0 <= l_p <= m at p={p}")
        out *= min(u, m - u, lp, m - lp) + 1
    return out


def cusp_representative(L: AltLattice, u: int, d: int) -> Mat:
    """Block matrix diag(S, tS^{-1}) moving the standard isotropic flag.

    S is in SL_m(Z) and congruent to a signed permutation matrix modulo each
    prime dividing the level; the image flag realizes the d-invariant d.
    The matrix is written with respect to the rescaled symplectic basis
    (e_1..e_m, f_1/d_1..f_m/d_m) of an ordered para-symplectic basis.
    """
    S = cusp_matrix_S(L, u, d)
    m = S.nrows
    Sinv_t = S.inverse().transpose()
    zero = Mat.zeros(m, m)
    return Mat.from_blocks([[S, zero], [zero, Sinv_t]])


def cusp_matrix_S(L: AltLattice, u: int, d: int) -> Mat:
    pb = L.para_basis()
    m = L.m
    N, D = level_and_det(L)
    if not (0 <= u <= m):
        raise InvalidRank(f"need 0 <= u <= m, got u={u}")
    if d not in admissible_d_values(m, u, N, D):
        raise InadmissibleD(f"d={d} is not admissible for u={u}")
    r = m - u
    targets = {}
    for p, _ in factor(N):
        lp = sum(1 for x in pb.divisors if x % p == 0)
        sp = valuation(d, p)
        # position types: 0 for unit scale, 1 for p-divisible scale; each
        # segment puts its p-divisible scales last to keep the local chains
        seg1 = [0] * (r - (lp - sp)) + [1] * (lp - sp)
        seg2 = [0] * (m - r - sp) + [1] * sp
        types = seg1 + seg2
        zeros = [i for i in range(m) if pb.divisors[i] % p]
        ones = [i for i in range(m) if pb.divisors[i] % p == 0]
        sigma = []
        iz = io = 0
        for t in types:
            if t == 0:
                sigma.append(zeros[iz])
                iz += 1
            else:
                sigma.append(ones[io])
                io += 1
        rows = [[0] * m for _ in range(m)]
        for pos, idx in enumerate(sigma):
            rows[idx][pos] = 1
        # the permutation matrix has the sign of sigma as its determinant
        if Mat(rows).det() < 0:
            rows[sigma[0]][0] = -1
        targets[p] = Mat(rows)
    S = sl_lift(targets, m)
    return S


# ---------------------------------------------------------------------------
# Pseudo-random primitive isotropic submodules (reproducible via seed).
# ---------------------------------------------------------------------------


def sample_isotropic(L: AltLattice, u: int, rng: random.Random) -> IsotropicSubmodule:
    """One pseudo-random primitive totally isotropic submodule of rank u.

    Builds up greedily: a random primitive vector, then random vectors from
    the integer kernel of the pairing with the span so far, rejecting
    extensions that are not primitive; every random coordinate or
    coefficient is drawn from [-9, 9].  Each extension is isotropic: w pairs
    to 0 with the rows by its choice and with itself as the form alternates.
    """
    n = L.rank
    rows: list[list[int]] = []
    guard = 0
    while len(rows) < u:
        guard += 1
        if guard > 2000:
            raise InvalidRank("sampling failed; rank too large for the form?")
        if not rows:
            rows = [_random_primitive(n, rng)]
            continue
        K = _int_kernel_rows(matmul_int(rows, L._gram_list))
        if len(K) <= len(rows):
            raise InvalidRank("no isotropic extension exists")
        coeffs = [rng.randint(-9, 9) for _ in range(len(K))]
        cand = hnf_rows(rows + matmul_int([coeffs], K))
        if len(cand) == len(rows) + 1 and _primitive_rows(cand):
            rows = cand
    return IsotropicSubmodule(Mat(hnf_rows(rows)), u)


def _int_kernel_rows(pairing: list[list[int]]) -> list[list[int]]:
    """Basis of { v : pairing . v = 0 } over the integers (rows)."""
    n = len(pairing[0])
    A = [[pairing[i][j] for i in range(len(pairing))] for j in range(n)]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = _hnf_inplace(A, u)
    return [u[i] for i in range(r, n)]


def _primitive_rows(rows: list[list[int]]) -> bool:
    if len(rows) == 1:
        return gcd(*rows[0]) == 1
    if len(rows) == 2:
        g = 0
        n = len(rows[0])
        a, b = rows
        for i in range(n):
            for j in range(i + 1, n):
                g = gcd(g, a[i] * b[j] - a[j] * b[i])
                if g == 1:
                    return True
        return g == 1
    divs = smith_divisors([list(r) for r in rows])
    return len(divs) == len(rows) and all(d == 1 for d in divs)


def _random_primitive(n, rng):
    while True:
        v = [rng.randint(-9, 9) for _ in range(n)]
        g = gcd(*v)
        if g:
            return [x // g for x in v]


def sp_generator_matrices(T) -> list[Mat]:
    """Integer generators of the isometry group on the lattice basis.

    For the standard lattice of level diag(T): the Fourier-style flip and the
    elementary upper translations, written on the basis (e_i, f_i).
    """
    T = list(T)
    m = len(T)
    gens = []
    # flip: e_i -> f_i scaled, f_i -> -e_i scaled; on (e,f) coords this is
    # conjugate of (0, -T^{-1}; T, 0) by diag(1, T)
    rows = [[0] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        rows[i][m + i] = -1
        rows[m + i][i] = 1
    gens.append(Mat(rows))
    for i in range(m):
        rows = [[1 if a == b else 0 for b in range(2 * m)] for a in range(2 * m)]
        rows[i][m + i] = 1
        gens.append(Mat(rows))
    for i in range(m):
        for j in range(i + 1, m):
            rows = [[1 if a == b else 0 for b in range(2 * m)] for a in range(2 * m)]
            rows[i][m + j] = T[j] // T[i]
            rows[j][m + i] = 1
            gens.append(Mat(rows))
    return gens
