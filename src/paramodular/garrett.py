"""Double cosets of a big symplectic group under a product of two lattice
isometry groups and the stabilizer of a maximal isotropic subspace.

The orbit of a maximal totally isotropic submodule X of an orthogonal sum of
two alternating lattices is classified by the d-invariants of the radicals
of its two projections, the common corank r, and the Hecke class of the
induced isomorphism between the quotients.  Representatives are lower
unipotent block matrices built from cusp matrices S_1, S_2 and a Hecke block
B of size r.

Coordinates: the combined space carries the symplectic basis
(e_1..e_m, e'_1..e'_n, v_1..v_m, v'_1..v'_n), where v_i = f_i / d_i; the
combined lattice therefore has basis matrix diag(1, T1 (+) T2) in these
coordinates.  Row-vector conventions follow altlat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .altlat import (
    AltLattice,
    IsotropicSubmodule,
    adapt_to_isotropic,
    admissible_d_values,
    cusp_matrix_S,
    d_invariant,
    level_and_det,
    standard_lattice,
)
from .errors import (
    InadmissibleD,
    IntegralityViolation,
    InvalidInvariant,
    NotContainedInRadical,
    NotInHalfSpace,
    NotIsotropic,
    NotMaximal,
    NotStabilizing,
)
from .exactmat import (
    Mat,
    factor,
    hnf_rows,
    is_symplectic,
    lattice_intersection,
    left_kernel,
    rational_inverse,
    solve_right,
    valuation,
)
from .heckelocal import classify_rel_rational, transpose_integrality


@dataclass(frozen=True)
class GarrettTriple:
    m: int
    n: int
    d: int
    d_prime: int
    r: int
    N1: int
    N2: int
    D1: int
    D2: int

    def __post_init__(self):
        if not (0 <= self.r <= min(self.m, self.n)):
            raise InadmissibleD("r out of range")
        u1, u2 = self.m - self.r, self.n - self.r
        if self.d not in admissible_d_values(self.m, u1, self.N1, self.D1):
            raise InadmissibleD(f"d={self.d} not admissible")
        if self.d_prime not in admissible_d_values(self.n, u2, self.N2, self.D2):
            raise InadmissibleD(f"d'={self.d_prime} not admissible")

    @property
    def u1(self) -> int:
        return self.m - self.r

    @property
    def u2(self) -> int:
        return self.n - self.r


def admissible_triples(m, n, N1, N2, D1, D2) -> list[GarrettTriple]:
    """All (d, d', r) allowed for the given ranks, levels and determinants."""
    out = []
    for r in range(min(m, n) + 1):
        for d in admissible_d_values(m, m - r, N1, D1):
            for dp in admissible_d_values(n, n - r, N2, D2):
                out.append(GarrettTriple(m, n, d, dp, r, N1, N2, D1, D2))
    return out


# ---------------------------------------------------------------------------
# The combined lattice and its two factors.
# ---------------------------------------------------------------------------


def standard_form(s: int) -> Mat:
    """The alternating matrix (0, I; -I, 0) of size 2s."""
    return Mat.from_blocks([[Mat.zeros(s, s), Mat.identity(s)],
                            [Mat.identity(s).scale(-1), Mat.zeros(s, s)]])


class CombinedLattice:
    """Orthogonal sum of two standard alternating lattices."""

    def __init__(self, T1, T2):
        self.T1 = tuple(T1)
        self.T2 = tuple(T2)
        self.m = len(self.T1)
        self.n = len(self.T2)
        self.L1 = standard_lattice(self.T1)
        self.L2 = standard_lattice(self.T2)
        self.L = standard_lattice(self.T1 + self.T2)
        s = self.m + self.n
        # column positions of the factor coordinates inside the sum
        self.cols1 = list(range(self.m)) + list(range(s, s + self.m))
        self.cols2 = list(range(self.m, s)) + list(range(s + self.m, 2 * s))
        self.N1, self.D1 = level_and_det(self.L1)
        self.N2, self.D2 = level_and_det(self.L2)
        # basis matrix in symplectic coordinates (e..e', v..v')
        self.E = Mat.diagonal([1] * s + list(self.T1) + list(self.T2))
        self.J = standard_form(s)

    def x0_rows(self) -> Mat:
        """The span of all e-vectors, in lattice coordinates."""
        s = self.m + self.n
        return Mat([[1 if j == i else 0 for j in range(2 * s)] for i in range(s)])

    def project(self, rows: Mat, factor: int) -> Mat:
        cols = self.cols1 if factor == 1 else self.cols2
        picked = [[row[c] for c in cols] for row in rows.rows]
        return Mat(hnf_rows(picked))

    def embed(self, rows: Mat, factor: int) -> Mat:
        cols = self.cols1 if factor == 1 else self.cols2
        s2 = 2 * (self.m + self.n)
        out = []
        for row in rows.rows:
            v = [0] * s2
            for c, x in zip(cols, row):
                v[c] = x
            out.append(v)
        return Mat(out)


@dataclass
class IsotropicPair:
    """Projections of a maximal isotropic submodule, with the induced map."""

    X: Mat
    X1: Mat
    X2: Mat
    rad1: Mat
    rad2: Mat
    r: int
    phi: Mat            # matrix of the induced map on the standard frame
    T: Mat              # divisor frame of the first complement (size r)
    T_prime: Mat        # divisor frame of the second complement
    frame1: Mat | None = None   # rows c_1..c_r, g_1..g_r in factor-1 coords
    frame2: Mat | None = None


def _radical(rows: Mat, gram: Mat) -> Mat:
    if rows.nrows == 0:
        return rows
    pair = rows @ gram @ rows.transpose()
    K = left_kernel(pair)
    if K.nrows == 0:
        return Mat.zeros(0, rows.ncols)
    return Mat(hnf_rows([list(r) for r in (K @ rows).rows]))


def split_radical(L: AltLattice, X: Mat, Z: IsotropicSubmodule) -> tuple[Mat, Mat]:
    """Split X as Z orthogonal-sum X' where Z sits inside the radical of X."""
    if Z.rank == 0:
        return Z.generators, X
    pair = Z.generators @ L.gram @ X.transpose()
    if not pair.is_zero():
        raise NotContainedInRadical("Z does not pair to zero with X")
    inter = lattice_intersection(Z.generators, X)
    if inter != Mat(hnf_rows([list(r) for r in Z.generators.rows])):
        raise NotContainedInRadical("Z is not contained in X")
    _pairs, comp = adapt_to_isotropic(L, Z)
    Xp = lattice_intersection(X, comp.basis)
    # X = Z + X' with trivial intersection
    merged = Mat(hnf_rows([list(r) for r in Z.generators.rows]
                          + [list(r) for r in Xp.rows]))
    if merged != X:
        raise InvalidInvariant("radical split failed to recover X")
    return Z.generators, Xp


def project_isotropic(comb: CombinedLattice, X: IsotropicSubmodule) -> IsotropicPair:
    """Projections, radicals, and the induced quotient isomorphism."""
    s = comb.m + comb.n
    Xrows = X.generators
    if X.rank != s:
        raise NotMaximal(f"X has rank {X.rank}, expected {s}")
    if not (Xrows @ comb.L.gram @ Xrows.transpose()).is_zero():
        raise NotIsotropic("X is not totally isotropic")

    projs, rads = [], []
    for f, L in ((1, comb.L1), (2, comb.L2)):
        P = comb.project(Xrows, f)
        rad = _radical(P, L.gram)
        # the intersection of X with the factor agrees with the radical
        if comb.project(lattice_intersection(Xrows, comb.embed(Mat.identity(L.rank), f)),
                        f) != rad:
            raise InvalidInvariant("factor intersections differ from radicals")
        projs.append(P)
        rads.append(rad)
    (X1, X2), (rad1, rad2) = projs, rads
    r2 = X1.nrows - rad1.nrows
    if r2 % 2 or (X2.nrows - rad2.nrows) != r2:
        raise NotMaximal("quotient ranks are inconsistent")
    r = r2 // 2
    if rad1.nrows != comb.m - r or rad2.nrows != comb.n - r:
        raise NotMaximal("radical ranks are inconsistent")

    if r == 0:
        return IsotropicPair(Xrows, X1, X2, rad1, rad2, 0,
                             Mat.zeros(0, 0), Mat.zeros(0, 0), Mat.zeros(0, 0))

    comp1, comp2 = (adapt_to_isotropic(L, IsotropicSubmodule.from_rows(L, rad.rows))[1]
                    for L, rad in ((comb.L1, rad1), (comb.L2, rad2)))

    # X' = X meet (comp1 perp comp2); its projections have full rank 2r
    comp_comb = Mat([list(r_) for r_ in comb.embed(comp1.basis, 1).rows]
                    + [list(r_) for r_ in comb.embed(comp2.basis, 2).rows])
    Xp = lattice_intersection(Xrows, comp_comb)
    if any(comb.project(Xp, f).nrows != 2 * r for f in (1, 2)):
        raise NotMaximal("projections of the complement part are not of rank 2r")

    # induced map phi on the rescaled standard frames of the complements
    pb1, pb2 = comp1.para_basis(), comp2.para_basis()
    base1 = pb1.transform @ comp1.basis       # rows c_1..c_r, g_1..g_r in L1 coords
    base2 = pb2.transform @ comp2.basis
    tau1, tau2 = pb1.divisors, pb2.divisors

    # phi(v) = pi_2 of the unique element of QX' projecting to v in factor 1
    Xp1 = Mat([[row[c] for c in comb.cols1] for row in Xp.rows])
    Xp2 = Mat([[row[c] for c in comb.cols2] for row in Xp.rows])

    def phi_of(v):
        lam = solve_right(Xp1.transpose(), v)
        if lam is None:
            raise InvalidInvariant("frame vector has no preimage in X'")
        return tuple(sum(lam[k] * Xp2[k, j] for k in range(Xp2.nrows))
                     for j in range(2 * comb.n))

    # frame vectors of W: sigma1 sends c_j to x_j and g_j / tau_j to y_j;
    # sigma2 sends g'_j to x_j and c'_j to tau'_j y_j
    def sigma2_coords(w):
        c = solve_right(base2.transpose(), w)
        if c is None:
            raise InvalidInvariant("image vector is not in the span of the frame")
        x = [c[r + i] for i in range(r)]
        y = [c[i] * tau2[i] for i in range(r)]
        return x + y

    cols = []
    for j in range(r):
        cols.append(sigma2_coords(phi_of(base1.rows[j])))
    for j in range(r):
        w = phi_of(base1.rows[r + j])
        cols.append([Fraction(x, tau1[j]) for x in sigma2_coords(w)])
    F = Mat(cols).transpose()
    if not is_symplectic(F, standard_form(r)):
        raise InvalidInvariant("induced map is not symplectic on the frame")
    return IsotropicPair(Xrows, X1, X2, rad1, rad2, r, F, Mat.diagonal(tau1),
                         Mat.diagonal(tau2), base1, base2)


# ---------------------------------------------------------------------------
# Representatives.
# ---------------------------------------------------------------------------


@dataclass
class GarrettRep:
    triple: GarrettTriple
    S1: Mat
    S2: Mat
    B: Mat
    T: Mat
    T_prime: Mat
    C: Mat
    full: Mat


def split_divisors(divisors, r: int, d: int) -> list[int]:
    """Reorder the divisor multiset so the last entries multiply to d and
    both segments keep their divisibility chains."""
    m = len(divisors)
    primes = {p for t in divisors for p, _ in factor(t)}
    tilde = [1] * m
    for p in sorted(primes):
        lp = sum(1 for t in divisors if t % p == 0)
        sp = valuation(d, p)
        if sp > lp:
            raise InadmissibleD(f"d={d} has more factors {p} than the divisors")
        head = lp - sp
        for i in range(r - head, r):
            tilde[i] *= p
        for i in range(m - sp, m):
            tilde[i] *= p
    if prod(tilde) != prod(divisors) or prod(tilde[r:]) != d:
        raise InadmissibleD(f"d={d} is not the product of {m - r} reordered divisors")
    return tilde


def garrett_representative(comb: CombinedLattice, triple: GarrettTriple,
                           B: Mat | None = None) -> GarrettRep:
    """The lower-unipotent coset representative attached to a triple and a
    Hecke block.  B defaults to the identity of size r, which is a block only
    when T^-1 T' is integral: at r = 1 with T not dividing T' the default is
    rejected with IntegralityViolation, and a block must be given."""
    m, n, r = triple.m, triple.n, triple.r
    d, dp = triple.d, triple.d_prime
    if (m, n) != (comb.m, comb.n):
        raise InadmissibleD("triple does not match the lattices")
    tilde1 = split_divisors(list(comb.T1), r, d)
    tilde2 = split_divisors(list(comb.T2), r, dp)
    T = Mat.diagonal(tilde1[:r])
    Tp = Mat.diagonal(tilde2[:r])
    if B is None:
        B = Mat.identity(r)
    if r == 0:
        B = Mat([])
    if r:
        if not B.is_integral():
            raise IntegralityViolation("B must be integral")
        if not transpose_integrality(B, T, Tp):
            raise IntegralityViolation("transpose integrality fails for B")
    S1 = cusp_matrix_S(comb.L1, triple.u1, d)
    S2 = cusp_matrix_S(comb.L2, triple.u2, dp)
    s = m + n
    mid = [[0] * s for _ in range(s)]
    if r:
        BtTp = B.transpose() @ Tp
        TpB = Tp @ B
        for i in range(r):
            for j in range(r):
                mid[i][m + j] = BtTp[i, j]
                mid[m + i][j] = TpB[i, j]
    Smat = Mat.from_blocks([[S1, Mat.zeros(m, n)], [Mat.zeros(n, m), S2]])
    Sinv = rational_inverse(Smat)
    C = Sinv.transpose() @ Mat(mid) @ Sinv
    if C != C.transpose():
        raise InvalidInvariant("representative block is not symmetric")
    full = Mat.from_blocks([[Mat.identity(s), Mat.zeros(s, s)],
                            [C, Mat.identity(s)]])
    if not is_symplectic(full, comb.J):
        raise IntegralityViolation("representative is not symplectic")
    act = comb.E @ full.transpose() @ rational_inverse(comb.E)
    if not act.is_integral():
        raise IntegralityViolation("representative does not preserve the lattice")
    return GarrettRep(triple, S1, S2, B, T, Tp, C, full)


def orbit_invariants(comb: CombinedLattice, g: Mat):
    """(d, d', r, local Hecke classes) of the coset of g.

    g is symplectic in the combined symplectic coordinates and must map the
    combined lattice onto itself.
    """
    if not is_symplectic(g, comb.J):
        raise NotStabilizing("g is not symplectic")
    act = comb.E @ g.transpose() @ rational_inverse(comb.E)
    if not act.is_integral():
        raise NotStabilizing("g does not preserve the combined lattice")
    Ximg = comb.x0_rows() @ act
    X = IsotropicSubmodule.from_rows(comb.L, [list(r) for r in Ximg.rows])
    pair = project_isotropic(comb, X)
    d, dp = (d_invariant(L, IsotropicSubmodule.from_rows(L, rad.rows))
             for L, rad in ((comb.L1, pair.rad1), (comb.L2, pair.rad2)))
    classes = {}
    if pair.r:
        r = pair.r
        Jr = standard_form(r)
        baseTp = Mat.diagonal([1] * r + [pair.T_prime[i, i] for i in range(r)])
        movT = Mat.diagonal([1] * r + [pair.T[i, i] for i in range(r)])
        mov = movT @ pair.phi.transpose()
        # the primes of the levels, and those where the moved frame lattice
        # differs from the base
        rel = mov @ rational_inverse(baseTp)
        nums = [pair.T[i, i] for i in range(r)] + [pair.T_prime[i, i] for i in range(r)]
        nums += [x.denominator for row in rel.rows for x in row if isinstance(x, Fraction)]
        nums.append(abs(Fraction(rel.det()).numerator))
        primes = {p for t in nums for p, _ in factor(t)}
        for p in sorted(primes):
            cls = classify_rel_rational(Jr, baseTp, mov, p)
            if cls.weight or cls.r_minus or cls.r_plus:
                classes[p] = cls
    return d, dp, pair.r, classes


# ---------------------------------------------------------------------------
# Numeric kernel identity.
# ---------------------------------------------------------------------------


def _np(M: Mat):
    return np.array([[float(x) for x in row] for row in M.rows], dtype=float)


def kernel_identity_check(rep: GarrettRep, z, w, tol: float = 1e-10) -> bool:
    """Compare the automorphy factor of the representative at iota(z, w)
    against the closed determinant of size r."""
    m, n, r = rep.triple.m, rep.triple.n, rep.triple.r
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    for M, size in ((z, m), (w, n)):
        if M.shape != (size, size) or not np.allclose(M, M.T, atol=1e-12):
            raise NotInHalfSpace("arguments must be symmetric of matching size")
        ev = np.linalg.eigvalsh(M.imag)
        if ev.min() < 0.5:
            raise NotInHalfSpace("imaginary part must have eigenvalues >= 1/2")
    s = m + n
    C = _np(rep.C)
    iota = np.zeros((s, s), dtype=complex)
    iota[:m, :m] = z
    iota[m:, m:] = w
    lhs = np.linalg.det(C @ iota + np.eye(s))
    if r == 0:
        return abs(lhs - 1.0) < tol
    S1i = np.linalg.inv(_np(rep.S1))
    S2i = np.linalg.inv(_np(rep.S2))
    zS = (S1i @ z @ S1i.T)[:r, :r]
    wS = (S2i @ w @ S2i.T)[:r, :r]
    Bn = _np(rep.B)
    Tpn = _np(rep.T_prime)
    rhs = np.linalg.det(np.eye(r) - Bn.T @ Tpn @ wS @ Tpn @ Bn @ zS)
    return abs(lhs - rhs) < tol


# ---------------------------------------------------------------------------
# Group elements for orbit tests.
# ---------------------------------------------------------------------------


def sp_generators_symplectic(T) -> list[Mat]:
    """Generators of the paramodular group on rescaled symplectic coordinates."""
    from .altlat import sp_generator_matrices
    m = len(T)
    E = Mat.diagonal([1] * m + list(T))
    Einv = rational_inverse(E)
    return [E @ g @ Einv for g in sp_generator_matrices(T)]


def embed_factor_pair(comb: CombinedLattice, g1: Mat, g2: Mat) -> Mat:
    """The element (g1, g2) of the product group inside the combined group."""
    s2 = 2 * (comb.m + comb.n)
    rows = [[0] * s2 for _ in range(s2)]
    for g, pos in ((g1, comb.cols1), (g2, comb.cols2)):
        for I, i in enumerate(pos):
            for J, j in enumerate(pos):
                rows[i][j] = g[I, J]
    return Mat(rows)
