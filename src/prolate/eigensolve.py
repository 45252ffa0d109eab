"""Self-contained dense symmetric eigensolvers.

Two independent algorithms are provided on purpose: the workhorse is
Householder reduction to tridiagonal form followed by implicit QL with
Wilkinson shifts; a cyclic Jacobi rotation solver acts as a cross-check
oracle on moderate sizes (its convergence theory is unconditional).
A complex matrix's Hermitian Gram is reduced to a real symmetric one through
the 2n x 2n embedding [[Re, -Im], [Im, Re]], whose spectrum repeats each
eigenvalue twice; a real matrix's Gram is real symmetric already.

The Householder reduction is blocked (LAPACK's DSYTRD scheme): panels of
HOUSEHOLDER_BLOCK columns collect their reflectors and update the trailing
matrix once with a matrix product, and the reflectors stay in the reduced
matrix's lower triangle, from which Q is built only when vectors are
wanted.  Blocking reorders sums, so it matches the unblocked reduction to
rounding (backward stable, like it), not bit for bit; with or without
vectors the tridiagonal, and so the eigenvalues, are the same bits.

A centrosymmetric matrix (J A J = A bit for bit, J the exchange matrix; every
symmetric Toeplitz matrix is one) is orthogonally similar to two half-size
blocks, one per parity of its eigenvectors (Cantoni & Butler, 1976).
eigh_householder_ql then reduces and iterates each block on its own, which
cuts the O(n^3) reduction about fourfold and the QL work about twofold, and
assembles exactly even and odd eigenvectors; other matrices are reduced
whole.  A SymbolMatrix is split without a check: its blocks are formed
from a read-only strided view of its symbol, so no n x n matrix is built
unless vectors, and with them the residual, are wanted.  An array input of
any layout is validated read-only where it lies and never written; only
what the reduction overwrites is copied, C-ordered (the two blocks, or one
working matrix), and a Gram matrix that singular_values_via_gram builds
for itself is reduced in place.

A matrix whose largest |entry| lies outside [1/MAGNITUDE_RANGE,
MAGNITUDE_RANGE] is solved scaled by a power of two into that range, and its
eigenvalues are scaled back; inside it no sum of squares in Jacobi, no
deflation bound in QL and no symmetrizing average can overflow or underflow.
An eigenvalue beyond the largest double raises EigensolveError.

QL deflates a coupling once |e_m| <= u (max |d_i| + 2 max |e_i|), u = 2^-53,
an absolute test against a bound on ||T||_2 as in the Handbook's tql1 and
tql2 (Bowdler, Martin, Reinsch & Wilkinson, 1968).  Dropping such a
coupling moves no eigenvalue by more than that level (Weyl), which is below
the reduction's own backward error.  On the clustered prolate, sinc and DFT
spectra most couplings reach it right after the reduction, so QL stops
iterating on them: the (3072, 768, 384) block takes 465 steps instead of
the 1831 of the relative test |e_m| + |d_m| + |d_m+1| == |d_m| + |d_m+1|.
A real symmetric matrix's singular values are its |eigenvalues|, so
singular_values_via_gram solves it without forming the Gram.

The QL kernel keeps its scalar recurrence in Python but applies each plane
rotation as in-place numpy updates of two contiguous rows (it keeps its
vectors transposed), with the same per-element arithmetic as an
element-by-element loop, so results are bitwise identical to it.  The
recurrence itself runs on Python floats copied out of the tridiagonal,
because indexing numpy scalars dominated it; both are IEEE doubles, so this
too leaves every bit of the output unchanged.

The Jacobi oracle uses the parallel (round-robin) ordering of Brent & Luk
(1985), which converges whenever the row-cyclic one does (Luk & Park,
1989): a sweep is n - 1 rounds (n padded to even) of n/2 disjoint
rotations, and a round is applied at once, as elementwise updates of the
two column halves and the two row halves of a matrix kept permuted so that
its pairs are (k, h + k).  On the clustered prolate spectra it keeps the
row-cyclic sweep counts only with Rutishauser's skip of rotations too small
to move a diagonal entry (_rotation_tangents).  It uses no matrix product
and no Householder or QL code, so it stays an independent route.  With
vectors, on a random symmetric matrix, one call takes 0.05-0.07 s at
n = 64, 0.25-0.32 s at n = 128 and 2.1-2.2 s at n = 256 (fresh process,
numpy 2.4, 2 cores).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import ParameterError, SymbolMatrix


class EigensolveError(RuntimeError):
    """An iterative eigensolver failed to converge or hit invalid data."""


SYMMETRY_TOL = 1e-12
# QL iteration budget per the solver contract: explicit failure afterwards.
QL_BUDGET_PER_ROW = 50
# Unit roundoff of IEEE doubles; QL deflates couplings at or below it
# times the tridiagonal's norm bound.
UNIT_ROUNDOFF = 2.0**-53
JACOBI_MAX_SWEEPS = 60
JACOBI_OFF_TOL = 1e-14
# Beyond this |theta|, 1 + theta*theta == theta*theta exactly, so the
# rotation tangent is 0.5/theta; squaring would overflow past ~1.3e154.
JACOBI_LARGE_THETA = 1e150
# Inputs whose largest |entry| lies in [1/MAGNITUDE_RANGE, MAGNITUDE_RANGE]
# are solved as they are; any other is scaled into it by a power of two.
MAGNITUDE_RANGE = 2.0**400
# Relative spectral floor for Gram-based singular values; squaring the
# matrix halves the usable dynamic range, so eigenvalues this far below
# the top are indistinguishable from zero in double precision.
GRAM_NOISE_FLOOR = 1e-9
# Panel width of the blocked Householder reduction.  One values-only
# reduction per fresh process, n = 16..768 (step 16) and 1024, two OpenBLAS
# threads, nb in {16, 24, 32, 48, 64}: 32 had the lowest geometric-mean
# time (6% above the best nb at each n) and beat the unblocked reduction at
# every n from 32 on (n = 768: 111 ms against 965 ms); at n = 16 both take
# under 1 ms.
HOUSEHOLDER_BLOCK = 32
# Rows per band of the matrix-product updates, so that no temporary as
# large as the matrix is formed.
HOUSEHOLDER_CHUNK_ROWS = 128


@dataclass
class Spectrum:
    """Eigenvalues sorted descending, with optional orthonormal vectors.

    ``vectors[:, j]`` pairs with ``values[j]``.  ``residual`` is
    max_j ||A v_j - values_j v_j||_inf, recorded only when vectors were
    requested.  ``iterations`` is the solver's work count: implicit QL
    steps for householder_ql, sweeps for jacobi.
    """

    values: np.ndarray
    vectors: np.ndarray | None = field(default=None, repr=False)
    method: str = ""
    residual: float | None = None
    iterations: int | None = None

    def __len__(self) -> int:
        return self.values.size


def _range_exponent(top: float) -> int:
    """0 when top = max |entry| is 0 or within MAGNITUDE_RANGE, else the
    e with top = f 2^e, 1/2 <= f < 1, so that top 2^-e lies in [1/2, 1)."""
    if top == 0.0 or 1.0 / MAGNITUDE_RANGE <= top <= MAGNITUDE_RANGE:
        return 0
    return math.frexp(top)[1]


def _in_range_symbol(a: SymbolMatrix) -> tuple[SymbolMatrix, int]:
    """``a``, checked finite and scaled by 2^-e into range, and e (see
    _range_exponent)."""
    if not np.isfinite(a.symbol).all():
        raise EigensolveError("matrix contains non-finite entries")
    exponent = _range_exponent(float(np.abs(a.symbol).max()))
    if exponent:
        a = SymbolMatrix(np.ldexp(a.symbol, -exponent))
    return a, exponent


def _bands(arr):
    """(rows, cols) pairs covering a square matrix: rows r0:r1 from the
    diagonal on, and columns r0:r1 below it, transposed to the same shape.
    """
    n = arr.shape[0]
    for r0 in range(0, n, HOUSEHOLDER_CHUNK_ROWS):
        r1 = min(r0 + HOUSEHOLDER_CHUNK_ROWS, n)
        yield arr[r0:r1, r0:], arr[r0:, r0:r1].T


def _as_dense_symmetric(a, overwrite: bool = False) -> tuple[np.ndarray, int]:
    """Validate and symmetrize the input; rejects asymmetry beyond tolerance.

    Returns the matrix scaled by 2^-e into range, and e (see
    _range_exponent); e is 0, and nothing is scaled, for an input in range.
    The matrix may be written exactly when its ``writeable`` flag is set.
    A SymbolMatrix is symmetric by construction and returns its private
    dense realization.  An array of any layout is read where it lies.  One
    equal to its transpose bit for bit is checked read-only and returned as
    a read-only view of itself, or as itself with ``overwrite`` (the
    caller's private matrix).  Any other array, or one out of range, is
    averaged to 0.5 (A + A^T) or scaled in a private C-ordered copy, or in
    itself with ``overwrite``.  The check and the average go a band of
    HOUSEHOLDER_CHUNK_ROWS rows at a time, so besides that copy no
    temporary as large as the matrix is made.
    """
    if isinstance(a, SymbolMatrix):
        a, exponent = _in_range_symbol(a)
        return a.dense(), exponent
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("expected a non-empty matrix")
    hi, lo = float(arr.max()), float(arr.min())  # max and min propagate NaN
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise EigensolveError("matrix contains non-finite entries")
    scale = max(1.0, hi, -lo)
    asym = 0.0
    exact = True
    for rows, cols in _bands(arr):
        if np.array_equal(rows.view(np.int64), cols.view(np.int64)):
            continue  # equal bits: nothing to average here
        exact = False
        band = rows - cols
        asym = max(asym, float(np.abs(band, out=band).max()))
    if asym > SYMMETRY_TOL * scale:
        raise ParameterError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    exponent = _range_exponent(max(hi, -lo))
    if exact and not exponent:
        if not overwrite:
            arr = arr.view()
            arr.flags.writeable = False
        return arr, 0
    if not overwrite:
        arr = arr.copy()
    if exponent:  # first, so that the average cannot overflow
        np.ldexp(arr, -exponent, out=arr)
    if exact:
        return arr, exponent
    for rows, cols in _bands(arr):
        band = rows + cols
        band *= 0.5
        rows[...] = band
        cols[...] = band
    return arr, exponent


def _subtract_product(target, left, right, buf):
    """target -= left @ right.T, a band of rows at a time through buf.

    buf has HOUSEHOLDER_CHUNK_ROWS rows and at least target.shape[1] columns.
    """
    rows, cols = target.shape
    for r0 in range(0, rows, HOUSEHOLDER_CHUNK_ROWS):
        r1 = min(r0 + HOUSEHOLDER_CHUNK_ROWS, rows)
        out = buf[: r1 - r0, :cols]
        np.matmul(left[r0:r1], right.T, out=out)
        target[r0:r1] -= out


def _householder_tridiag(a: np.ndarray, want_q: bool):
    """Reduce a symmetric matrix to tridiagonal form via Householder reflectors.

    Returns (d, e, q): diagonal, subdiagonal (length n, last slot unused),
    and the accumulated orthogonal transform (or None).  ``a`` is
    overwritten: its strict lower triangle ends up holding the reflectors.

    Blocked as in LAPACK's DSYTRD/DLATRD: within a panel of
    HOUSEHOLDER_BLOCK columns the trailing matrix is left stale and the
    reflector pairs (u, w), with H A H = A - u w^T - w u^T, are collected in
    U and W.  Each column is brought up to date from the earlier pairs of
    its panel before its reflector is formed, and w is formed from the
    stale matrix as (A u - U (W^T u) - W (U^T u)) / beta.  Once per panel
    the trailing block takes A -= U W^T + W U^T as one matrix product,
    applied in bands of HOUSEHOLDER_CHUNK_ROWS rows.
    Reflector u_k = x/scale + alpha e_1 with beta = u.u/2 is stored in
    a[k+1:, k]; a zero sub-column gets no reflector (beta_k = 0).  d and e
    come out of the same code with or without vectors; Q is accumulated
    only afterwards, backward over the panels, each applied as
    I - V T V^T in compact WY form (Schreiber & Van Loan, 1989).
    """
    n = a.shape[0]
    e = np.zeros(n)
    betas = np.zeros(n)
    nb = HOUSEHOLDER_BLOCK
    # Reflector i of a panel keeps u in column nb + i and w in column
    # nb - 1 - i, so the pairs done so far are the contiguous columns
    # [nb - i, nb + i) and the same columns reversed pair each u with its w
    # (reversed copies: matmul is slow on negative strides).  Row r of the
    # panel's pairs holds global row j0 + 1 + r.
    pairs_store = np.empty((n, 2 * nb))
    buf = np.empty((HOUSEHOLDER_CHUNK_ROWS, n))
    panels = range(0, n - 2, nb)
    for j0 in panels:
        j1 = min(j0 + nb, n - 2)
        pairs = pairs_store[: n - j0 - 1]
        for k in range(j0, j1):
            i = k - j0
            done = slice(nb - i, nb + i)
            if i > 0:  # bring column k up to date; pairs row i - 1 is row k
                col = a[k:, k]
                col -= pairs[i - 1 :, done] @ pairs[i - 1, done][::-1].copy()
            x = a[k + 1 :, k]
            scale = float(np.abs(x).max())
            if scale == 0.0 or float(np.abs(x[1:]).max(initial=0.0)) == 0.0:
                e[k] = x[0]
                pairs[i:, nb + i] = 0.0  # the slots may hold stale pairs
                pairs[i:, nb - 1 - i] = 0.0
                continue
            u = x / scale
            alpha = math.copysign(math.sqrt(float(u @ u)), u[0])
            u[0] += alpha
            beta = alpha * u[0]  # = u.u / 2
            e[k] = -alpha * scale
            w = a[k + 1 :, k + 1 :] @ u
            if i > 0:  # U (W^T u) + W (U^T u) in one product
                w -= pairs[i:, done] @ (u @ pairs[i:, done])[::-1].copy()
            w /= beta
            w -= (float(u @ w) / (2.0 * beta)) * u
            pairs[i:, nb + i] = u
            pairs[i:, nb - 1 - i] = w
            x[:] = u
            betas[k] = beta
        # trailing block, from global row j1 = pairs row j1 - j0 - 1 on
        left = pairs[j1 - j0 - 1 :, nb - (j1 - j0) : nb + (j1 - j0)]
        _subtract_product(a[j1:, j1:], left, left[:, ::-1].copy(), buf)
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    d = np.diag(a).copy()  # diag returns a read-only view
    q = None
    if want_q:
        q = np.eye(n)
        for j0 in reversed(panels):
            j1 = min(j0 + nb, n - 2)
            v = np.tril(a[j0 + 1 :, j0:j1])
            kept = betas[j0:j1] != 0.0
            v[:, ~kept] = 0.0
            taus = np.zeros(j1 - j0)
            taus[kept] = 1.0 / betas[j0:j1][kept]
            # H_j0 ... H_(j1-1) = I - V T V^T, T upper triangular
            t = np.zeros((j1 - j0, j1 - j0))
            for i in range(j1 - j0):
                t[:i, i] = -taus[i] * (t[:i, :i] @ (v[:, :i].T @ v[:, i]))
                t[i, i] = taus[i]
            block = q[j0 + 1 :, j0 + 1 :]
            _subtract_product(block, v, (t @ (v.T @ block)).T, buf)
    return d, e, q


def _ql_implicit(d, e, z, want_z, budget):
    """Implicit QL with Wilkinson shifts on a symmetric tridiagonal matrix.

    d: diagonal (n,), e: subdiagonal in e[0..n-2] with e[n-1] as workspace;
    both are overwritten.  When want_z, the rotations are accumulated into
    the rows of z, which holds the transposed vector matrix, so that each
    rotation updates two contiguous rows.  Returns the unused budget, or -1
    on non-convergence.

    A coupling deflates once |e_m| <= tol = u (max |d_i| + 2 max |e_i|),
    u = 2^-53, taken once from the input (d, e), as the Handbook's tql1 and
    tql2 test against the matrix norm (Bowdler, Martin, Reinsch &
    Wilkinson, 1968).  The bracket bounds ||T||_2 (Gershgorin), and
    dropping a coupling of at most tol moves no eigenvalue by more than tol
    (Weyl), below the Householder reduction's own backward error; on the
    clustered prolate spectra most couplings sit at that level after the
    reduction.

    The scalar recurrence runs on Python floats copied out of d and e, since
    reading and writing numpy scalars dominated its cost; both types are IEEE
    doubles, so values, vectors and step counts are bitwise identical to the
    same recurrence run on the arrays.  d and e are written back on return.
    """
    n = d.shape[0]
    tol = UNIT_ROUNDOFF * (
        float(np.abs(d).max(initial=0.0))
        + 2.0 * float(np.abs(e[: n - 1]).max(initial=0.0))
    )
    d_out, e_out = d, e
    d, e = d.tolist(), e.tolist()
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            budget -= 1
            if budget < 0:
                d_out[:] = d
                e_out[:] = e
                return -1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            if g >= 0.0:
                g = d[m] - d[l] + e[l] / (g + r)
            else:
                g = d[m] - d[l] + e[l] / (g - r)
            s = 1.0
            c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if want_z:
                    zi = z[i]
                    zi1 = z[i + 1]
                    szi1 = s * zi1
                    szi = s * zi
                    zi *= c
                    zi -= szi1
                    zi1 *= c
                    zi1 += szi
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    d_out[:] = d
    e_out[:] = e
    return budget


def _round_robin(m):
    """Layout and between-round permutation of the parallel Jacobi ordering.

    m is even.  Round-robin (Brent & Luk, 1985): with the indices in a
    circle list L, a round pairs L[k] with L[m-1-k] for k < m/2, and the
    next round's list keeps L[0] and turns L[1:] one place right.  Storing
    L[:h] then L[h:] reversed (h = m/2) puts every pair at layout positions
    (k, h + k), so the round's P and Q sets are the two contiguous halves.
    Returns the starting layout (layout[pos] is the index stored at pos)
    and the positions ``step`` with next = current[step]; m - 1 steps make
    a full turn, so every sweep starts from the same layout.
    """
    h = m // 2

    def layout(circle):
        return np.concatenate((circle[:h], circle[h:][::-1]))

    start = layout(np.arange(m))
    turned = layout(np.concatenate(([0, m - 1], np.arange(1, m - 1))))
    return start, np.argsort(start)[turned]


def _rotation_tangents(app, aqq, apq):
    """Tangents t of the rotations that annihilate each apq.

    Elementwise, the scalar rule: theta = (aqq - app) / (2 apq) and
    t = 1 / (|theta| + sqrt(1 + theta^2)), or 0.5 / |theta| beyond
    JACOBI_LARGE_THETA (theta^2 would overflow), negated when theta < 0.  A
    subnormal apq takes theta to inf, and t to 0, without a warning.

    A pair is skipped (t = 0) when 100 |apq| is lost in both |app| and
    |aqq| (Rutishauser's rule, as in the Handbook's ``jacobi``), which
    includes apq = 0.  Its rotation could not change either diagonal
    entry, only turn the two rows and columns by up to 45 degrees; on
    clustered spectra such as the prolate blocks those turns keep mixing
    the clusters' couplings, and the round-robin ordering then converges
    only linearly (a 64 x 64 sinc block used up all 60 sweeps).
    """
    g = 100.0 * np.abs(apq)
    mag_p, mag_q = np.abs(app), np.abs(aqq)
    live = (mag_p + g != mag_p) | (mag_q + g != mag_q)
    with np.errstate(over="ignore"):
        theta = (aqq - app) / (2.0 * np.where(live, apq, 1.0))
    mag = np.abs(theta)
    tame = np.minimum(mag, JACOBI_LARGE_THETA)
    t = 1.0 / (tame + np.sqrt(1.0 + tame * tame))
    np.divide(0.5, mag, out=t, where=mag > JACOBI_LARGE_THETA)
    np.negative(t, out=t, where=theta < 0.0)
    return np.where(live, t, 0.0)


def _rotate_halves(pair, axis, c, signed_s, tmp):
    """Rotate the two halves of ``pair`` along ``axis`` in place, elementwise.

    With x and y the halves: x <- x c - y s and y <- y c + x s, where c
    and signed_s = (-s, s) broadcast against ``pair``.
    """
    np.multiply(np.flip(pair, axis), signed_s, out=tmp)
    pair *= c
    pair += tmp


def _jacobi_cyclic(a, want_v, max_sweeps):
    """Parallel-ordered cyclic Jacobi on ``a`` (not modified).

    Returns (sweeps, values, vectors), with values unsorted, vectors None
    unless want_v, and sweeps -1 on non-convergence.  Converged when the
    off-diagonal Frobenius mass drops below JACOBI_OFF_TOL times the
    Frobenius norm of the input.

    Each sweep is m - 1 rounds of m/2 disjoint rotations (_round_robin;
    odd n is padded with a zero row and column, whose rotations are the
    identity).  The matrix is kept permuted to the round's layout, so a
    round's pairs are (k, h + k).  All of a round's tangents come from its
    starting a_pp, a_qq and a_pq, which no other rotation of the round
    touches; the rotations are then applied to the two column halves and
    the two row halves at once and the 2 x 2 entries of each pair are set
    exactly.  One gather then moves the matrix to the next round's layout,
    reading every entry from the upper triangle of the old layout, so the
    matrix stays exactly symmetric.  The vectors are kept transposed, so
    they take the column rotations as row rotations.  Everything is
    elementwise, with no matrix product.
    """
    n = a.shape[0]
    m = n + n % 2
    h = m // 2
    layout, step = _round_robin(m)
    work = np.zeros((m, m))
    work[:n, :n] = a
    work = work[np.ix_(layout, layout)]
    buf = np.empty_like(work)
    # next[i, j] = current[step[i], step[j]], read from the upper triangle
    gather = np.minimum.outer(step, step) * m + np.maximum.outer(step, step)
    tmp = np.empty((m, m))
    vt = vbuf = None
    if want_v:  # transposed: row pos holds the vector of layout position pos
        vt = (layout[:, None] == np.arange(n)).astype(np.float64)
        vbuf = np.empty_like(vt)
    thresh = JACOBI_OFF_TOL * math.sqrt(float(np.square(work).sum()))
    for sweep in range(max_sweeps + 1):
        sq = np.square(work)
        sq.reshape(-1)[:: m + 1] = 0.0
        if math.sqrt(float(sq.sum())) <= thresh:
            break
        if sweep == max_sweeps:
            return -1, None, None
        for _ in range(m - 1):
            flat = work.reshape(-1)
            diag = flat[:: m + 1]
            apq = flat[h : h * m : m + 1]
            app, aqq = diag[:h], diag[h:]
            t = _rotation_tangents(app, aqq, apq)
            new_pp = app - t * apq
            new_qq = aqq + t * apq
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            signed_s = np.stack((-s, s))
            _rotate_halves(
                work.reshape(m, 2, h), 1, c, signed_s, tmp.reshape(m, 2, h)
            )
            _rotate_halves(
                work.reshape(2, h, m), 0, c[:, None], signed_s[:, :, None],
                tmp.reshape(2, h, m),
            )
            diag[:h] = new_pp
            diag[h:] = new_qq
            apq[...] = 0.0
            np.take(flat, gather, out=buf, mode="clip")
            work, buf = buf, work
            if want_v:
                _rotate_halves(
                    vt.reshape(2, h, n), 0, c[:, None], signed_s[:, :, None],
                    tmp.reshape(-1)[: m * n].reshape(2, h, n),
                )
                np.take(vt, step, axis=0, out=vbuf, mode="clip")
                vt, vbuf = vbuf, vt
    values = np.empty(m)
    values[layout] = np.diagonal(work)
    vectors = None
    if want_v:
        vectors = np.empty((m, n))
        vectors[layout] = vt
        vectors = vectors[:n].T
    return sweep, values[:n], vectors


def _fix_vector_signs(vectors: np.ndarray) -> None:
    """Flip columns so the first non-negligible component is positive.

    A component is negligible at or below 1e-12 times its column's largest
    magnitude; a zero column has none and is left alone.
    """
    if vectors.size == 0:
        return
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    np.negative(vectors, out=vectors, where=flip)


def _finish(a_sym, values, vectors, method, iterations, exponent) -> Spectrum:
    """Sort, fix vector signs, measure the residual, and scale values and
    residual back by 2^exponent (see _range_exponent)."""
    order = np.argsort(-values, kind="stable")
    values = values[order]
    residual = None
    if vectors is not None:
        vectors = np.ascontiguousarray(vectors[:, order])
        _fix_vector_signs(vectors)
        residual = float(
            np.abs(a_sym @ vectors - vectors * values[None, :]).max(initial=0.0)
        )
    if exponent:
        with np.errstate(over="ignore"):
            values = np.ldexp(values, exponent)
        if not np.isfinite(values).all():
            raise EigensolveError("an eigenvalue exceeds the largest double")
        if residual is not None:
            residual = math.ldexp(residual, exponent)
    return Spectrum(
        values=values,
        vectors=vectors,
        method=method,
        residual=residual,
        iterations=iterations,
    )


def _parity_blocks(sym):
    """The even and odd blocks of a centrosymmetric matrix, else None.

    Only a matrix equal to its reversal J B J bit for bit is split; sizes
    below 2 have nothing to split.
    """
    if sym.shape[0] < 2 or not np.array_equal(sym, sym[::-1, ::-1]):
        return None
    return _split_parity(sym)


def _split_parity(sym):
    """The even and odd blocks of a centrosymmetric matrix of size >= 2.

    With J the exchange matrix, J B J = B makes B orthogonally similar to
    diag(E, O) (Cantoni & Butler, 1976).  For h = n // 2, A = B[:h, :h] and
    H = B[:h, n-h:] J, the odd block is O = A - H and the even block is
    A + H, bordered for odd n by sqrt(2) B[:h, h] and B[h, h].  Both are
    exactly symmetric when B is.  ``sym`` is only read, so it may be a
    read-only view of any layout; the two blocks are new C-ordered arrays,
    so their eigenvalues do not depend on that layout.
    """
    n = sym.shape[0]
    h = n // 2
    a = sym[:h, :h]
    flip = sym[:h, n - h :][:, ::-1]
    even, odd = np.empty((n - h, n - h)), np.empty((h, h))
    np.add(a, flip, out=even[:h, :h])
    if n - h > h:
        even[:h, h] = even[h, :h] = sym[:h, h] * math.sqrt(2.0)
        even[h, h] = sym[h, h]
    return even, np.subtract(a, flip, out=odd)


def _parity_vectors(even_rows, odd_rows):
    """Transposed eigenvectors of B from the rows x of its two blocks.

    Each even row x gives [x_top, x_mid, J x_top] and each odd row gives
    [x, 0, -J x], with the top and bottom halves divided by sqrt(2); the
    middle entry exists for odd n only and is not scaled.
    """
    h = odd_rows.shape[0]
    n = even_rows.shape[0] + h
    out = np.empty((n, n))
    root = math.sqrt(2.0)
    np.divide(even_rows[:, :h], root, out=out[: n - h, :h])
    np.divide(odd_rows, root, out=out[n - h :, :h])
    out[:, n - h :] = out[:, h - 1 :: -1]
    out[n - h :, n - h :] *= -1.0
    if n - h > h:
        out[: n - h, h] = even_rows[:, h]
        out[n - h :, h] = 0.0
    return out


def _tridiagonal_ql(work, want_vectors):
    """Householder reduction of ``work`` (overwritten) plus implicit QL.

    Returns the unsorted values, the transposed vectors (or an empty
    array) and the QL step count.
    """
    d, e, q = _householder_tridiag(work, want_vectors)
    z = q.T.copy() if want_vectors else np.empty((0, 0))
    budget = QL_BUDGET_PER_ROW * d.shape[0]
    left = _ql_implicit(d, e, z, want_vectors, budget)
    if left < 0:
        raise EigensolveError(
            f"implicit QL did not converge within {budget} sweeps"
        )
    return d, z, budget - left


def eigh_householder_ql(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via Householder tridiagonalization plus implicit QL.

    A centrosymmetric matrix (equal to its reversal J A J bit for bit, as
    every symmetric Toeplitz matrix is) is solved as its two half-size
    parity blocks, whose vectors are the even and odd eigenvectors; the
    values are merged and ``iterations`` counts the steps of both.  Any
    other matrix is reduced whole.  The input is never written.  A
    SymbolMatrix is split without a check, its blocks read from the
    symbol's strided view; its dense matrix is built only for the residual
    that vectors come with.  Deterministic for fixed input.  Raises
    EigensolveError when the QL iteration exhausts its 50*n budget (per
    block), which signals pathological input rather than returning a
    silently partial answer.
    """
    if isinstance(a, SymbolMatrix):
        a, exponent = _in_range_symbol(a)
        sym = a.dense() if want_vectors else a.view()
        blocks = _split_parity(sym) if a.n > 1 else None
    else:
        sym, exponent = _as_dense_symmetric(a)
        blocks = _parity_blocks(sym)
    return _householder_ql(sym, blocks, want_vectors, exponent)


def _householder_ql(sym, blocks, want_vectors, exponent) -> Spectrum:
    """Solve ``sym``, or its parity ``blocks`` unless None, and finish,
    scaling back by 2^exponent.

    A writeable ``sym`` is private and, without vectors (so without a
    residual), is reduced in place; otherwise the reduction gets a copy.
    """
    if blocks is None:
        in_place = sym.flags.writeable and not want_vectors
        values, rows, steps = _tridiagonal_ql(
            sym if in_place else sym.copy(), want_vectors
        )
    else:
        if not want_vectors:
            sym = None  # only the residual needs it: free it for the solves
        (values, even, steps), (odd_values, odd, odd_steps) = (
            _tridiagonal_ql(block, want_vectors) for block in blocks
        )
        values = np.concatenate((values, odd_values))
        steps += odd_steps
        rows = _parity_vectors(even, odd) if want_vectors else None
    vectors = rows.T if want_vectors else None
    return _finish(sym, values, vectors, "householder_ql", steps, exponent)


def _gram_values(gram) -> np.ndarray:
    """Eigenvalues, descending, of a private Gram matrix, which is validated
    and reduced in place."""
    gram, exponent = _as_dense_symmetric(gram, overwrite=True)
    return _householder_ql(gram, _parity_blocks(gram), False, exponent).values


def eigh_jacobi(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via cyclic Jacobi rotations in round-robin order.

    The oracle path: independent of the Householder and QL code, and
    meant for the sizes the tests cross-check, up to a few hundred (with
    vectors about 0.06 s at n = 64 and 2.2 s at n = 256).  ``iterations``
    counts sweeps; EigensolveError after JACOBI_MAX_SWEEPS of them.
    """
    sym, exponent = _as_dense_symmetric(a)
    sweeps, values, vectors = _jacobi_cyclic(sym, want_vectors, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise EigensolveError(
            f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    return _finish(sym, values, vectors, "jacobi", sweeps, exponent)


def hermitian_embedding(g: np.ndarray) -> np.ndarray:
    """Real symmetric 2n x 2n embedding [[Re, -Im], [Im, Re]] of Hermitian g."""
    g = np.asarray(g, dtype=np.complex128)
    n = g.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = g.real
    out[n:, n:] = g.real
    np.negative(g.imag, out=out[:n, n:])
    out[n:, :n] = g.imag
    return out


def sqrt_clamped(values: np.ndarray) -> np.ndarray:
    """Square roots of Gram eigenvalues with PSD clamping and a noise floor.

    Values in [-1e-12, 0) are clamped to zero (Gram matrices are PSD
    analytically); anything below -1e-12 signals a solver failure.  Values
    below GRAM_NOISE_FLOOR * max(values) collapse to exactly zero so that
    the noise tail is reproducible instead of sqrt-amplified jitter.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    low = float(values.min())
    if low < -1e-12:
        raise EigensolveError(
            f"Gram eigenvalue {low:.3e} below the -1e-12 PSD clamp"
        )
    clamped = np.maximum(values, 0.0)
    clamped[clamped < GRAM_NOISE_FLOOR * clamped.max()] = 0.0
    return np.sqrt(clamped)


def singular_values_via_gram(f: np.ndarray) -> np.ndarray:
    """Singular values of a real or complex matrix, descending, via its Gram.

    A real symmetric F (equal to F^T bit for bit) is solved itself, split
    by parity when centrosymmetric: its singular values are the
    |eigenvalues|, whose squares go through sqrt_clamped so that the Gram
    route's noise floor still applies.  Any other real F has the real
    symmetric Gram F^T F, diagonalized directly.  A complex F has the
    Hermitian Gram F*F, diagonalized through the real symmetric embedding,
    whose spectrum carries each Gram eigenvalue twice; the pairs are
    deduplicated by taking every other sorted value.
    """
    f = np.asarray(f)
    if f.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {f.shape}")
    if np.iscomplexobj(f):
        f = f.astype(np.complex128, copy=False)
        gram = hermitian_embedding(f.conj().T @ f)
        return sqrt_clamped(_gram_values(gram)[0::2])
    f = f.astype(np.float64, copy=False)
    if f.shape[0] == f.shape[1] and np.array_equal(f, f.T):
        squares = np.square(eigh_householder_ql(f).values)
        return sqrt_clamped(np.sort(squares)[::-1])
    return sqrt_clamped(_gram_values(f.T @ f))
