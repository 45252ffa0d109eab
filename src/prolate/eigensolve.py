"""Self-contained dense symmetric eigensolvers.

Two independent algorithms are provided on purpose: the workhorse is
Householder reduction to tridiagonal form followed by implicit QL with
Wilkinson shifts; a cyclic Jacobi rotation solver acts as a cross-check
oracle on moderate sizes (its convergence theory is unconditional).  Each
iteration raises EigensolveError past its own limit: QL_BUDGET_PER_ROW
steps per row, or JACOBI_MAX_SWEEPS sweeps.  The solvers take real input
only.  singular_values_via_gram reduces the Gram F^H F of any F that is
not real symmetric at its own size, by the same Householder code, with
complex reflectors (as LAPACK's ZHETRD) when F is complex, to a real
tridiagonal.

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
eigh_householder_ql reduces and iterates each block on its own, which cuts
the O(n^3) reduction about fourfold and the QL work about twofold, and
assembles exactly even and odd eigenvectors.  One rule decides: a
SymbolMatrix is split, without a check, from a read-only strided view of
its symbol, so no n x n matrix is built unless the residual needs it; an
array, of any size and layout, is validated read-only where it lies, split
when it equals its reversal bit for bit and otherwise copied whole.  So
the input is never written, and every matrix the solver reduces is one it
allocated, C-ordered: the two parity blocks, a copy of the whole matrix,
or the Gram that singular_values_via_gram builds for itself.

A matrix whose largest |entry| lies outside [1/MAGNITUDE_RANGE,
MAGNITUDE_RANGE] is solved scaled by a power of two into that range, and its
eigenvalues are scaled back; inside it no sum of squares in Jacobi, no
deflation bound in QL and no symmetrizing average can overflow or underflow.
An eigenvalue beyond the largest double raises EigensolveError.
singular_values_via_gram scales F into [1/GRAM_RANGE, GRAM_RANGE] the same
way before it forms the Gram, so that no square overflows or underflows.

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

Both solvers apply every plane rotation through _rotate_halves, in place
and elementwise, with the same per-element arithmetic as an
element-by-element loop, so results are bitwise identical to it.  The QL
kernel keeps its scalar recurrence in Python and turns two contiguous
vector rows per rotation (it keeps its vectors transposed).  The
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
to move a diagonal entry (_rotation_tangents).  Beyond _rotate_halves it
uses no matrix product and no Householder or QL code, so it stays an
independent route.  With vectors, on a random symmetric matrix, one call
takes about 0.04 s at n = 64, 0.17-0.20 s at n = 128 and 1.5-1.7 s at
n = 256 (fresh process, 3 runs each, numpy 2.4, 2 cores, 2 BLAS threads).
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
# singular_values_via_gram scales F whose largest |entry| lies outside
# [1/GRAM_RANGE, GRAM_RANGE] by a power of two, so that its Gram's entries
# can neither overflow nor underflow: GRAM_RANGE^2 = MAGNITUDE_RANGE.
GRAM_RANGE = 2.0**200
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
    steps for eigh_householder_ql, sweeps for eigh_jacobi.
    """

    values: np.ndarray
    vectors: np.ndarray | None = field(default=None, repr=False)
    residual: float | None = None
    iterations: int | None = None


def _extent(arr) -> float:
    """Largest |entry| of a real array, or of the real and imaginary parts
    of a complex one, read where it lies; EigensolveError on a non-finite
    entry."""
    top = 0.0
    for part in (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,):
        # max and min propagate NaN
        hi, lo = float(part.max(initial=0.0)), float(part.min(initial=0.0))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise EigensolveError("matrix contains non-finite entries")
        top = max(top, hi, -lo)
    return top


def _range_exponent(top: float, limit: float = MAGNITUDE_RANGE) -> int:
    """0 when top = max |entry| is 0 or within [1/limit, limit], else the
    e with top = f 2^e, 1/2 <= f < 1, so that top 2^-e lies in [1/2, 1)."""
    if top == 0.0 or 1.0 / limit <= top <= limit:
        return 0
    return math.frexp(top)[1]


def _scale_back(values: np.ndarray, exponent: int, name: str) -> np.ndarray:
    """values 2^exponent; EigensolveError, naming ``name``, past the
    largest double."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, exponent)
    if not np.isfinite(values).all():
        raise EigensolveError(f"{name} exceeds the largest double")
    return values


def _row_bands(n):
    """Slices of HOUSEHOLDER_CHUNK_ROWS consecutive indices covering range(n),
    in order; the last is shorter when n is not a multiple."""
    step = HOUSEHOLDER_CHUNK_ROWS
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _bands(arr):
    """(rows, cols) pairs covering a square matrix: rows r0:r1 from the
    diagonal on, and columns r0:r1 below it, transposed to the same shape.
    """
    for band in _row_bands(arr.shape[0]):
        yield arr[band, band.start :], arr[band.start :, band].T


def _as_dense_symmetric(a) -> tuple[np.ndarray, int]:
    """Validate and symmetrize a real input; rejects complex input and
    asymmetry beyond tolerance.

    Returns the matrix scaled by 2^-e into range, and e (see
    _range_exponent); e is 0, and nothing is scaled, for an input in range.
    A SymbolMatrix enters as its dense matrix and is checked like any
    array.  An array of any layout is read where it lies.  One equal to its
    transpose bit for bit is checked read-only and returned as a read-only
    view of itself.  Any other array, or one out of range, is averaged to
    0.5 (A + A^T) or scaled in a private C-ordered copy.  The check and the
    average go a band of HOUSEHOLDER_CHUNK_ROWS rows at a time, so besides
    that copy no temporary as large as the matrix is made.
    """
    arr = a.dense() if isinstance(a, SymbolMatrix) else np.asarray(a)
    if np.iscomplexobj(arr):
        raise ParameterError(f"expected a real symmetric matrix, got {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("expected a non-empty matrix")
    top = _extent(arr)
    scale = max(1.0, top)
    asym = 0.0
    exact = True
    for rows, cols in _bands(arr):
        if np.array_equal(rows.view(np.int64), cols.view(np.int64)):
            continue  # equal bits: nothing to average here
        exact = False
        with np.errstate(over="ignore"):  # inf is refused below
            band = rows - cols
        asym = max(asym, float(np.abs(band, out=band).max()))
    if asym > SYMMETRY_TOL * scale:
        raise ParameterError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    exponent = _range_exponent(top)
    if exact and not exponent:
        arr = arr.view()
        arr.flags.writeable = False
        return arr, 0
    arr = arr.copy()
    if exponent:  # first, so that the average cannot overflow
        np.ldexp(arr, -exponent, out=arr)
    if not exact:
        _average_adjoint(arr)
    return arr, exponent


def _average_adjoint(arr) -> None:
    """arr <- (arr + arr^H) / 2 in place, a band of HOUSEHOLDER_CHUNK_ROWS
    rows at a time; the result is exactly symmetric (Hermitian)."""
    for rows, cols in _bands(arr):
        band = rows + cols.conj()
        band *= 0.5
        rows[...] = band
        cols[...] = band.conj()


def _subtract_product(target, left, right, buf):
    """target -= left @ right.T, a band of rows at a time through buf.

    buf has HOUSEHOLDER_CHUNK_ROWS rows and at least target.shape[1] columns.
    """
    for band in _row_bands(target.shape[0]):
        out = buf[: band.stop - band.start, : target.shape[1]]
        np.matmul(left[band], right.T, out=out)
        target[band] -= out


def _householder_tridiag(a: np.ndarray, want_q: bool):
    """Householder reduction of a symmetric or Hermitian matrix to tridiagonal form.

    Returns (d, e, q): diagonal, subdiagonal (length n, last slot unused),
    and the accumulated orthogonal transform (or None).  ``a`` is
    overwritten: its strict lower triangle ends up holding the reflectors.

    Blocked as in LAPACK's DSYTRD/DLATRD (ZHETRD/ZLATRD): within a panel of
    HOUSEHOLDER_BLOCK columns the trailing matrix is left stale and the
    reflector pairs (u, w), with H A H = A - u w^H - w u^H, are collected in
    U and W.  Each column is brought up to date from the earlier pairs of
    its panel before its reflector is formed, and w is formed from the
    stale matrix as (A u - U (W^H u) - W (U^H u)) / beta.  Once per panel
    the trailing block takes A -= U W^H + W U^H as one matrix product,
    applied in bands of HOUSEHOLDER_CHUNK_ROWS rows.
    Reflector u_k = x/scale + alpha e_1 with beta = u^H u / 2 is stored in
    a[k+1:, k], alpha = ||u|| with the sign (phase, if complex) of u_1; a
    zero sub-column gets no reflector (beta_k = 0).  Complex input is
    reduced values only, e returned as |e| (a diagonal unitary similarity);
    on real input conj() is a no-op.  d and e come out of the same code
    with or without vectors; Q is accumulated only afterwards, backward over
    the panels, each I - V T V^T in compact WY form (Schreiber & Van Loan, 1989).
    """
    n = a.shape[0]
    e = np.zeros(n, dtype=a.dtype)
    betas = np.zeros(n)
    nb = HOUSEHOLDER_BLOCK
    # Reflector i of a panel keeps u in column nb + i and w in column
    # nb - 1 - i, so the pairs done so far are the contiguous columns
    # [nb - i, nb + i) and the same columns reversed pair each u with its w
    # (conjugated into copies: matmul is slow on negative strides).  Row r of
    # the panel's pairs holds global row j0 + 1 + r.
    pairs_store = np.empty((n, 2 * nb), dtype=a.dtype)
    buf = np.empty((HOUSEHOLDER_CHUNK_ROWS, n), dtype=a.dtype)
    panels = range(0, n - 2, nb)
    for j0 in panels:
        j1 = min(j0 + nb, n - 2)
        pairs = pairs_store[: n - j0 - 1]
        for k in range(j0, j1):
            i = k - j0
            done = slice(nb - i, nb + i)
            if i > 0:  # bring column k up to date; pairs row i - 1 is row k
                col = a[k:, k]
                col -= pairs[i - 1 :, done] @ np.conjugate(pairs[i - 1, done][::-1])
            x = a[k + 1 :, k]
            scale = float(np.abs(x).max())
            if scale == 0.0 or float(np.abs(x[1:]).max(initial=0.0)) == 0.0:
                e[k] = x[0]
                pairs[i:, nb + i] = 0.0  # the slots may hold stale pairs
                pairs[i:, nb - 1 - i] = 0.0
                continue
            u = x / scale
            norm = math.sqrt(float((u.conj() @ u).real))
            alpha = norm * (u[0] / abs(u[0]) if u[0] else math.copysign(1.0, u[0].real))
            u[0] += alpha
            beta = (alpha.conjugate() * u[0]).real  # = u^H u / 2
            e[k] = -alpha * scale
            w = a[k + 1 :, k + 1 :] @ u
            if i > 0:  # U (W^H u) + W (U^H u) in one product
                w -= pairs[i:, done] @ np.conjugate((u.conj() @ pairs[i:, done])[::-1])
            w /= beta
            w -= (float((u.conj() @ w).real) / (2.0 * beta)) * u
            pairs[i:, nb + i] = u
            pairs[i:, nb - 1 - i] = w
            x[:] = u
            betas[k] = beta
        # trailing block, from global row j1 = pairs row j1 - j0 - 1 on
        left = pairs[j1 - j0 - 1 :, nb - (j1 - j0) : nb + (j1 - j0)]
        _subtract_product(a[j1:, j1:], left, np.conjugate(left[:, ::-1]), buf)
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    d = np.diag(a).real.copy()  # diag returns a read-only view
    if np.iscomplexobj(e):
        return d, np.abs(e), None
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


def _ql_implicit(d, e, z):
    """Implicit QL with Wilkinson shifts on a symmetric tridiagonal matrix.

    d: diagonal (n,), overwritten with the unsorted eigenvalues; e:
    subdiagonal in e[0..n-2], only read (its copy is the workspace).  Unless
    z is None, the rotations are accumulated into the rows of z, which holds
    the transposed vector matrix, so that each rotation updates two
    contiguous rows.  Returns the number of QL steps taken; EigensolveError
    once they would exceed QL_BUDGET_PER_ROW * n, which signals
    pathological input rather than a partial answer.

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
    same recurrence run on the arrays.  Only d is written back on return.
    """
    n = d.shape[0]
    tol = UNIT_ROUNDOFF * (
        float(np.abs(d).max(initial=0.0))
        + 2.0 * float(np.abs(e[: n - 1]).max(initial=0.0))
    )
    budget = QL_BUDGET_PER_ROW * n
    steps = 0
    if z is not None:
        signed_s, tmp = np.empty((2, 1)), np.empty((2, z.shape[1]))
    d_out = d
    d, e = d.tolist(), e.tolist()
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            steps += 1
            if steps > budget:
                raise EigensolveError(
                    f"implicit QL did not converge within {budget} sweeps"
                )
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
                if z is not None:
                    signed_s[0, 0] = -s
                    signed_s[1, 0] = s
                    _rotate_halves(z[i : i + 2], c, signed_s, tmp)
            if not underflow:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    d_out[:] = d
    return steps


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


def _rotate_halves(pair, c, signed_s, tmp):
    """Rotate the halves x = pair[0] and y = pair[1] in place, elementwise.

    x <- x c - y s and y <- y c + x s, where c and signed_s = (-s, s)
    broadcast against ``pair``; tmp is scratch of pair's shape.  In IEEE
    arithmetic x c + (-s) y is x c - s y exactly.
    """
    np.multiply(pair[::-1], signed_s, out=tmp)
    pair *= c
    pair += tmp


def _jacobi_cyclic(a, want_v):
    """Parallel-ordered cyclic Jacobi on ``a`` (not modified).

    Returns (sweeps, values, vectors), with values unsorted and vectors
    None unless want_v.  Converged when the off-diagonal Frobenius mass
    drops below JACOBI_OFF_TOL times the Frobenius norm of the input;
    EigensolveError if JACOBI_MAX_SWEEPS sweeps do not get it there.

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
    signed_s = np.empty((2, h))  # (-s, s) of the current round
    vt = vbuf = None
    if want_v:  # transposed: row pos holds the vector of layout position pos
        vt = (layout[:, None] == np.arange(n)).astype(np.float64)
        vbuf = np.empty_like(vt)
    thresh = JACOBI_OFF_TOL * math.sqrt(float(np.square(work).sum()))
    for sweep in range(JACOBI_MAX_SWEEPS + 1):
        sq = np.square(work)
        sq.reshape(-1)[:: m + 1] = 0.0
        if math.sqrt(float(sq.sum())) <= thresh:
            break
        if sweep == JACOBI_MAX_SWEEPS:
            raise EigensolveError(
                f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps"
            )
        for _ in range(m - 1):
            flat = work.reshape(-1)
            diag = flat[:: m + 1]
            apq = flat[h : h * m : m + 1]
            app, aqq = diag[:h], diag[h:]
            t = _rotation_tangents(app, aqq, apq)
            new_pp = app - t * apq
            new_qq = aqq + t * apq
            c = 1.0 / np.sqrt(1.0 + t * t)
            np.negative(np.multiply(t, c, out=signed_s[1]), out=signed_s[0])
            _rotate_halves(
                work.reshape(m, 2, h).swapaxes(0, 1), c, signed_s[:, None],
                tmp.reshape(m, 2, h).swapaxes(0, 1),
            )
            _rotate_halves(
                work.reshape(2, h, m), c[:, None], signed_s[:, :, None],
                tmp.reshape(2, h, m),
            )
            diag[:h] = new_pp
            diag[h:] = new_qq
            apq[...] = 0.0
            np.take(flat, gather, out=buf, mode="clip")
            work, buf = buf, work
            if want_v:
                _rotate_halves(
                    vt.reshape(2, h, n), c[:, None], signed_s[:, :, None],
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
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    flip = vectors[lead, np.arange(vectors.shape[1])] < 0.0
    np.negative(vectors, out=vectors, where=flip)


def _finish(a_sym, values, vectors, iterations, exponent) -> Spectrum:
    """Sort, fix vector signs, measure the residual, and scale values and
    residual back by 2^exponent (see _range_exponent)."""
    order = np.argsort(-values, kind="stable")
    values = values[order]
    residual = None
    if vectors is not None:
        vectors = vectors.take(order, axis=1)  # one C-ordered copy, whatever the layout
        _fix_vector_signs(vectors)
        misfit = a_sym @ vectors  # less V diag(values), a band of rows at a time
        for band in _row_bands(misfit.shape[0]):
            misfit[band] -= vectors[band] * values
        residual = float(np.abs(misfit, out=misfit).max(initial=0.0))
    if exponent:
        values = _scale_back(values, exponent, "an eigenvalue")
        if residual is not None:
            residual = math.ldexp(residual, exponent)
    return Spectrum(values, vectors, residual, iterations)


def _parity_blocks(sym):
    """The even and odd blocks of a matrix equal to its reversal J B J bit
    for bit, at any size; else None."""
    if not np.array_equal(sym, sym[::-1, ::-1]):
        return None
    return _split_parity(sym)


def _split_parity(sym):
    """The even and odd blocks of a centrosymmetric matrix of any size.

    With J the exchange matrix, J B J = B makes B orthogonally similar to
    diag(E, O) (Cantoni & Butler, 1976).  For h = n // 2, A = B[:h, :h] and
    H = B[:h, n-h:] J, the odd block is O = A - H and the even block is
    A + H, bordered for odd n by sqrt(2) B[:h, h] and B[h, h].  Both are
    exactly symmetric when B is; for n = 1 they are B and an empty block.
    ``sym`` is only read, so it may be a read-only view of any layout; the
    two blocks are new C-ordered arrays, so their eigenvalues do not depend
    on that layout.
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
    """Householder reduction of ``work`` (overwritten), then implicit QL.

    Returns the unsorted values, the transposed vectors (or None) and the
    QL step count.
    """
    d, e, q = _householder_tridiag(work, want_vectors)
    z = q.T.copy() if want_vectors else None
    return d, z, _ql_implicit(d, e, z)


def eigh_householder_ql(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via Householder tridiagonalization plus implicit QL.

    One rule picks the blocks: a SymbolMatrix, and an array equal to its
    reversal J A J bit for bit (as every symmetric Toeplitz matrix is), at
    any size, is solved as its two parity blocks, whose vectors are the
    even and odd eigenvectors; any other array as a copy of the whole
    matrix.  A symbol is split from its strided view without a check, and
    its dense matrix is built after the solves, only for the residual.
    Every block takes the same reduction and QL; the values are
    concatenated and ``iterations`` sums the steps.  The input is never
    written.  Deterministic for fixed input.  Raises EigensolveError when
    QL exhausts its QL_BUDGET_PER_ROW * n steps (per block).
    """
    if isinstance(a, SymbolMatrix):
        exponent = _range_exponent(_extent(a.symbol))
        sym = SymbolMatrix(np.ldexp(a.symbol, -exponent))
        blocks = _split_parity(sym.view())
    else:
        sym, exponent = _as_dense_symmetric(a)
        blocks = _parity_blocks(sym) or (sym.copy(),)
    if not want_vectors:
        sym = None  # only the residual needs it: free it for the solves
    values, rows, steps = zip(*(_tridiagonal_ql(block, want_vectors) for block in blocks))
    vectors = None
    if want_vectors:
        vectors = (_parity_vectors(*rows) if len(rows) == 2 else rows[0]).T
    blocks = rows = None  # free them for the residual
    if isinstance(sym, SymbolMatrix):
        sym = sym.dense()
    return _finish(sym, np.concatenate(values), vectors, sum(steps), exponent)


def eigh_jacobi(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via cyclic Jacobi rotations in round-robin order.

    The oracle path: independent of the Householder and QL code, and
    meant for the sizes the tests cross-check, up to a few hundred (with
    vectors about 0.04 s at n = 64 and 1.6 s at n = 256).  ``iterations``
    counts sweeps; EigensolveError after JACOBI_MAX_SWEEPS of them.
    """
    sym, exponent = _as_dense_symmetric(a)
    sweeps, values, vectors = _jacobi_cyclic(sym, want_vectors)
    return _finish(sym, values, vectors, sweeps, exponent)


def sqrt_clamped(values: np.ndarray) -> np.ndarray:
    """Square roots of Gram eigenvalues with PSD clamping and a noise floor.

    Negative values down to -1e-12 * max(1, max(values)) are clamped to
    zero (Gram matrices are PSD analytically, and their rounding scales
    with the largest value); anything below signals a solver failure.
    Values below GRAM_NOISE_FLOOR * max(values) collapse to exactly zero so
    that the noise tail is reproducible instead of sqrt-amplified jitter.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    low, clamp = float(values.min()), -1e-12 * max(1.0, float(values.max()))
    if low < clamp:
        raise EigensolveError(
            f"Gram eigenvalue {low:.3e} below the {clamp:.3g} PSD clamp"
        )
    clamped = np.maximum(values, 0.0)
    clamped[clamped < GRAM_NOISE_FLOOR * clamped.max()] = 0.0
    return np.sqrt(clamped)


def singular_values_via_gram(f: np.ndarray) -> np.ndarray:
    """Singular values of a real or complex matrix, descending, via its Gram.

    A real symmetric F (equal to F^T bit for bit) is solved itself, split
    by parity when centrosymmetric: its singular values are the
    |eigenvalues|, whose squares go through sqrt_clamped so that the Gram
    route's noise floor still applies.  Any other F, real or complex, has
    the Gram F^H F, made exactly symmetric (Hermitian) by averaging and
    reduced whole, in place; a real Gram stays in real arithmetic.  It is
    not checked for symmetry, rescaled or split by parity: it is Hermitian
    by construction, and F's scaling keeps its entries far from overflow.
    F whose largest |entry| lies outside [1/GRAM_RANGE, GRAM_RANGE] is
    solved scaled by a power of two, and sigma is scaled back.
    """
    f = np.asarray(f)
    if f.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {f.shape}")
    if f.shape[1] == 0:
        raise ParameterError("expected a non-empty matrix")
    f = f.astype(np.complex128 if np.iscomplexobj(f) else np.float64, copy=False)
    exponent = _range_exponent(_extent(f), GRAM_RANGE)
    if exponent:
        f = np.ldexp(np.ascontiguousarray(f).view(np.float64), -exponent).view(f.dtype)
    if not np.iscomplexobj(f) and f.shape[0] == f.shape[1] and np.array_equal(f, f.T):
        squares = np.square(eigh_householder_ql(f).values)
    else:
        gram = f.conj().T @ f  # conj() of a real array is the array itself
        _average_adjoint(gram)
        squares = _tridiagonal_ql(gram, False)[0]
    return _scale_back(sqrt_clamped(np.sort(squares)[::-1]), exponent, "a singular value")
