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
whole.

The two rotation kernels keep their scalar recurrences in Python but apply
each plane rotation as in-place numpy updates of whole rows (QL, which keeps
its vectors transposed so that the two rows are contiguous) or columns
(Jacobi), with the same per-element arithmetic as an element-by-element
loop, so results are bitwise identical to it.  The QL recurrence itself
runs on Python floats copied out of the tridiagonal, because indexing numpy
scalars dominated it; both are IEEE doubles, so this too leaves every bit of
the output unchanged.
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
JACOBI_MAX_SWEEPS = 60
JACOBI_OFF_TOL = 1e-14
# Beyond this |theta|, 1 + theta*theta == theta*theta exactly, so the
# rotation tangent is 0.5/theta; squaring would overflow past ~1.3e154.
JACOBI_LARGE_THETA = 1e150
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


def _as_dense_symmetric(a) -> np.ndarray:
    """Validate and symmetrize the input; rejects asymmetry beyond tolerance.

    Returns a private array.  A SymbolMatrix is symmetric by construction,
    so its dense realization is the only copy made.  For other input,
    asymmetry and the average 0.5 (A + A^T) are formed a band of
    HOUSEHOLDER_CHUNK_ROWS rows at a time in place, so besides the copy no
    temporary as large as the matrix is made.
    """
    if isinstance(a, SymbolMatrix):
        if not np.isfinite(a.symbol).all():
            raise EigensolveError("matrix contains non-finite entries")
        return a.dense()
    arr = np.array(a, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("expected a non-empty matrix")
    hi, lo = float(arr.max()), float(arr.min())  # max and min propagate NaN
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise EigensolveError("matrix contains non-finite entries")
    scale = max(1.0, hi, -lo)
    asym = 0.0
    n = arr.shape[0]
    for r0 in range(0, n, HOUSEHOLDER_CHUNK_ROWS):
        r1 = min(r0 + HOUSEHOLDER_CHUNK_ROWS, n)
        rows = arr[r0:r1, r0:]
        cols = arr[r0:, r0:r1].T
        band = rows - cols
        asym = max(asym, float(np.abs(band, out=band).max()))
        np.add(rows, cols, out=band)
        band *= 0.5
        rows[...] = band
        cols[...] = band
    if asym > SYMMETRY_TOL * scale:
        raise ParameterError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    return arr


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

    The scalar recurrence runs on Python floats copied out of d and e, since
    reading and writing numpy scalars dominated its cost; both types are IEEE
    doubles, so values, vectors and step counts are bitwise identical to the
    same recurrence run on the arrays.  d and e are written back on return.
    """
    n = d.shape[0]
    d_out, e_out = d, e
    d, e = d.tolist(), e.tolist()
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
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


def _jacobi_cyclic(a, v, want_v, max_sweeps):
    """Cyclic Jacobi sweeps; returns sweeps used, or -1 on non-convergence.

    Converged when the off-diagonal Frobenius mass drops below
    JACOBI_OFF_TOL times the Frobenius norm of the input.
    """
    n = a.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += a[i, j] * a[i, j]
    thresh = JACOBI_OFF_TOL * math.sqrt(total)
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        if math.sqrt(off) <= thresh:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                app = float(a[p, p])
                aqq = float(a[q, q])
                # on Python floats a subnormal apq takes theta to inf with
                # no warning, and the rotation to t = 0
                theta = (aqq - app) / (2.0 * apq)
                if abs(theta) > JACOBI_LARGE_THETA:
                    t = 0.5 / theta  # theta*theta would overflow
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # rotate columns p and q in place, then mirror them into
                # rows p and q; the four (p, q) entries are set afterwards
                aip = a[:, p]
                aiq = a[:, q]
                sq = s * aiq
                sp = s * aip
                aip *= c
                aip -= sq
                aiq *= c
                aiq += sp
                a[p, :] = aip
                a[q, :] = aiq
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                if want_v:
                    vip = v[:, p]
                    viq = v[:, q]
                    sq = s * viq
                    sp = s * vip
                    vip *= c
                    vip -= sq
                    viq *= c
                    viq += sp
    return -1


def _fix_vector_signs(vectors: np.ndarray) -> None:
    """Flip columns so the first non-negligible component is positive."""
    if vectors.size == 0:
        return
    mags = np.abs(vectors)
    tops = mags.max(axis=0)
    for j in range(vectors.shape[1]):
        if tops[j] == 0.0:
            continue
        lead = np.flatnonzero(mags[:, j] > 1e-12 * tops[j])
        if lead.size and vectors[lead[0], j] < 0.0:
            vectors[:, j] = -vectors[:, j]


def _finish(a_sym, values, vectors, method, iterations) -> Spectrum:
    order = np.argsort(-values, kind="stable")
    values = values[order]
    residual = None
    if vectors is not None:
        vectors = np.ascontiguousarray(vectors[:, order])
        _fix_vector_signs(vectors)
        residual = float(
            np.abs(a_sym @ vectors - vectors * values[None, :]).max(initial=0.0)
        )
    return Spectrum(
        values=values,
        vectors=vectors,
        method=method,
        residual=residual,
        iterations=iterations,
    )


def _parity_blocks(sym):
    """The even and odd blocks of a centrosymmetric matrix, else None.

    With J the exchange matrix, J B J = B makes B orthogonally similar to
    diag(E, O) (Cantoni & Butler, 1976).  For h = n // 2, A = B[:h, :h] and
    H = B[:h, n-h:] J, the odd block is O = A - H and the even block is
    A + H, bordered for odd n by sqrt(2) B[:h, h] and B[h, h].  Both are
    exactly symmetric when B is.  Only a matrix equal to its reversal bit
    for bit is split; sizes below 2 have nothing to split.
    """
    n = sym.shape[0]
    if n < 2 or not np.array_equal(sym, sym[::-1, ::-1]):
        return None
    h = n // 2
    a = sym[:h, :h]
    flip = sym[:h, n - h :][:, ::-1]
    even = np.empty((n - h, n - h))
    np.add(a, flip, out=even[:h, :h])
    if n - h > h:
        even[:h, h] = even[h, :h] = sym[:h, h] * math.sqrt(2.0)
        even[h, h] = sym[h, h]
    return even, a - flip


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
    other matrix is reduced whole.  Deterministic for fixed input.  Raises
    EigensolveError when the QL iteration exhausts its 50*n budget (per
    block), which signals pathological input rather than returning a
    silently partial answer.
    """
    sym = _as_dense_symmetric(a)
    blocks = _parity_blocks(sym)
    if blocks is None:
        # sym is private: only the residual needs it intact
        values, rows, steps = _tridiagonal_ql(
            sym.copy() if want_vectors else sym, want_vectors
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
    return _finish(
        sym, values, rows.T if want_vectors else None, "householder_ql", steps
    )


def eigh_jacobi(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via cyclic Jacobi rotations (oracle path, n <= ~256)."""
    sym = _as_dense_symmetric(a)
    n = sym.shape[0]
    work = sym.copy()
    v = np.eye(n) if want_vectors else np.empty((0, 0))
    sweeps = _jacobi_cyclic(work, v, want_vectors, JACOBI_MAX_SWEEPS)
    if sweeps < 0:
        raise EigensolveError(
            f"Jacobi iteration did not converge within {JACOBI_MAX_SWEEPS} sweeps"
        )
    values = np.ascontiguousarray(np.diag(work))
    return _finish(sym, values, v if want_vectors else None, "jacobi", sweeps)


def hermitian_embedding(g: np.ndarray) -> np.ndarray:
    """Real symmetric 2n x 2n embedding [[Re, -Im], [Im, Re]] of Hermitian g."""
    g = np.asarray(g, dtype=np.complex128)
    n = g.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = g.real
    out[n:, n:] = g.real
    out[:n, n:] = -g.imag
    out[n:, :n] = g.imag
    return out


def sqrt_clamped(values: np.ndarray, noise_floor: float = GRAM_NOISE_FLOOR) -> np.ndarray:
    """Square roots of Gram eigenvalues with PSD clamping and a noise floor.

    Values in [-1e-12, 0) are clamped to zero (Gram matrices are PSD
    analytically); anything below -1e-12 signals a solver failure.  With a
    positive noise_floor, values below noise_floor * max(values) collapse
    to exactly zero so that the noise tail is reproducible instead of
    sqrt-amplified jitter.
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
    top = float(clamped.max())
    if noise_floor > 0.0 and top > 0.0:
        clamped[clamped < noise_floor * top] = 0.0
    return np.sqrt(clamped)


def singular_values_via_gram(
    f: np.ndarray, noise_floor: float = GRAM_NOISE_FLOOR
) -> np.ndarray:
    """Singular values of a real or complex matrix, descending, via its Gram.

    A real F has the real symmetric Gram F^T F, diagonalized directly.  A
    complex F has the Hermitian Gram F*F, diagonalized through the real
    symmetric embedding, whose spectrum carries each Gram eigenvalue twice;
    the pairs are deduplicated by taking every other sorted value.
    """
    f = np.asarray(f)
    if f.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {f.shape}")
    if np.iscomplexobj(f):
        f = f.astype(np.complex128, copy=False)
        gram = hermitian_embedding(f.conj().T @ f)
        return sqrt_clamped(eigh_householder_ql(gram).values[0::2], noise_floor)
    f = f.astype(np.float64, copy=False)
    return sqrt_clamped(eigh_householder_ql(f.T @ f).values, noise_floor)
