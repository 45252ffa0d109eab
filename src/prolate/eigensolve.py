"""Self-contained dense symmetric eigensolvers.

Two independent algorithms are provided on purpose: the workhorse is
Householder reduction to tridiagonal form followed by implicit QL with
Wilkinson shifts; a cyclic Jacobi rotation solver acts as a cross-check
oracle on moderate sizes (its convergence theory is unconditional).
Complex Hermitian problems are reduced to real symmetric ones through the
2n x 2n embedding [[Re, -Im], [Im, Re]], whose spectrum repeats each
eigenvalue twice.

The two hot kernels keep their scalar recurrences in Python but apply
each plane rotation as in-place numpy updates of whole columns, with the
same per-element arithmetic as an element-by-element loop, so results are
bitwise identical to it.  When numba is importable both kernels are
JIT-compiled; that compiled path is unverified.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import ParameterError, SymbolMatrix

try:  # optional acceleration only; the fallback is the same code object
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - environment without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        return wrap


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
    """Validate and symmetrize the input; rejects asymmetry beyond tolerance."""
    if isinstance(a, SymbolMatrix):
        return a.dense()
    arr = np.array(a, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ParameterError("expected a non-empty matrix")
    if not np.isfinite(arr).all():
        raise EigensolveError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(arr).max()))
    asym = float(np.abs(arr - arr.T).max())
    if asym > SYMMETRY_TOL * scale:
        raise ParameterError(
            f"matrix is not symmetric: max |A - A^T| = {asym:.3e}"
        )
    return 0.5 * (arr + arr.T)


def _householder_tridiag(a: np.ndarray, want_q: bool):
    """Reduce a symmetric matrix to tridiagonal form via Householder reflectors.

    Returns (d, e, q): diagonal, subdiagonal (length n, last slot unused),
    and the accumulated orthogonal transform (or None).
    """
    n = a.shape[0]
    q = np.eye(n) if want_q else None
    e = np.zeros(n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        scale = float(np.abs(x).max())
        if scale == 0.0 or float(np.abs(x[1:]).max(initial=0.0)) == 0.0:
            e[k] = x[0]
            continue
        v = x / scale
        alpha = math.copysign(math.sqrt(float(v @ v)), v[0])
        u = v.copy()
        u[0] += alpha
        beta = alpha * u[0]  # = u.u / 2
        e[k] = -alpha * scale
        a[k + 1, k] = e[k]
        a[k, k + 1] = e[k]
        block = a[k + 1 :, k + 1 :]
        w = block @ u / beta
        w -= (float(u @ w) / (2.0 * beta)) * u
        block -= np.outer(u, w)
        block -= np.outer(w, u)
        if want_q:
            qb = q[:, k + 1 :]
            qb -= np.outer(qb @ u, u) / beta
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    d = np.diag(a).copy()  # diag returns a read-only view
    return d, e, q


def _ql_implicit(d, e, z, want_z, budget):
    """Implicit QL with Wilkinson shifts on a symmetric tridiagonal matrix.

    d: diagonal (n,), e: subdiagonal in e[0..n-2] with e[n-1] as workspace;
    both are overwritten.  When want_z, the rotations are accumulated into
    the columns of z.  Returns the unused budget, or -1 on non-convergence.
    """
    n = d.shape[0]
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
                    zi = z[:, i]
                    zi1 = z[:, i + 1]
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
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
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


if _HAVE_NUMBA:
    _ql_implicit = njit(cache=True)(_ql_implicit)
    _jacobi_cyclic = njit(cache=True)(_jacobi_cyclic)


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


def eigh_householder_ql(a, want_vectors: bool = False) -> Spectrum:
    """Full spectrum via Householder tridiagonalization plus implicit QL.

    Deterministic for fixed input.  Raises EigensolveError when the QL
    iteration exhausts its 50*n budget, which signals pathological input
    rather than returning a silently partial answer.
    """
    sym = _as_dense_symmetric(a)
    n = sym.shape[0]
    work = sym.copy()
    d, e, q = _householder_tridiag(work, want_vectors)
    z = q if want_vectors else np.empty((0, 0))
    budget = QL_BUDGET_PER_ROW * n
    left = _ql_implicit(d, e, z, want_vectors, budget)
    if left < 0:
        raise EigensolveError(
            f"implicit QL did not converge within {budget} sweeps"
        )
    return _finish(
        sym, d, z if want_vectors else None, "householder_ql", budget - left
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
    """Singular values of a complex matrix, descending, via its Gram matrix.

    The Hermitian Gram F*F is diagonalized through the real symmetric
    embedding, whose spectrum carries each Gram eigenvalue twice; the
    pairs are deduplicated by taking every other sorted value.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 2:
        raise ParameterError(f"expected a 2-d matrix, got shape {f.shape}")
    gram = f.conj().T @ f
    spec = eigh_householder_ql(hermitian_embedding(gram))
    doubled = spec.values
    return sqrt_clamped(doubled[0::2], noise_floor)
