"""Reference computations that the tests hold the library against."""

import cmath
import math
import warnings

import numpy as np
from scipy.special import gammaln

from bergreen import bergman
from bergreen.bergman import KernelEstimate
from bergreen.domains import Annulus, Disc, gauss_legendre, refine
from bergreen.errors import AccuracyError, DomainError


def chain_rule_orbit(c: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """``(points, derivs)``: ``g^n(0)`` and ``(g^n)'(0)`` at index ``n + N``
    for ``n = -N..N``, where ``g(z) = (z + c) / (1 + c z)``.

    Each side is stepped from 0 by the chain rule ``(g^{n+1})'(0) =
    g'(g^n(0)) (g^n)'(0)`` with ``g'(z) = (1 - c^2) / (1 + c z)^2``, and
    ``g^{-1}`` is ``g`` with ``c -> -c``: the oracle of
    ``fuchsian.fuchsian_sums``, which never walks the orbit, and it never
    uses the closed form ``g^n(0) = tanh(n artanh c)``.
    """
    points = np.zeros(2 * N + 1)
    derivs = np.ones(2 * N + 1)
    for sign in (1, -1):
        s, z, dz = sign * c, 0.0, 1.0
        for n in range(1, N + 1):
            q = 1.0 + s * z
            z, dz = (z + s) / q, (1.0 - s * s) / (q * q) * dz
            points[N + sign * n], derivs[N + sign * n] = z, dz
    return points, derivs


def bessel_gram(lo: float, c: float, ns: np.ndarray, terms: int = 40) -> np.ndarray:
    """The Gram of ``HarmonicRe(c)`` on ``lo < |z| < 1`` (the unit disc at
    ``lo = 0``), each entry summed term by term in floating point:

        2 pi (-c)^k sum_{j < terms} c^(2j) / (j! (j+k)!) L(2 (M + 1 + j)),

    ``M = max(m, n)``, ``k = |m - n|``, ``L(p) = (1 - lo^p) / p`` with
    ``lo^p`` formed (``log(1/lo)`` at ``p = 0``).  The terms have one sign,
    so each entry is accurate to a few roundings while it is in the float
    range.  The oracle of ``bergman._bessel_gram``, which forms neither
    ``lo^p`` nor the Gram; nothing here checks that ``terms`` suffices.
    """
    big = np.maximum.outer(ns, ns)
    k = np.abs(np.subtract.outer(ns, ns))
    gram = np.zeros(k.shape)
    for j in range(terms):
        p = 2.0 * (big + 1 + j)
        moment = np.full(p.shape, -math.log(lo) if lo > 0.0 else math.inf)
        np.divide(1.0 - lo**p, p, out=moment, where=p != 0.0)
        log_coeff = (k + 2 * j) * math.log(abs(c)) - gammaln(j + 1) - gammaln(j + k + 1)
        gram += np.exp(log_coeff) * moment
    return 2.0 * math.pi * np.where(k % 2 == 1, -math.copysign(1.0, c), 1.0) * gram


def jacobi_scaled(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(corr, d)`` with ``d = sqrt|diag gram|`` and ``corr = gram / d
    d^T``, its entries below ``DROP`` in modulus set to 0: the oracle of
    :func:`scaled_bessel_gram`, which builds ``corr`` and ``log d`` in log
    space without forming ``gram``.  Every operation here is one rounding
    on the entries of ``gram`` itself."""
    d = np.sqrt(np.abs(np.diag(gram)).real)
    corr = gram / np.outer(d, d)
    corr[np.abs(corr) < DROP] = 0.0
    return corr, d


# ---------------------------------------------------------------------------
# The dense HarmonicRe route: the oracle of the library's closed form
# K_rho(z, z) = e^{2 c Re z} K(z, z), which solves the Gram of the monomials
# against rho = e^{-2 c Re z} instead of using the isometry f -> f e^{-c z}
# ---------------------------------------------------------------------------

# the relative series tail of the Grams the solves read
GRAM_TOL = 1e-16
# the most series terms a Gram entry may take (scaled_bessel_gram)
SERIES_TERMS = 1000
# eps^2: Jacobi-scaled entries below it are set to 0 (scaled_bessel_gram).
# The dropped part E of an n x n matrix has ||E||_2 <= ||E||_F < n eps^2, so
# a solve moves by at most kappa n eps^2 relative, below 1.3e-19 at n = 257
# for every kappa under the 1e10 warning, and by Weyl's inequality no
# eigenvalue moves by more than ||E||_2 (N. J. Higham, *Accuracy and
# Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 7)
DROP = 2.0**-104
# the relative truncation level half of an automatic basis reaches (auto_basis)
BASIS_REL_TOL = 1e-7


def auto_basis(domain, z: complex) -> tuple[int, int]:
    """Index range making the kernel truncation at ``z`` negligible.

    Kernel terms decay like ``(|z|/R)^{2n} n`` for large positive ``n`` on a
    disc of radius ``R`` (``R = 1`` on an annulus) and like ``(r/|z|)^{2|n|}
    |n|`` for large negative ``n`` on an annulus.  The range is sized so
    that *half* of it already truncates at relative level ``BASIS_REL_TOL``,
    which keeps the halved-range estimate of a modal sum comfortably below
    ``bergman._TRUNC_TOL`` while making the full range's own truncation
    negligible.  It grows like ``1 / (1 - |z|/R)`` near a circle.
    """

    def n_for(q: float) -> int:
        if q <= 0.0 or q >= 1.0:
            return 64
        n = 64.0
        for _ in range(4):
            n = max(
                64.0,
                (math.log(BASIS_REL_TOL) - 2.0 * math.log(n + 2.0)) / (2.0 * math.log(q)),
            )
        return int(math.ceil(n))

    s = abs(z)
    if isinstance(domain, Annulus):
        return (-2 * n_for(domain.r_inner / s), 2 * n_for(s))
    return (0, 2 * n_for(s / domain.radius))


def scaled_bessel_gram(domain, weight, ns: np.ndarray, gram_tol: float = GRAM_TOL):
    """Jacobi-scaled Gram ``(corr, log d)`` of ``HarmonicRe(c)`` from its
    Bessel moments: ``d = sqrt(diag G)`` and ``corr = G / (d d^T)``, built in
    log space without forming ``G``.

    ``e^{-2 c s cos t} = sum_k (-1)^k I_k(2 c s) e^{ikt}`` and the power
    series of ``I_k`` turn entry ``(m, n)`` of ``G`` on the unit disc or an
    annulus ``lo < |z| < 1`` into

        2 pi (-c)^k sum_j c^(2j) / (j! (j+k)!) L(2 (max(m, n) + 1 + j)),

    with ``k = |m - n|`` and ``L(p) = integral_lo^1 s^(p-1) ds``
    (``log(1/lo)`` at ``p = 0``).  The terms have one sign and ``L``
    decreases in ``p``, so term ``j + 1`` is at most ``rho_j = c^2 / ((j+1)
    (j+k+1))`` times term ``j``, and after terms ``0..J`` the tail is at most
    term ``J`` times ``rho_J / (1 - rho_J)``.  Relative to the entry, that
    bound is largest at ``k = 0``, where term ``J`` is at most ``c^(2J) /
    (J!)^2`` times term 0; ``J`` is the first index that takes it below
    ``gram_tol``.  On a disc of radius ``R`` the entry is ``R^(m+n+2)`` times
    the unit-disc entry at ``c R``.

    ``L(p) = lo^min(p, 0) L(|p|)``, so ``log L`` is ``min(p, 0) log lo`` plus
    a log of modest size from ``bergman._log_power_integrals``; differences
    of ``log L`` are taken part by part.  Entry ``(m, n)`` is a cell ``(M,
    k)``, ``M = max(m, n)``, of one table ``T``: the Hankel matrix of ``L``,
    each row divided by its first moment ``L(2 (M + 1))``, times the
    coefficients, those below the smallest normal float set to 0.  With
    ``l_n = log L(2 (n + 1))``, ``corr[m, n] = e^{-|l_m - l_n| / 2} T[M, k] /
    sqrt(T[m, 0] T[n, 0])``.  Its entries below ``DROP`` are set to 0.

    Raises :class:`AccuracyError` when ``c`` is not finite or the series
    needs more than ``SERIES_TERMS`` terms.
    """
    if isinstance(domain, Disc):
        lo, radius = 0.0, domain.radius
    elif isinstance(domain, Annulus):
        lo, radius = domain.r_inner, 1.0
    else:
        raise DomainError("the HarmonicRe Gram needs a disc or annulus")
    c = weight.c * radius
    if not math.isfinite(c):
        raise AccuracyError(f"the HarmonicRe Gram series is undefined at c = {weight.c!r}")
    c2 = c * c
    last, n_terms = 1.0, 0  # term n_terms relative to term 0, at k = 0
    while not (c2 < (n_terms + 1) ** 2 and last * c2 / ((n_terms + 1) ** 2 - c2) <= gram_tol):
        n_terms += 1
        if n_terms > SERIES_TERMS:
            raise AccuracyError(
                f"the HarmonicRe Gram series at c = {weight.c!r} needs more than "
                f"{SERIES_TERMS} terms for gram_tol={gram_tol:.3e}"
            )
        last *= c2 / (n_terms * n_terms)

    size = ns.size
    # L(p) for p = 2 (M + 1 + j), M in the basis range and j <= J
    p = 2.0 * np.arange(ns[0] + 1, ns[-1] + n_terms + 2)
    low, log_l = np.minimum(p, 0.0), bergman._log_power_integrals(np.abs(p), lo, 1.0)
    log_lo = math.log(lo) if lo > 0.0 else 0.0  # low = 0 on a disc

    def gap(a, b):  # log L(p[a]) - log L(p[b])
        return (low[a] - low[b]) * log_lo + (log_l[a] - log_l[b])

    # coeff[j, k] = (-c)^k c^(2j) / (j! (j+k)!), by recurrence in k, then j
    ks = np.arange(size)
    coeff = np.empty((n_terms + 1, size))
    coeff[0] = np.cumprod(np.concatenate(([1.0], -c / ks[1:])))
    for j in range(1, n_terms + 1):
        coeff[j] = coeff[j - 1] * (c2 / (j * (j + ks)))
    coeff[np.abs(coeff) < np.finfo(float).tiny] = 0.0
    table = np.exp(gap(ks[:, None] + np.arange(n_terms + 1), ks[:, None])) @ coeff
    root = np.sqrt(table[:, 0])  # table is [M - n_min, k]
    corr = table[np.maximum.outer(ks, ks), np.abs(ks[:, None] - ks)]
    corr *= np.exp(-0.5 * np.abs(gap(ks[:, None], ks))) / np.outer(root, root)
    corr[np.abs(corr) < DROP] = 0.0
    log_n = low[:size] * log_lo + log_l[:size]
    log_d = 0.5 * (bergman._LOG_2PI + log_n) + np.log(root) + (ns + 1.0) * math.log(radius)
    return corr, log_d


def harmonic_re_gram(domain, weight, basis, gram_tol: float = GRAM_TOL) -> np.ndarray:
    """The Gram ``corr d d^T`` of :func:`scaled_bessel_gram` on a basis
    range, whose series tail is certified at most ``gram_tol`` relative to
    every entry; refused (:class:`DomainError`) as ``bergman.gram_matrix``
    refuses a radial Gram, where the diagonal ``d^2`` passes ``e^700``."""
    corr, log_d = scaled_bessel_gram(domain, weight, np.arange(basis[0], basis[1] + 1), gram_tol)
    if 2.0 * np.max(log_d) > bergman._EXP_MAX:
        raise DomainError(bergman._RANGE_ERROR)
    d = np.exp(log_d)
    return corr * np.outer(d, d)


def normalized_condition(corr: np.ndarray) -> float:
    """Condition number of the Jacobi-scaled matrix ``corr``: real and
    exactly symmetric, so the 2-norm condition is ``max |lambda| / min
    |lambda|`` over the eigenvalues from ``eigvalsh``, taken on a symmetric
    permutation (stride 31, an exact similarity that LAPACK's tridiagonal
    reduction takes faster than the banded order).  A diagonal ``corr`` is
    exactly 1.  A condition above 1e10 warns (``RuntimeWarning``)."""
    if np.all(corr == np.diag(np.diag(corr))):
        return 1.0
    order = np.argsort(np.arange(corr.shape[0]) % 31, kind="stable")
    lam = np.abs(np.linalg.eigvalsh(corr[np.ix_(order, order)]))
    with np.errstate(divide="ignore"):
        cond = float(lam.max() / lam.min())
    if cond > 1e10:
        warnings.warn(f"Gram matrix condition {cond:.3e} exceeds 1e10", RuntimeWarning)
    return cond


def scaled_powers(z: complex, ns: np.ndarray, log_d: np.ndarray) -> np.ndarray:
    """``z^n / d_n`` as ``exp(n log|z| - log d_n) e^{i n arg z}``, which
    neither overflows nor underflows where the quotient does not."""
    return np.exp(bergman._log_powers(z, ns) - log_d + 1j * ns * cmath.phase(z))


def jacobi_solve(corr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``y`` solving ``corr y = rhs`` for a real symmetric ``corr`` and a
    complex ``rhs``, by partial-pivoting LU in real arithmetic, with the real
    and imaginary parts of ``rhs`` as two right-hand sides."""
    y = np.linalg.solve(corr, np.stack([rhs.real, rhs.imag], axis=-1))
    return y[:, 0] + 1j * y[:, 1]


def dense_kernel_value(corr: np.ndarray, bd: np.ndarray) -> float:
    """``b^H G^{-1} b = (b/d)^H corr^{-1} (b/d)`` for ``bd = b / d``."""
    return float(np.vdot(bd, jacobi_solve(corr, bd)).real)


def dense_kernel(domain, weight, z: complex, basis=None) -> tuple[KernelEstimate, float]:
    """``K_rho(z, z)`` of ``HarmonicRe(c)`` over the monomials of a basis
    range (:func:`auto_basis` for ``None``), solved against the dense Gram:
    the estimate (the value, the basis size, and the relative change when
    the range is halved toward zero, not gated) and, beside it, the
    condition of ``corr``."""
    basis = auto_basis(domain, z) if basis is None else basis
    ns = np.arange(basis[0], basis[1] + 1)
    corr, log_d = scaled_bessel_gram(domain, weight, ns)
    condition = normalized_condition(corr)
    bd = scaled_powers(z, ns, log_d)
    half = bergman._half_mask(ns)
    value = dense_kernel_value(corr, bd)
    value_half = dense_kernel_value(corr[np.ix_(half, half)], bd[half])
    return KernelEstimate(value, int(ns.size), abs(value - value_half) / value), condition


def dense_least_norm(domain, weight, z0: complex, value: complex, basis):
    """Least ``rho``-norm element of the span of a basis range with ``F(z0)
    = value`` for ``HarmonicRe(c)``: ``(|value|^2 / K, coefficients value
    conj(y) / (d K))`` with ``corr y = b / d``, one solve."""
    ns = np.arange(basis[0], basis[1] + 1)
    corr, log_d = scaled_bessel_gram(domain, weight, ns)
    normalized_condition(corr)  # warns if ill-conditioned
    bd = scaled_powers(z0, ns, log_d)
    y = jacobi_solve(corr, bd)
    kz = float(np.vdot(bd, y).real)
    return abs(value) ** 2 / kz, value * np.conj(y) * np.exp(-log_d) / kz


# the largest relative change between the two last panel levels of
# min_norm_quadrature
MIN_NORM_TOL = 1e-12


def min_norm_quadrature(delta: float, a: float) -> float:
    """The least norm ``2 pi int_0^1 s rho(s) ds`` of ``F(0) = 1`` on the unit
    disc for ``MaxPiece(delta, a)``, by direct radial quadrature split at
    the corner ``s = a``: Gauss-Legendre, exact for the linear inner
    integrand, and the outer ``int_a^1 s^{-1-2 delta} ds = int_{log a}^0
    e^{-2 delta u} du`` over up to 256 panels in ``u = log s``, doubled
    through ``domains.refine``.  The oracle of the closed-form moments that
    the ``optimal-constant`` record takes through ``least_norm_extension``.
    """
    x, w = gauss_legendre(16)
    s = 0.5 * a * (x + 1.0)
    inner = float(0.5 * a * w @ (2.0 * math.pi * s)) * a ** (-2.0 * (1.0 + delta))

    def outer(k: int) -> float:
        edges = np.linspace(math.log(a), 0.0, (1 << k) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
        return float(np.sum(half * w * 2.0 * math.pi * np.exp(-2.0 * delta * u)))

    return inner + refine(outer, lambda f, c: abs(f - c) / abs(f), MIN_NORM_TOL, 8)[0]


def laurent_remainder(r: float, z: complex, w: complex, modes: int) -> float:
    """``H(z, w)`` on ``r < |z| < 1`` from the first ``modes`` Laurent modes:
    the oracle of the annulus prime-function route in ``domains``.

    ``H = d0 log|z| + sum_k Re[alpha_k z^k + beta_k z^{-k}]``, where the
    coefficients solve the two-circle Dirichlet matching problem:

        beta_k  = r^{2k} (conj(w)^{-k} - w^k) / (k (1 - r^{2k})),
        alpha_k = conj(w)^k / k - conj(beta_k),
        d0      = log|w| / log(1/r).

    Every power is of a base of modulus below 1.  The series converges with
    ratio ``max(|z||w|, r^2/(|z||w|), r^2|z|/|w|, r^2|w|/|z|)``, and nothing
    here sizes ``modes`` to it.
    """
    out = math.log(abs(w)) / math.log(1.0 / r) * math.log(abs(z))
    k = np.arange(1, modes + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))
    denom = k * (1.0 - r2k)
    wb = w.conjugate()
    B2 = r * r / wb  # |.| = r^2/|w| < 1
    B3 = r * r * w  # |.| < r^2
    # beta_k z^{-k} = ((B2/z)^k - (B3/z)^k) / denom
    t_bz = (np.power(B2 / z, k) - np.power(B3 / z, k)) / denom
    # conj(beta_k) z^k = ((conj(B2) z)^k - (conj(B3) z)^k) / denom
    t_cbz = (np.power(B2.conjugate() * z, k) - np.power(B3.conjugate() * z, k)) / denom
    # alpha_k z^k = (conj(w) z)^k / k - conj(beta_k) z^k
    t_az = np.power(wb * z, k) / k - t_cbz
    return out + float(np.sum(t_az.real + t_bz.real))


def laurent_robin(r: float, z: complex, modes: int) -> float:
    """``H(z, z)`` on the annulus from the first ``modes`` Laurent modes.

    The pure-disc part sums to ``-log(1 - |z|^2)`` in closed form, and mode
    ``k`` of the rest is ``((r^2/|z|^2)^k - 2 r^{2k} + (r^2|z|^2)^k) / (k (1
    - r^{2k}))``, which converges with ratio ``max(r^2/|z|^2, r^2|z|^2)``.
    """
    s = abs(z)
    k = np.arange(1, modes + 1, dtype=float)
    r2k = np.exp(k * (2.0 * math.log(r)))
    corr = (np.power(r * r / (s * s), k) - 2.0 * r2k + np.power(r * r * s * s, k)) / (k * (1.0 - r2k))
    lz = math.log(s)
    return lz * lz / math.log(1.0 / r) - math.log((1.0 - s) * (1.0 + s)) + float(np.sum(corr))


def theta_rows(basis, n: int) -> np.ndarray:
    """``theta_j`` of ``basis`` for every ``j`` on the product grid ``a/n +
    (b/n) tau`` (``0 <= a, b < n``): shape ``(d, n*n)``, columns ``a``-major.

    A series term factors as ``U[a, nu] W[b, nu]`` with ``U = exp(2 pi i d
    nu a/n)`` and ``W = exp(pi i tau d nu^2 + 2 pi i d nu tau b/n)``, each
    exponential taken at every entry, so row ``j`` is the product ``U_j
    W_j^T``.  The Gaussian factor stays in ``W``, where ``|W|`` is the
    modulus of a series term, at most ``exp(pi d Im tau)``.
    """
    tau, d = basis.spec.tau, basis.d
    N = basis._n_range
    dnu = d * np.arange(-N, N + 1) + np.arange(d)[:, None]  # (d, 2N+1)
    nu = dnu / d
    idx = np.arange(n)
    U = np.exp(2j * math.pi / n * (np.multiply.outer(dnu, idx) % n))  # (d, 2N+1, n)
    expo = 1j * math.pi * tau * d * nu**2
    W = np.exp(expo[:, :, None] + 2j * math.pi * d * np.multiply.outer(nu, idx / n * tau))
    return (np.swapaxes(U, 1, 2) @ W).reshape(d, n * n)


def theta_gram(basis, n: int) -> np.ndarray:
    """Gram matrix of the weighted theta sections of ``basis`` against the
    unit volume form, by the trapezoid rule on the ``n x n`` product grid
    of :func:`theta_rows`: the oracle of ``torus.torus_gram``.

    The integrand is smooth and doubly periodic, so the rule converges
    spectrally in ``n``; nothing here sizes ``n`` or checks convergence.
    """
    rows = theta_rows(basis, n)
    idx = np.arange(n)
    S, T = np.meshgrid(idx / n, idx / n, indexing="ij")
    w = basis.weight((S + T * basis.spec.tau).ravel())
    G = (rows * w) @ rows.conj().T / (n * n)
    return 0.5 * (G + G.conj().T)
