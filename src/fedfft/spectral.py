"""Arbitrary-length FFT, a naive DFT oracle, and FFT-accelerated Gaussian KDE.

The transform stack is self-contained: an iterative radix-2 kernel for
power-of-two lengths, extended to every other length with Bluestein's chirp-z
construction (the data itself is never zero-padded, which would change what
bin an argmax lands on). ``fft`` transforms along the last axis, so a batch
of sequences of one length goes through in one call. ``dft_naive`` is the
quadratic reference implementation the fast path is tested against.

The density estimator bins the sample onto a fine uniform grid with 4-point
(cubic Lagrange) weights and convolves with a Gaussian kernel via the FFT,
then reads the result off at the requested output grid, which is a strided
subset of the fine grid. With the default oversampling this matches a direct
sum-over-samples evaluation to ~1e-7 relative at every grid point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


class DegenerateSample(ValueError):
    """Density estimation needs at least two distinct values."""


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _radix2_plan(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Bit-reversal permutation and per-stage twiddle factors for length n."""
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    twiddles = []
    half = 1
    while half < n:
        twiddles.append(np.exp(-1j * np.pi * np.arange(half) / half))
        half *= 2
    return rev, tuple(twiddles)


def _fft_pow2(x: np.ndarray) -> np.ndarray:
    """Radix-2 Cooley-Tukey on the last axis; length must be a power of two."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    lead = x.shape[:-1]
    rev, twiddles = _radix2_plan(n)
    x = x[..., rev].reshape(-1, n)
    half = 1
    for w in twiddles:
        x = x.reshape(x.shape[0], -1, 2 * half)
        even = x[..., :half]
        odd = x[..., half:] * w
        x = np.concatenate([even + odd, even - odd], axis=-1).reshape(x.shape[0], n)
        half *= 2
    return x.reshape(lead + (n,))


def _ifft_pow2(x: np.ndarray) -> np.ndarray:
    return np.conj(_fft_pow2(np.conj(x))) / x.shape[-1]


@functools.lru_cache(maxsize=64)
def _bluestein_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chirp sequence and the padded FFT of the chirp filter for length n."""
    j = np.arange(n)
    # phase computed mod 2n keeps the argument small for exactness
    chirp = np.exp(-1j * np.pi * ((j * j) % (2 * n)) / n)
    m = 1 << (2 * n - 2).bit_length()
    b = np.zeros(m, dtype=np.complex128)
    bconj = np.conj(chirp)
    b[:n] = bconj
    b[m - n + 1 :] = bconj[1:][::-1]
    return chirp, _fft_pow2(b)


def fft(x) -> np.ndarray:
    """Discrete Fourier transform along the last axis, for any length >= 1.

    Leading axes are a batch: every row along the last axis is transformed
    independently, and each row comes out bit-identical to a 1-D call on it.
    Power-of-two lengths go through the radix-2 kernel directly; all other
    lengths use Bluestein's chirp-z identity, which expresses the DFT as a
    convolution that is evaluated on a zero-padded power-of-two grid. Returns
    a complex array; agrees with :func:`dft_naive` to ~1e-12 absolute.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0:
        raise ValueError("fft expects a sequence, not a scalar")
    n = x.shape[-1]
    if n < 1:
        raise ValueError("fft needs at least one sample")
    if n == 1:
        return x.copy()
    if n & (n - 1) == 0:
        return _fft_pow2(x)
    chirp, filt = _bluestein_plan(n)
    m = filt.shape[0]
    a = np.zeros(x.shape[:-1] + (m,), dtype=np.complex128)
    a[..., :n] = x * chirp
    conv = _ifft_pow2(_fft_pow2(a) * filt)
    return conv[..., :n] * chirp


def dft_naive(x) -> np.ndarray:
    """Textbook O(N^2) DFT, X(k) = sum_m x(m) exp(-2*pi*i*k*m/N)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("dft_naive expects a non-empty 1-D sequence")
    n = x.shape[0]
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


def magnitudes(x) -> np.ndarray:
    """Elementwise modulus sqrt(re^2 + im^2) of a complex spectrum."""
    return np.abs(np.asarray(x, dtype=np.complex128))


def _convolve_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two real sequences via one packed complex FFT."""
    out_len = len(a) + len(b) - 1
    m = 1 << (out_len - 1).bit_length()
    z = np.zeros(m, dtype=np.complex128)
    z[: len(a)] += a
    z[: len(b)] += 1j * b
    fz = _fft_pow2(z)
    frev = np.conj(np.concatenate([fz[:1], fz[:0:-1]]))
    fa = 0.5 * (fz + frev)
    fb = -0.5j * (fz - frev)
    return _ifft_pow2(fa * fb).real[:out_len]


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian KDE evaluated on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def silverman_bandwidth(sample, axis: int = -1):
    """Silverman's rule along ``axis``: h = 0.9 * min(std, IQR/1.34) * n^(-1/5).

    Falls back to std where the IQR is 0. A 1-D sample gives a float; a batch
    of samples gives one bandwidth per sample, as an array with ``axis``
    removed.
    """
    sample = np.asarray(sample, dtype=np.float64)
    sd = np.std(sample, axis=axis)
    q75, q25 = np.percentile(sample, [75.0, 25.0], axis=axis)
    iqr = q75 - q25
    spread = np.where(iqr > 0, np.minimum(sd, iqr / 1.34), sd)
    h = 0.9 * spread * sample.shape[axis] ** (-0.2)
    return float(h) if h.ndim == 0 else h


def _kernel_radius(nb: int, h: float, delta: float) -> int:
    """Half-width of the discrete Gaussian kernel, in fine-grid nodes."""
    return min(nb - 1, int(np.ceil(38.7 * h / delta)))


def _cubic_bin(pos: np.ndarray, n_nodes: int) -> np.ndarray:
    """Deposit unit masses at fractional grid positions with 4-point weights.

    Returns an array of length n_nodes + 3 whose entry j holds the mass at
    fine node j - 1 (one spill node on the left, two on the right).
    """
    j = np.floor(pos).astype(np.intp)
    t = pos - j
    out = np.zeros(n_nodes + 3)
    np.add.at(out, j, -t * (t - 1.0) * (t - 2.0) / 6.0)
    np.add.at(out, j + 1, (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0)
    np.add.at(out, j + 2, -(t + 1.0) * t * (t - 2.0) / 2.0)
    np.add.at(out, j + 3, (t + 1.0) * t * (t - 1.0) / 6.0)
    return out


def kde_density(
    sample,
    grid_size: int = 256,
    *,
    oversample: int = 48,
    max_fine_size: int = 1 << 21,
) -> DensityEstimate:
    """Gaussian KDE on a uniform grid spanning [min - 3h, max + 3h].

    Parameters
    ----------
    sample : array-like
        At least two values, not all identical.
    grid_size : int
        Number of output grid points.
    oversample : int
        Accuracy knob: the internal binning grid is refined until its spacing
        is at most bandwidth / oversample (subject to ``max_fine_size``).
        The default keeps the result within ~1e-7 relative of a direct
        sum-over-samples evaluation.
    max_fine_size : int
        Upper bound on the internal grid length; very widely spread samples
        (range >> bandwidth) degrade gracefully once it binds.

    Raises
    ------
    DegenerateSample
        If fewer than two values or all values identical.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    n = sample.size
    if n < 2 or np.all(sample == sample[0]):
        raise DegenerateSample("need >= 2 values that are not all identical")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")

    h = silverman_bandwidth(sample)
    lo = float(sample.min()) - 3.0 * h
    hi = float(sample.max()) + 3.0 * h
    grid = np.linspace(lo, hi, grid_size)
    step = (hi - lo) / (grid_size - 1)

    ov = max(1, int(np.ceil(step / (h / oversample))))
    while (grid_size - 1) * ov + 1 > max_fine_size and ov > 1:
        ov //= 2
    nf = (grid_size - 1) * ov + 1
    delta = step / ov

    binned = _cubic_bin((sample - lo) / delta, nf)
    nb = binned.shape[0]
    # exp(-z^2/2) underflows to exactly 0.0 past |z| ~ 38.6, so truncating the
    # kernel there changes nothing and keeps the convolution short
    kradius = _kernel_radius(nb, h, delta)
    kz = np.arange(-kradius, kradius + 1) * (delta / h)
    kernel = np.exp(-0.5 * kz * kz)
    conv = _convolve_real(binned, kernel)
    # binned[j] is mass at fine node j-1; kernel index q has offset q-kradius,
    # so fine node i lives at convolution index i + kradius + 1
    dens = conv[kradius + 1 : kradius + 1 + nf : ov][:grid_size] / (n * h * SQRT_2PI)
    return DensityEstimate(grid=grid, density=np.maximum(dens, 0.0), bandwidth=h)


def kde_density_direct(sample, grid: np.ndarray) -> np.ndarray:
    """Direct O(n * G) Gaussian KDE on an explicit grid (test oracle)."""
    sample = np.asarray(sample, dtype=np.float64).ravel()
    h = silverman_bandwidth(sample)
    z = (np.asarray(grid)[:, None] - sample[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (sample.size * h * SQRT_2PI)
