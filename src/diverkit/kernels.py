"""Numeric kernels shared by the tracker and the scene pipeline.

The Gaussian blur of the gesture path, the blur matrix the tracker folds into
its evidence projections, one Viterbi table update and a direct DFT. All return
float64 arrays and are deterministic, and all run on numpy alone. The blur
has the taps, the boundary and the summation order of
``scipy.ndimage.gaussian_filter``, and the blur matrix is that blur applied to
an identity matrix. The tests hold both to scipy's output bit for bit, so no
pipeline loads scipy or depends on the installed scipy's filter code.
Frames store RGB as uint8 and gray as float64, so the blur takes the uint8
channel planes of an RGB frame as they are; the other kernels take float64.
The Viterbi update reduces its transition matrix down columns, so it is
fastest with that matrix in Fortran order; C order gives the same result.
"""

from __future__ import annotations

import functools
import math

import numpy as np

TRUNCATE = 3.0  # Gaussian taps end this many sigmas from the center


def active_backend() -> str:
    """Name of the kernel implementation, recorded in bench reports."""
    return "numpy"


def _checked_sigma(sigma: float) -> float:
    """``sigma`` if finite and >= 0; scipy reads a negative or NaN sigma as 0."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def tap_radius(sigma: float) -> int:
    """Taps :func:`gaussian_blur` reads on each side of a pixel (scipy's rule)."""
    return int(TRUNCATE * _checked_sigma(sigma) + 0.5)


def _taps(sigma: float) -> np.ndarray:
    """The 2r + 1 Gaussian taps, r = :func:`tap_radius`, in scipy's expressions and rounding."""
    if _checked_sigma(sigma) <= 1e-15:
        return np.ones(1)  # scipy's cut-off; below it sigma * sigma can underflow to 0
    offsets = np.arange(-tap_radius(sigma), tap_radius(sigma) + 1)
    taps = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    return taps / taps.sum()


def _reflect(index: np.ndarray, n: int) -> np.ndarray:
    """scipy's "reflect" boundary on an axis of length n (period 2n: -1 reads 0, n reads n - 1)."""
    index = index % (2 * n)
    return np.minimum(index, 2 * n - 1 - index)


def _blur_axis0(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Correlate every column of ``x`` with symmetric ``taps``, as scipy does.

    Each output sums the center tap first, then each mirrored pair
    ``(x[i-k] + x[i+k]) * w[k]`` from the outermost ``k`` in, the order of
    scipy's symmetric correlation. A pair of uint8 samples is added in uint16,
    which is exact, as scipy's sum of the two samples widened to float64 is.
    """
    radius, n = len(taps) // 2, x.shape[0]
    padded = x[_reflect(np.arange(-radius, n + radius), n)]
    out = padded[radius : radius + n] * taps[radius]
    pair = np.uint16 if x.dtype == np.uint8 else np.float64
    for k in range(radius, 0, -1):
        below, above = padded[radius - k : n + radius - k], padded[radius + k : n + radius + k]
        out += np.add(below, above, dtype=pair) * taps[radius + k]
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Blur a 2-D image with a separable Gaussian (symmetric boundary).

    ``img`` may be any real dtype; the result is float64 and equals the blur
    of ``img`` widened to float64. Taps end ``TRUNCATE`` sigmas from the
    center; sigma 0 returns a float64 copy. The result equals
    ``scipy.ndimage.gaussian_filter(img, sigma, output=np.float64,
    mode="reflect", truncate=TRUNCATE)`` bit for bit: rows are filtered first,
    then columns, each pass with scipy's taps and summation order.
    """
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("gaussian_blur expects a non-empty 2-D array")
    if img.dtype != np.uint8:
        img = img.astype(np.float64, copy=False)
    taps = _taps(sigma)
    # the pass along axis 1 runs as a pass along axis 0 of the transpose
    return _blur_axis0(_blur_axis0(img, taps).T, taps).T


def blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix G such that ``G @ x`` is the 1-D blur of a length-n ``x``.

    G is the blur of the identity along axis 0, with the taps, symmetric
    boundary and summation order of :func:`gaussian_blur`, so column j is the
    blur of the j-th unit vector and ``G_h @ img @ G_w.T`` blurs an (h, w)
    image; radii beyond ``n`` reflect repeatedly. The matrix equals
    ``scipy.ndimage.gaussian_filter(np.eye(n), (sigma, 0))`` bit for bit. Each
    of the 2r + 1 taps costs one pass over an (n, n) array, so the build takes
    time linear in sigma and quadratic in ``n``.
    """
    return _blur_axis0(np.eye(n), _taps(sigma))


def viterbi_step(
    log_mu: np.ndarray, log_trans: np.ndarray, log_lik: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """One dynamic-table update.

    Returns ``(new_log_mu, backptr, pairs_examined)`` where
    ``new_log_mu[j] = log_lik[j] + max_i(log_trans[i, j] + log_mu[i])`` and
    ``backptr[j]`` is the argmax predecessor (ties break to the lowest index).
    Every (i, j) pair is examined, so ``pairs_examined`` is exactly M^2.

    ``log_trans`` is best passed in Fortran order, so that each column's max
    reads contiguous memory; a C-ordered matrix is accepted and gives the same
    values and back-pointers, only slower.
    """
    log_mu = np.ascontiguousarray(log_mu, dtype=np.float64)
    log_trans = np.asarray(log_trans, dtype=np.float64)  # keeps a Fortran layout
    log_lik = np.ascontiguousarray(log_lik, dtype=np.float64)
    m = log_mu.shape[0]
    if log_trans.shape != (m, m) or log_lik.shape != (m,):
        raise ValueError("inconsistent table shapes")
    scores = log_trans + log_mu[:, None]  # [predecessor i, destination j]
    backptr = scores.argmax(axis=0)  # first occurrence = lowest index
    new_mu = log_lik + scores[backptr, np.arange(m)]
    return new_mu, backptr.astype(np.int64), m * m


@functools.lru_cache(maxsize=16)
def dft_twiddle(size: int) -> np.ndarray:
    """Read-only (size, size) DFT matrix ``exp(-2j pi t k / size)``.

    Built in place, in the operation order of that expression, so the build
    holds no array but the 16 size^2 byte result.
    """
    t = np.arange(size)
    twiddle = np.empty((size, size), dtype=np.complex128)
    np.multiply.outer(t, t, out=twiddle)
    twiddle *= -2j * np.pi
    twiddle /= size
    np.exp(twiddle, out=twiddle)
    twiddle.setflags(write=False)
    return twiddle


def dft_direct(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Direct O(T^2) DFT of a real series; returns ``(spectrum, multiplies)``.

    ``multiplies`` is the exact T^2 work count, used by the bench counters.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_direct expects a non-empty 1-D series")
    return dft_twiddle(x.size) @ x.astype(np.complex128), x.size * x.size
