"""Numeric kernels shared by the tracker and the scene pipeline.

Plain numpy: the separable Gaussian blur of the gesture path, the blur matrix
the tracker folds into its evidence projections, one Viterbi table update and
a direct DFT. All take and return float64 arrays and are deterministic.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TRUNCATE = 3.0  # Gaussian taps end this many sigmas from the center


def active_backend() -> str:
    """Name of the kernel implementation, recorded in bench reports."""
    return "numpy"


def gaussian_kernel1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps, truncated at ``TRUNCATE`` sigmas."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    radius = int(TRUNCATE * sigma + 0.5)
    if sigma == 0 or radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Blur a 2-D image with a separable Gaussian (symmetric boundary)."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D array")
    taps = gaussian_kernel1d(sigma)
    r = taps.size // 2
    if r == 0:
        return img.copy()
    out = np.pad(img, ((r, r), (0, 0)), mode="symmetric")
    out = sliding_window_view(out, taps.size, axis=0) @ taps
    out = np.pad(out, ((0, 0), (r, r)), mode="symmetric")
    return sliding_window_view(out, taps.size, axis=1) @ taps


def blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix G such that ``G @ x`` is the 1-D blur of a length-n ``x``.

    Same taps and symmetric boundary as :func:`gaussian_blur`, so
    ``G_h @ img @ G_w.T`` blurs an (h, w) image; radii beyond ``n`` reflect
    repeatedly, as ``np.pad(mode="symmetric")`` does.
    """
    taps = gaussian_kernel1d(sigma)
    r = taps.size // 2
    out = np.pad(np.eye(n), ((r, r), (0, 0)), mode="symmetric")
    return sliding_window_view(out, taps.size, axis=0) @ taps


def viterbi_step(
    log_mu: np.ndarray, log_trans: np.ndarray, log_lik: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """One dynamic-table update.

    Returns ``(new_log_mu, backptr, pairs_examined)`` where
    ``new_log_mu[j] = log_lik[j] + max_i(log_trans[i, j] + log_mu[i])`` and
    ``backptr[j]`` is the argmax predecessor (ties break to the lowest index).
    Every (i, j) pair is examined, so ``pairs_examined`` is exactly M^2.
    """
    log_mu = np.ascontiguousarray(log_mu, dtype=np.float64)
    log_trans = np.ascontiguousarray(log_trans, dtype=np.float64)
    log_lik = np.ascontiguousarray(log_lik, dtype=np.float64)
    m = log_mu.shape[0]
    if log_trans.shape != (m, m) or log_lik.shape != (m,):
        raise ValueError("inconsistent table shapes")
    scores = log_trans + log_mu[:, None]  # [predecessor i, destination j]
    backptr = scores.argmax(axis=0)  # first occurrence = lowest index
    new_mu = log_lik + scores[backptr, np.arange(m)]
    return new_mu, backptr.astype(np.int64), m * m


def dft_direct(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Direct O(T^2) DFT of a real series; returns ``(spectrum, multiplies)``.

    ``multiplies`` is the exact T^2 work count, used by the bench counters.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_direct expects a non-empty 1-D series")
    t = np.arange(x.size)
    twiddle = np.exp(-2j * np.pi * np.outer(t, t) / x.size)
    return twiddle @ x.astype(np.complex128), x.size * x.size
