"""Numeric kernels shared by the tracker and the scene pipeline.

numpy plus ``scipy.ndimage``: the Gaussian blur of the gesture path, the blur
matrix the tracker folds into its evidence projections, one Viterbi table
update and a direct DFT. All take and return float64 arrays and are
deterministic. The Viterbi update reduces its transition matrix down columns,
so it is fastest with that matrix in Fortran order; C order gives the same
result.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import ndimage

TRUNCATE = 3.0  # Gaussian taps end this many sigmas from the center


def active_backend() -> str:
    """Name of the kernel implementation, recorded in bench reports."""
    return "numpy"


def _checked_sigma(sigma: float) -> float:
    """``sigma`` if finite and >= 0; scipy reads a negative or NaN sigma as 0."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Blur a 2-D image with a separable Gaussian (symmetric boundary).

    Taps end ``TRUNCATE`` sigmas from the center; sigma 0 returns a copy.
    """
    img = np.ascontiguousarray(img, dtype=np.float64)  # a strided channel plane blurs slower
    if img.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D array")
    return ndimage.gaussian_filter(img, _checked_sigma(sigma), mode="reflect", truncate=TRUNCATE)


def blur_matrix(n: int, sigma: float) -> np.ndarray:
    """(n, n) matrix G such that ``G @ x`` is the 1-D blur of a length-n ``x``.

    Column j is the blur of the j-th unit vector, with the taps and symmetric
    boundary of :func:`gaussian_blur`, so ``G_h @ img @ G_w.T`` blurs an
    (h, w) image; radii beyond ``n`` reflect repeatedly.
    """
    sigmas = (_checked_sigma(sigma), 0.0)  # scipy skips the axis whose sigma is 0
    return ndimage.gaussian_filter(np.eye(n), sigmas, mode="reflect", truncate=TRUNCATE)


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
    """Read-only (size, size) DFT matrix ``exp(-2j pi t k / size)``."""
    t = np.arange(size)
    twiddle = np.exp(-2j * np.pi * np.outer(t, t) / size)
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
