"""Numeric hot loops shared by the tracker and the scene pipeline.

Every per-frame kernel here exists twice: a numba ``@njit`` version and a
pure-numpy fallback (``blur_matrix`` is built once per grid and is numpy
only). The active lane is chosen once at import time from the
``DIVERKIT_BACKEND`` environment variable (``numba`` or ``numpy``; default is
numba when importable). Individual calls can override the lane with the
``backend=`` argument, which is what the bench subcommand uses to compare the
two.

All kernels take and return float64 arrays. The two lanes agree to float
round-off (they sum in different orders), not bit-for-bit; within one lane
results are deterministic.
"""

from __future__ import annotations

import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


_VALID_BACKENDS = ("numba", "numpy")


def _backend_from_env() -> str:
    name = os.environ.get("DIVERKIT_BACKEND", "").strip().lower()
    if name == "":
        return "numba" if HAS_NUMBA else "numpy"
    if name not in _VALID_BACKENDS:
        raise ValueError(
            f"DIVERKIT_BACKEND must be one of {_VALID_BACKENDS}, got {name!r}"
        )
    if name == "numba" and not HAS_NUMBA:
        raise ValueError("DIVERKIT_BACKEND=numba but numba is not installed")
    return name


_ACTIVE = _backend_from_env()


def active_backend() -> str:
    """Name of the lane used when ``backend=None`` is passed to a kernel."""
    return _ACTIVE


def _resolve(backend: str | None) -> str:
    if backend is None:
        return _ACTIVE
    if backend not in _VALID_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "numba" and not HAS_NUMBA:
        raise ValueError("numba backend requested but numba is not installed")
    return backend


def gaussian_kernel1d(sigma: float, truncate: float = 3.0) -> np.ndarray:
    """Normalized 1-D Gaussian taps, truncated at ``truncate`` sigmas."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    radius = int(truncate * sigma + 0.5)
    if sigma == 0 or radius == 0:
        return np.ones(1)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum()


# ---------------------------------------------------------------------------
# separable Gaussian blur, symmetric boundary
# ---------------------------------------------------------------------------


def _blur_np(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    r = taps.size // 2
    if r == 0:
        return img.copy()
    out = np.pad(img, ((r, r), (0, 0)), mode="symmetric")
    out = sliding_window_view(out, taps.size, axis=0) @ taps
    out = np.pad(out, ((0, 0), (r, r)), mode="symmetric")
    return sliding_window_view(out, taps.size, axis=1) @ taps


@njit(cache=True)
def _blur_nb(img, taps):  # pragma: no cover - exercised via dispatcher
    h, w = img.shape
    r = taps.size // 2
    tmp = np.empty((h, w))
    out = np.empty((h, w))
    # vertical pass, symmetric reflection at the edges
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for t in range(-r, r + 1):
                yy = y + t
                if yy < 0:
                    yy = -yy - 1
                elif yy >= h:
                    yy = 2 * h - yy - 1
                acc += img[yy, x] * taps[t + r]
            tmp[y, x] = acc
    # horizontal pass
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for t in range(-r, r + 1):
                xx = x + t
                if xx < 0:
                    xx = -xx - 1
                elif xx >= w:
                    xx = 2 * w - xx - 1
                acc += tmp[y, xx] * taps[t + r]
            out[y, x] = acc
    return out


def gaussian_blur(
    img: np.ndarray,
    sigma: float,
    truncate: float = 3.0,
    backend: str | None = None,
) -> np.ndarray:
    """Blur a 2-D image with a separable Gaussian (symmetric boundary)."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("gaussian_blur expects a 2-D array")
    taps = gaussian_kernel1d(sigma, truncate)
    if taps.size == 1:
        return img.copy()
    if _resolve(backend) == "numba":
        return _blur_nb(img, taps)
    return _blur_np(img, taps)


def blur_matrix(n: int, sigma: float, truncate: float = 3.0) -> np.ndarray:
    """(n, n) matrix G such that ``G @ x`` is the 1-D blur of a length-n ``x``.

    Same taps and symmetric boundary as :func:`gaussian_blur`, so
    ``G_h @ img @ G_w.T`` blurs an (h, w) image; radii beyond ``n`` reflect
    repeatedly, as ``np.pad(mode="symmetric")`` does.
    """
    taps = gaussian_kernel1d(sigma, truncate)
    r = taps.size // 2
    out = np.pad(np.eye(n), ((r, r), (0, 0)), mode="symmetric")
    return sliding_window_view(out, taps.size, axis=0) @ taps


# ---------------------------------------------------------------------------
# one Viterbi table update (the M^2 inner loop)
# ---------------------------------------------------------------------------


def _viterbi_step_np(log_mu, log_trans, log_lik):
    scores = log_trans + log_mu[:, None]  # [predecessor i, destination j]
    backptr = scores.argmax(axis=0)  # first occurrence = lowest index
    new_mu = log_lik + scores[backptr, np.arange(scores.shape[1])]
    return new_mu, backptr.astype(np.int64)


@njit(cache=True)
def _viterbi_step_nb(log_mu, log_trans, log_lik):  # pragma: no cover
    m = log_mu.shape[0]
    new_mu = np.empty(m)
    backptr = np.empty(m, dtype=np.int64)
    for j in range(m):
        best = -np.inf
        arg = 0
        for i in range(m):
            s = log_trans[i, j] + log_mu[i]
            if s > best:  # strict: ties keep the lowest predecessor index
                best = s
                arg = i
        new_mu[j] = log_lik[j] + best
        backptr[j] = arg
    return new_mu, backptr


def viterbi_step(
    log_mu: np.ndarray,
    log_trans: np.ndarray,
    log_lik: np.ndarray,
    backend: str | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One dynamic-table update.

    Returns ``(new_log_mu, backptr, pairs_examined)`` where
    ``new_log_mu[j] = log_lik[j] + max_i(log_trans[i, j] + log_mu[i])`` and
    ``backptr[j]`` is the argmax predecessor (ties break to the lowest index).
    Both lanes examine every (i, j) pair, so ``pairs_examined`` is exactly M^2.
    """
    log_mu = np.ascontiguousarray(log_mu, dtype=np.float64)
    log_trans = np.ascontiguousarray(log_trans, dtype=np.float64)
    log_lik = np.ascontiguousarray(log_lik, dtype=np.float64)
    m = log_mu.shape[0]
    if log_trans.shape != (m, m) or log_lik.shape != (m,):
        raise ValueError("inconsistent table shapes")
    if _resolve(backend) == "numba":
        new_mu, backptr = _viterbi_step_nb(log_mu, log_trans, log_lik)
    else:
        new_mu, backptr = _viterbi_step_np(log_mu, log_trans, log_lik)
    return new_mu, backptr, m * m


# ---------------------------------------------------------------------------
# direct discrete Fourier transform (O(T^2) on purpose; T is tiny)
# ---------------------------------------------------------------------------


def _dft_np(x):
    n = x.shape[0]
    t = np.arange(n)
    twiddle = np.exp(-2j * np.pi * np.outer(t, t) / n)
    return twiddle @ x.astype(np.complex128)


@njit(cache=True)
def _dft_nb(x):  # pragma: no cover
    n = x.shape[0]
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        re = 0.0
        im = 0.0
        for t in range(n):
            ang = -2.0 * np.pi * t * k / n
            re += x[t] * np.cos(ang)
            im += x[t] * np.sin(ang)
        out[k] = complex(re, im)
    return out


def dft_direct(x: np.ndarray, backend: str | None = None) -> tuple[np.ndarray, int]:
    """Direct DFT of a real series; returns ``(spectrum, multiplies)``.

    ``multiplies`` is the exact T^2 work count, used by the bench counters.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dft_direct expects a non-empty 1-D series")
    if _resolve(backend) == "numba":
        spec = _dft_nb(x)
    else:
        spec = _dft_np(x)
    return spec, x.size * x.size


def warmup(backend: str | None = None) -> None:
    """Force JIT compilation of the numba lane (no-op for numpy)."""
    if _resolve(backend) != "numba":
        return
    img = np.zeros((8, 8))
    gaussian_blur(img, 1.0, backend="numba")
    viterbi_step(np.zeros(4), np.zeros((4, 4)), np.zeros(4), backend="numba")
    dft_direct(np.zeros(8), backend="numba")
