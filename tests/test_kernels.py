"""Both kernel lanes must agree; the env flag picks the default lane."""

import os
import subprocess
import sys

import numpy as np
import pytest

from diverkit import kernels

LANES = ["numpy"] + (["numba"] if kernels.HAS_NUMBA else [])


@pytest.fixture(scope="module", autouse=True)
def _warm():
    if kernels.HAS_NUMBA:
        kernels.warmup("numba")


def test_active_backend_is_valid():
    assert kernels.active_backend() in ("numba", "numpy")


def test_env_flag_selects_lane():
    code = (
        "import diverkit.kernels as k; print(k.active_backend())"
    )
    env = dict(os.environ, DIVERKIT_BACKEND="numpy")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "numpy"


def test_env_flag_rejects_garbage():
    code = "import diverkit.kernels"
    env = dict(os.environ, DIVERKIT_BACKEND="cuda")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode != 0


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba unavailable")
def test_lanes_agree_on_blur():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, (37, 53))
    for sigma in (0.6, 1.0, 2.5):
        a = kernels.gaussian_blur(img, sigma, backend="numpy")
        b = kernels.gaussian_blur(img, sigma, backend="numba")
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba unavailable")
def test_lanes_agree_on_viterbi_step():
    rng = np.random.default_rng(2)
    for m in (1, 4, 9, 25):
        mu = rng.normal(size=m)
        trans = rng.normal(size=(m, m))
        lik = rng.normal(size=m)
        mu_a, bp_a, ops_a = kernels.viterbi_step(mu, trans, lik, backend="numpy")
        mu_b, bp_b, ops_b = kernels.viterbi_step(mu, trans, lik, backend="numba")
        assert np.allclose(mu_a, mu_b)
        assert (bp_a == bp_b).all()
        assert ops_a == ops_b == m * m


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba unavailable")
def test_lanes_agree_on_dft():
    rng = np.random.default_rng(3)
    x = rng.normal(size=15)
    a, na = kernels.dft_direct(x, backend="numpy")
    b, nb = kernels.dft_direct(x, backend="numba")
    assert np.allclose(a, b, atol=1e-9)
    assert na == nb == 225


@pytest.mark.parametrize("backend", LANES)
def test_blur_preserves_constants(backend):
    img = np.full((20, 20), 123.0)
    out = kernels.gaussian_blur(img, 1.5, backend=backend)
    assert np.allclose(out, 123.0, atol=1e-9)


@pytest.mark.parametrize("backend", LANES)
def test_blur_sigma_zero_is_identity(backend):
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 255, (10, 10))
    assert (kernels.gaussian_blur(img, 0.0, backend=backend) == img).all()


def test_blur_matches_scipy():
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(5)
    img = rng.uniform(0, 255, (31, 44))
    mine = kernels.gaussian_blur(img, 1.0, backend="numpy")
    ref = gaussian_filter(img, 1.0, truncate=3.0, mode="reflect")
    assert np.allclose(mine, ref, atol=1e-9)


def test_blur_matrices_reproduce_the_blur():
    rng = np.random.default_rng(6)
    img = rng.uniform(0, 255, (23, 41))
    for sigma in (0.0, 1.0, 9.0):
        rows = kernels.blur_matrix(23, sigma)
        cols = kernels.blur_matrix(41, sigma)
        mine = kernels.gaussian_blur(img, sigma, backend="numpy")
        assert np.allclose(rows @ img @ cols.T, mine, atol=1e-9)


@pytest.mark.parametrize("backend", LANES)
def test_viterbi_tie_breaks_to_lowest_index(backend):
    mu = np.zeros(3)
    trans = np.zeros((3, 3))
    lik = np.zeros(3)
    _, bp, _ = kernels.viterbi_step(mu, trans, lik, backend=backend)
    assert (bp == 0).all()


def test_dft_matches_numpy_fft():
    rng = np.random.default_rng(6)
    x = rng.normal(size=21)
    spec, _ = kernels.dft_direct(x, backend="numpy")
    assert np.allclose(spec, np.fft.fft(x), atol=1e-9)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        kernels.dft_direct(np.array([]))
