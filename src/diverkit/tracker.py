"""Mixed-domain periodic-motion tracker.

Spatial side: a hidden-Markov chain over grid windows, where the observation
for a window is its blurred mean intensity (one cached projection per grid
axis, so ``A @ img @ B.T``), the emission model rewards
intensities inside the configured flipper range, and transitions penalize
window-center distance. A log-domain Viterbi table tracks the best path into
every window; the pool of best terminal windows yields candidate trajectories.

Frequency side: the intensity series along each candidate trajectory goes
through a direct DFT, and the maximum amplitude over the 1-2 Hz swim-gait
bins is the trajectory's score. A cycle reports a detection when the winning
score reaches ``delta``.

Ties anywhere break toward the lower window index so results are
reproducible.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    BoundingBox,
    DetectionResult,
    Frame,
    GridConfig,
    TrackerConfig,
    ValidationError,
    grid_for,
    luminance,
    window_center,
)


class StateError(RuntimeError):
    """An operation was called in the wrong phase of a detection cycle."""


@dataclass
class OpCounters:
    """Exact work counters surfaced by the bench subcommand."""

    transition_evals: int = 0
    dft_mults: int = 0

    def reset(self) -> None:
        self.transition_evals = 0
        self.dft_mults = 0


# ---------------------------------------------------------------------------
# evidence and transition models
# ---------------------------------------------------------------------------


def evidence_loglik_vec(evidence: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Log emission probability: log(1-eps) inside the range, log(eps) outside."""
    lo, hi = cfg.intensity_range
    inside = (evidence >= lo) & (evidence <= hi)
    return np.where(inside, math.log(1.0 - cfg.epsilon), math.log(cfg.epsilon))


def evidence_prior_vec(evidence: np.ndarray, cfg: TrackerConfig) -> np.ndarray:
    """Unnormalized presence weight 1 / (1 + distance to the range)."""
    lo, hi = cfg.intensity_range
    dist = np.maximum(lo - evidence, 0.0) + np.maximum(evidence - hi, 0.0)
    return 1.0 / (1.0 + dist)


def transition_log_matrix(grid: GridConfig) -> np.ndarray:
    """Read-only log transition matrix; row i is the normalized distribution over j.

    Stored in Fortran order: :func:`kernels.viterbi_step` maximizes down each
    column j, and that reads contiguous memory.
    """
    m = grid.num_windows
    centers = np.array([window_center(grid, i) for i in range(m)])
    diff = centers[:, None, :] - centers[None, :, :]
    raw = 1.0 / (1.0 + np.sqrt((diff**2).sum(axis=2)))
    probs = raw / raw.sum(axis=1, keepdims=True)
    log_trans = np.asfortranarray(np.log(probs))
    log_trans.setflags(write=False)
    return log_trans


# ---------------------------------------------------------------------------
# dynamic table
# ---------------------------------------------------------------------------


@dataclass
class HmmTables:
    """Per-cycle Viterbi table: best log path score into each window.

    The table starts one step before the first frame, in a virtual state
    distributed like the normalized presence prior of frame 0. Each frame then
    performs one full M^2 table update, so a cycle of ``slide`` frames costs
    exactly ``slide * M^2`` transition evaluations. Backpointer row 0 points
    at the virtual state and is never part of a reconstructed trajectory.
    """

    slide: int
    log_mu: np.ndarray
    backptr: np.ndarray
    cycle_t: int = 0

    @classmethod
    def fresh(cls, num_windows: int, slide: int) -> "HmmTables":
        return cls(
            slide=slide,
            log_mu=np.zeros(num_windows),
            backptr=np.zeros((slide, num_windows), dtype=np.int64),
        )


def viterbi_update(
    tables: HmmTables,
    evidence: np.ndarray,
    cfg: TrackerConfig,
    log_trans: np.ndarray,
    counters: OpCounters | None = None,
) -> HmmTables:
    """Advance the table by one frame of evidence (one M^2 update)."""
    if tables.cycle_t >= tables.slide:
        raise StateError("detection cycle already holds slide-size frames")
    evidence = np.asarray(evidence, dtype=np.float64)
    if evidence.shape != tables.log_mu.shape:
        raise ValidationError("evidence length disagrees with the grid")
    if tables.cycle_t == 0:
        prior = evidence_prior_vec(evidence, cfg)
        prev = np.log(prior / prior.sum())
    else:
        prev = tables.log_mu
    log_lik = evidence_loglik_vec(evidence, cfg)
    new_mu, backptr, pairs = kernels.viterbi_step(prev, log_trans, log_lik)
    if counters is not None:
        counters.transition_evals += pairs
    tables.log_mu = new_mu
    tables.backptr[tables.cycle_t] = backptr
    tables.cycle_t += 1
    return tables


def top_p_trajectories(
    tables: HmmTables, pool: int
) -> list[tuple[np.ndarray, float]]:
    """Best-scoring trajectory into each of the ``pool`` best terminal windows.

    Sorted by descending log score, ties toward the lower terminal index.
    """
    if tables.cycle_t != tables.slide:
        raise StateError(
            f"need {tables.slide} frames before extraction, have {tables.cycle_t}"
        )
    order = np.argsort(-tables.log_mu, kind="stable")[:pool]
    trajs = np.empty((order.size, tables.slide), dtype=np.int64)
    trajs[:, -1] = order
    for t in range(tables.slide - 1, 0, -1):
        trajs[:, t - 1] = tables.backptr[t, trajs[:, t]]
    return [(traj, float(tables.log_mu[j])) for traj, j in zip(trajs, order)]


# ---------------------------------------------------------------------------
# frequency side
# ---------------------------------------------------------------------------


def dtft(series: np.ndarray, counters: OpCounters | None = None) -> np.ndarray:
    """Direct DFT of an intensity series (X[k] = sum_t x[t] e^{-j2pi tk/T})."""
    spectrum, mults = kernels.dft_direct(series)
    if counters is not None:
        counters.dft_mults += mults
    return spectrum


def band_score(spectrum: np.ndarray, cfg: TrackerConfig) -> float:
    """Maximum amplitude over the in-band integer bins (DC never included)."""
    if spectrum.shape[0] != cfg.slide:
        raise ValidationError("spectrum length disagrees with the slide size")
    bins = cfg.band_range
    return float(np.abs(spectrum[bins.start : bins.stop]).max())


# ---------------------------------------------------------------------------
# detection cycles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def evidence_projections(grid: GridConfig, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (A, B) with ``A @ img @ B.T`` the blurred window means of ``img``.

    A is (rows, H) and B is (cols, W): each is the window averaging along one
    axis times that axis's symmetric-boundary Gaussian. Margin pixels that no
    window covers only enter through the blur.
    """

    def project(count: int, win: int, length: int) -> np.ndarray:
        averaging = np.repeat(np.eye(count), win, axis=1) / win
        proj = averaging @ kernels.blur_matrix(length, sigma)[: count * win]
        proj.setflags(write=False)
        return proj

    return (
        project(grid.rows, grid.window_h, grid.frame_h),
        project(grid.cols, grid.window_w, grid.frame_w),
    )


def frame_evidence(frame: Frame, grid: GridConfig, sigma: float) -> np.ndarray:
    """Evidence vector of a frame: blurred mean intensity of every window.

    Clipped to [0, 255] so round-off cannot push a saturated window out of an
    intensity range that ends at 255.
    """
    if frame.channels != 1:
        raise ValidationError("evidence needs gray frames; convert via luminance()")
    if (frame.width, frame.height) != (grid.frame_w, grid.frame_h):
        raise ValidationError("frame dimensions inconsistent with the grid")
    rows_proj, cols_proj = evidence_projections(grid, sigma)
    evidence = (rows_proj @ frame.pixels @ cols_proj.T).reshape(-1)
    return np.clip(evidence, 0.0, 255.0, out=evidence)


class Tracker:
    """Tracker for one frame size: grid, cached transitions and work counters.

    :meth:`evidence` reduces a frame to its evidence row and :meth:`detect`
    runs one detection cycle over ``slide`` such rows.
    """

    def __init__(self, cfg: TrackerConfig, frame_w: int, frame_h: int):
        self.cfg = cfg
        self.grid = grid_for(cfg, frame_w, frame_h)
        self.log_trans = transition_log_matrix(self.grid)
        self.counters = OpCounters()

    def evidence(self, frame: Frame) -> np.ndarray:
        gray = luminance(frame) if frame.channels == 3 else frame
        return frame_evidence(gray, self.grid, self.cfg.gauss_sigma)

    def detect(self, evidence: np.ndarray, cycle_index: int = 0) -> DetectionResult:
        """One detection cycle over a (slide, M) evidence matrix."""
        cfg, grid = self.cfg, self.grid
        evidence = np.asarray(evidence, dtype=np.float64)
        if evidence.shape != (cfg.slide, grid.num_windows):
            raise ValidationError(
                f"evidence must be ({cfg.slide}, {grid.num_windows}), got {evidence.shape}"
            )
        tables = HmmTables.fresh(grid.num_windows, cfg.slide)
        for t in range(cfg.slide):
            viterbi_update(tables, evidence[t], cfg, self.log_trans, self.counters)
        trajs = np.array([traj for traj, _ in top_p_trajectories(tables, cfg.pool)])
        pool_scores = tuple(
            (int(traj[-1]), band_score(dtft(series, self.counters), cfg))
            for traj, series in zip(trajs, evidence[np.arange(cfg.slide), trajs])
        )
        # highest band score wins; a tie goes to the lower terminal window
        best = min(range(len(trajs)), key=lambda k: (-pool_scores[k][1], pool_scores[k][0]))
        window, best_score = pool_scores[best]
        cx, cy = window_center(grid, window)
        bbox = BoundingBox(cx, cy, grid.window_w, grid.window_h, best_score)
        return DetectionResult(
            trajectory=trajs[best],
            score=best_score,
            detected=best_score >= cfg.delta,
            bbox=bbox,
            cycle_index=cycle_index,
            pool_scores=pool_scores,
        )


def cycle_start_frames(frame_count: int, cfg: TrackerConfig) -> list[int]:
    """First frame index of every detection cycle in a sequence."""
    if frame_count < cfg.slide:
        raise ValidationError(
            f"sequence of {frame_count} frames is shorter than the slide size"
        )
    return list(range(0, frame_count - cfg.slide + 1, cfg.stride))


def track_sequence(
    frames: Iterable[Frame],
    cfg: TrackerConfig,
    counters: OpCounters | None = None,
) -> list[DetectionResult]:
    """Detect over a whole sequence, one cycle every ``stride`` frames.

    ``frames`` may be any iterable, such as :func:`raster.iter_sequence`. Each
    frame is reduced to its evidence row as it arrives, so only the (n, M)
    evidence matrix is held, never the frames.
    """
    frames = iter(frames)
    first = next(frames, None)
    if first is None:
        raise ValidationError("cannot track an empty sequence")
    tracker = Tracker(cfg, first.width, first.height)
    if counters is not None:
        tracker.counters = counters
    evidence = np.stack([tracker.evidence(f) for f in itertools.chain([first], frames)])
    starts = cycle_start_frames(len(evidence), cfg)
    results = []
    for cycle_index, start in enumerate(starts):
        results.append(
            tracker.detect(evidence[start : start + cfg.slide], cycle_index)
        )
    return results
