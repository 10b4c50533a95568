"""What the traced run wraps, and the per-layer metrics it derives.

Times named after a function (``kernels.gaussian_blur_ms``) are that span's
self time; names ending in ``_per_frame``, ``_per_cycle`` or ``_us`` on a
pipeline entry point are inclusive. Everything is normalised per workload
frame (control step on follow-oracle) unless the unit says otherwise, so runs
of different length compare. ``core`` has no span of its own: frame
construction and validation land in ``raster`` and ``tracker`` self time.
"""

from __future__ import annotations

import os

# (module, attribute path) of every wrapped entry point, by layer.
TARGETS = (
    ("diverkit.cli", "main"),
    ("diverkit.raster", "read_sequence"),
    ("diverkit.raster", "read_pnm"),
    ("diverkit.raster", "read_truth"),
    ("diverkit.kernels", "gaussian_blur"),
    ("diverkit.kernels", "window_means"),
    ("diverkit.kernels", "viterbi_step"),
    ("diverkit.kernels", "dft_direct"),
    ("diverkit.tracker", "track_sequence"),
    ("diverkit.tracker", "Tracker.evidence"),
    ("diverkit.tracker", "Tracker.detect"),
    ("diverkit.gesture", "ShapeRecognizer.__call__"),
    ("diverkit.gesture", "segment_skin"),
    ("diverkit.gesture", "rgb_to_hsv"),
    ("diverkit.gesture", "extract_regions"),
    ("diverkit.gesture", "reject_outliers"),
    ("diverkit.gesture", "shape_descriptor"),
    ("diverkit.gesture", "match_gesture"),
    ("diverkit.lang", "StreamDecoder.feed"),
    ("diverkit.lang", "Debouncer.update"),
    ("diverkit.servo", "follow_loop"),
    ("diverkit.servo", "servo_step"),
    ("diverkit.servo", "kinematic_step"),
    ("diverkit.servo", "FollowWorld.observe"),
    ("diverkit.harness", "score_detection"),
)

# Counters taken from call results at the same boundaries.
HOOKS = {
    "raster.read_pnm": lambda r, args, res: r.count("raster.bytes", os.stat(args[0]).st_size),
    "kernels.viterbi_step": lambda r, args, res: r.count("tracker.transition_evals", res[2]),
    "kernels.dft_direct": lambda r, args, res: r.count("tracker.dft_mults", res[1]),
    "tracker.Tracker.detect": lambda r, args, res: r.count("tracker.detected", bool(res.detected)),
    "gesture.extract_regions": lambda r, args, res: r.count("gesture.regions", len(res)),
    "gesture.reject_outliers": lambda r, args, res: (
        r.count("gesture.regions_in", len(args[0])),
        r.count("gesture.regions_kept", len(res)),
    ),
    "lang.Debouncer.update": lambda r, args, res: r.count("lang.confirmed", res is not None),
    "lang.StreamDecoder.feed": lambda r, args, res: r.count("lang.instructions", res is not None),
    "servo.FollowWorld.observe": lambda r, args, res: r.count("servo.missed", res is None),
}


def layer_metrics(spans: dict, counts: dict, frames: int, extras: dict) -> dict:
    """Per-layer figures of one traced phase that processed ``frames`` frames.

    A figure whose spans saw no call on this workload is None (absent).
    """
    frames = max(frames, 1)

    def calls(name):
        return spans[name]["calls"]

    def per_frame(name, kind="self_s", scale=1000.0):
        return scale * spans[name][kind] / frames if calls(name) else None

    def per_call(name):
        return 1000.0 * spans[name]["incl_s"] / calls(name) if calls(name) else None

    def counted(key, name):
        return counts.get(key, 0) / frames if calls(name) else None

    def ratio(num, den):
        return num / den if den else None

    cycles = calls("tracker.Tracker.detect")
    return {
        "raster.read_ms_per_frame": per_frame("raster.read_sequence", "incl_s"),
        "raster.bytes_read": counted("raster.bytes", "raster.read_pnm"),
        "cli.self_ms": ratio(1000.0 * spans["cli.main"]["self_s"], calls("cli.main")),
        "tracker.evidence_ms_per_frame": per_frame("tracker.Tracker.evidence", "incl_s"),
        "kernels.gaussian_blur_ms": per_frame("kernels.gaussian_blur"),
        "kernels.gaussian_blur_calls": per_frame("kernels.gaussian_blur", "calls", 1.0),
        "kernels.window_means_ms": per_frame("kernels.window_means"),
        "tracker.detect_ms_per_cycle": per_call("tracker.Tracker.detect"),
        "kernels.viterbi_step_ms": per_frame("kernels.viterbi_step"),
        "kernels.dft_direct_ms": per_frame("kernels.dft_direct"),
        "tracker.transition_evals": ratio(counts.get("tracker.transition_evals", 0), cycles),
        "tracker.dft_mults": ratio(counts.get("tracker.dft_mults", 0), cycles),
        "tracker.detected_ratio": ratio(counts.get("tracker.detected", 0), cycles),
        "gesture.recognize_ms_per_frame": per_frame("gesture.ShapeRecognizer.__call__", "incl_s"),
        "gesture.segment_skin_ms": per_frame("gesture.segment_skin"),
        "gesture.rgb_to_hsv_ms": per_frame("gesture.rgb_to_hsv"),
        "gesture.extract_regions_ms": per_frame("gesture.extract_regions"),
        "gesture.shape_descriptor_ms": per_frame("gesture.shape_descriptor"),
        "gesture.regions_extracted": counted("gesture.regions", "gesture.extract_regions"),
        "gesture.regions_kept_ratio": ratio(
            counts.get("gesture.regions_kept", 0), counts.get("gesture.regions_in", 0)
        ),
        "gesture.pair_hit_ratio": extras.get("gesture.pair_hit_ratio"),
        "lang.feed_us_per_frame": per_frame("lang.StreamDecoder.feed", "incl_s", 1e6),
        "lang.confirmed_tokens": counted("lang.confirmed", "lang.Debouncer.update"),
        "lang.instructions": counted("lang.instructions", "lang.StreamDecoder.feed"),
        "servo.step_us": per_frame("servo.servo_step", scale=1e6),
        "servo.kinematic_us": per_frame("servo.kinematic_step", scale=1e6),
        "servo.observe_us": per_frame("servo.FollowWorld.observe", scale=1e6),
        "servo.missed_ratio": ratio(
            counts.get("servo.missed", 0), calls("servo.FollowWorld.observe")
        ),
    }
