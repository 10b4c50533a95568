"""Visual-servoing follow controller and a toy kinematic robot.

Four PID loops turn bounding-box error into normalized commands: yaw from the
horizontal center offset, pitch and vertical speed both from the vertical
offset, and forward speed from the gap between the observed and target box
area fraction (box size stands in for distance). Roll is out of scope; a real
vehicle's autopilot owns it.

On a missed detection the last command is held but decays by 0.8 per frame so
a lost target cannot drive the robot forever.

The simulation world watches the diver through one fixed camera: a 320x240
frame with a 60 x 45 degree field of view, and a box whose area fraction
equals the target at the 2 m standoff.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

from .core import BoundingBox, ValidationError, read_fields, read_json
from .core import fields, finite, nested  # table helpers, converters

MISS_DECAY = 0.8
PITCH_LIMIT = math.pi / 3.0
FRAME_W, FRAME_H = 320, 240  # the follow camera's frame, px
HFOV, VFOV = math.pi / 3.0, math.pi / 4.0  # and its field of view, rad
STANDOFF_M = 2.0  # distance at which the box covers the target area fraction


@dataclass(frozen=True)
class PidGains:
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    integral_clamp: float = 2.0
    output_clamp: float = 1.0

    def __post_init__(self):
        if self.integral_clamp <= 0:
            raise ValidationError("PID integral_clamp must be positive")
        if not 0 < self.output_clamp <= 1:  # commands are normalized to [-1, 1]
            raise ValidationError("PID output_clamp must lie in (0, 1]")


class Pid:
    """One PID loop with anti-windup integral clamping and output clamping."""

    def __init__(self, gains: PidGains):
        self.gains = gains
        self.integral = 0.0
        self.prev_error: float | None = None

    def step(self, error: float, dt: float) -> float:
        if dt <= 0:
            raise ValidationError("dt must be positive")
        g = self.gains
        self.integral = min(max(self.integral + error * dt, -g.integral_clamp), g.integral_clamp)
        derivative = 0.0 if self.prev_error is None else (error - self.prev_error) / dt
        self.prev_error = error
        out = g.kp * error + g.ki * self.integral + g.kd * derivative
        return min(max(out, -g.output_clamp), g.output_clamp)


@dataclass(frozen=True)
class ServoCommand:
    """Normalized command; every channel lies in [-1, 1]."""

    yaw_rate: float = 0.0
    pitch_rate: float = 0.0
    forward_speed: float = 0.0
    vertical_speed: float = 0.0

    def __post_init__(self):
        for name in ("yaw_rate", "pitch_rate", "forward_speed", "vertical_speed"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [-1, 1]")

    def decayed(self) -> "ServoCommand":
        return ServoCommand(*(v * MISS_DECAY for v in astuple(self)))


@dataclass(frozen=True)
class RobotState:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0


@dataclass
class ServoConfig:
    yaw: PidGains = field(default_factory=lambda: PidGains(kp=0.8, ki=0.05, kd=0.1))
    pitch: PidGains = field(default_factory=lambda: PidGains(kp=0.8, ki=0.05, kd=0.1))
    vertical: PidGains = field(default_factory=lambda: PidGains(kp=0.3))
    forward: PidGains = field(default_factory=lambda: PidGains(kp=1.5, ki=0.1))
    target_area_fraction: float = 0.08
    v_max: float = 1.5  # m/s
    omega_max: float = math.pi / 4.0  # rad/s

    def __post_init__(self):
        if not 0.0 < self.target_area_fraction < 1.0:
            raise ValidationError("target_area_fraction must lie in (0, 1)")
        if self.v_max <= 0 or self.omega_max <= 0:
            raise ValidationError("speed scales must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "ServoConfig":
        return cls(**read_fields(raw, _SERVO_KEYS, "gains"))


# gains JSON key -> (field, converter); a channel's omitted keys take PidGains' defaults
_PID_KEYS = fields(("kp", "ki", "kd", "integral_clamp", "output_clamp"), finite)
_SERVO_KEYS = {
    **{
        channel: (channel, nested(PidGains, _PID_KEYS, f"gains {channel}"))
        for channel in ("yaw", "pitch", "vertical", "forward")
    },
    **fields(("target_area_fraction", "v_max", "omega_max"), finite),
}


def load_gains(path: str | Path | None = None) -> ServoConfig:
    """Load a gains file; without a path, the default ``ServoConfig()``."""
    return ServoConfig() if path is None else ServoConfig.from_dict(read_json(path, "gains"))


class PidBank:
    """The four controllers plus the config they came from."""

    def __init__(self, config: ServoConfig):
        self.config = config
        self.yaw = Pid(self.config.yaw)
        self.pitch = Pid(self.config.pitch)
        self.vertical = Pid(self.config.vertical)
        self.forward = Pid(self.config.forward)


def bbox_error(bbox: BoundingBox, target_area_fraction: float) -> tuple[float, float, float]:
    """(ex, ey, ea): center offsets normalized to half-frame, plus the area gap."""
    ex = (bbox.cx - FRAME_W / 2.0) / (FRAME_W / 2.0)
    ey = (bbox.cy - FRAME_H / 2.0) / (FRAME_H / 2.0)
    ea = target_area_fraction - bbox.area / (FRAME_W * FRAME_H)
    return ex, ey, ea


def servo_step(
    errors: tuple[float, float, float], bank: PidBank, dt: float
) -> ServoCommand:
    ex, ey, ea = errors
    return ServoCommand(
        yaw_rate=bank.yaw.step(ex, dt),
        pitch_rate=bank.pitch.step(ey, dt),
        forward_speed=bank.forward.step(ea, dt),
        vertical_speed=bank.vertical.step(ey, dt),
    )


def kinematic_step(
    state: RobotState,
    cmd: ServoCommand,
    dt: float,
    v_max: float,
    omega_max: float,
) -> RobotState:
    """Forward-Euler toy kinematics; pitch clamps at +-pi/3."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    yaw = state.yaw + cmd.yaw_rate * omega_max * dt
    pitch = min(max(state.pitch + cmd.pitch_rate * omega_max * dt, -PITCH_LIMIT), PITCH_LIMIT)
    step = cmd.forward_speed * v_max * dt
    return RobotState(
        x=state.x + step * math.cos(pitch) * math.cos(yaw),
        y=state.y + step * math.cos(pitch) * math.sin(yaw),
        z=state.z + step * math.sin(pitch) + cmd.vertical_speed * v_max * dt,
        yaw=yaw,
        pitch=pitch,
    )


# ---------------------------------------------------------------------------
# closed-loop simulation world
# ---------------------------------------------------------------------------


@dataclass
class FollowWorld:
    """A stationary diver watched by the robot's pinhole-ish camera.

    Image x grows with (bearing - yaw) and image y with (elevation - pitch);
    the box area fraction scales with 1/distance^2 and matches
    ``target_area_fraction`` at ``STANDOFF_M``.
    """

    diver: tuple[float, float, float]
    target_area_fraction: float

    def observe(self, state: RobotState) -> BoundingBox | None:
        dx = self.diver[0] - state.x
        dy = self.diver[1] - state.y
        dz = self.diver[2] - state.z
        horiz = math.hypot(dx, dy)
        dist = math.hypot(horiz, dz)
        if dist < 1e-6:
            return None
        bearing = math.atan2(dy, dx)
        elevation = math.atan2(dz, horiz)
        ex_raw = _wrap_angle(bearing - state.yaw) / (HFOV / 2.0)
        ey_raw = (elevation - state.pitch) / (VFOV / 2.0)
        if abs(ex_raw) > 1.0 or abs(ey_raw) > 1.0:
            return None  # target outside the field of view
        area_fraction = self.target_area_fraction * (STANDOFF_M / dist) ** 2
        side = math.sqrt(max(area_fraction * FRAME_W * FRAME_H, 1e-9))
        return BoundingBox(
            cx=FRAME_W / 2.0 * (1.0 + ex_raw),
            cy=FRAME_H / 2.0 * (1.0 + ey_raw),
            w=side,
            h=side,
        )


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class FollowLogRow:
    t: float
    state: RobotState
    errors: tuple[float, float, float] | None
    cmd: ServoCommand
    detected: bool

    def to_csv_row(self) -> list:
        # the state, the errors (blank on a miss), the command
        values = (*astuple(self.state), *(self.errors or (None,) * 3), *astuple(self.cmd))
        cells = ("" if v is None else f"{v:.6f}" for v in values)
        return [f"{self.t:.3f}", *cells, int(self.detected)]


FOLLOW_LOG_COLUMNS = [
    "t", "x", "y", "z", "yaw", "pitch",
    "ex", "ey", "ea",
    "cmd_yaw", "cmd_pitch", "cmd_fwd", "cmd_vert",
    "detected",
]


def follow_loop(
    detector, bank: PidBank, duration_s: float, fps: float = 10.0
) -> list[FollowLogRow]:
    """Closed loop: detect, control, integrate; one log row per frame.

    ``detector(state) -> BoundingBox | None`` supplies the observation (the
    simulation world's truth detector, or a replay of tracker detections).
    """
    cfg = bank.config
    state = RobotState()
    dt = 1.0 / fps
    cmd = ServoCommand()
    rows = []
    steps = int(round(duration_s * fps))
    for k in range(steps):
        bbox = detector(state)
        if bbox is not None:
            errors = bbox_error(bbox, cfg.target_area_fraction)
            cmd = servo_step(errors, bank, dt)
        else:
            errors = None
            cmd = cmd.decayed()
        state = kinematic_step(state, cmd, dt, cfg.v_max, cfg.omega_max)
        rows.append(
            FollowLogRow(
                t=(k + 1) * dt,
                state=state,
                errors=errors,
                cmd=cmd,
                detected=bbox is not None,
            )
        )
    return rows


def make_offset_world(
    offset_x: float,
    offset_y: float,
    config: ServoConfig,
    distance_ratio: float = 1.25,
) -> FollowWorld:
    """World where the diver starts at the given fractional image offsets and
    at ``distance_ratio`` times the standoff distance."""
    dist = STANDOFF_M * distance_ratio
    bearing = offset_x * HFOV / 2.0
    elevation = offset_y * VFOV / 2.0
    horiz = dist * math.cos(elevation)
    return FollowWorld(
        diver=(
            horiz * math.cos(bearing),
            horiz * math.sin(bearing),
            dist * math.sin(elevation),
        ),
        target_area_fraction=config.target_area_fraction,
    )


def write_follow_log(path: str | Path, rows: list[FollowLogRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOLLOW_LOG_COLUMNS)
        for row in rows:
            writer.writerow(row.to_csv_row())


# The most control steps (duration_s x fps) a follow scene runs. Every step's log row
# is kept, about 750 bytes in memory and 120 in the CSV, so this cap holds 75 MB of
# rows and 12 MB of log: 2.8 hours at 10 fps. The bundled scenes run 100 steps.
FOLLOW_STEPS_MAX = 100_000


@dataclass(frozen=True)
class FollowScene:
    """One follow run: the diver starts at fractional image offsets (1 = the
    frame edge) and at ``distance_ratio`` times the standoff distance."""

    offset_x: float = 0.0
    offset_y: float = 0.0
    duration_s: float = 10.0
    fps: float = 10.0
    distance_ratio: float = 1.25

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValidationError(f"follow scene {name} must be finite, got {value}")
        if self.fps <= 0:
            raise ValidationError("follow scene fps must be positive")
        steps = self.duration_s * self.fps  # follow_loop rounds it to whole steps
        if not 0.5 < steps < FOLLOW_STEPS_MAX + 0.5:
            raise ValidationError(
                f"follow scene duration_s x fps must give 1 to {FOLLOW_STEPS_MAX} "
                f"control steps, got {steps:g}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "FollowScene":
        return cls(**read_fields(raw, _FOLLOW_SCENE_KEYS, "follow scene"))

    def run(self, config: ServoConfig, log_path: str | Path) -> list[FollowLogRow]:
        """Follow the diver with ``config``'s gains; writes the log CSV and returns its rows."""
        world = make_offset_world(
            self.offset_x, self.offset_y, config, distance_ratio=self.distance_ratio
        )
        rows = follow_loop(world.observe, PidBank(config), self.duration_s, self.fps)
        write_follow_log(log_path, rows)
        return rows


_FOLLOW_SCENE_KEYS = fields(("offset_x", "offset_y", "duration_s", "fps", "distance_ratio"), finite)
