import math
from dataclasses import astuple

import numpy as np
import pytest

from diverkit.core import BoundingBox, ValidationError, to_json
from diverkit.servo import (
    MISS_DECAY,
    FollowScene,
    FollowWorld,
    Pid,
    PidBank,
    PidGains,
    RobotState,
    ServoCommand,
    ServoConfig,
    bbox_error,
    follow_loop,
    kinematic_step,
    load_gains,
    make_offset_world,
    servo_step,
    write_follow_log,
)


class TestBboxError:
    def test_centered_at_target_area(self):
        bbox = BoundingBox(160, 120, 87.6356, 87.6356)  # ~10% of 320x240
        ex, ey, ea = bbox_error(bbox, 0.1)
        assert ex == 0.0 and ey == 0.0
        assert ea == pytest.approx(0.0, abs=1e-6)

    def test_right_edge_is_plus_one(self):
        bbox = BoundingBox(320, 120, 10, 10)
        ex, _, _ = bbox_error(bbox, 0.1)
        assert ex == pytest.approx(1.0)

    def test_half_target_area(self):
        area = 0.05 * 320 * 240
        side = math.sqrt(area)
        _, _, ea = bbox_error(BoundingBox(160, 120, side, side), 0.1)
        assert ea == pytest.approx(0.05)


class TestPid:
    def test_zero_error_zero_output(self):
        pid = Pid(PidGains(kp=1.0, ki=0.5, kd=0.2))
        assert pid.step(0.0, 0.1) == 0.0

    def test_pure_p(self):
        pid = Pid(PidGains(kp=1.0))
        for _ in range(5):
            assert pid.step(0.5, 0.1) == pytest.approx(0.5)

    def test_output_clamped(self):
        pid = Pid(PidGains(kp=10.0))
        assert pid.step(5.0, 0.1) == 1.0
        assert pid.step(-5.0, 0.1) == -1.0

    def test_anti_windup_recovery(self):
        # saturate for 100 steps, flip the error sign, output must cross zero
        # within 20 steps thanks to the integral clamp
        pid = Pid(PidGains(kp=0.8, ki=0.5, kd=0.0, integral_clamp=2.0))
        for _ in range(100):
            assert pid.step(1.0, 0.1) <= 1.0
        crossed = None
        for step in range(1, 21):
            if pid.step(-1.0, 0.1) <= 0.0:
                crossed = step
                break
        assert crossed is not None and crossed <= 20

    def test_dt_must_be_positive(self):
        with pytest.raises(ValidationError):
            Pid(PidGains(kp=1.0)).step(0.1, 0.0)


class TestServoStep:
    def test_zero_errors_zero_command(self):
        bank = PidBank(ServoConfig())
        cmd = servo_step((0.0, 0.0, 0.0), bank, 0.1)
        assert cmd == ServoCommand()

    def test_positive_ex_turns_positive_yaw(self):
        bank = PidBank(ServoConfig())
        cmd = servo_step((0.5, 0.0, 0.0), bank, 0.1)
        assert cmd.yaw_rate > 0.0
        assert cmd.pitch_rate == 0.0 and cmd.vertical_speed == 0.0

    def test_ey_drives_pitch_and_vertical(self):
        bank = PidBank(ServoConfig())
        cmd = servo_step((0.0, 0.4, 0.0), bank, 0.1)
        assert cmd.pitch_rate != 0.0
        assert cmd.vertical_speed != 0.0

    def test_all_channels_clamped_under_fuzz(self):
        rng = np.random.default_rng(11)
        bank = PidBank(ServoConfig())
        for _ in range(500):
            ex, ey, ea = rng.uniform(-100, 100, 3)
            cmd = servo_step((ex, ey, ea), bank, 0.1)
            for v in (cmd.yaw_rate, cmd.pitch_rate, cmd.forward_speed, cmd.vertical_speed):
                assert -1.0 <= v <= 1.0

    def test_command_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ServoCommand(yaw_rate=1.5)


class TestKinematics:
    def test_zero_command_keeps_the_state(self):
        s0 = RobotState(x=1, y=2, z=3, yaw=0.5, pitch=0.1)
        assert kinematic_step(s0, ServoCommand(), 0.25, v_max=1.0, omega_max=math.pi / 4) == s0

    def test_forward_one_second(self):
        s1 = kinematic_step(
            RobotState(), ServoCommand(forward_speed=1.0), 1.0, v_max=1.0, omega_max=math.pi / 4
        )
        assert s1.x == pytest.approx(1.0, abs=1e-9)
        assert s1.y == 0.0 and s1.z == 0.0

    def test_yaw_rate_one_second(self):
        s1 = kinematic_step(
            RobotState(), ServoCommand(yaw_rate=1.0), 1.0, v_max=1.0, omega_max=math.pi / 4
        )
        assert s1.yaw == pytest.approx(math.pi / 4)

    def test_pitch_clamped(self):
        state = RobotState(pitch=math.pi / 3)
        s1 = kinematic_step(state, ServoCommand(pitch_rate=1.0), 1.0, v_max=1.0, omega_max=1.0)
        assert s1.pitch == pytest.approx(math.pi / 3)


class TestFollowLoop:
    def test_convergence_from_all_four_offsets(self):
        config = ServoConfig()
        for ox, oy in ((0.3, 0.0), (-0.3, 0.0), (0.0, 0.3), (0.0, -0.3)):
            world = make_offset_world(ox, oy, config)
            bank = PidBank(config)
            rows = follow_loop(world.observe, bank, duration_s=10.0, fps=10.0)
            ex, ey, ea = rows[-1].errors
            assert abs(ex) < 0.05 and abs(ey) < 0.05
            area = config.target_area_fraction - ea
            assert abs(area - config.target_area_fraction) <= 0.1 * config.target_area_fraction

    def test_initial_offset_matches_request(self):
        config = ServoConfig()
        world = make_offset_world(0.3, 0.0, config)
        bbox = world.observe(RobotState())
        ex, ey, _ = bbox_error(bbox, config.target_area_fraction)
        assert ex == pytest.approx(0.3, abs=1e-6)
        assert ey == pytest.approx(0.0, abs=1e-6)

    def test_lost_target_decays_below_centi(self):
        # worst case from a full-scale command: 0.8^21 < 0.01
        bank = PidBank(ServoConfig())
        steps = []

        def detector(state):
            if len(steps) < 1:
                steps.append(1)
                return BoundingBox(320, 120, 10, 10)  # hard right -> strong command
            return None

        rows = follow_loop(detector, bank, duration_s=3.0, fps=10.0)
        assert max(abs(v) for v in astuple(rows[0].cmd)) > 0.5
        assert MISS_DECAY**21 < 0.01
        for row in rows[22:]:
            assert max(abs(v) for v in astuple(row.cmd)) < 0.01

    def test_centered_target_holds_heading(self):
        config = ServoConfig()
        world = make_offset_world(0.0, 0.0, config, distance_ratio=1.0)
        bank = PidBank(config)
        rows = follow_loop(world.observe, bank, duration_s=5.0, fps=10.0)
        yaws = [abs(row.state.yaw) for row in rows]
        assert max(yaws) < 0.01

    @pytest.mark.parametrize("ox, oy", [(0.5, 0.3), (0.8, -0.4), (0.2, 0.0), (-0.7, 0.6)])
    def test_mirrored_offset_mirrors_every_step(self, ox, oy, tmp_path):
        config = load_gains()
        rows = FollowScene(offset_x=ox, offset_y=oy).run(config, tmp_path / "a.csv")
        mirrored = FollowScene(offset_x=-ox, offset_y=oy).run(config, tmp_path / "b.csv")

        def values(row):  # every row of these scenes sees the diver, so errors are set
            return [*astuple(row.state), *row.errors, *astuple(row.cmd)]

        # a left-right mirror negates y and yaw, ex and the yaw rate
        flip = np.array([1, -1, 1, -1, 1, -1, 1, 1, -1, 1, 1, 1])
        assert len(rows) == len(mirrored) == 100
        for row, twin in zip(rows, mirrored):
            assert twin.t == row.t and twin.detected == row.detected
            assert np.allclose(flip * values(row), values(twin), rtol=0, atol=1e-12)

    def test_log_csv_columns(self, tmp_path):
        config = ServoConfig()
        world = make_offset_world(0.2, 0.1, config)
        rows = follow_loop(world.observe, PidBank(config), 1.0, 10.0)
        path = tmp_path / "log.csv"
        write_follow_log(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,z,yaw,pitch,ex,ey,ea,cmd_yaw,cmd_pitch,cmd_fwd,cmd_vert,detected"
        assert len(path.read_text().splitlines()) == 11


class TestGainsConfig:
    def test_packaged_defaults_load(self):
        config = load_gains()
        assert config == ServoConfig()
        assert config.yaw.kp == pytest.approx(0.8)
        assert config.forward.kp == pytest.approx(1.5)
        assert config.vertical.kp == pytest.approx(0.3)
        assert 0 < config.target_area_fraction < 1

    def test_roundtrip(self, tmp_path):
        import json

        config = ServoConfig()
        path = tmp_path / "gains.json"
        path.write_text(json.dumps(to_json(config)))
        assert load_gains(path) == config

    def test_dict_roundtrip_keeps_custom_clamps(self):
        config = ServoConfig(
            yaw=PidGains(kp=0.5, integral_clamp=0.25, output_clamp=0.5),
            forward=PidGains(kp=1.0, ki=0.2, output_clamp=0.75),
            v_max=2.0,
        )
        raw = to_json(config)
        assert raw["yaw"] == {"kp": 0.5, "ki": 0.0, "kd": 0.0, "integral_clamp": 0.25,
                              "output_clamp": 0.5}
        assert ServoConfig.from_dict(raw) == config

    def test_bad_gains_rejected(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text('{"yaw": {"kq": 1.0}}')
        with pytest.raises(ValidationError):
            load_gains(path)


class TestWorld:
    def test_out_of_view_returns_none(self):
        config = ServoConfig()
        world = make_offset_world(0.0, 0.0, config)
        behind = RobotState(yaw=math.pi)  # facing away
        assert world.observe(behind) is None

    def test_area_scales_inverse_square(self):
        world = FollowWorld(diver=(4.0, 0.0, 0.0), target_area_fraction=0.08)
        bbox_far = world.observe(RobotState())
        bbox_near = world.observe(RobotState(x=2.0))
        assert bbox_near.area == pytest.approx(4 * bbox_far.area, rel=1e-6)
