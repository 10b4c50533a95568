import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverkit.core import ValidationError
from diverkit.gesture import GestureClass, GesturePairToken
from diverkit.lang import (
    DEBOUNCE_FRAMES,
    DecoderState,
    ParamReconfig,
    Snapshot,
    TaskSwitch,
    Token,
    TokenKind,
    debounce,
    decode,
    decode_tokens,
    default_mapping,
    digit,
    load_mapping,
    mapping_from_dict,
    step_fsm,
)

TABLE = default_mapping()


def mapping_to_dict(table):
    """Writer: the mapping JSON that ``load_mapping`` reads back."""
    return {
        "pairs": [
            {"left": left.name, "right": right.name, "token": token.name}
            for (left, right), token in table.pairs.items()
        ]
    }


def pair_stream(plan, start_frame=0):
    """plan: list of ((left_name, right_name) | None, frames). None = no hands."""
    stream = []
    frame = start_frame
    for pair, count in plan:
        for _ in range(count):
            if pair is None:
                stream.append(GesturePairToken(None, None, frame=frame))
            else:
                left = GestureClass.from_name(pair[0])
                right = GestureClass.from_name(pair[1])
                stream.append(
                    GesturePairToken(left, right, frame=frame, conf_left=1.0, conf_right=1.0)
                )
            frame += 1
    return stream


def plan_for_tokens(names, hold=12, rest=8):
    """A held-pair plan spelling the given instruction tokens in order."""
    plan = []
    for name in names:
        left, right = TABLE.pair_for(Token.from_name(name))
        plan.append(((left.name, right.name), hold))
    plan.append((None, rest))
    return plan


CANONICAL = {
    "hover_50": ["STOP", "HOVER", "DIGIT_5", "DIGIT_0", "GO"],
    "snapshot_20": ["CONTD", "SNAPSHOT", "DIGIT_2", "DIGIT_0", "GO"],
    "param_3_down": ["CONTD", "PARAM", "DIGIT_3", "DECREASE", "GO"],
    "execute_1": ["STOP", "EXECUTE", "DIGIT_1", "GO"],
}

EXPECTED = {
    "hover_50": TaskSwitch(task="HOVER", duration_s=50),
    "snapshot_20": Snapshot(duration_s=20),
    "param_3_down": ParamReconfig(param=3, direction="DECREASE"),
    "execute_1": TaskSwitch(task="EXECUTE", program=1),
}


class TestTokens:
    def test_digit_payload_bounds(self):
        assert digit(0).name == "DIGIT_0"
        assert digit(5).name == "DIGIT_5"
        with pytest.raises(ValidationError):
            digit(6)
        with pytest.raises(ValidationError):
            Token(TokenKind.STOP, digit=1)

    def test_name_roundtrip(self):
        for kind in TokenKind:
            if kind is TokenKind.DIGIT:
                continue
            assert Token.from_name(kind.value) == Token(kind)
        assert Token.from_name("DIGIT_3") == digit(3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            Token.from_name("WARP")


class TestMapping:
    def test_shipped_default_loads(self):
        assert len(TABLE.pairs) == 20  # 14 word tokens + 6 digits

    def test_one_to_one_enforced(self):
        raw = {
            "pairs": [
                {"left": "zero", "right": "zero", "token": "STOP"},
                {"left": "one", "right": "one", "token": "STOP"},
                {"left": "five", "right": "five", "token": "GO"},
            ]
        }
        with pytest.raises(ValidationError):
            mapping_from_dict(raw)

    def test_duplicate_pair_rejected(self):
        raw = {
            "pairs": [
                {"left": "zero", "right": "zero", "token": "STOP"},
                {"left": "zero", "right": "zero", "token": "GO"},
            ]
        }
        with pytest.raises(ValidationError):
            mapping_from_dict(raw)

    def test_missing_go_rejected(self):
        raw = {"pairs": [{"left": "zero", "right": "zero", "token": "STOP"}]}
        with pytest.raises(ValidationError):
            mapping_from_dict(raw)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text(json.dumps(mapping_to_dict(TABLE)))
        again = load_mapping(path)
        assert again.pairs == TABLE.pairs

    def test_bad_entry_names_the_entry(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text('{"pairs": [{"left": "zero"}]}')
        with pytest.raises(ValidationError, match="zero"):
            load_mapping(path)


class TestDebounce:
    def test_ten_frames_fire_once(self):
        stream = pair_stream([(("zero", "zero"), 10)])
        events = debounce(stream, TABLE)
        assert [t.name for _, t in events] == ["STOP"]
        assert events[0][0] == 9  # fires on the tenth frame

    def test_nine_frames_do_not_fire(self):
        stream = pair_stream([(("zero", "zero"), 9), (None, 5)])
        assert debounce(stream, TABLE) == []

    def test_no_retrigger_without_break(self):
        stream = pair_stream([(("zero", "zero"), 25)])
        events = debounce(stream, TABLE)
        assert len(events) == 1

    def test_refires_after_break(self):
        stream = pair_stream([(("zero", "zero"), 12), (None, 1), (("zero", "zero"), 12)])
        events = debounce(stream, TABLE)
        assert [t.name for _, t in events] == ["STOP", "STOP"]

    def test_unmapped_pairs_never_fire(self):
        stream = pair_stream([(("zero", "one"), 30)])
        assert debounce(stream, TABLE) == []

    def test_missing_hand_resets_run(self):
        stream = pair_stream(
            [(("zero", "zero"), 5), (None, 1), (("zero", "zero"), 9)]
        )
        assert debounce(stream, TABLE) == []


class TestFsm:
    def run_tokens(self, names):
        return decode_tokens([Token.from_name(n) for n in names])

    @pytest.mark.parametrize("key", sorted(CANONICAL))
    def test_reference_instructions(self, key):
        assert self.run_tokens(CANONICAL[key]) == [EXPECTED[key]]

    def test_idle_ignores_non_sentinels(self):
        state = DecoderState()
        new_state, out = step_fsm(state, Token(TokenKind.INCREASE))
        assert new_state == state and out is None

    def test_task_without_duration(self):
        assert self.run_tokens(["STOP", "FOLLOW", "GO"]) == [TaskSwitch(task="FOLLOW")]

    def test_execute_needs_digits(self):
        assert self.run_tokens(["STOP", "EXECUTE", "GO"]) == []

    def test_snapshot_requires_positive_duration(self):
        assert self.run_tokens(["CONTD", "SNAPSHOT", "DIGIT_0", "GO"]) == []

    @pytest.mark.parametrize(
        "names", [["CONTD", "SNAPSHOT", "GO"], ["STOP", "HOVER", "DIGIT_0", "GO"]]
    )
    def test_number_the_instruction_refuses_is_ungrammatical(self, names):
        assert self.run_tokens(names) == []

    def test_snapshot_without_duration_is_refused(self):
        with pytest.raises(ValidationError, match="snapshot duration"):
            Snapshot(duration_s=None)

    def test_param_requires_direction(self):
        assert self.run_tokens(["CONTD", "PARAM", "DIGIT_2", "GO"]) == []

    def test_digits_concatenate_decimally(self):
        out = self.run_tokens(["STOP", "HOVER", "DIGIT_1", "DIGIT_2", "DIGIT_3", "GO"])
        assert out == [TaskSwitch(task="HOVER", duration_s=123)]

    def test_undefined_tokens_self_loop(self):
        out = self.run_tokens(
            ["STOP", "INCREASE", "SNAPSHOT", "HOVER", "PARAM", "DIGIT_5", "DIGIT_0", "GO"]
        )
        assert out == [TaskSwitch(task="HOVER", duration_s=50)]

    def test_go_in_idle_does_nothing(self):
        assert self.run_tokens(["GO", "GO", "GO"]) == []

    def test_move_tasks(self):
        for task in ("MOVE_LEFT", "MOVE_RIGHT", "MOVE_UP", "MOVE_DOWN"):
            assert self.run_tokens(["STOP", task, "GO"]) == [TaskSwitch(task=task)]


class TestDecode:
    def test_canonical_stream_hover(self):
        stream = pair_stream(plan_for_tokens(CANONICAL["hover_50"]))
        out = decode(stream, TABLE)
        assert out == [EXPECTED["hover_50"]]
        assert out[0].emitted_at_frame is not None

    def test_all_four_reference_streams(self):
        plan = []
        for key in ("hover_50", "snapshot_20", "param_3_down", "execute_1"):
            plan += plan_for_tokens(CANONICAL[key])
        out = decode(pair_stream(plan), TABLE)
        assert out == [
            EXPECTED["hover_50"],
            EXPECTED["snapshot_20"],
            EXPECTED["param_3_down"],
            EXPECTED["execute_1"],
        ]

    def test_short_spurious_burst_is_absorbed(self):
        # five frames of a mapped pair injected between held gestures
        plan = plan_for_tokens(CANONICAL["hover_50"])
        base = decode(pair_stream(plan), TABLE)
        spiked = (
            plan[:2] + [(("pic", "pic"), 5)] + plan[2:]
        )
        assert decode(pair_stream(spiked), TABLE) == base

    def test_empty_stream(self):
        assert decode([], TABLE) == []

    def test_prefix_monotonicity(self):
        plan1 = plan_for_tokens(CANONICAL["execute_1"])
        plan2 = plan_for_tokens(CANONICAL["snapshot_20"])
        first = decode(pair_stream(plan1), TABLE)
        both = decode(pair_stream(plan1 + plan2), TABLE)
        assert both[: len(first)] == first

    def test_idle_timeout_resets_partial_instruction(self):
        plan = [(("zero", "zero"), 12), (None, 700)]  # STOP then a long gap
        plan += [(("three", "ok"), 12), (("one", "pic"), 12), (("five", "five"), 12)]
        # the STOP expired, so EXECUTE/DIGIT/GO alone produce nothing
        assert decode(pair_stream(plan), TABLE) == []

    def test_instruction_records_serialize(self):
        recs = [
            EXPECTED["hover_50"].to_record(),
            EXPECTED["snapshot_20"].to_record(),
            EXPECTED["param_3_down"].to_record(),
            EXPECTED["execute_1"].to_record(),
        ]
        assert recs[0] == {
            "type": "task_switch",
            "task": "HOVER",
            "duration_s": 50,
            "emitted_at_frame": None,
        }


class TestFuzz:
    """Single-frame and short-burst robustness around 20-frame holds.

    A 20-frame hold is the margin point: any single-frame corruption leaves
    exactly one sub-run of at least ten frames, so exactly one event fires.
    """

    def canonical_plan(self):
        plan = []
        for key in ("hover_50", "snapshot_20", "param_3_down", "execute_1"):
            plan += plan_for_tokens(CANONICAL[key], hold=20, rest=12)
        return plan

    def all_pairs(self):
        pairs = [(a.name, b.name) for a in GestureClass for b in GestureClass]
        return pairs + [None]

    def test_single_frame_mutations(self):
        rng = np.random.default_rng(13)
        plan = self.canonical_plan()
        base_stream = pair_stream(plan)
        base = decode(base_stream, TABLE)
        assert len(base) == 4
        pairs = self.all_pairs()
        for _ in range(300):
            stream = list(base_stream)
            idx = int(rng.integers(len(stream)))
            choice = pairs[int(rng.integers(len(pairs)))]
            if choice is None:
                stream[idx] = GesturePairToken(None, None, frame=stream[idx].frame)
            else:
                stream[idx] = GesturePairToken(
                    GestureClass.from_name(choice[0]),
                    GestureClass.from_name(choice[1]),
                    frame=stream[idx].frame,
                    conf_left=1.0,
                    conf_right=1.0,
                )
            assert decode(stream, TABLE) == base

    def test_spurious_bursts_between_holds(self):
        rng = np.random.default_rng(17)
        plan = self.canonical_plan()
        base = decode(pair_stream(plan), TABLE)
        boundaries = list(range(len(plan) + 1))
        pairs = [p for p in self.all_pairs() if p is not None]
        for _ in range(300):
            where = boundaries[int(rng.integers(len(boundaries)))]
            burst_pair = pairs[int(rng.integers(len(pairs)))]
            burst_len = int(rng.integers(1, 10))
            spiked = plan[:where] + [(burst_pair, burst_len)] + plan[where:]
            assert decode(pair_stream(spiked), TABLE) == base


# ---------------------------------------------------------------------------
# property: bursts shorter than the debounce window never change the decode
# ---------------------------------------------------------------------------

TOKEN_NAMES = [token.name for token in TABLE.pairs.values()]
MAPPED_PAIRS = [(left.name, right.name) for left, right in TABLE.pairs]
ANY_PAIR = [(a.name, b.name) for a in GestureClass for b in GestureClass] + [None]


@st.composite
def held_plans_with_bursts(draw):
    """A plan of held mapped-pair runs, and the same plan with short bursts at run boundaries.

    Held runs spell canonical programs or arbitrary tokens; consecutive runs
    differ, so each confirms once. At most one burst sits at each boundary, so
    no two bursts can join into a confirmable run.
    """
    programs = st.lists(st.sampled_from(sorted(CANONICAL)), min_size=1, max_size=3).map(
        lambda keys: [name for key in keys for name in CANONICAL[key]]
    )
    names = draw(programs | st.lists(st.sampled_from(TOKEN_NAMES), min_size=1, max_size=12))
    pairs = [pair for pair, _ in plan_for_tokens(names)[:-1]]  # without the closing rest
    pairs = [p for i, p in enumerate(pairs) if i == 0 or p != pairs[i - 1]]
    held = [(p, draw(st.integers(DEBOUNCE_FRAMES, 2 * DEBOUNCE_FRAMES))) for p in pairs]
    burst_pair = st.sampled_from(MAPPED_PAIRS) | st.sampled_from(ANY_PAIR)  # mapped half the time
    burst = st.tuples(burst_pair, st.integers(1, DEBOUNCE_FRAMES - 1))
    bursts = draw(st.lists(st.none() | burst, min_size=len(held) + 1, max_size=len(held) + 1))
    spiked = []
    for run, extra in zip(held + [None], bursts):
        spiked += ([extra] if extra else []) + ([run] if run else [])
    return held, spiked


@settings(max_examples=200, deadline=None)
@given(held_plans_with_bursts())
def test_decoder_invariant_under_sub_debounce_bursts(plans):
    held, spiked = plans
    assert decode(pair_stream(spiked), TABLE) == decode(pair_stream(held), TABLE)


def long_number(count: int) -> list[Token]:
    return [Token(TokenKind.STOP), Token(TokenKind.HOVER), *[digit(1)] * count, Token(TokenKind.GO)]


def test_number_at_the_int_digit_limit_decodes():
    limit = sys.get_int_max_str_digits()  # 4300 unless configured
    (instruction,) = decode_tokens(long_number(limit))
    assert instruction.task == "HOVER" and instruction.duration_s == int("1" * limit)
    assert len(json.dumps(instruction.to_record())) > limit


def test_number_beyond_the_int_digit_limit_is_ungrammatical():
    assert decode_tokens(long_number(sys.get_int_max_str_digits() + 1)) == []
