"""Gesture-pair instruction language: debounce, mapping table, FSM decoder.

A raw pair must persist for ten consecutive frames before its instruction
token registers, and the run has to break before the same pair can fire
again. The decoder grammar is sentinel-framed:

    program := (STOP task [DIGIT+])
             | (STOP EXECUTE DIGIT+)
             | (CONTD SNAPSHOT DIGIT+)
             | (CONTD PARAM DIGIT+ (INCREASE | DECREASE))
    ... each terminated by GO; DIGIT+ concatenates decimally.

The FSM is one ``(phase, token kind) -> phase`` table. A pair the table does
not list is ignored (the state stays as it is), so malformed sequences never
emit anything; GO ends any started instruction and returns to idle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from importlib import resources
from pathlib import Path

from .core import ValidationError, fields, listof, read_fields, read_json
from .gesture import GestureClass, GesturePairToken

DEBOUNCE_FRAMES = 10  # identical consecutive frames that confirm a pair
IDLE_TIMEOUT_FRAMES = 600  # frames without a confirmed token that reset a started instruction


class TokenKind(Enum):
    STOP = "STOP"
    CONTD = "CONTD"
    GO = "GO"
    SNAPSHOT = "SNAPSHOT"
    HOVER = "HOVER"
    FOLLOW = "FOLLOW"
    EXECUTE = "EXECUTE"
    PARAM = "PARAM"
    INCREASE = "INCREASE"
    DECREASE = "DECREASE"
    MOVE_LEFT = "MOVE_LEFT"
    MOVE_RIGHT = "MOVE_RIGHT"
    MOVE_UP = "MOVE_UP"
    MOVE_DOWN = "MOVE_DOWN"
    DIGIT = "DIGIT"


TASK_KINDS = (
    TokenKind.HOVER,
    TokenKind.FOLLOW,
    TokenKind.MOVE_LEFT,
    TokenKind.MOVE_RIGHT,
    TokenKind.MOVE_UP,
    TokenKind.MOVE_DOWN,
)


@dataclass(frozen=True)
class Token:
    """An instruction token; only DIGIT carries a payload (0-5)."""

    kind: TokenKind
    digit: int | None = None

    def __post_init__(self):
        if self.kind is TokenKind.DIGIT:
            if self.digit is None or not 0 <= self.digit <= 5:
                raise ValidationError("DIGIT payload must lie in [0, 5]")
        elif self.digit is not None:
            raise ValidationError(f"{self.kind.value} carries no payload")

    @property
    def name(self) -> str:
        if self.kind is TokenKind.DIGIT:
            return f"DIGIT_{self.digit}"
        return self.kind.value

    @classmethod
    def from_name(cls, name: str) -> "Token":
        if name.startswith("DIGIT_"):
            try:
                return cls(TokenKind.DIGIT, int(name[6:]))
            except ValueError:
                raise ValidationError(f"bad digit token {name!r}") from None
        try:
            return cls(TokenKind[name])
        except KeyError:
            raise ValidationError(f"unknown instruction token {name!r}") from None


def digit(d: int) -> Token:
    return Token(TokenKind.DIGIT, d)


# ---------------------------------------------------------------------------
# gesture-pair -> token mapping
# ---------------------------------------------------------------------------

Pair = tuple[GestureClass, GestureClass]


@dataclass(frozen=True)
class MappingTable:
    """One-to-one map from fully-populated gesture pairs to tokens."""

    pairs: dict[Pair, Token]

    def __post_init__(self):
        seen_tokens = {}
        for pair, token in self.pairs.items():
            if token in seen_tokens:
                raise ValidationError(
                    f"mapping is not one-to-one: {token.name} assigned to both "
                    f"{_pair_name(seen_tokens[token])} and {_pair_name(pair)}"
                )
            seen_tokens[token] = pair
        if not any(t.kind is TokenKind.GO for t in self.pairs.values()):
            raise ValidationError("mapping must assign the GO end sentinel")

    def lookup(self, left: GestureClass | None, right: GestureClass | None) -> Token | None:
        if left is None or right is None:
            return None
        return self.pairs.get((left, right))

    def pair_for(self, token: Token) -> Pair:
        for pair, tok in self.pairs.items():
            if tok == token:
                return pair
        raise ValidationError(f"token {token.name} is not mapped")


def _pair_name(pair: Pair) -> str:
    return f"({pair[0].name}, {pair[1].name})"


# mapping entry JSON key -> (field, converter)
_ENTRY_KEYS = {
    **fields(("left", "right"), GestureClass.from_name),
    "token": ("token", lambda name: Token.from_name(str(name))),
}


def _entry(raw) -> dict:
    return read_fields(raw, _ENTRY_KEYS, f"mapping entry {raw!r}", ("left", "right", "token"))


def mapping_from_dict(raw: dict) -> MappingTable:
    entries = read_fields(raw, {"pairs": ("pairs", listof(_entry))}, "mapping", ("pairs",))
    pairs: dict[Pair, Token] = {}
    for entry in entries["pairs"]:
        pair = (entry["left"], entry["right"])
        if pair in pairs:
            raise ValidationError(f"duplicate mapping for pair {_pair_name(pair)}")
        pairs[pair] = entry["token"]
    return MappingTable(pairs)


def load_mapping(path: str | Path | None = None) -> MappingTable:
    """Load a mapping table; without a path, the packaged default."""
    source = resources.files("diverkit").joinpath("data", "mapping.json") if path is None else path
    return mapping_from_dict(read_json(source, "mapping"))


def default_mapping() -> MappingTable:
    return load_mapping(None)


# ---------------------------------------------------------------------------
# instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSwitch:
    """Stop the current program and start a task (or a numbered program)."""

    task: str  # HOVER | FOLLOW | MOVE_* | EXECUTE
    duration_s: int | None = None
    program: int | None = None
    emitted_at_frame: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.task == "EXECUTE":
            if self.program is None or self.program < 0:
                raise ValidationError("EXECUTE needs a program number >= 0")
        elif self.program is not None:
            raise ValidationError("only EXECUTE carries a program number")
        if self.duration_s is not None and self.duration_s < 1:
            raise ValidationError("duration must be >= 1 s when present")

    def to_record(self) -> dict:
        return _record("task_switch", self)


@dataclass(frozen=True)
class ParamReconfig:
    """Adjust a numbered parameter of the running program."""

    param: int
    direction: str  # INCREASE | DECREASE
    emitted_at_frame: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.param < 0:
            raise ValidationError("parameter number must be >= 0")
        if self.direction not in ("INCREASE", "DECREASE"):
            raise ValidationError(f"bad direction {self.direction!r}")

    def to_record(self) -> dict:
        return _record("param_reconfig", self)


@dataclass(frozen=True)
class Snapshot:
    """Take pictures for a fixed time while the current program continues."""

    duration_s: int
    emitted_at_frame: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.duration_s is None or self.duration_s < 1:
            raise ValidationError("snapshot duration must be >= 1 s")

    def to_record(self) -> dict:
        return _record("snapshot", self)


Instruction = TaskSwitch | ParamReconfig | Snapshot


def _record(kind: str, instruction: Instruction) -> dict:
    """An instruction's type and its fields, leaving out unset ones but ``emitted_at_frame``."""
    values = asdict(instruction).items()
    return {"type": kind, **{k: v for k, v in values if v is not None or k == "emitted_at_frame"}}


# ---------------------------------------------------------------------------
# debounce
# ---------------------------------------------------------------------------

RawPair = tuple[GestureClass | None, GestureClass | None]


@dataclass
class Debouncer:
    """Confirms a mapped pair after ten identical consecutive frames.

    The confirmed token fires exactly once per run; the run must break
    (any different pair, or a missing hand) before it can fire again.
    """

    table: MappingTable
    last_pair: RawPair = (None, None)
    run_length: int = 0
    fired: bool = False

    def update(self, token: GesturePairToken) -> Token | None:
        pair = token.pair
        if pair == self.last_pair:
            self.run_length = min(self.run_length + 1, DEBOUNCE_FRAMES)
        else:
            self.last_pair = pair
            self.run_length = 1
            self.fired = False
        if self.run_length >= DEBOUNCE_FRAMES and not self.fired:
            self.fired = True
            return self.table.lookup(*pair)
        return None


def debounce(stream: list[GesturePairToken], table: MappingTable) -> list[tuple[int, Token]]:
    """Confirmed (frame, token) events of a pair stream, in order."""
    deb = Debouncer(table)
    events = []
    for token in stream:
        confirmed = deb.update(token)
        if confirmed is not None:
            events.append((token.frame, confirmed))
    return events


# ---------------------------------------------------------------------------
# decoder FSM
# ---------------------------------------------------------------------------


class Phase(Enum):
    IDLE = "Idle"
    GOT_STOP = "GotStop"
    GOT_CONTD = "GotContd"
    TASK_CHOSEN = "TaskChosen"
    AWAIT_PROGRAM_NUM = "AwaitProgramNum"
    AWAIT_PARAM_NUM = "AwaitParamNum"
    AWAIT_DIRECTION = "AwaitDirection"
    AWAIT_SNAP_DURATION = "AwaitSnapDuration"
    ARMED = "Armed"


@dataclass(frozen=True)
class DecoderState:
    phase: Phase = Phase.IDLE
    task: str | None = None
    digits: str = ""
    direction: str | None = None


# phases that collect a number ended by GO; AWAIT_DIRECTION collects one ended by a direction
_NUMBERED = (Phase.TASK_CHOSEN, Phase.AWAIT_PROGRAM_NUM, Phase.AWAIT_SNAP_DURATION)

# (phase, token kind) -> next phase; every pair not listed leaves the state as it is
_TRANSITIONS: dict[tuple[Phase, TokenKind], Phase] = {
    (Phase.IDLE, TokenKind.STOP): Phase.GOT_STOP,
    (Phase.IDLE, TokenKind.CONTD): Phase.GOT_CONTD,
    **{(Phase.GOT_STOP, kind): Phase.TASK_CHOSEN for kind in TASK_KINDS},
    (Phase.GOT_STOP, TokenKind.EXECUTE): Phase.AWAIT_PROGRAM_NUM,
    (Phase.GOT_CONTD, TokenKind.SNAPSHOT): Phase.AWAIT_SNAP_DURATION,
    (Phase.GOT_CONTD, TokenKind.PARAM): Phase.AWAIT_PARAM_NUM,
    **{(phase, TokenKind.DIGIT): phase for phase in (*_NUMBERED, Phase.AWAIT_DIRECTION)},
    (Phase.AWAIT_PARAM_NUM, TokenKind.DIGIT): Phase.AWAIT_DIRECTION,
    (Phase.AWAIT_DIRECTION, TokenKind.INCREASE): Phase.ARMED,
    (Phase.AWAIT_DIRECTION, TokenKind.DECREASE): Phase.ARMED,
}


def step_fsm(
    state: DecoderState, token: Token
) -> tuple[DecoderState, Instruction | None]:
    """Pure transition function; emits an instruction only on a valid GO."""
    kind = token.kind
    if kind is TokenKind.GO:
        if state.phase is Phase.IDLE:
            return state, None
        return DecoderState(), _finish(state)
    phase = _TRANSITIONS.get((state.phase, kind))
    if phase is None:
        return state, None
    task = kind.value if state.phase is Phase.GOT_STOP else state.task
    digits = state.digits + str(token.digit) if kind is TokenKind.DIGIT else state.digits
    direction = kind.value if phase is Phase.ARMED else state.direction
    return DecoderState(phase, task, digits, direction), None


def _finish(state: DecoderState) -> Instruction | None:
    """Instruction for a GO arriving in ``state``; None if ungrammatical, which
    includes a number that the instruction's own checks refuse."""
    try:
        number = int(state.digits) if state.digits else None
        if state.phase is Phase.TASK_CHOSEN:
            return TaskSwitch(task=state.task, duration_s=number)
        if state.phase is Phase.AWAIT_PROGRAM_NUM:
            return TaskSwitch(task="EXECUTE", program=number)
        if state.phase is Phase.AWAIT_SNAP_DURATION:
            return Snapshot(duration_s=number)
        if state.phase is Phase.ARMED:
            return ParamReconfig(param=number, direction=state.direction)
    except ValueError:  # a number the instruction refuses, or too many digits for int()
        return None
    return None


class StreamDecoder:
    """Debounce plus FSM over one pair stream, with an idle-reset timeout."""

    def __init__(self, table: MappingTable):
        self.debouncer = Debouncer(table)
        self.state = DecoderState()
        self.frames_since_confirmed = 0

    def feed(self, token: GesturePairToken) -> Instruction | None:
        confirmed = self.debouncer.update(token)
        if confirmed is None:
            if self.state.phase is not Phase.IDLE:
                self.frames_since_confirmed += 1
                if self.frames_since_confirmed >= IDLE_TIMEOUT_FRAMES:
                    self.state = DecoderState()
                    self.frames_since_confirmed = 0
            return None
        self.frames_since_confirmed = 0
        self.state, instruction = step_fsm(self.state, confirmed)
        if instruction is not None:
            instruction = replace(instruction, emitted_at_frame=token.frame)
        return instruction


def decode(stream: list[GesturePairToken], table: MappingTable) -> list[Instruction]:
    """Decode a whole pair stream into instructions, in emission order."""
    decoder = StreamDecoder(table)
    out = []
    for token in stream:
        instruction = decoder.feed(token)
        if instruction is not None:
            out.append(instruction)
    return out


def decode_tokens(tokens: list[Token]) -> list[Instruction]:
    """Run the FSM over an already-confirmed token sequence."""
    state = DecoderState()
    out = []
    for token in tokens:
        state, instruction = step_fsm(state, token)
        if instruction is not None:
            out.append(instruction)
    return out
