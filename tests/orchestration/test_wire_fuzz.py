"""Fuzz the cluster wire codec and the journal reader.

Whatever a peer sends, :func:`wire.decode_message` either returns a wire
dataclass whose every field holds its declared JSON type, or raises
:class:`WireProtocolError`; nothing else may escape, or one line from any
TCP peer kills a cluster sweep.  Whatever a journal file holds,
:func:`read_records` either returns a list of dicts or raises
:class:`OrchestrationError`.  Whatever a message holds,
:func:`wire.encode_message` writes the same bytes as serialising
``dataclasses.asdict`` of it.

The inputs are any JSON value as the whole line, any JSON value in place of
``type`` or of one field of each message type, and arbitrary bytes.
Hypothesis's recursive strategies never nest deep enough to reach the JSON
parser's recursion limit, so explicit examples add such lines.
"""

import dataclasses
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import OrchestrationError
from repro.orchestration.journal import read_records
from repro.orchestration.wire import (
    EntityResult,
    Heartbeat,
    Hello,
    LeaseGrant,
    LeaseRevoked,
    Shutdown,
    Welcome,
    WireError,
    WireProtocolError,
    decode_message,
    encode_message,
)

#: One message of each of the eight wire types.
MESSAGES = (
    Hello(worker="w1", fingerprint="abc123"),
    Welcome(epoch=3, heartbeat_s=2.0, lease_ttl_s=10.0),
    LeaseGrant(lease="lease-0", epoch=3, start=4, stop=8),
    Heartbeat(worker="w1", lease="lease-0", epoch=3),
    EntityResult(
        worker="w1", lease="lease-0", epoch=3, index=5, ok=True, payload={"curve": [0.3]}
    ),
    LeaseRevoked(lease="lease-0", epoch=4, reason="expired"),
    Shutdown(reason="sweep complete"),
    WireError(code="protocol_error", message="bad line", retry_safe=True),
)

MESSAGE_TYPES = tuple(type(message) for message in MESSAGES)

#: Whether a decoded value holds the JSON type its annotation declares.
#: ``bool`` is an ``int`` subclass in Python, but not a JSON integer.
DECLARED = {
    "str": lambda value: isinstance(value, str),
    "int": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "float": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "bool": lambda value: isinstance(value, bool),
    "Optional[str]": lambda value: value is None or isinstance(value, str),
    "Optional[Dict[str, Any]]": lambda value: value is None or isinstance(value, dict),
}

#: Any JSON value: scalars (integers past the float range, NaN and the
#: infinities included), and small nested arrays and objects.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

#: Brackets past the JSON parser's recursion limit.
DEEP = 100_000


def line_of(body):
    return (json.dumps(body) + "\n").encode("utf-8")


def deep_field_line(message, field):
    """``message`` with ``field`` replaced by an array nested past the limit."""
    body = json.loads(encode_message(message))
    body[field] = "PLACEHOLDER"
    head, tail = json.dumps(body).split('"PLACEHOLDER"')
    return (head + "[" * DEEP + "]" * DEEP + tail + "\n").encode("utf-8")


def assert_typed_or_refused(line):
    """The decoder's contract on one line."""
    try:
        message = decode_message(line)
    except WireProtocolError:
        return
    assert isinstance(message, MESSAGE_TYPES)
    for field in dataclasses.fields(message):
        value = getattr(message, field.name)
        assert DECLARED[field.type](value), (field.name, field.type, value)


@given(value=json_values)
@example(value=None)
@settings(max_examples=100, deadline=None)
def test_any_json_line(value):
    assert_typed_or_refused(line_of(value))


@given(message=st.sampled_from(MESSAGES), value=json_values)
@settings(max_examples=150, deadline=None)
def test_any_json_value_as_the_type(message, value):
    body = json.loads(encode_message(message))
    body["type"] = value
    assert_typed_or_refused(line_of(body))


@st.composite
def field_replacements(draw):
    message = draw(st.sampled_from(MESSAGES))
    field = draw(st.sampled_from([field.name for field in dataclasses.fields(message)]))
    return message, field, draw(json_values)


@given(case=field_replacements())
@settings(max_examples=250, deadline=None)
def test_any_json_value_in_one_field(case):
    message, field, value = case
    body = json.loads(encode_message(message))
    body[field] = value
    assert_typed_or_refused(line_of(body))


@given(data=st.binary(max_size=64))
@example(data=b"[" * DEEP)
@example(data=b'{"type": ' + b"[" * DEEP)
@example(data=b'{"type": "hello", "worker": ' + b"[" * DEEP + b"]" * DEEP + b"}")
@example(data=deep_field_line(MESSAGES[3], "lease"))
@example(data=deep_field_line(MESSAGES[4], "payload"))
@example(data=b"\xff\xfe\n")
@settings(max_examples=100, deadline=None)
def test_arbitrary_bytes(data):
    assert_typed_or_refused(data)


#: Values a sender may put in a field of each declared type.
FIELD_VALUES = {
    "str": st.text(max_size=12),
    "int": st.integers(),
    "float": st.floats() | st.integers(),
    "bool": st.booleans(),
    "Optional[str]": st.none() | st.text(max_size=12),
    "Optional[Dict[str, Any]]": st.none()
    | st.dictionaries(st.text(max_size=8), json_values, max_size=4),
}

TYPE_NAMES = {
    Hello: "hello",
    Welcome: "welcome",
    LeaseGrant: "lease_grant",
    Heartbeat: "heartbeat",
    EntityResult: "entity_result",
    LeaseRevoked: "lease_revoked",
    Shutdown: "shutdown",
    WireError: "error",
}


@pytest.mark.parametrize("cls", MESSAGE_TYPES, ids=lambda cls: cls.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_encoding_matches_the_asdict_encoding(cls, data):
    message = data.draw(
        st.builds(
            cls,
            **{
                field.name: FIELD_VALUES[field.type]
                for field in dataclasses.fields(cls)
            },
        )
    )
    body = {"type": TYPE_NAMES[cls], **dataclasses.asdict(message)}
    expected = json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
    assert encode_message(message) == expected.encode("utf-8")


def test_the_seed_messages_decode():
    """Otherwise every fuzzed field would be refused and the fuzz vacuous."""
    for message in MESSAGES:
        assert decode_message(encode_message(message)) == message


#: Journal lines: well-formed records, any JSON value, any text, any bytes.
journal_lines = st.one_of(
    st.dictionaries(st.text(max_size=6), json_values, max_size=3).map(
        lambda record: json.dumps(record).encode("utf-8")
    ),
    json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.text(max_size=16).map(lambda text: text.encode("utf-8")),
    st.binary(max_size=16),
)


@given(lines=st.lists(journal_lines, max_size=6), terminated=st.booleans())
@example(lines=[b'{"type": "a"}', b"[" * DEEP, b'{"type": "b"}'], terminated=True)
@example(lines=[b'{"type": "a"}', b'{"type": ' + b"[" * DEEP], terminated=False)
@settings(max_examples=100, deadline=None)
def test_read_records_returns_dicts_or_refuses(lines, terminated):
    data = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "journal.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            records = read_records(path)
        except OrchestrationError:
            return
    assert isinstance(records, list)
    assert all(isinstance(record, dict) for record in records)
