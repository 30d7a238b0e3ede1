"""Fuzzing of the untrusted inputs: config text, config files, snapshots.

Every input must end in a return value or in one of the errors the command
line maps to exit code 1 (`ConfigError`, `SnapshotFormatError`,
`_UsageError`); anything else would reach the user as a traceback.  No
solver runs here.  Examples are derandomized so that every run of the
suite sees the same inputs.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kscontrol.errors import ConfigError, SnapshotFormatError
from kscontrol.io_cli import (
    DEFAULTS,
    _UsageError,
    build_problem,
    build_setup,
    load_config,
    parse_config_text,
    read_snapshot,
    write_snapshot,
)

EXIT_ONE = (ConfigError, SnapshotFormatError, _UsageError)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# Grid and step counts stay small so a fuzzed config allocates little; a
# large grid is a valid request that only costs memory.
SIZE_KEYS = ("grid.nx", "grid.ny", "time.nt")
sizes = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(["", "x", "3.5", "1e3", "nan"]))
numbers = st.one_of(st.integers(-5, 50).map(str), st.floats().map(repr),
                    st.sampled_from(["inf", "-inf", "nan", "1e308", "-0.0"]))
words = st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t)


def _expression(snap_path):
    def call(head, arity):
        return st.lists(numbers, min_size=arity, max_size=arity).map(
            lambda params: f"{head}:{','.join(params)}")

    return st.one_of(
        st.just("zero"),
        call("constant", 1), call("cosine", 4), call("gaussian", 5),
        st.builds(call, st.sampled_from(["constant", "cosine", "gaussian", "zero"]),
                  st.integers(0, 6)).flatmap(lambda s: s),
        st.just(f"path:{snap_path}"),
        words.map("path:{}".format),
        words,
    )


def _config_line(snap_path):
    """One ``key = value`` line over the real keys."""
    def value_for(key):
        default = DEFAULTS[key]
        if key in SIZE_KEYS:
            return sizes
        if key.startswith(("init.", "targets.")) or key == "control.initial":
            return st.one_of(_expression(snap_path), words)
        if isinstance(default, str):
            return st.one_of(st.sampled_from([default, "upwind", "box"]), words)
        return st.one_of(numbers, numbers, numbers, words)

    return st.sampled_from(sorted(DEFAULTS)).flatmap(
        lambda key: value_for(key).map(lambda value: f"{key} = {value}"))


@pytest.fixture(scope="module")
def snap_path(tmp_path_factory):
    """A snapshot the fuzzed configs can name; its bytes are fuzzed too."""
    return tmp_path_factory.mktemp("fuzz") / "field.ksf"


def _build(cfg):
    for build in (build_setup, build_problem):
        try:
            build(cfg)
        except EXIT_ONE:
            pass


@FUZZ
@given(text=st.text())
def test_parse_config_text_ends_in_pairs_or_config_error(text):
    try:
        raw = parse_config_text(text)
    except ConfigError:
        return
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in raw.items())


@FUZZ
@given(data=st.data())
def test_config_file_and_overrides_end_in_setup_or_exit_one(snap_path, data):
    line = _config_line(snap_path)
    lines = data.draw(st.lists(st.one_of(line, line, line, line, words), max_size=8))
    overrides = data.draw(st.lists(st.one_of(line.map(lambda t: t.replace(" = ", "=", 1)),
                                             words), max_size=3))
    payload = data.draw(st.binary(max_size=64))
    snap_path.write_bytes(payload)
    cfg_path = snap_path.with_name("run.cfg")
    cfg_path.write_text("\n".join(lines))
    try:
        cfg = load_config(str(cfg_path), overrides)
    except EXIT_ONE:
        return
    _build(cfg)


@FUZZ
@given(raw=st.binary(max_size=256))
def test_config_file_of_arbitrary_bytes(snap_path, raw):
    cfg_path = snap_path.with_name("bytes.cfg")
    cfg_path.write_bytes(raw)
    try:
        cfg = load_config(str(cfg_path), [])
    except EXIT_ONE:
        return
    _build(cfg)


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=96),
    st.builds(lambda head, body: head + body,
              st.builds(struct.Struct("<4sIIId").pack, st.sampled_from([b"KSF1", b"KSF2"]),
                        st.sampled_from([1, 2]), st.integers(0, 4), st.integers(0, 4),
                        st.floats()),
              st.binary(max_size=160)),
))
def test_read_snapshot_ends_in_a_field_or_format_error(snap_path, data):
    snap_path.write_bytes(data)
    try:
        values, time = read_snapshot(snap_path)
    except SnapshotFormatError:
        return
    assert values.ndim == 2 and len(data) == 24 + 8 * values.size
    write_snapshot(snap_path, values, time)
    assert snap_path.read_bytes()[24:] == data[24:]
