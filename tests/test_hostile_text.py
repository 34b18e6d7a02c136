"""Hostile text files (ROADMAP item 2): config, scene and manifest readers.

Hypothesis writes the text of each kind of file, from the keys its reader
knows, keys it does not and values of every sort, and hands it to the
reader alone: `load_config`, `scene_from_file` or `cli._read_manifest`.
Each call must return or raise a `RingSegError`, never another exception.
No test runs a stage on what it reads, so a valid but huge value (a
billion ground segments) costs nothing here.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringseg import RingSegError, load_config
from ringseg.cli import _MANIFEST_KEYS, _read_manifest
from ringseg.config import _KEYS
from ringseg.synth import _OBJECT_KEYS, _SCENE_KEYS, scene_from_file

_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "7", "0.5", "-0.0", "1e-300", "1e308", "1e400",
                     "nan", "inf", "-inf", "9" * 30, "9" * 5000, "0x10", "1_000", "true",
                     "off", "car", "box", "cylinder", "composite", "pedestrian", "²", "٣",
                     "", "=", "café"]),
    st.text(max_size=8))
_INDICES = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["²", "٣", "-1", "01", "x", ""]))
_JUNK_KEYS = st.one_of(st.sampled_from(["bogus", "ground.bogus", "objects", "objects.0",
                                        "objects.0.x.y", "seed.x", ""]),
                       st.text(max_size=12))


def _kv_text(keys):
    """`key = value` files over `keys`, with comments, blank and broken lines."""
    line = st.one_of(
        st.tuples(keys, _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.tuples(_JUNK_KEYS, _VALUES).map(lambda kv: f"{kv[0]}={kv[1]}"),
        st.sampled_from(["", "# a comment", "no equals sign", "  = 3"]),
        st.text(max_size=20))
    return st.lists(line, max_size=12).map("\n".join)


_CONFIG_TEXT = _kv_text(st.sampled_from(sorted(_KEYS)))
_SCENE_TEXT = _kv_text(st.one_of(
    st.sampled_from(sorted(_SCENE_KEYS)),
    st.tuples(_INDICES, st.sampled_from(sorted(_OBJECT_KEYS))).map(
        lambda f: f"objects.{f[0]}.{f[1]}")))

_GOOD_RECORD = dict(zip(_MANIFEST_KEYS, ["1", "40", "9.5", "9", "2", "-1", "0.3",
                                         "2", "0.9", "0.7", "0", "0", "1"]))


@st.composite
def _manifest_text(draw):
    """Manifest lines: a valid record with fields dropped, changed, added or
    repeated, and lines of arbitrary text."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.text(max_size=40)))
            continue
        tokens = [f"{k}={v}" for k, v in _GOOD_RECORD.items()
                  if draw(st.integers(0, 12))]  # now and then a field goes missing
        for _ in range(draw(st.integers(0, 3))):
            key = draw(st.one_of(st.sampled_from(_MANIFEST_KEYS), _JUNK_KEYS))
            token = draw(st.sampled_from(["{}={}", "{}", "{}=={}"])).format(key, draw(_VALUES))
            tokens.insert(draw(st.integers(0, len(tokens))), token)
        lines.append(" ".join(tokens))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def text_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "hostile.txt"


def _read(reader, path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except RingSegError:
        pass


@settings(max_examples=150, deadline=None)
@given(text=_CONFIG_TEXT)
# a repeated key, which loaded the last value
@example(text="refine.enlarge_z = 0.4\nrefine.enlarge_z = 9")
# valid but huge: read, never run
@example(text=f"ground.n_seg = {'9' * 30}")
def test_config_reader_returns_or_raises_ringseg_error(text_file, text):
    _read(load_config, text_file, text)


@settings(max_examples=150, deadline=None)
@given(text=_SCENE_TEXT)
# a non-ASCII digit index, which int() rejected with a ValueError
@example(text="objects.².x = 5")
# a repeated key, which moved the object to the last value
@example(text="objects.0.x = 8\nobjects.0.x = 30")
def test_scene_reader_returns_or_raises_ringseg_error(text_file, text):
    _read(scene_from_file, text_file, text)


@settings(max_examples=150, deadline=None)
@given(text=_manifest_text())
# a key the reader does not know, which it ignored
@example(text=" ".join(f"{k}={v}" for k, v in _GOOD_RECORD.items()) + " bogus=7")
def test_manifest_reader_returns_or_raises_ringseg_error(text_file, text):
    _read(_read_manifest, text_file, text)
