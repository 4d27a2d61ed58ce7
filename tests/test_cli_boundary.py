"""The CLI's text boundary: encodings, timestamps, and arbitrary input bytes."""

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ticks_from_deltas, zigzag_levels
from mpslab import PRESETS, serialize_ticks
from mpslab.cli import main

OTE = ["ote", "--fc", "49.99", "--cost", "4.68"]


def run(argv, stdin: bytes | None = None, monkeypatch=None):
    """Exit code, stdout and stderr of one in-process CLI call; ``stdin``
    stands in for the process's standard input, read as the locale's strict
    UTF-8 text stream."""
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _tick_bytes() -> bytes:
    ticks = ticks_from_deltas(zigzag_levels([0, 8, 0, 8, 0, 8, 0]), PRESETS["ES"])
    return serialize_ticks(ticks).encode()


def test_leading_byte_order_mark_is_accepted(tmp_path, monkeypatch):
    plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_bytes(_tick_bytes())
    marked.write_bytes(b"\xef\xbb\xbf" + _tick_bytes())
    code, expected, err = run(OTE + [str(plain)])
    assert (code, err) == (0, "") and "90.64" in expected
    assert run(OTE + [str(marked)]) == (0, expected, "")
    assert run(OTE + ["-"], b"\xef\xbb\xbf" + _tick_bytes(), monkeypatch) == (0, expected, "")
    samples = tmp_path / "samples.txt"
    samples.write_bytes(b"\xef\xbb\xbf1.5\n2\n")
    code, out, err = run(["stats", str(samples)])
    assert (code, err) == (0, "") and "Mean                = 1.75" in out


def test_invalid_utf8_names_its_line_in_a_file_and_on_stdin(tmp_path, monkeypatch):
    lines = _tick_bytes().splitlines(keepends=True)
    # deep enough that a block decoder would fail several lines early
    blob = b"".join(lines[:30]) + b"2017/04/10 09:10:00 23\xff2.25 1\n" + b"".join(lines[30:])
    path = tmp_path / "bad.tsv"
    path.write_bytes(blob)
    expected = (1, "", "error: line 31: invalid UTF-8 byte 0xff\n")
    for argv in (OTE, ["pattern", "--fc", "49.99", "--cost", "4.68"],
                 ["mps", "--cost", "4.68"]):
        assert run(argv + [str(path)]) == expected
        assert run(argv + ["-"], blob, monkeypatch) == expected
    # a byte-order mark after line 1 is text like any other, not skipped
    path.write_bytes(lines[0] + b"\xef\xbb\xbf" + lines[1])
    code, _, err = run(OTE + [str(path)])
    assert code == 1 and err.startswith("error: line 2: bad timestamp")


def test_fractional_second_timestamps_are_refused(tmp_path):
    # times are whole seconds; a fraction is refused rather than rounded
    path = tmp_path / "frac.tsv"
    path.write_text("2017/04/10 09:00:00 2342.25 1\n2017/04/10 09:00:00.250 2342.50 1\n")
    assert run(OTE + [str(path)]) == (
        1, "", "error: line 2: bad timestamp '2017/04/10' '09:00:00.250'\n")


_FIELDS = (
    [b"2017/04/10", b"2017/04/09", b"2017-04-10", b"9999/12/31", b"0001/01/01"],
    [b"09:00:00", b"16:59:59", b"17:00:00", b"23:59:59", b"09:00:00.250", b"24:00:00"],
    [b"2342.25", b"2342.50", b"2341.75", b"2342.30", b"0.25", b"0", b"1e5", b"1/0",
     b"99999999999999999999999.25"],
    [b"1", b"0", b"-1", b"5", b"99999999999999999999"],
)
_tick_line = st.tuples(*map(st.sampled_from, _FIELDS)).map(b" ".join)
_noise_line = st.lists(st.sampled_from([x for f in _FIELDS for x in f]
                                       + [b"#", b"\xef\xbb\xbf", b"\xff", b"\t", b"X"]),
                       max_size=6).map(b" ".join)
_blobs = st.one_of(st.binary(max_size=300),
                   st.lists(st.one_of(_tick_line, _tick_line, _noise_line), max_size=12)
                   .map(b"\n".join))


@settings(max_examples=30, deadline=None)
@given(_blobs)
def test_cli_exits_cleanly_on_arbitrary_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(blob)
        for argv in (OTE, ["pattern", "--fc", "12.49", "--cost", "4.68"],
                     ["mps", "--cost", "4.68", "--W", "2"], ["stats"]):
            code, _, err = run(argv + [path])
            assert code in (0, 1, 2)
            assert err == "" or (err.count("\n") == 1 and err.endswith("\n")
                                 and err.startswith(("error:", "budget refused:"))), err
