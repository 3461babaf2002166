"""The trace-line templates, the sense-line codec and the center-first ball
order.

A sense ball is written packed, as the base64 text of its flat edge list's
bytes, whenever every value is below 256, and as the flat list otherwise.
``to_jsonl`` writes sense, move, phase_start and phase_end events through
their templates and ``from_jsonl`` reads a line in exactly a template's form
without ``json.loads``; both must agree with the plain JSON path byte for
byte and error for error. A ball keeps its center edges
before its horizontal ones, whatever order it was given in, and lists no
(u, v) pair twice. In memory, every builder stores a ball's edges as bytes
exactly when every value is below 256, and the agent and the trace share
that one object.
"""

import json
import random
import re
import sys
from base64 import b64decode, b64encode
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from binox import explorer, runtime
from binox.explorer import explore
from binox.graph import Ball, PortNumberedGraph, ball
from binox.runtime import TRACE_CHUNK, TRACE_VERSION, Environment, RunTrace, TraceFormatError

from conftest import gen

HEAD = [
    json.dumps({"kind": "header", "version": TRACE_VERSION, "root": 0, "budget": 99}),
    '{"kind":"phase_start","phase":1}',
]
SPECS = ("complete:6", "johnson:5,2", "chordal:n=30,rate=0.4,seed=3", "tree:n=20,seed=2", "path:1")


def plain(ev):
    """The JSON form of an event, as json.dumps writes it."""
    if isinstance(ev.get("ball"), Ball):
        ev = dict(ev, ball=ev["ball"].to_json_dict())
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


def real_traces():
    """The trace lines of a run on each of SPECS."""
    traces = []
    for spec in SPECS:
        env = Environment(gen(spec, "random:5"), 0, 10_000)
        explore(env)
        traces.append(env.trace.to_jsonl().splitlines())
    return traces


TRACES = real_traces()
SENSE_LINES = [ln for lines in TRACES for ln in lines if '"kind":"sense"' in ln]


def comparable(trace):
    """Events with each ball as (size, flat); repr tells 1, 1.0 and True apart."""
    out = []
    for ev in trace.events:
        b = ev.get("ball")
        if isinstance(b, Ball):
            ev = dict(ev, ball=(b.size, b.flat))
        out.append(repr(sorted(ev.items())))
    return out


def read(text):
    try:
        return comparable(RunTrace.from_jsonl(text))
    except TraceFormatError as e:
        return f"TraceFormatError: {e}"


# A pattern that matches no line.
NEVER = re.compile(r"(?!)")


def plain_path():
    """Every line past the header takes the json.loads path: each template
    pattern of ``runtime`` is swapped for NEVER."""
    patterns = {name: NEVER for name, value in vars(runtime).items()
                if isinstance(value, re.Pattern)}
    assert len(patterns) == 4
    return mock.patch.multiple(runtime, **patterns)


def read_plain(text):
    """``read`` with every line taking the json.loads path."""
    with plain_path():
        return read(text)


# -- writer ------------------------------------------------------------------

values = st.one_of(
    st.integers(0, 30), st.integers(250, 260), st.integers(1000, 1100), st.integers(2**31, 2**40),
    st.integers(-5, -1),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(values, values, values, values), max_size=12),
    st.one_of(st.none(), values),
    st.one_of(st.integers(0, 40), st.integers(250, 260), st.integers(1020, 1030)),
)
def test_sense_line_is_the_json_encoding(edges, arrival, size):
    trace = RunTrace()
    b = Ball(size, edges)
    trace.log({"kind": "sense", "arrival": arrival, "ball": b})
    line = trace.to_jsonl()
    assert line == plain(trace.events[0]) + "\n"
    packed = b.to_json_dict()["edges"]
    assert (type(packed) is str) == all(0 <= x < 256 for x in b.flat)
    if type(packed) is str:
        assert list(b64decode(packed, validate=True)) == list(b.flat)
    else:
        assert packed is b.flat


def test_other_sense_events_are_written_the_plain_way():
    b = Ball(3, [(0, 1, 0, 0), (0, 2, 1, 0)])
    trace = RunTrace()
    trace.log({"kind": "sense", "arrival": True, "ball": b})
    trace.log({"kind": "sense", "arrival": 0, "ball": b, "note": "x"})
    trace.log({"kind": "sense", "arrival": 2**40, "ball": b})
    trace.log({"kind": "sense", "arrival": 0, "ball": Ball(3, [(0, 1, 0, 256), (0, 2, 1, 0)])})
    assert trace.to_jsonl() == "".join(plain(ev) + "\n" for ev in trace.events)


def test_real_traces_round_trip_byte_for_byte():
    for spec in SPECS:
        env = Environment(gen(spec, "random:2"), 0, 10_000)
        explore(env)
        text = env.trace.to_jsonl()
        assert text == "".join(plain(ev) + "\n" for ev in env.trace.events)
        assert RunTrace.from_jsonl(text).to_jsonl() == text


def test_a_ball_with_a_value_from_256_on_round_trips_as_a_list():
    # a center of degree 256 has a local id 256; a port of 256 is as large
    for size, edges in ((257, [(0, v, v - 1, 0) for v in range(1, 257)]),
                        (2, [(0, 1, 256, 0)])):
        trace = RunTrace()
        trace.log({"kind": "header", "version": TRACE_VERSION, "root": 0, "budget": 1})
        trace.log({"kind": "phase_start", "phase": 1})
        trace.log({"kind": "sense", "arrival": None, "ball": Ball(size, edges)})
        text = trace.to_jsonl()
        assert type(json.loads(text.splitlines()[2])["ball"]["edges"]) is list
        assert RunTrace.from_jsonl(text).to_jsonl() == text
        assert read(text) == read_plain(text)


# -- reader ------------------------------------------------------------------


def test_real_sense_lines_take_the_fast_path():
    for line in SENSE_LINES:
        m = runtime._SENSE_LINE.fullmatch(line)
        assert m and runtime._read_sense(m) is not None


def test_real_traces_take_the_general_path_only_at_the_header_and_the_end():
    # every sense, move, phase_start and phase_end line reads through its template
    for lines in TRACES:
        with mock.patch.object(runtime, "_read_event", wraps=runtime._read_event) as general:
            list(runtime.read_events(lines))
            assert [c.args[0] for c in general.call_args_list] == [1, len(lines)]
            general.reset_mock()
            with plain_path():
                list(runtime.read_events(lines))
        # read_plain's every line, the repeated move lines included
        assert [c.args[0] for c in general.call_args_list] == list(range(1, len(lines) + 1))


def _as_list(line):
    """The line with its ball's edges written as the flat list."""
    ev = json.loads(line)
    if type(ev["ball"]["edges"]) is str:
        ev["ball"]["edges"] = list(b64decode(ev["ball"]["edges"]))
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


def _tokens(line):
    """(start, end) of every number in the ball's edge list."""
    start = line.index('"edges":[') + len('"edges":[')
    end = line.index("]", start)
    return [(m.start() + start, m.end() + start) for m in re.finditer(r"[0-9]+", line[start:end])]


def _swap_token(line, rng, new):
    line = _as_list(line)
    spans = _tokens(line)
    if not spans:
        return line
    a, b = rng.choice(spans)
    return line[:a] + new(line[a:b]) + line[b:]


def _redump(line, rng, change):
    """The line with ``change`` applied to its event, the ball's edges as a
    flat list; packed again when every value is still below 256, so the fast
    reader sees the change."""
    ev = json.loads(_as_list(line))
    change(ev, rng)
    flat = ev["ball"]["edges"]
    if all(type(x) is int and 0 <= x < 256 for x in flat):
        ev["ball"]["edges"] = b64encode(bytes(flat)).decode()
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


def _reverse_edge(ev, rng):
    flat = ev["ball"]["edges"]
    if flat:
        i = 4 * rng.randrange(len(flat) // 4)
        flat[i:i + 4] = [flat[i + 1], flat[i], flat[i + 3], flat[i + 2]]


def _end_at_size(ev, rng):
    flat = ev["ball"]["edges"]
    if flat:
        flat[4 * rng.randrange(len(flat) // 4) + 1] = ev["ball"]["size"]


def _drop_value(ev, rng):
    flat = ev["ball"]["edges"]
    if flat:
        del flat[rng.randrange(len(flat))]


def _empty_edges(ev, rng):
    ev["ball"]["edges"] = []


def _center_edge_last(ev, rng):
    flat = ev["ball"]["edges"]
    if flat:
        flat[:] = flat[4:] + flat[:4]


def _repeat_center_edge(ev, rng):
    ev["ball"]["edges"] += ev["ball"]["edges"][:4]


def _repeat_edge(ev, rng):
    """One edge's ends replaced by another's: the count stays, a pair repeats."""
    flat = ev["ball"]["edges"]
    if len(flat) >= 8:
        i, j = rng.sample(range(len(flat) // 4), 2)
        flat[4 * i:4 * i + 2] = flat[4 * j:4 * j + 2]


def _arrival_large(ev, rng):
    ev["arrival"] = 2**40


def _size_large(ev, rng):
    ev["ball"]["size"] = 5000


def _edit_packed(line, rng, edit):
    """The line with its packed edges text replaced by ``edit(text, rng)``."""
    a = line.index('"edges":"') + len('"edges":"')
    b = line.index('"', a)
    return line[:a] + edit(line[a:b], rng) + line[b:]


_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _trailing_bits(text, rng):
    """Set unused low bits of the last base64 digit: the same bytes, but not
    the canonical text (a text without padding has no unused bits)."""
    pad = len(text) - len(text.rstrip("="))
    if not pad:
        return text
    last = len(text) - pad - 1
    digit = _ALPHABET.index(text[last]) | rng.randrange(1, 16 if pad == 2 else 4)
    return text[:last] + _ALPHABET[digit] + text[last + 1:]


def _escape(text, rng):
    """One character written as a JSON escape: ``\\/`` for a slash, else
    ``\\u00XX``; the JSON string is the same."""
    if not text:
        return text
    i = text.find("/")
    if i < 0 or rng.random() < 0.5:
        i = rng.randrange(len(text))
        return text[:i] + "\\u%04x" % ord(text[i]) + text[i + 1:]
    return text[:i] + "\\/" + text[i + 1:]


def _insert(piece):
    def edit(text, rng):
        i = rng.randrange(len(text) + 1)
        return text[:i] + piece + text[i:]
    return edit


def _insert_inside(piece):
    """``_insert`` with a character of the text on either side."""
    def edit(text, rng):
        i = rng.randrange(1, len(text)) if len(text) > 1 else len(text)
        return text[:i] + piece + text[i:]
    return edit


def _redump_unsorted(line):
    ev = json.loads(line)
    ev = {"kind": ev["kind"], "ball": {"size": ev["ball"]["size"], "edges": ev["ball"]["edges"]},
          "arrival": ev["arrival"]}
    return json.dumps(ev, separators=(",", ":"))


MUTATIONS = {
    "none": lambda line, rng: line,
    "space after a comma": lambda line, rng: line.replace(",", ", ", 1 + rng.randrange(3)),
    "space after a colon": lambda line, rng: line.replace(":", ": ", 1),
    "keys reordered": lambda line, rng: _redump_unsorted(line),
    "float": lambda line, rng: _swap_token(line, rng, lambda t: t + ".0"),
    "true": lambda line, rng: _swap_token(line, rng, lambda t: "true"),
    "negative": lambda line, rng: _swap_token(line, rng, lambda t: "-" + t),
    "leading zero": lambda line, rng: _swap_token(line, rng, lambda t: "0" + t),
    "2**40": lambda line, rng: _swap_token(line, rng, lambda t: str(2**40)),
    "empty item": lambda line, rng: _swap_token(line, rng, lambda t: ""),
    "reversed edge": lambda line, rng: _redump(line, rng, _reverse_edge),
    "end at size": lambda line, rng: _redump(line, rng, _end_at_size),
    "length not four per edge": lambda line, rng: _redump(line, rng, _drop_value),
    "empty edges": lambda line, rng: _redump(line, rng, _empty_edges),
    "center edge last": lambda line, rng: _redump(line, rng, _center_edge_last),
    "center edge repeated": lambda line, rng: _redump(line, rng, _repeat_center_edge),
    "arrival 2**40": lambda line, rng: _redump(line, rng, _arrival_large),
    "size 5000": lambda line, rng: _redump(line, rng, _size_large),
    "arrival -1": lambda line, rng: re.sub(r'"arrival":(null|[0-9]+)', '"arrival":-1', line),
    "arrival true": lambda line, rng: re.sub(r'"arrival":(null|[0-9]+)', '"arrival":true', line),
    "arrival leading zero": lambda line, rng: re.sub(r'"arrival":([0-9]+)', r'"arrival":0\1', line),
    "size leading zero": lambda line, rng: line.replace('"size":', '"size":0'),
    "list in place of packed": lambda line, rng: _as_list(line),
    "repeated edge": lambda line, rng: _redump(line, rng, _repeat_edge),
    "repeated edge as a list": lambda line, rng: _as_list(_redump(line, rng, _repeat_edge)),
    "padding dropped": lambda line, rng: _edit_packed(line, rng, lambda t, r: t.rstrip("=")),
    "padding added": lambda line, rng: _edit_packed(line, rng, lambda t, r: t + "="),
    "trailing bits": lambda line, rng: _edit_packed(line, rng, _trailing_bits),
    "escaped character": lambda line, rng: _edit_packed(line, rng, _escape),
    "escaped line break": lambda line, rng: _edit_packed(line, rng, _insert("\\n")),
    "character outside the alphabet": lambda line, rng: _edit_packed(
        line, rng, _insert(rng.choice(["!", "-", "_", " ", "\\u00e9", "*"]))),
    "base64 digit dropped": lambda line, rng: _edit_packed(
        line, rng, lambda t, r: t[:-1] if t else t),
    # The template takes the edges text up to the next quote, whatever it
    # holds: JSON escapes, a non-ASCII character, padding mid-text.
    "escaped backslash in the text": lambda line, rng: _edit_packed(line, rng, _insert("\\\\")),
    "escaped quote in the text": lambda line, rng: _edit_packed(line, rng, _insert('\\"')),
    "unicode escape in the text": lambda line, rng: _edit_packed(line, rng, _insert("\\u0041")),
    "an A written as a unicode escape": lambda line, rng: _edit_packed(
        line, rng, lambda t, r: t.replace("A", "\\u0041", 1)),
    "non-ASCII character in the text": lambda line, rng: _edit_packed(line, rng, _insert("é")),
    "= mid-text": lambda line, rng: _edit_packed(line, rng, _insert_inside("=")),
    "escaped line break mid-text": lambda line, rng: _edit_packed(line, rng, _insert_inside("\\n")),
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(range(len(SENSE_LINES))), st.sampled_from(sorted(MUTATIONS)),
                       st.integers(0, 2**32)), min_size=1, max_size=3),
)
def test_reader_agrees_with_the_json_path(picks):
    lines = list(HEAD)
    for index, name, seed in picks:
        lines.append(MUTATIONS[name](SENSE_LINES[index], random.Random(seed)))
    text = "\n".join(lines) + "\n"
    assert read(text) == read_plain(text)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_agrees_with_the_json_path(name):
    rng = random.Random(name)
    for line in SENSE_LINES[::7]:
        text = "\n".join(HEAD + [MUTATIONS[name](line, rng)]) + "\n"
        assert read(text) == read_plain(text)


@pytest.mark.parametrize("piece", ["\\\\", "\\u0041", "é", "=", "\\n", "!"])
def test_an_edges_text_outside_base64_fits_the_template_and_does_not_load(piece):
    # the text's alphabet is left to the canonical decode, which refuses it
    line = _edit_packed(SENSE_LINES[-1], random.Random(piece), _insert_inside(piece))
    m = runtime._SENSE_LINE.fullmatch(line)
    assert m and runtime._read_sense(m) is None
    text = "\n".join(HEAD + [line]) + "\n"
    assert read(text) == read_plain(text)
    assert "not the canonical base64 text" in read(text) or "not JSON" in read(text)


def test_a_sense_line_before_the_header_is_still_a_missing_header():
    text = SENSE_LINES[0] + "\n"
    assert read(text) == read_plain(text) == "TraceFormatError: missing header: first event is 'sense'"


def test_a_v3_trace_is_refused():
    v3 = ['{"budget":99,"kind":"header","root":0,"version":3}', '{"kind":"phase_start","phase":1}',
          '{"arrival":null,"ball":{"edges":[0,1,0,0],"size":2},"kind":"sense"}']
    with pytest.raises(TraceFormatError, match="version 3, expected 5: v3 trace, re-run explore"):
        RunTrace.from_jsonl("\n".join(v3) + "\n")


@pytest.mark.parametrize("text", [
    "AAEAAA",  # padding dropped
    "AAEAAA===",  # padding added
    "AAEAAB==",  # a non-zero unused bit
    "AAEA\nAA==",  # a line break
    "AAEA AA==",  # a space
    "AAEA-A==",  # an URL-safe digit
    "AAEA\u00e9A==",  # outside ASCII
])
def test_only_the_canonical_packed_text_loads(text):
    assert list(Ball.from_json_dict({"size": 2, "edges": "AAEAAA=="}).flat) == [0, 1, 0, 0]
    with pytest.raises(ValueError, match="not the canonical base64 text"):
        Ball.from_json_dict({"size": 2, "edges": text})


@pytest.mark.parametrize("flat", [
    [0, 1, 0, 0, 0, 2, 1, 0, 0, 3, 2, 0, 2, 3, 0, 0, 2, 3, 1, 1],  # a horizontal edge twice
    [0, 1, 0, 0, 0, 2, 1, 0, 0, 3, 2, 0, 2, 3, 0, 0, 3, 2, 1, 1],  # once turned round
    [0, 1, 0, 0, 0, 2, 1, 0, 0, 3, 2, 0, 2, 3, 0, 0, 0, 2, 1, 1],  # a center edge twice
])
def test_a_repeated_edge_is_rejected_packed_or_listed(flat):
    message = r"ball edges: edge \((2, 3|0, 2)\) is listed twice"
    for edges in (flat, b64encode(bytes(flat)).decode()):
        with pytest.raises(ValueError, match=message):
            Ball.from_json_dict({"size": 4, "edges": edges})


# -- move and phase lines ----------------------------------------------------

TEMPLATED = ("move", "phase_start", "phase_end")


def _number(line, rng, new):
    """The line with one of its numbers, ``t``, written as ``new(t)``."""
    spans = [m.span() for m in re.finditer(r"[0-9]+", line)]
    a, b = rng.choice(spans)
    return line[:a] + new(line[a:b]) + line[b:]


def _space(line, rng):
    spots = [i + 1 for i, c in enumerate(line) if c in ",:"]
    i = rng.choice(spots)
    return line[:i] + " " + line[i:]


def _reordered(value):
    if isinstance(value, dict):
        return {k: _reordered(value[k]) for k in reversed(value)}
    return value


def _extra_key(line, rng):
    ev = json.loads(line)
    (ev["delta"] if "delta" in ev and rng.random() < 0.5 else ev)["note"] = 1
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


LINE_MUTATIONS = {
    "none": lambda line, rng: line,
    "leading zero": lambda line, rng: _number(line, rng, lambda t: "0" + t),
    "2**40": lambda line, rng: _number(line, rng, lambda t: str(2**40)),
    "halved": lambda line, rng: _number(line, rng, lambda t: str(int(t) // 2)),
    "plus one": lambda line, rng: _number(line, rng, lambda t: str(int(t) + 1)),
    "5000 digits": lambda line, rng: _number(line, rng, lambda t: "9" * 5000),
    "negative": lambda line, rng: _number(line, rng, lambda t: "-" + t),
    "true": lambda line, rng: _number(line, rng, lambda t: "true"),
    "float": lambda line, rng: _number(line, rng, lambda t: t + ".0"),
    "space": _space,
    "keys reordered": lambda line, rng: json.dumps(_reordered(json.loads(line)),
                                                   separators=(",", ":")),
    "extra key": _extra_key,
}


# (trace, line number) of every line of each kind in TRACES
KIND_LINES = {kind: [(t, i) for t, lines in enumerate(TRACES) for i, ln in enumerate(lines)
                     if f'"kind":"{kind}"' in ln] for kind in TEMPLATED}


def mutated_trace(trace, at, name, rng):
    """A real trace's text with its line ``at`` changed by LINE_MUTATIONS[name]."""
    lines = list(TRACES[trace])
    lines[at] = LINE_MUTATIONS[name](lines[at], rng)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(LINE_MUTATIONS))
@pytest.mark.parametrize("kind", TEMPLATED)
def test_each_line_mutation_agrees_with_the_json_path(kind, name):
    rng = random.Random(f"{kind} {name}")
    for trace, at in rng.sample(KIND_LINES[kind], 12):
        text = mutated_trace(trace, at, name, rng)
        assert read(text) == read_plain(text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TEMPLATED), st.data(), st.sampled_from(sorted(LINE_MUTATIONS)),
       st.integers(0, 2**32))
def test_line_reader_agrees_with_the_json_path(kind, data, name, seed):
    trace, at = data.draw(st.sampled_from(KIND_LINES[kind]))
    text = mutated_trace(trace, at, name, random.Random(seed))
    assert read(text) == read_plain(text)


# -- the move memo and the in-phase fast path --------------------------------
#
# The reader keeps each move line's event for the rest of its chunk, and
# takes a move or sense event inside an open phase without the order check.
# A repeated line must still be refused wherever the order forbids it.


def _without_phase_start(lines, line, rng):
    """A later phase_start dropped and ``line`` put in its place: it comes
    between two phases."""
    at = rng.choice([i for i, ln in enumerate(lines) if '"kind":"phase_start"' in ln
                     and i > lines.index(line)])
    return lines[:at] + [line] + lines[at + 1:]


def _after_halt(lines, line, rng):
    return lines + [line]


def _after_budget_exhausted(lines, line, rng):
    """The run cut inside a later phase, which stays open, and ended there."""
    at = rng.choice([i for i, ln in enumerate(lines) if '"kind":"move"' in ln
                     and i > lines.index(line)])
    return lines[:at] + ['{"kind":"budget_exhausted"}', line]


def _before_the_header(lines, line, rng):
    return [line] + lines


ORDER_MUTATIONS = {
    "after a dropped phase_start": (_without_phase_start, "event outside a phase"),
    "after the halt": (_after_halt, "event after the terminal halt event"),
    "after budget_exhausted in an open phase": (
        _after_budget_exhausted, "event after the terminal budget_exhausted event"),
    "before the header": (_before_the_header, "missing header: first event is"),
}


@pytest.mark.parametrize("name", sorted(ORDER_MUTATIONS))
@pytest.mark.parametrize("kind", ["move", "sense"])
def test_a_repeated_line_out_of_order_is_refused_as_the_json_path_refuses_it(kind, name):
    mutate, message = ORDER_MUTATIONS[name]
    rng = random.Random(f"{kind} {name}")
    for lines in TRACES:
        # a line of the first phase that has a later phase to go wrong in
        candidates = [ln for ln in lines[:lines.index('{"kind":"phase_start","phase":2}')]
                      if f'"kind":"{kind}"' in ln] if len(lines) > 30 else []
        for line in rng.sample(candidates, min(3, len(candidates))):
            text = "\n".join(mutate(list(lines), line, rng)) + "\n"
            got = read(text)
            assert got == read_plain(text)
            assert got.startswith("TraceFormatError") and message in got


STAR = Environment(gen("star:3000", "random:5"), 0, 100_000)
explore(STAR)
STAR_TEXT = STAR.trace.to_jsonl()


def test_a_trace_with_more_move_lines_than_a_chunk_reads_as_the_json_path_reads_it():
    lines = STAR_TEXT.splitlines()
    moves = [ln for ln in lines if '"kind":"move"' in ln]
    assert len(set(moves)) > TRACE_CHUNK
    assert read(STAR_TEXT) == read_plain(STAR_TEXT)


def test_a_repeated_move_line_gives_a_fresh_event_each_time():
    # a consumer may change an event
    repeated = 0
    for lines in TRACES:
        moves = [ln for ln in lines if '"kind":"move"' in ln]
        repeated += len(moves) - len(set(moves))
        events = list(runtime.read_events(lines))
        assert len({id(ev) for ev in events}) == len(events)
    assert repeated


def test_the_move_memo_holds_at_most_one_chunk_of_lines():
    # read_events keeps the memo in its local ``moves``
    lines = STAR_TEXT.splitlines()
    reader = runtime.read_events(lines)
    largest = 0
    for _ev in reader:
        largest = max(largest, len(reader.gi_frame.f_locals.get("moves", ())))
    assert 0 < largest <= TRACE_CHUNK
    assert largest < len({ln for ln in lines if '"kind":"move"' in ln})


scalars = st.one_of(
    st.integers(0, 300), st.integers(2**40, 2**70), st.integers(-5, -1), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.text(max_size=3),
)
quads = st.lists(st.tuples(scalars, scalars, scalars, scalars), max_size=4)


def with_extra(event, extra):
    if extra is not None:
        event["note"] = extra
    return event


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(TEMPLATED), st.one_of(st.integers(0, 10**6), scalars),
    st.one_of(st.integers(0, 10**6), scalars), st.one_of(quads, scalars),
    st.one_of(st.none(), scalars), st.booleans(),
)
def test_templated_lines_are_the_json_encoding(kind, a, b, edges, extra, nested_extra):
    if kind == "move":
        ev = {"kind": "move", "out": a, "in": b}
    elif kind == "phase_start":
        ev = {"kind": "phase_start", "phase": a}
    else:
        delta = {"n": b, "edges": edges}
        ev = {"kind": "phase_end", "phase": a, "delta": with_extra(delta, extra if nested_extra else None)}
    ev = with_extra(ev, None if nested_extra else extra)
    line = runtime._event_line(ev)
    assert line == runtime._ENCODE(ev)
    ints = [ev[k] for k in ("out", "in") if kind == "move"] + [ev.get("phase", 0)]
    ints += [ev["delta"]["n"]] if kind == "phase_end" else []
    canonical = (all(type(x) is int for x in ints) and "note" not in ev
                 and "note" not in ev.get("delta", {}))
    assert (runtime._WRITERS[kind](ev) is not None) == canonical


def test_real_move_and_phase_lines_are_written_through_their_templates():
    for lines in TRACES:
        for ev in RunTrace.from_jsonl("\n".join(lines) + "\n").events:
            if ev["kind"] in TEMPLATED:
                assert runtime._WRITERS[ev["kind"]](ev) == runtime._ENCODE(ev)


# -- center-first balls ------------------------------------------------------


def is_center_first(b):
    us = list(b.flat[0::4])
    return us == sorted(us, key=bool)


graphs = st.sampled_from(["complete:5", "johnson:5,2", "chordal:n=15,rate=0.5,seed=4", "tree:n=9,seed=1"])


@settings(max_examples=60, deadline=None)
@given(graphs, st.data())
def test_any_edge_order_loads_center_first(spec, data):
    g = gen(spec, "random:7")
    v = data.draw(st.integers(0, g.n - 1))
    ids = data.draw(st.permutations(range(1, g.degree(v) + 1)))
    b = ball(g, v, list(ids))
    edges = data.draw(st.permutations(list(b.edges)))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    given_edges = [(w, u, pw, pu) if f else (u, w, pu, pw) for (u, w, pu, pw), f in zip(edges, flips)]
    flat = [x for e in given_edges for x in e]
    for other in (Ball(b.size, given_edges), Ball.from_json_dict({"size": b.size, "edges": flat})):
        assert is_center_first(other)
        assert sorted(other.edges) == sorted(b.edges)
        assert other.signature() == b.signature()
        for u in range(g.n):
            assert other.matches(g, u) == b.matches(g, u)


def test_builders_give_center_first_balls():
    for spec in SPECS:
        g = gen(spec, "random:3")
        for v in range(g.n):
            b = ball(g, v)
            assert is_center_first(b) and is_center_first(b.relabel([0] + list(range(g.degree(v), 0, -1))))


def test_a_second_center_edge_among_the_horizontal_ones_fails_matches():
    # triangle 0-1-2: two center edges, one horizontal edge
    g = PortNumberedGraph(3, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 1, 1)])
    good = [0, 1, 0, 0, 0, 2, 1, 0, 1, 2, 1, 1]
    assert Ball.from_json_dict({"size": 3, "edges": good}).matches(g, 0)
    # the horizontal edge replaced by a copy of a center edge, so the counts
    # agree: a loaded ball cannot hold it, a built one fails matches
    for copy in (good[0:4], good[4:8]):
        with pytest.raises(ValueError, match="listed twice"):
            Ball.from_json_dict({"size": 3, "edges": good[:8] + copy})
        assert not Ball._trusted(3, good[:8] + copy).matches(g, 0)
        assert not Ball(3, [tuple(copy), (0, 1, 0, 0), (0, 2, 1, 0)]).matches(g, 0)


# -- compact storage ---------------------------------------------------------


def is_compact(b):
    """Is ``b.flat`` bytes exactly when every value is below 256?"""
    return type(b.flat) is (bytes if all(x < 256 for x in b.flat) else list)


def wide_ports(g, du, dv):
    """``g`` with ``du`` added to the port at each edge's first end and ``dv``
    to the one at its second."""
    return PortNumberedGraph(g.n, [(u, v, pu + du, pv + dv) for (u, v, pu, pv) in g.edges])


# A star of 300 leaves: local ids and center ports from 256 on at the hub,
# and leaves on either side of port 256.
STAR = PortNumberedGraph(301, [(0, v, v - 1, 0) for v in range(1, 301)])


@pytest.mark.parametrize("g,forms", [
    (gen("johnson:5,2", "random:1"), {bytes}),
    (wide_ports(gen("johnson:5,2", "random:1"), 300, 7), {list}),
    (wide_ports(gen("chordal:n=20,rate=0.5,seed=4", "random:2"), 253, 0), {bytes, list}),
    (STAR, {bytes, list}),
], ids=["small", "wide", "mixed", "star"])
def test_every_builder_stores_the_compact_form(g, forms):
    rng = random.Random(1)
    seen = set()
    for v in range(g.n):
        ids = list(range(1, g.degree(v) + 1))
        rng.shuffle(ids)
        b = ball(g, v)
        built = [b, ball(g, v, ids), Ball(b.size, list(b.edges)), b.relabel([0] + ids),
                 Ball.from_json_dict(b.to_json_dict()),
                 Ball.from_json_dict({"size": b.size, "edges": list(b.flat)})]
        assert all(map(is_compact, built))
        # equal content, so the same form: BallEdges compares the stored objects
        assert all(other.edges == b.edges for other in (built[2], built[4], built[5]))
        assert built[1].edges == built[3].edges
        seen.add(type(b.flat))
    assert seen == forms


def test_the_ledger_and_the_trace_share_each_sensed_ball():
    recorded = []
    record_ball = explorer.record_ball

    def spy(ledger, n, sensed):
        record_ball(ledger, n, sensed)
        recorded.append(ledger.balls[n])

    env = Environment(gen("johnson:6,2", "random:3"), 0, 10_000)
    with mock.patch.object(explorer, "record_ball", spy):
        explore(env)
    senses = [ev["ball"] for ev in env.trace.events if ev["kind"] == "sense"]
    assert len(recorded) == len(senses) > 1
    assert all(a is b and type(a.flat) is bytes for a, b in zip(recorded, senses))


def test_a_dense_sense_ball_costs_a_byte_per_value():
    env = Environment(gen("complete:60"), 0, 10)
    b = env.sense().ball
    assert len(b.edges) == 59 + 59 * 58 // 2
    assert sys.getsizeof(b.flat) <= len(b.flat) + 64
