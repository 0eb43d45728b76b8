import dataclasses
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hta.cli import run

from hta.datapipe import (MAX_CAPTION_FRAMES, SUMMARIZE_PROMPT, WORD_CAP,
                          ClipRecord, SummarizerSpec, TranscriptSentence,
                          TransportError, _http_post, caption_frames,
                          clip_counts, clip_to_json, curate_file, extract_clips,
                          read_transcript_line, segment, stats, summarize,
                          summarize_clips)


def make_words(texts, dur=1.0):
    words, t = [], 0.0
    for w in texts:
        words.append({"w": w, "t0": t, "t1": t + dur})
        t += dur
    return words


def uniform_sentences(count, dur):
    return [TranscriptSentence(f"s{i}.", i * dur, (i + 1) * dur)
            for i in range(count)]


# -- segmentation ---------------------------------------------------------


def test_segment_basic():
    words = make_words(["Hello", "world.", "Bye!", "trailing", "words"])
    sents = segment(words)
    assert [s.text for s in sents] == ["Hello world.", "Bye!", "trailing words"]
    assert sents[0].start == 0.0 and sents[0].end == 2.0
    assert sents[2].start == 3.0 and sents[2].end == 5.0


def test_segment_question_mark_and_whitespace():
    sents = segment(make_words(["Why?", "Because. ", "so"]))
    assert [s.text for s in sents] == ["Why?", "Because. ", "so"]


def test_segment_empty_and_errors():
    assert segment([]) == []
    bad = [{"w": "a", "t0": 1.0, "t1": 0.5}]
    with pytest.raises(ValueError, match="monotone"):
        segment(bad)
    bad = [{"w": "a.", "t0": 0.0, "t1": 1.0}, {"w": "b.", "t0": 0.5, "t1": 2.0}]
    # overlap with the previous word's start is fine, regression before it isn't
    segment([{"w": "a.", "t0": 0.0, "t1": 1.0},
             {"w": "b.", "t0": 0.2, "t1": 2.0}])
    with pytest.raises(ValueError, match="monotone"):
        segment([{"w": "a.", "t0": 1.0, "t1": 2.0},
                 {"w": "b.", "t0": 0.5, "t1": 2.0}])
    with pytest.raises(ValueError, match="words item 0: expected"):
        segment([{"w": 5, "t0": 0.0, "t1": 1.0}])


def test_sentence_validation():
    with pytest.raises(ValueError):
        TranscriptSentence("x", 2.0, 1.0)


# -- clip extraction ---------------------------------------------------------


def test_extract_twelve_5s_sentences():
    sents = uniform_sentences(12, 5.0)
    clips = extract_clips("v", sents)
    short = [c for c in clips if c.scale == "short"]
    medium = [c for c in clips if c.scale == "medium"]
    long_ = [c for c in clips if c.scale == "long"]
    assert [c.duration for c in short] == [15.0] * 4
    assert [c.sentence_range for c in short] == [(0, 2), (3, 5), (6, 8), (9, 11)]
    assert [c.duration for c in medium] == [30.0, 30.0]
    assert [c.duration for c in long_] == [60.0]
    assert short[0].subtitle == "s0. s1. s2."


def test_extract_boundaries_on_sentences():
    rng = np.random.default_rng(0)
    t, sents = 0.0, []
    for i in range(50):
        d = rng.exponential(6.0)
        sents.append(TranscriptSentence(f"s{i}.", t, t + d))
        t += d
    ends = {(s.start, s.end) for s in sents}
    for c in extract_clips("v", sents):
        a, b = c.sentence_range
        assert c.start == sents[a].start and c.end == sents[b].end
        assert 0 <= a <= b < 50


def test_extract_tail_merge():
    # 13s target, sentences 10s,10s,2s: the 2s tail merges into the last clip
    sents = [TranscriptSentence("a.", 0, 10), TranscriptSentence("b.", 10, 20),
             TranscriptSentence("c.", 20, 22)]
    short = [c for c in extract_clips("v", sents, scales=(13.0,) * 3)
             if c.scale == "short"]
    assert short[-1].sentence_range[1] == 2
    assert not any(c.duration < 6.5 for c in short)


def test_extract_single_oversize_sentence():
    sents = [TranscriptSentence("a.", 0, 100)]
    clips = extract_clips("v", sents)
    assert all(c.sentence_range == (0, 0) and c.duration == 100.0 for c in clips)


def test_extract_mean_durations_on_exponential_corpus():
    rng = np.random.default_rng(42)
    t, sents = 0.0, []
    for i in range(1000):
        d = rng.exponential(6.0)
        sents.append(TranscriptSentence(f"s{i}.", t, t + d))
        t += d
    clips = extract_clips("v", sents)
    for name, target in (("short", 13.0), ("medium", 30.0), ("long", 60.0)):
        group = [c for c in clips if c.scale == name]
        mean = sum(c.duration for c in group) / len(group)
        assert abs(mean - target) <= 0.2 * target


def test_extract_empty_errors():
    with pytest.raises(ValueError, match="sentences"):
        extract_clips("v", [])
    sents = [TranscriptSentence("a.", 0.0, 10.0)]
    for scales in ((13.0, 30.0), (13.0, 30.0, 60.0, 90.0), (13.0, math.nan, 60.0)):
        with pytest.raises(ValueError, match="scales must be 3 finite targets"):
            extract_clips("v", sents, scales)


# -- caption frame schedule -----------------------------------------------


def test_caption_frames_counts():
    clip = ClipRecord("v", (0, 0), 2.0, 15.0, "short", "x.")
    frames = caption_frames(clip, fps=1.0)   # 13s -> 14 frames
    assert len(frames) == 14
    assert frames[0] == 2.0 and frames[-1] == 15.0
    assert len(caption_frames(clip, fps=0.5)) == 7
    tiny = ClipRecord("v", (0, 0), 0.0, 0.4, "short", "x.")
    assert caption_frames(tiny, fps=1.0) == [0.0]   # never zero frames
    for fps in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="fps"):
            caption_frames(clip, fps=fps)
    cap = ClipRecord("v", (0, 0), 0.0, MAX_CAPTION_FRAMES - 0.5, "long", "x.")
    assert len(caption_frames(cap, fps=1.0)) == MAX_CAPTION_FRAMES
    for end, fps in ((MAX_CAPTION_FRAMES, 1.0), (1e6, 0.1), (1e300, 0.1), (15.0, 1e308)):
        with pytest.raises(ValueError, match="caption frames"):
            caption_frames(ClipRecord("v", (0, 0), 0.0, end, "long", "x."), fps)


# -- summarization -----------------------------------------------------------


def test_fallback_caps_at_25_words():
    spec = SummarizerSpec()
    text = " ".join(f"w{i}" for i in range(40))
    out = summarize([text], spec)
    assert out.split() == text.split()[:25]
    short = summarize(["just three words"], spec)
    assert short == "just three words"


def test_summarize_empty_errors():
    with pytest.raises(ValueError, match="summarize"):
        summarize([], SummarizerSpec())


def test_empty_endpoint_is_extractive_fallback():
    def unused(spec, payload):
        raise AssertionError("no endpoint, so no transport call")

    text = " ".join(f"w{i}" for i in range(40))
    out = summarize([text], SummarizerSpec(), post=unused)
    assert out.split() == text.split()[:WORD_CAP]
    assert f"not exceeding {WORD_CAP} words" in SUMMARIZE_PROMPT


def test_external_summarizer_payload_and_output():
    seen = {}

    def fake_post(spec, payload):
        seen.update(payload)
        return "a short summary."

    spec = SummarizerSpec(endpoint="http://example/api")
    out = summarize(["first text", "second text"], spec, post=fake_post)
    assert out == "a short summary."
    assert seen["prompt"] == SUMMARIZE_PROMPT
    assert seen["input"] == "first text\nsecond text"


def test_external_summary_is_cut_to_word_cap():
    words = [f"w{i}" for i in range(40)]
    spec = SummarizerSpec(endpoint="http://example/api")
    out = summarize(["x"], spec, post=lambda spec, payload: " ".join(words))
    assert out == " ".join(words[:WORD_CAP])


def test_external_summarizer_retry_then_success():
    calls = []

    def flaky(spec, payload):
        calls.append(1)
        if len(calls) == 1:
            raise TransportError("boom")
        return "recovered"

    spec = SummarizerSpec(endpoint="http://example/api")
    assert summarize(["x"], spec, post=flaky) == "recovered"
    assert len(calls) == 2


def test_external_summarizer_falls_back_after_two_failures():
    def dead(spec, payload):
        raise TransportError("down")

    spec = SummarizerSpec(endpoint="http://example/api")
    text = " ".join(f"w{i}" for i in range(30))
    assert summarize([text], spec, post=dead) == " ".join(text.split()[:25])


def test_summarize_clips_short_scale_bypass():
    clips = [ClipRecord("v", (0, 0), 0, 10, "short", "short sub", caption="cap"),
             ClipRecord("v", (0, 1), 0, 40, "medium",
                        " ".join(f"w{i}" for i in range(30)), caption="a cap")]
    summarize_clips(clips, SummarizerSpec())
    assert clips[0].summarized_subtitle == "short sub"
    assert clips[0].summarized_caption == "cap"
    assert len(clips[1].summarized_subtitle.split()) == 25
    assert clips[1].summarized_caption == "a cap"


# -- stats / jsonl -----------------------------------------------------------


def test_stats_fixture():
    # the video's sentences are "one", "two", "three" and "four"
    clips = [ClipRecord("v", (0, 1), 0, 12, "short", "one two", caption="c"),
             ClipRecord("v", (2, 2), 12, 26, "short", "three", caption="c d"),
             ClipRecord("v", (0, 3), 0, 30, "medium", "one two three four")]
    summarize_clips(clips, SummarizerSpec())
    table = stats([clip_counts(c, [0, 1, 2, 3, 4]) for c in clips])
    assert set(table) == {"short", "medium"}
    s = table["short"]
    assert s["count"] == 2
    assert s["mean_duration"] == pytest.approx(13.0)
    assert s["mean_sentences"] == pytest.approx(1.5)
    assert s["mean_subtitle_words"] == pytest.approx(1.5)
    assert s["mean_caption_words"] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        stats([])


def test_read_transcript_line_both_forms():
    line = json.dumps({"video_id": "a", "sentences": [
        {"text": "Hi.", "t0": 0.0, "t1": 1.0}]})
    vid, sents = read_transcript_line(line)
    assert vid == "a" and sents[0].text == "Hi."
    line = json.dumps({"video_id": "b", "words": make_words(["Hi.", "Yo."])})
    vid, sents = read_transcript_line(line)
    assert vid == "b" and len(sents) == 2
    with pytest.raises(ValueError, match="neither"):
        read_transcript_line(json.dumps({"video_id": "c"}))


MALFORMED_LINES = {
    "list": "[1]",
    "string": '"x"',
    "string t0": '{"video_id": "a", "sentences": [{"text": "Hi.", "t0": "0", "t1": 1.0}]}',
    "int words": '{"video_id": "a", "words": [1, 2]}',
    "int sentences": '{"video_id": "a", "sentences": [1]}',
    "int w": '{"video_id": "a", "words": [{"w": 5, "t0": 0.0, "t1": 1.0}]}',
    "no t1": '{"video_id": "a", "words": [{"w": "Hi.", "t0": 0.0}]}',
    "NaN t0": '{"video_id": "a", "sentences": [{"text": "Hi.", "t0": NaN, "t1": 1.0}]}',
    "huge t1": '{"video_id": "a", "words": [{"w": "Hi.", "t0": 0, "t1": 1'
               + "0" * 400 + '}]}',
    "bool t0": '{"video_id": "a", "words": [{"w": "Hi.", "t0": true, "t1": 1.0}]}',
    "object sentences": '{"video_id": "a", "sentences": {"text": "Hi."}}',
    "int video_id": '{"video_id": 7, "sentences": []}',
    "no video_id": '{"sentences": [{"text": "Hi.", "t0": 0.0, "t1": 1.0}]}',
    "truncated": '{"video_id": "a", "words": [{"w": "Hi.", "t0": 0.0, "t1": 1.0}',
    "deep": "[" * 100_000 + "]" * 100_000,
    "decreasing t0": '{"video_id": "a", "sentences": [{"text": "b.", "t0": 100, "t1": 110}, '
                     '{"text": "a.", "t0": 0, "t1": 5}, {"text": "c.", "t0": 50, "t1": 52}]}',
    # finite times whose span t1 - t0 overflows to inf
    "span overflows": '{"video_id": "v", "sentences": [{"text": "a b.", "t0": -1.7e308, '
                      '"t1": 1.7e308}]}',
}


@pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_transcript_line_raises_value_error(tmp_path, capsys, line):
    with pytest.raises(ValueError):
        read_transcript_line(line)
    src = tmp_path / "in" / "t.jsonl"
    src.parent.mkdir()
    src.write_text(line + "\n")
    assert run(["curate", "--in", str(src.parent),
                "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {src} line 1: ")


@pytest.mark.parametrize("form, items, err", [
    ("words", [{"w": "a", "t0": 5, "t1": 6}, {"w": "b.", "t0": 1, "t1": 2},
               {"w": 7, "t0": 3, "t1": 4}], "non-monotone timestamps at word 1"),
    ("sentences", [{"text": "a.", "t0": 5, "t1": 6}, {"text": "b.", "t0": 1, "t1": 2},
                   {"text": "c.", "t0": 3}], "non-monotone timestamps at sentence 1"),
    ("sentences", [{"text": "a.", "t0": 1, "t1": 1}, {"text": "b.", "t0": 0, "t1": 2}],
     "video 'v' sentences item 0: sentence end 1 <= start 1"),
    ("words", [{"w": "a.", "t0": 0, "t1": 1}, {"w": "b", "t0": 2, "t1": 2},
               {"w": "c.", "t0": 2, "t1": 2}, {"w": 7, "t0": 1, "t1": 3}],
     "video 'v' words item 2: sentence end 2 <= start 2"),
    ("words", [{"w": "a.", "t0": 0, "t1": 1}, {"w": "b", "t0": 3, "t1": 3}],
     "video 'v' words item 1: sentence end 3 <= start 3"),
], ids=("words", "sentences", "empty sentence", "empty word sentence",
        "empty trailing words"))
def test_first_faulty_item_decides_the_error(form, items, err):
    with pytest.raises(ValueError) as exc:
        read_transcript_line(json.dumps({"video_id": "v", form: items}))
    assert str(exc.value) == err


SCHEMA_KEYS = st.sampled_from(["video_id", "words", "sentences", "w", "text",
                               "t0", "t1"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(SCHEMA_KEYS, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_arbitrary_json_raises_only_value_error(value):
    try:
        read_transcript_line(json.dumps(value))
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(0.1, 20.0)),
                min_size=1, max_size=12))
def test_starts_never_decrease_in_either_transcript_form(spans):
    """Words and pre-segmented sentences obey one rule: a transcript is
    accepted iff its starts never decrease. Every clip cut from an accepted
    one then lasts a positive time."""
    ordered = all(a[0] <= b[0] for a, b in zip(spans, spans[1:]))
    for form, text_key in (("words", "w"), ("sentences", "text")):
        items = [{text_key: f"x{i}.", "t0": t0, "t1": t0 + d}
                 for i, (t0, d) in enumerate(spans)]
        line = json.dumps({"video_id": "v", form: items})
        if not ordered:
            with pytest.raises(ValueError, match="non-monotone"):
                read_transcript_line(line)
            continue
        vid, sents = read_transcript_line(line)
        assert all(c.duration > 0 for c in extract_clips(vid, sents))


def test_clip_json_roundtrip():
    clip = ClipRecord("v", (1, 3), 5.0, 20.0, "short", "text.")
    text = clip_to_json(clip)
    assert text == json.dumps(dataclasses.asdict(clip))
    d = json.loads(text)
    assert d["video_id"] == "v"
    assert d["sentence_range"] == [1, 3]
    assert d["scale"] == "short"


# Any string, lone surrogates included, and the characters json escapes.
ANY_TEXT = st.text(st.characters(exclude_categories=())
                   | st.sampled_from('"\\/\x00\x1f\x7f\x85\u2028\ud800\udfff\U0001F600'))
TIMES = (st.integers(-10**12, 10**12) | st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from([-0.0, 5e-324, -5e-324, 1e12, -1e12]))
INDICES = st.integers(0, 2**63)


@settings(max_examples=500, deadline=None)
@given(st.builds(ClipRecord, ANY_TEXT, st.tuples(INDICES, INDICES), TIMES, TIMES,
                 ANY_TEXT, ANY_TEXT, ANY_TEXT, ANY_TEXT, ANY_TEXT))
def test_clip_to_json_writes_what_json_dumps_writes(clip):
    assert clip_to_json(clip) == json.dumps(vars(clip))


# Words and texts with empty strings, runs of whitespace and the non-ASCII
# whitespace str.split splits on.
SPLIT_TEXT = st.lists(st.sampled_from(["ab", "c.", "?", " ", "\t", "\n", "\u3000",
                                       "\x1c", "\x85", "\xa0", "\u2028"]),
                      max_size=6).map("".join)


@st.composite
def transcript_lines(draw):
    """1 to 3 transcript lines, each in either form."""
    lines = []
    for v in range(draw(st.integers(1, 3))):
        form, key = draw(st.sampled_from([("words", "w"), ("sentences", "text")]))
        t, items = 0.0, []
        for _ in range(draw(st.integers(1, 30))):
            d = draw(st.sampled_from([0.5, 1.0, 4.0]))
            items.append({key: draw(SPLIT_TEXT), "t0": t, "t1": t + d})
            t += d
        lines.append(json.dumps({"video_id": f"v{v}", form: items}))
    return lines


@settings(max_examples=200, deadline=None)
@given(transcript_lines())
def test_stats_rows_count_what_a_split_counts(tmp_path_factory, lines):
    # each row holds what splitting the written clip's strings counts
    path = tmp_path_factory.mktemp("counts") / "t.jsonl"
    path.write_text("\n".join(lines))
    text, rows = curate_file(path, (2.0, 5.0, 12.0), SummarizerSpec(), 0.5)
    clips = [json.loads(line) for line in text.splitlines()]
    assert rows == [(c["scale"], c["end"] - c["start"],
                     c["sentence_range"][1] - c["sentence_range"][0] + 1,
                     len(c["subtitle"].split()), len(c["summarized_subtitle"].split()),
                     len(c["caption"].split()), len(c["summarized_caption"].split()))
                    for c in clips]


# -- HTTP transport against a local server -------------------------------------


class _Summarizer(BaseHTTPRequestHandler):
    """POST /ok echoes a summary; /fail answers 500; /bad answers non-JSON;
    /empty answers JSON without "output"; /null and /number answer an "output"
    that is not a string. Requests are logged on the server."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        auth = self.headers.get("Authorization")
        self.server.seen.append((self.path, auth, body))
        status, reply = {"/ok": (200, json.dumps({"output": "short summary"})),
                         "/fail": (500, "server error"),
                         "/bad": (200, "{not json"),
                         "/empty": (200, "{}"),
                         "/null": (200, '{"output": null}'),
                         "/number": (200, '{"output": 5}')}[self.path]
        self.send_response(status)
        self.end_headers()
        self.wfile.write(reply.encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def summarizer():
    """(base URL, request log) of a summarizer on an ephemeral local port."""
    server = HTTPServer(("127.0.0.1", 0), _Summarizer)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", server.seen
    server.shutdown()
    server.server_close()
    thread.join()


def test_http_post_success_sends_json_and_bearer(summarizer):
    url, seen = summarizer
    spec = SummarizerSpec(endpoint=url + "/ok", api_key="k3y")
    payload = {"prompt": SUMMARIZE_PROMPT, "input": "a\nb"}
    assert _http_post(spec, payload) == "short summary"
    assert seen == [("/ok", "Bearer k3y", payload)]


@pytest.mark.parametrize("path", ["/fail", "/bad", "/empty", "/null", "/number"])
def test_http_post_failures_are_transport_errors(summarizer, path):
    url, seen = summarizer
    spec = SummarizerSpec(endpoint=url + path)
    with pytest.raises(TransportError):
        _http_post(spec, {"prompt": "p", "input": "x"})
    assert seen[0][1] is None     # no key, no header


def test_http_post_unreachable_and_bad_url_are_transport_errors():
    for url in ("http://127.0.0.1:1/", "not a url"):
        with pytest.raises(TransportError):
            _http_post(SummarizerSpec(endpoint=url), {})


def test_curate_with_non_string_summaries_falls_back(summarizer, tmp_path, capsys):
    url, seen = summarizer
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "v.jsonl").write_text(json.dumps(
        {"video_id": "v", "sentences": [{"text": "a b c.", "t0": 0.0, "t1": 5.0}]}))
    out = tmp_path / "out"
    assert run(["curate", "--in", str(tmp_path / "in"), "--out", str(out),
                "--summarizer", url + "/null"]) == 0
    clips = [json.loads(line) for line in (out / "v.jsonl").read_text().splitlines()]
    assert [c["summarized_subtitle"] for c in clips] == ["a b c."] * 3
    assert len(seen) == 4       # medium and long: one retry each, then the fallback
    assert json.loads((out / "stats.json").read_text())["long"]["count"] == 1
