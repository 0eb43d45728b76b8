"""Desk-scale clip curation: sentence segmentation, multi-scale clip
extraction, low-FPS caption frame scheduling, and pluggable summarization.

Transcripts arrive as JSON lines, either word-level
{"video_id": ..., "words": [{"w": ..., "t0": ..., "t1": ...}, ...]} or
pre-segmented {"video_id": ..., "sentences": [{"text", "t0", "t1"}, ...]}.
One pass over each list checks and segments it, and the first faulty item
decides the error. Output is one JSON line per ClipRecord.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _string

from .config import read_text

log = logging.getLogger(__name__)

SCALE_NAMES = ("short", "medium", "long")
DEFAULT_SCALES = (13.0, 30.0, 60.0)

# Most caption frames per clip. A clip of the default scales needs about 10 at
# the default fps 0.1; the cap stops a claimed duration far beyond any clip's
# from writing unbounded output.
MAX_CAPTION_FRAMES = 1000

# Largest |time| in seconds a transcript may give (about 32,000 years). No clip
# span, and no sum of spans in `stats` over fewer than 1e295 clips, overflows.
MAX_TIME = 1e12

WORD_CAP = 25
SUMMARIZE_PROMPT = ("Summarize the following sentences into a single sentence, "
                    f"not exceeding {WORD_CAP} words. Do not output any additional "
                    "text and use any external information.")


class TransportError(OSError):
    """External summarizer endpoint failure; an I/O error to the CLI."""


@dataclass(frozen=True)
class TranscriptSentence:
    text: str
    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"sentence end {self.end} <= start {self.start}")


@dataclass
class ClipRecord:
    video_id: str
    sentence_range: tuple[int, int]     # inclusive [a, b] indices
    start: float
    end: float
    scale: str
    subtitle: str
    caption: str = ""
    summarized_subtitle: str = ""
    summarized_caption: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SummarizerSpec:
    """An external LLM endpoint; an empty endpoint selects the extractive
    fallback."""
    endpoint: str = ""
    api_key: str = ""


TERMINALS = (".", "!", "?")


def segment(words: list[dict], where: str = "words") -> list[TranscriptSentence]:
    """Split a word-level transcript into sentences at terminal punctuation.

    Each word is {"w": str, "t0": time, "t1": time}, checked as `_sentences`
    documents; the first faulty word raises ValueError, and `where` names the
    list in that error. A trailing run without terminal punctuation becomes
    the last sentence.
    """
    return _sentences(words, "w", where)


def _sentences(items, text_key: str, where: str) -> list[TranscriptSentence]:
    """The one reader of both transcript forms, one pass over items.

    items must be a list of {text_key: str, "t0": time, "t1": time} objects,
    where a time is an int or float (not a bool) of at most MAX_TIME in
    magnitude. Each item ends no earlier than it starts and starts no earlier
    than the item before it; overlapping that item is fine. The first faulty
    item raises ValueError. A pre-segmented item ("text") is one sentence;
    words ("w") close one at terminal punctuation and at the last word. A
    sentence must end after it starts; the item that closes one that does not
    is the faulty item. Runs once per word, so the checks are inline.
    """
    if type(items) is not list:
        raise ValueError(f"{where}: expected a list, got {items!r:.80}")
    noun, each = ("sentence", True) if text_key == "text" else ("word", False)
    big, prev, buf, sentences = MAX_TIME, -math.inf, [], []
    last = len(items) - 1
    for i, item in enumerate(items):
        if not (type(item) is dict and type(text := item.get(text_key)) is str
                and type(t0 := item.get("t0")) in (int, float)
                and type(t1 := item.get("t1")) in (int, float)
                and -big <= t0 <= big and -big <= t1 <= big):   # False for NaN
            raise ValueError(f"{where} item {i}: expected {{{text_key!r}: str, "
                             f"'t0': number, 't1': number}} with |t| <= {big:g}, "
                             f"got {item!r:.80}")
        if t1 < t0 or t0 < prev:
            raise ValueError(f"non-monotone timestamps at {noun} {i}")
        if not buf:
            start = t0
        prev = t0
        buf.append(text)
        if each or i == last or text.rstrip().endswith(TERMINALS):
            try:
                sentences.append(TranscriptSentence(" ".join(buf), start, t1))
            except ValueError as exc:       # a sentence that lasts no time
                raise ValueError(f"{where} item {i}: {exc}") from exc
            buf = []
    return sentences


def check_scales(scales: tuple[float, ...]) -> None:
    """One finite target > 0 per scale name, else ValueError."""
    if len(scales) != len(SCALE_NAMES) or not all(
            0 < target < math.inf for target in scales):      # False for NaN
        raise ValueError(f"scales must be {len(SCALE_NAMES)} finite targets "
                         f"> 0, got {scales}")


def check_fps(fps: float) -> None:
    """A finite caption frame rate > 0, else ValueError."""
    if not 0.0 < fps < math.inf:                                # False for NaN
        raise ValueError(f"fps must be finite and positive, got {fps}")


def extract_clips(video_id: str, sentences: list[TranscriptSentence],
                  scales: tuple[float, ...] = DEFAULT_SCALES) -> list[ClipRecord]:
    """Three independent greedy passes, one per target duration.

    A pass accumulates consecutive sentences while the clip span is below the
    target; the sentence that crosses the target is included only if that
    leaves the span closer to the target than stopping short would. A trailing
    remainder shorter than half the target merges into the previous clip.
    Clip boundaries always coincide with sentence boundaries.
    """
    if not sentences:
        raise ValueError("no sentences to extract clips from")
    check_scales(scales)
    n = len(sentences)
    clips = []
    for name, target in zip(SCALE_NAMES, scales):
        groups: list[tuple[int, int]] = []
        a = 0
        while a < n:
            b = a
            while True:
                span = sentences[b].end - sentences[a].start
                if span >= target or b + 1 == n:
                    break
                nxt = sentences[b + 1].end - sentences[a].start
                if nxt >= target:
                    if nxt - target <= target - span:
                        b += 1
                    break
                b += 1
            groups.append((a, b))
            a = b + 1
        tail_span = sentences[groups[-1][1]].end - sentences[groups[-1][0]].start
        if len(groups) > 1 and tail_span < target / 2.0:
            last = groups.pop()
            groups[-1] = (groups[-1][0], last[1])
        for a, b in groups:
            clips.append(ClipRecord(
                video_id=video_id,
                sentence_range=(a, b),
                start=sentences[a].start,
                end=sentences[b].end,
                scale=name,
                subtitle=" ".join(s.text for s in sentences[a:b + 1]),
            ))
    return clips


def caption_frames(clip: ClipRecord, fps: float) -> list[float]:
    """Frame timestamps for captioning: clip start + k/fps, k = 0, 1, ...;
    count = max(1, floor(duration*fps) + 1). fps must be finite and positive,
    and a clip that needs more than MAX_CAPTION_FRAMES frames raises
    ValueError."""
    check_fps(fps)
    span = clip.duration * fps
    if not span < MAX_CAPTION_FRAMES:
        raise ValueError(f"clip {clip.video_id!r} {clip.start:g}-{clip.end:g}s needs "
                         f"more than {MAX_CAPTION_FRAMES} caption frames at fps {fps:g}")
    return [clip.start + k / fps for k in range(max(1, math.floor(span) + 1))]


def _first_words(text: str) -> str:
    """The first WORD_CAP words of text, joined by single spaces."""
    return " ".join(text.split(maxsplit=WORD_CAP)[:WORD_CAP])


def summarize(texts: list[str], spec: SummarizerSpec,
              post=None) -> str:
    """Summarize texts per the spec; external endpoint gets one retry, then
    the extractive fallback. Either answer is cut to its first WORD_CAP
    words. `post` injects the HTTP transport for tests."""
    if not texts:
        raise ValueError("nothing to summarize")
    if not spec.endpoint:
        return _first_words(" ".join(texts))
    payload = {"prompt": SUMMARIZE_PROMPT, "input": "\n".join(texts)}
    post = post or _http_post
    last = None
    for attempt in range(2):
        try:
            return _first_words(post(spec, payload))
        except TransportError as exc:
            last = exc
            log.warning("summarizer attempt %d failed: %s", attempt + 1, exc)
    log.warning("summarizer unreachable (%s); using extractive fallback", last)
    return _first_words(" ".join(texts))


def _http_post(spec: SummarizerSpec, payload: dict) -> str:
    import http.client     # only the external summarizer needs the HTTP stack
    import urllib.request
    headers = {"Content-Type": "application/json"}
    if spec.api_key:
        headers["Authorization"] = f"Bearer {spec.api_key}"
    try:
        req = urllib.request.Request(spec.endpoint, method="POST",
                                     data=json.dumps(payload).encode(),
                                     headers=headers)
        with urllib.request.urlopen(req, timeout=30) as resp:
            output = json.loads(resp.read())["output"]
    # HTTP and URL errors and timeouts are OSErrors; bad JSON is a ValueError
    except (OSError, http.client.HTTPException, KeyError, TypeError,
            ValueError) as exc:
        raise TransportError(str(exc)) from exc
    if type(output) is not str:
        raise TransportError(f"summarizer output is not a string: {output!r:.80}")
    return output


def summarize_clips(clips: list[ClipRecord], spec: SummarizerSpec,
                    post=None) -> None:
    """Fill the summarized fields in place. Short-scale subtitles and captions
    bypass summarization: their summarized fields equal the raw text."""
    for clip in clips:
        if clip.scale == "short":
            clip.summarized_subtitle = clip.subtitle
            clip.summarized_caption = clip.caption
            continue
        clip.summarized_subtitle = summarize([clip.subtitle], spec, post=post)
        if clip.caption:
            clip.summarized_caption = summarize([clip.caption], spec, post=post)


# What `stats` averages per scale, in clip_counts order after the scale.
MEANS = ("mean_duration", "mean_sentences", "mean_subtitle_words",
         "mean_summarized_subtitle_words", "mean_caption_words",
         "mean_summarized_caption_words")


def clip_counts(clip: ClipRecord, words: list[int]) -> tuple:
    """The numbers `stats` takes from a clip: its scale, then one per MEANS
    entry (duration, sentence count, and the word counts of the subtitle
    and caption before and after summarization). words[i] is the word count
    of the clip's video's first i sentences, so the subtitle, which joins
    whole sentences with spaces, is never split; a summary equal to its
    source takes the source's count."""
    a, b = clip.sentence_range
    subtitle = words[b + 1] - words[a]
    caption = len(clip.caption.split())
    return (clip.scale, clip.duration, b - a + 1, subtitle,
            subtitle if clip.summarized_subtitle == clip.subtitle
            else len(clip.summarized_subtitle.split()), caption,
            caption if clip.summarized_caption == clip.caption
            else len(clip.summarized_caption.split()))


def stats(counts: list[tuple]) -> dict[str, dict[str, float]]:
    """Per-scale table of clip_counts rows: the count, and each MEANS entry
    summed in row order and divided by the count."""
    if not counts:
        raise ValueError("no clips")
    table = {}
    for name in SCALE_NAMES:
        group = [row for row in counts if row[0] == name]
        if group:
            n = len(group)
            _, *columns = zip(*group)   # slicing off each row's scale made 22k tuples
            table[name] = {"count": n, **{key: sum(column) / n for key, column
                                          in zip(MEANS, columns)}}
    return table


# -- JSONL plumbing -----------------------------------------------------------

def read_transcript_line(line: str) -> tuple[str, list[TranscriptSentence]]:
    """Parse one transcript line; a malformed line raises ValueError."""
    try:
        rec = json.loads(line)
    except RecursionError as exc:
        raise ValueError("transcript line is nested too deeply") from exc
    if type(rec) is not dict:
        raise ValueError(f"transcript line is not an object: {line:.80}")
    if "video_id" not in rec:
        raise ValueError("transcript line has no video_id")
    vid = rec["video_id"]
    if type(vid) is not str:
        raise ValueError(f"video_id is not a string: {vid!r:.80}")
    if "sentences" in rec:
        sents = _sentences(rec["sentences"], "text", f"video {vid!r} sentences")
    elif "words" in rec:
        sents = segment(rec["words"], f"video {vid!r} words")
    else:
        raise ValueError("transcript line has neither 'sentences' nor 'words'")
    return vid, sents


def clip_to_json(clip: ClipRecord) -> str:
    """json.dumps(vars(clip)), byte for byte, from one template of
    ClipRecord's fields in order, with json's separators: strings go through
    the ASCII string encoder json uses under its default ensure_ascii=True,
    and numbers through repr, which is how json spells an int and a finite
    float (the reader bounds every time)."""
    a, b = clip.sentence_range
    return (f'{{"video_id": {_string(clip.video_id)}, '
            f'"sentence_range": [{a!r}, {b!r}], "start": {clip.start!r}, '
            f'"end": {clip.end!r}, "scale": {_string(clip.scale)}, '
            f'"subtitle": {_string(clip.subtitle)}, "caption": {_string(clip.caption)}, '
            f'"summarized_subtitle": {_string(clip.summarized_subtitle)}, '
            f'"summarized_caption": {_string(clip.summarized_caption)}}}')


def curate_file(path, scales: tuple[float, ...], spec: SummarizerSpec,
                caption_fps: float | None = None) -> tuple[str, list[tuple]]:
    """Curate one transcript file: each line's clips at these scales, with
    placeholder captions (the frame schedule) when caption_fps is given,
    then summarized. Returns the file's JSONL text, one line per clip and
    empty without clips, and clip_counts of each clip, in order. Each
    sentence is split into words once. A contract error raises ValueError
    naming the file and the line."""
    jsonl, counts = [], []
    # "\n" only: JSON strings may hold the other breaks splitlines() cuts at
    for n, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            vid, sentences = read_transcript_line(line)
            clips = extract_clips(vid, sentences, scales)
            if caption_fps is not None:
                for clip in clips:
                    clip.caption = " ".join([f"frame at {tstamp:.1f}s" for tstamp
                                             in caption_frames(clip, caption_fps)])
        except ValueError as exc:
            raise ValueError(f"{path} line {n}: {exc}") from exc
        summarize_clips(clips, spec)
        words = [0, *accumulate(len(s.text.split()) for s in sentences)]
        jsonl.extend(map(clip_to_json, clips))
        counts.extend(clip_counts(clip, words) for clip in clips)
    return "\n".join([*jsonl, ""]), counts
