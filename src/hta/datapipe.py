"""Desk-scale clip curation: sentence segmentation, multi-scale clip
extraction, low-FPS caption frame scheduling, and pluggable summarization.

Transcripts arrive as JSON lines, either word-level
{"video_id": ..., "words": [{"w": ..., "t0": ..., "t1": ...}, ...]} or
pre-segmented {"video_id": ..., "sentences": [{"text", "t0", "t1"}, ...]}.
Output is one JSON line per ClipRecord.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass

log = logging.getLogger(__name__)

SCALE_NAMES = ("short", "medium", "long")
DEFAULT_SCALES = (13.0, 30.0, 60.0)

# Most caption frames per clip. A clip of the default scales needs about 10 at
# the default fps 0.1; the cap stops a claimed duration far beyond any clip's
# from writing unbounded output.
MAX_CAPTION_FRAMES = 1000

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

    @property
    def duration(self) -> float:
        return self.end - self.start


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


def segment(words: list[dict]) -> list[TranscriptSentence]:
    """Split word-level transcript into sentences at terminal punctuation.

    Each word is {"w": str, "t0": float, "t1": float} with monotone times.
    A trailing run without terminal punctuation becomes the last sentence.
    """
    _check_order(words, "word")
    sentences = []
    buf: list[dict] = []
    for w in words:
        buf.append(w)
        if w["w"].rstrip().endswith(TERMINALS):
            sentences.append(_flush(buf))
            buf = []
    if buf:
        sentences.append(_flush(buf))
    return sentences


def _check_order(items: list[dict], what: str) -> None:
    """Each item ends no earlier than it starts and starts no earlier than the
    item before it; overlapping that item is fine. Both transcript forms, words
    and pre-segmented sentences, are held to this rule."""
    prev_start = -math.inf
    for i, item in enumerate(items):
        if item["t1"] < item["t0"] or item["t0"] < prev_start:
            raise ValueError(f"non-monotone timestamps at {what} {i}")
        prev_start = item["t0"]


def _flush(buf: list[dict]) -> TranscriptSentence:
    return TranscriptSentence(" ".join(w["w"] for w in buf),
                              buf[0]["t0"], buf[-1]["t1"])


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


def _fallback_summary(texts: list[str]) -> str:
    words = " ".join(texts).split()
    return " ".join(words[:WORD_CAP])


def summarize(texts: list[str], spec: SummarizerSpec,
              post=None) -> str:
    """Summarize texts per the spec; external endpoint gets one retry, then
    the extractive fallback. `post` injects the HTTP transport for tests."""
    if not texts:
        raise ValueError("nothing to summarize")
    if not spec.endpoint:
        return _fallback_summary(texts)
    payload = {"prompt": SUMMARIZE_PROMPT, "input": "\n".join(texts)}
    post = post or _http_post
    last = None
    for attempt in range(2):
        try:
            return post(spec, payload)
        except TransportError as exc:
            last = exc
            log.warning("summarizer attempt %d failed: %s", attempt + 1, exc)
    log.warning("summarizer unreachable (%s); using extractive fallback", last)
    return _fallback_summary(texts)


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
            return json.loads(resp.read())["output"]
    # HTTP and URL errors and timeouts are OSErrors; bad JSON is a ValueError
    except (OSError, http.client.HTTPException, KeyError, TypeError,
            ValueError) as exc:
        raise TransportError(str(exc)) from exc


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


def stats(clips: list[ClipRecord]) -> dict[str, dict[str, float]]:
    """Per-scale table: count, mean duration, mean sentence count, mean word
    counts before/after summarization."""
    if not clips:
        raise ValueError("no clips")
    table = {}
    for name in SCALE_NAMES:
        group = [c for c in clips if c.scale == name]
        if not group:
            continue
        n = len(group)
        table[name] = {
            "count": n,
            "mean_duration": sum(c.duration for c in group) / n,
            "mean_sentences": sum(c.sentence_range[1] - c.sentence_range[0] + 1
                                  for c in group) / n,
            "mean_subtitle_words": sum(len(c.subtitle.split()) for c in group) / n,
            "mean_summarized_subtitle_words":
                sum(len(c.summarized_subtitle.split()) for c in group) / n,
            "mean_caption_words": sum(len(c.caption.split()) for c in group) / n,
            "mean_summarized_caption_words":
                sum(len(c.summarized_caption.split()) for c in group) / n,
        }
    return table


# -- JSONL plumbing -----------------------------------------------------------

def _checked_items(items, text_key: str, where: str) -> list[dict]:
    """items, if it is a list of {text_key: str, "t0": time, "t1": time}
    objects, where a time is a finite int or float (not a bool); anything else
    raises ValueError. Runs once per word, so the checks are inline."""
    if type(items) is not list:
        raise ValueError(f"{where}: expected a list, got {items!r:.80}")
    big = sys.float_info.max
    for i, item in enumerate(items):
        if type(item) is dict and type(item.get(text_key)) is str:
            t0, t1 = item.get("t0"), item.get("t1")
            if (type(t0) in (int, float) and type(t1) in (int, float)
                    and abs(t0) <= big and abs(t1) <= big):    # False for NaN
                continue
        raise ValueError(f"{where} item {i}: expected {{{text_key!r}: str, "
                         f"'t0': number, 't1': number}}, got {item!r:.80}")
    return items


def read_transcript_line(line: str) -> tuple[str, list[TranscriptSentence]]:
    """Parse one transcript line; a malformed line raises ValueError."""
    try:
        rec = json.loads(line)
    except RecursionError as exc:
        raise ValueError("transcript line is nested too deeply") from exc
    if type(rec) is not dict:
        raise ValueError(f"transcript line is not an object: {line:.80}")
    vid = rec.get("video_id", "")
    if type(vid) is not str:
        raise ValueError(f"video_id is not a string: {vid!r:.80}")
    if "sentences" in rec:
        items = _checked_items(rec["sentences"], "text", f"video {vid!r} sentences")
        _check_order(items, "sentence")
        sents = [TranscriptSentence(s["text"], s["t0"], s["t1"]) for s in items]
    elif "words" in rec:
        sents = segment(_checked_items(rec["words"], "w", f"video {vid!r} words"))
    else:
        raise ValueError("transcript line has neither 'sentences' nor 'words'")
    return vid, sents


def clip_to_json(clip: ClipRecord) -> str:
    return json.dumps(vars(clip))
