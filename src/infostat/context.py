"""Pseudo-sentence construction for mention classification.

Each mention is rendered as one token sequence with up to five parts:

    [STR+|STR-] [HEAD+|HEAD-]   overlap flags vs. preceding-sentence mentions
    <context tokens>            optional earlier sentences, then the local one
    [DELIM]                     separator (context-bearing modes only)
    <mention tokens>            the target span, repeated verbatim
    [IS]                        prediction token, always last

The classifier reads its decision from the hidden state at the [IS]
position. Segment tag 0 covers the overlap and context parts, tag 1 the
delimiter, mention, and [IS] parts.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus, CorpusError, Document, Mention, normalize_text
from .fileio import atomic_write

PAD, UNK, IS_TOKEN, DELIM = "[PAD]", "[UNK]", "[IS]", "[DELIM]"
STR_MATCH, STR_NO_MATCH = "[STR+]", "[STR-]"
HEAD_MATCH, HEAD_NO_MATCH = "[HEAD+]", "[HEAD-]"

RESERVED_TOKENS = (PAD, UNK, IS_TOKEN, DELIM,
                   STR_MATCH, STR_NO_MATCH, HEAD_MATCH, HEAD_NO_MATCH)
PAD_ID, UNK_ID = 0, 1

SEGMENT_CONTEXT = 0   # overlap flags and context tokens
SEGMENT_MENTION = 1   # delimiter, mention tokens, [IS]


class ContextKind(str, Enum):
    """The three system variants, valued by their CLI and checkpoint names."""

    MENTION_ONLY = "mention-only"
    LOCAL_CONTEXT = "context1"
    LOCAL_CONTEXT_OVERLAP = "context2"


@dataclass(frozen=True)
class ContextMode:
    """Which discourse context enters the pseudo sentence.

    `prev_sentence_window` prepends that many extra preceding sentences to
    the local context; it has no effect in mention-only mode.
    """

    kind: ContextKind
    prev_sentence_window: int = 0

    def __post_init__(self):
        if self.prev_sentence_window < 0:
            raise ValueError("prev_sentence_window must be >= 0")

    @property
    def has_context(self) -> bool:
        return self.kind is not ContextKind.MENTION_ONLY

    @property
    def has_overlap(self) -> bool:
        return self.kind is ContextKind.LOCAL_CONTEXT_OVERLAP


MENTION_ONLY = ContextMode(ContextKind.MENTION_ONLY)
LOCAL_CONTEXT = ContextMode(ContextKind.LOCAL_CONTEXT)
LOCAL_CONTEXT_OVERLAP = ContextMode(ContextKind.LOCAL_CONTEXT_OVERLAP)

MODE_CHOICES = sorted(kind.value for kind in ContextKind)


def mode_from_name(name: str, prev_sentence_window: int = 0) -> ContextMode:
    if name not in MODE_CHOICES:
        raise ValueError(f"unknown mode {name!r}; expected one of "
                         + ", ".join(MODE_CHOICES))
    return ContextMode(ContextKind(name), prev_sentence_window)


@dataclass(frozen=True)
class OverlapInfo:
    same_string: bool
    same_head: bool


def compute_overlap(mention: Mention, document: Document) -> OverlapInfo:
    """String/head match of the mention against preceding-sentence mentions.

    Comparisons are case-folded; the full span is joined by single spaces.
    Mentions in the same or later sentences never count. The document's
    earlier-mention sets (`Document.earlier`) are built at its first call.
    """
    if not (0 <= mention.sentence_index < len(document.sentences)):
        raise CorpusError(f"mention {mention.id!r} does not belong to document "
                          f"{document.id!r}")
    earlier = document.earlier
    s = mention.sentence_index
    return OverlapInfo(
        same_string=earlier.has_string(
            normalize_text(document.mention_tokens(mention)), s),
        same_head=earlier.has_head(document.head_token(mention).casefold(), s))


@dataclass(frozen=True)
class PseudoSentence:
    surface_tokens: tuple[str, ...]
    segment_tags: tuple[int, ...]
    is_index: int
    delimiter_index: int | None
    truncated: bool

    def __len__(self) -> int:
        return len(self.surface_tokens)


def _reserved_count(mode: ContextMode) -> int:
    count = 1  # [IS]
    if mode.has_context:
        count += 1  # [DELIM]
    if mode.has_overlap:
        count += 2  # [STR+/-], [HEAD+/-]
    return count


def build_pseudo_sentence(mention: Mention, document: Document,
                          mode: ContextMode, max_len: int | None
                          ) -> PseudoSentence:
    """Assemble the pseudo sentence, trimming context from the front to fit.

    The overlap flags, delimiter, and [IS] token are never removed. Mention
    tokens are dropped (from the span's end, with `truncated` set) only when
    the mention plus reserved tokens alone exceed `max_len`; `max_len` None
    trims nothing.
    """
    mention_tokens = list(document.mention_tokens(mention))
    reserved = _reserved_count(mode)
    if max_len is not None and max_len < reserved + 1:
        raise ValueError(f"max_len={max_len} cannot hold the reserved tokens "
                         f"plus one mention token (need {reserved + 1})")

    overlap_part: list[str] = []
    if mode.has_overlap:
        overlap = compute_overlap(mention, document)
        overlap_part = [STR_MATCH if overlap.same_string else STR_NO_MATCH,
                        HEAD_MATCH if overlap.same_head else HEAD_NO_MATCH]

    context_part: list[str] = []
    if mode.has_context:
        first = max(0, mention.sentence_index - mode.prev_sentence_window)
        for s in range(first, mention.sentence_index + 1):
            context_part.extend(document.sentences[s])

    truncated = False
    if max_len is not None:
        fixed = reserved + len(mention_tokens)
        if fixed > max_len:
            # Even the mention alone does not fit: drop its tail.
            mention_tokens = mention_tokens[:max_len - reserved]
            context_part = []
            truncated = True
        else:
            room = max_len - fixed
            if len(context_part) > room:
                context_part = context_part[len(context_part) - room:]

    tokens = list(overlap_part) + context_part
    segments = [SEGMENT_CONTEXT] * len(tokens)
    delimiter_index: int | None = None
    if mode.has_context:
        delimiter_index = len(tokens)
        tokens.append(DELIM)
        segments.append(SEGMENT_MENTION)
    tokens.extend(mention_tokens)
    segments.extend([SEGMENT_MENTION] * len(mention_tokens))
    tokens.append(IS_TOKEN)
    segments.append(SEGMENT_MENTION)

    return PseudoSentence(surface_tokens=tuple(tokens),
                          segment_tags=tuple(segments),
                          is_index=len(tokens) - 1,
                          delimiter_index=delimiter_index,
                          truncated=truncated)


@dataclass(frozen=True)
class Vocab:
    """Token/id bijection with eight fixed reserved entries at ids 0-7."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.tokens[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens "
                             + ", ".join(RESERVED_TOKENS))
        object.__setattr__(self, "_index",
                           {t: i for i, t in enumerate(self.tokens)})
        if len(self._index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is not None:
            return idx
        return self._index.get(token.casefold(), UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def sha256(self) -> str:
        digest = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return digest.hexdigest()

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write(("\n".join(self.tokens) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        try:
            return cls(tokens=tuple(lines))
        except ValueError as err:
            raise ValueError(f"vocabulary file {path}: {err}") from None


def iter_pseudo_sentences(corpus: Corpus, mode: ContextMode,
                          max_len: int | None = None):
    """Yield (document, mention, pseudo_sentence) over the whole corpus."""
    for document in corpus.documents:
        for mention in document.mentions:
            yield document, mention, build_pseudo_sentence(
                mention, document, mode, max_len)


def build_vocab(corpus: Corpus, mode: ContextMode, min_freq: int = 1) -> Vocab:
    """Case-folded surface vocabulary over untruncated pseudo sentences.

    Ids: the eight reserved tokens first, then content tokens with frequency
    >= min_freq by descending frequency, ties broken lexicographically.
    """
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    reserved = set(RESERVED_TOKENS)
    for _, _, ps in iter_pseudo_sentences(corpus, mode, max_len=None):
        counts.update(t.casefold() for t in ps.surface_tokens
                      if t not in reserved)
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    return Vocab(tokens=RESERVED_TOKENS + tuple(kept))


def encode(ps: PseudoSentence, vocab: Vocab,
           max_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer-encode a pseudo sentence, right-padded to max_len.

    Returns (ids, attention_mask, segment_ids) int64 arrays; unknown tokens
    map to [UNK], padding carries mask 0 and segment 0.
    """
    n = len(ps)
    if n > max_len:
        raise ValueError(f"pseudo sentence of {n} tokens exceeds max_len={max_len}")
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.int64)
    segments = np.zeros(max_len, dtype=np.int64)
    ids[:n] = [vocab.id_of(t) for t in ps.surface_tokens]
    mask[:n] = 1
    segments[:n] = ps.segment_tags
    return ids, mask, segments


def decode(ids: Sequence[int], vocab: Vocab) -> list[str]:
    """Invert encode() up to padding removal and OOV replacement."""
    return [vocab.token_of(int(i)) for i in ids if int(i) != PAD_ID]

