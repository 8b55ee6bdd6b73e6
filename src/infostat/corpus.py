"""Document/mention data model, corpus JSON IO, and synthetic corpora.

In memory, a document holds each sentence as the tuple of its token
strings: a sentence's index is its position in `Document.sentences`, a
token's its position in the sentence. Mentions are sorted by (sentence,
start, end). `Document.earlier` holds the document's earlier-mention sets,
built at first use.

The exchange format, a UTF-8 JSON document, is unchanged; it still writes
each sentence's index:

    {"documents": [{"id": str,
                    "sentences": [{"index": int, "tokens": [str, ...]}, ...],
                    "mentions": [{"id": str, "sentence_index": int,
                                  "start": int, "end": int, "head_index": int,
                                  "label": str|null}, ...]}, ...]}

Spans are token offsets, start inclusive and end exclusive; `head_index` is
the absolute token offset of the phrase head inside the span. Every index
and offset is a JSON integer, and a sentence's "index" must equal its
position. Labels come from the closed eight-value information-status
scheme below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

from .fileio import atomic_write
from .rng import SplitMix64, derive_seed


class ISLabel(str, Enum):
    """The eight information-status classes, in canonical index order."""

    OLD = "old"
    MEDIATED_WORLD_KNOWLEDGE = "mediated/worldKnowledge"
    MEDIATED_SYNTACTIC = "mediated/syntactic"
    MEDIATED_AGGREGATE = "mediated/aggregate"
    MEDIATED_FUNCTION = "mediated/function"
    MEDIATED_COMPARATIVE = "mediated/comparative"
    MEDIATED_BRIDGING = "mediated/bridging"
    NEW = "new"


LABELS: tuple[ISLabel, ...] = tuple(ISLabel)
LABEL_INDEX: dict[ISLabel, int] = {label: i for i, label in enumerate(LABELS)}
N_CLASSES = len(LABELS)
_LABEL_BY_VALUE: dict[str, ISLabel] = {label.value: label for label in LABELS}


def parse_label(value: str) -> ISLabel:
    """Parse a label string; any value outside the closed set is an error."""
    try:
        return _LABEL_BY_VALUE[value]
    except (KeyError, TypeError):
        raise CorpusError(f"unknown label {value!r}; valid labels: "
                          + ", ".join(l.value for l in LABELS)) from None


class CorpusError(ValueError):
    """Malformed or invariant-violating corpus content."""


@dataclass(frozen=True)
class Mention:
    id: str
    sentence_index: int
    start: int
    end: int
    head_index: int
    label: ISLabel | None = None


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[tuple[str, ...], ...]
    mentions: tuple[Mention, ...]

    def mention_tokens(self, mention: Mention) -> tuple[str, ...]:
        return self.sentences[mention.sentence_index][mention.start:mention.end]

    def mention_text(self, mention: Mention) -> str:
        return " ".join(self.mention_tokens(mention))

    def head_token(self, mention: Mention) -> str:
        return self.sentences[mention.sentence_index][mention.head_index]

    @cached_property
    def earlier(self) -> EarlierMentions:
        """The earlier-mention sets, built once per document object; not a
        field, so eq, hash and `replace` never see it."""
        return EarlierMentions.of(self)


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    def total_mentions(self) -> int:
        return sum(len(d.mentions) for d in self.documents)


def normalize_text(tokens: tuple[str, ...] | list[str]) -> str:
    """Single-space joined, case-folded surface form used for comparisons."""
    return " ".join(tokens).casefold()


@dataclass(frozen=True)
class EarlierMentions:
    """Per-document prefix sets of case-folded mention strings and heads.

    Each map holds the first sentence a form occurs in, so a form belongs to
    the prefix set of sentence s (mentions in sentences before s) exactly
    when its entry is below s. One pass over the mentions builds the sets of
    every sentence.
    """

    strings: dict[str, int]
    heads: dict[str, int]

    @classmethod
    def of(cls, document: Document) -> "EarlierMentions":
        strings: dict[str, int] = {}
        heads: dict[str, int] = {}
        for mention in document.mentions:
            s = mention.sentence_index
            text = normalize_text(document.mention_tokens(mention))
            head = document.head_token(mention).casefold()
            if s < strings.get(text, s + 1):
                strings[text] = s
            if s < heads.get(head, s + 1):
                heads[head] = s
        return cls(strings=strings, heads=heads)

    def has_string(self, text: str, sentence_index: int) -> bool:
        return self.strings.get(text, sentence_index) < sentence_index

    def has_head(self, head: str, sentence_index: int) -> bool:
        return self.heads.get(head, sentence_index) < sentence_index


# ---------------------------------------------------------------------------
# Validation

def _validate_sentence(doc_id: str, position: int,
                       sentence: tuple[str, ...]) -> None:
    if not sentence:
        raise CorpusError(f"document {doc_id!r}: sentence {position} has no tokens")
    for i, token in enumerate(sentence):
        if not token or any(ch.isspace() for ch in token):
            raise CorpusError(f"document {doc_id!r}: sentence {position} token "
                              f"{i} is empty or contains whitespace")


def _validate_mention(doc_id: str, mention: Mention,
                      sentences: tuple[tuple[str, ...], ...]) -> None:
    where = f"document {doc_id!r}, mention {mention.id!r}"
    if not (0 <= mention.sentence_index < len(sentences)):
        raise CorpusError(f"{where}: sentence_index {mention.sentence_index} "
                          f"outside document ({len(sentences)} sentences)")
    n = len(sentences[mention.sentence_index])
    if not (0 <= mention.start < mention.end <= n):
        raise CorpusError(f"{where}: span [{mention.start}, {mention.end}) out of "
                          f"bounds for sentence of {n} tokens")
    if not (mention.start <= mention.head_index < mention.end):
        raise CorpusError(f"{where}: head outside span "
                          f"(head_index {mention.head_index}, span "
                          f"[{mention.start}, {mention.end}))")


def validate_document(document: Document) -> None:
    for position, sentence in enumerate(document.sentences):
        _validate_sentence(document.id, position, sentence)
    seen_ids: set[str] = set()
    for mention in document.mentions:
        if mention.id in seen_ids:
            raise CorpusError(f"document {document.id!r}: duplicate mention id "
                              f"{mention.id!r}")
        seen_ids.add(mention.id)
        _validate_mention(document.id, mention, document.sentences)


def validate_corpus(corpus: Corpus) -> None:
    seen: set[str] = set()
    for document in corpus.documents:
        if document.id in seen:
            raise CorpusError(f"duplicate document id {document.id!r}")
        seen.add(document.id)
        validate_document(document)


# ---------------------------------------------------------------------------
# JSON IO

def _json_int(where: str, data: dict, key: str) -> int:
    """`data[key]`, which must be a JSON integer: a float, string, boolean
    or null is refused, not converted."""
    value = data[key]
    if type(value) is not int:
        raise CorpusError(f"{where}: {key!r} must be an integer, "
                          f"not {json.dumps(value, ensure_ascii=False)}")
    return value


def _json_list(where: str, data: dict, key: str) -> list:
    """`data[key]`, or [] when the key is absent; a value other than a JSON
    list is refused."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise CorpusError(f"{where}: {key!r} must be a list")
    return value


def _sentence_from_dict(doc_id: str, position: int,
                        data: dict) -> tuple[str, ...]:
    if not isinstance(data, dict) or "tokens" not in data or "index" not in data:
        raise CorpusError(f"document {doc_id!r}: sentence {position} must be an "
                          "object with 'index' and 'tokens'")
    index = _json_int(f"document {doc_id!r}: sentence {position}", data, "index")
    if index != position:
        raise CorpusError(f"document {doc_id!r}: sentence at position {position} "
                          f"has index {index}; indices must be dense from 0")
    tokens = data["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusError(f"document {doc_id!r}: sentence {position} tokens must "
                          "be a list of strings")
    return tuple(tokens)


def _mention_from_dict(doc_id: str, data: dict) -> Mention:
    required = ("id", "sentence_index", "start", "end")
    if not isinstance(data, dict) or any(key not in data for key in required):
        raise CorpusError(f"document {doc_id!r}: mention object must carry "
                          f"{', '.join(required)}")
    mention_id = str(data["id"])
    where = f"document {doc_id!r}, mention {mention_id!r}"
    if data.get("head_index") is None:
        raise CorpusError(f"{where}: head_index missing")
    raw_label = data.get("label")
    label: ISLabel | None = None
    if raw_label is not None:
        try:
            label = parse_label(str(raw_label))
        except CorpusError as err:
            raise CorpusError(f"{where}: {err}") from None
    sentence_index, start, end, head_index = (
        _json_int(where, data, key)
        for key in ("sentence_index", "start", "end", "head_index"))
    return Mention(mention_id, sentence_index, start, end, head_index, label)


def corpus_from_dict(data: dict) -> Corpus:
    if not isinstance(data, dict) or not isinstance(data.get("documents"), list):
        raise CorpusError("corpus JSON must be an object with a 'documents' list")
    documents = []
    for doc_data in data["documents"]:
        if not isinstance(doc_data, dict) or "id" not in doc_data:
            raise CorpusError("document object must carry an 'id'")
        doc_id = str(doc_data["id"])
        where = f"document {doc_id!r}"
        sentences = tuple(_sentence_from_dict(doc_id, i, s) for i, s in
                          enumerate(_json_list(where, doc_data, "sentences")))
        mentions = tuple(_mention_from_dict(doc_id, m)
                         for m in _json_list(where, doc_data, "mentions"))
        mentions = tuple(sorted(mentions,
                                key=lambda m: (m.sentence_index, m.start, m.end)))
        documents.append(Document(id=doc_id, sentences=sentences, mentions=mentions))
    corpus = Corpus(documents=tuple(documents))
    validate_corpus(corpus)
    return corpus


def corpus_to_dict(corpus: Corpus) -> dict:
    return {"documents": [
        {"id": d.id,
         "sentences": [{"index": i, "tokens": list(s)}
                       for i, s in enumerate(d.sentences)],
         "mentions": [{"id": m.id, "sentence_index": m.sentence_index,
                       "start": m.start, "end": m.end,
                       "head_index": m.head_index,
                       "label": m.label.value if m.label is not None else None}
                      for m in d.mentions]}
        for d in corpus.documents]}


def load_corpus(path: str | Path) -> Corpus:
    """Load and fully validate a corpus JSON file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CorpusError(f"cannot read corpus file {path}: {err}") from err
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise CorpusError(f"malformed JSON in {path}: {err}") from None
    return corpus_from_dict(data)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    text = json.dumps(corpus_to_dict(corpus), ensure_ascii=False, indent=1)
    with atomic_write(path) as fh:
        fh.write((text + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Label statistics

@dataclass(frozen=True)
class LabelCount:
    count: int
    fraction: float


def corpus_stats(corpus: Corpus) -> dict[ISLabel, LabelCount]:
    """Per-label mention counts and fractions; requires a fully labeled corpus."""
    counts = {label: 0 for label in LABELS}
    total = 0
    for document in corpus.documents:
        for mention in document.mentions:
            if mention.label is None:
                raise CorpusError(f"document {document.id!r}, mention "
                                  f"{mention.id!r}: unlabeled mention in stats")
            counts[mention.label] += 1
            total += 1
    return {label: LabelCount(c, c / total if total else 0.0)
            for label, c in counts.items()}


# ---------------------------------------------------------------------------
# Synthetic corpora
#
# Labels follow fixed surface rules applied to the finished text, first match
# wins:
#   (a) the mention's case-folded full string equals that of a mention in an
#       earlier sentence of the same document        -> old
#   (b) first token in {his, her, their}             -> mediated/syntactic
#   (c) any token equals "and"                       -> mediated/aggregate
#   (d) first token in {another, further}            -> mediated/comparative
#   (e) otherwise                                    -> new
#
# Rule (a) is decidable only from previous context; (b)-(d) from the mention
# alone. Text construction plants three repetition patterns so the rules
# separate the context modes: one-off mentions, recurring-topic strings that
# are introduced as a same-sentence double and then repeated in later
# sentences, and uniform re-mentions of arbitrary earlier phrases.

POSSESSIVES = ("his", "her", "their")
COMPARATIVE_STARTS = ("another", "further")
COORDINATOR = "and"

_DETERMINERS = ("the", "a")
_ADJECTIVES = ("big", "small", "quiet", "rural", "grim", "late", "dusty", "brisk")
_NOUNS = ("market", "law", "reason", "price", "farmer", "treaty", "factory",
          "reader", "report", "senator", "village", "harvest", "budget",
          "river", "election", "bridge", "paper", "court", "poll", "café")
_TOPIC_NOUNS = ("strike", "merger", "drought", "embargo", "lawsuit",
                "寒波", "recall", "blackout")
_PROPER_NOUNS = ("Poland", "Warsaw", "Zurich", "Havel", "Österreich")
_RELATION_NOUNS = ("father", "mother", "son", "sister", "partner")
_VERBS = ("rose", "fell", "said", "pitched", "noted", "gained", "stalled",
          "paused", "returned", "slipped")
_FILLERS = ("sharply", "again", "quietly", "meanwhile", "still", "then",
            "so", "today")

# Each recurring topic is introduced as a same-sentence double (both new)
# and re-mentioned this many times in later sentences (old). With two
# repeats the four occurrences split 2:2, so the surface form alone cannot
# settle old vs new; seeing the double in the local sentence can.
_TOPIC_REPEATS = 2


def _fresh_phrase(rng: SplitMix64, used: set[str]) -> tuple[str, ...]:
    for _ in range(8):
        kind = rng.randint(4)
        if kind == 0:
            phrase = (rng.choice(_PROPER_NOUNS),)
        elif kind == 1:
            phrase = (rng.choice(_DETERMINERS), rng.choice(_ADJECTIVES),
                      rng.choice(_NOUNS))
        else:
            phrase = (rng.choice(_DETERMINERS), rng.choice(_NOUNS))
        if normalize_text(phrase) not in used:
            return phrase
    return phrase


def _make_phrase(rng: SplitMix64, kind: str, prior: list[tuple[str, ...]],
                 used: set[str],
                 unrepeated: list[tuple[str, tuple[str, ...]]],
                 ) -> tuple[str, ...]:
    if kind == "repeat" and prior:
        # Prefer phrases not re-mentioned yet, so that across the corpus a
        # repeated surface form is about as often first (new) as second (old)
        # and the mention string alone cannot settle the old/new question.
        if unrepeated:
            return unrepeated[rng.randint(len(unrepeated))][1]
        return prior[rng.randint(len(prior))]
    if kind == "possessive":
        return (rng.choice(POSSESSIVES), rng.choice(_RELATION_NOUNS))
    if kind == "aggregate":
        return (rng.choice(_NOUNS), COORDINATOR, rng.choice(_NOUNS))
    if kind == "comparative":
        return (rng.choice(COMPARATIVE_STARTS), rng.choice(_NOUNS))
    return _fresh_phrase(rng, used)


_SLOT_KINDS = ("repeat", "possessive", "aggregate", "comparative", "fresh")
_SLOT_WEIGHTS = (0.38, 0.10, 0.08, 0.07, 0.37)


def _plan_topics(rng: SplitMix64, sentences_per_doc: int,
                 mentions_per_sentence: int) -> list[dict]:
    """Schedule recurring-topic strings: a same-sentence double, then repeats."""
    if sentences_per_doc < 3 or mentions_per_sentence < 2:
        return []
    n_topics = 2 if sentences_per_doc >= 6 else 1
    nouns = list(_TOPIC_NOUNS)
    rng.shuffle(nouns)
    plans = []
    for t in range(n_topics):
        intro = rng.randint(max(1, sentences_per_doc - _TOPIC_REPEATS - 1))
        later = list(range(intro + 1, sentences_per_doc))
        rng.shuffle(later)
        plans.append({"phrase": (rng.choice(_DETERMINERS), nouns[t]),
                      "intro": intro,
                      "repeats": sorted(later[:_TOPIC_REPEATS])})
    return plans


def label_mentions_by_rules(document: Document) -> Document:
    """Assign labels (a)-(e) by scanning the document's finished text."""
    earlier = document.earlier
    labeled = []
    for mention in document.mentions:
        tokens = document.mention_tokens(mention)
        first = tokens[0].casefold()
        if earlier.has_string(normalize_text(tokens), mention.sentence_index):
            label = ISLabel.OLD
        elif first in POSSESSIVES:
            label = ISLabel.MEDIATED_SYNTACTIC
        elif any(t.casefold() == COORDINATOR for t in tokens):
            label = ISLabel.MEDIATED_AGGREGATE
        elif first in COMPARATIVE_STARTS:
            label = ISLabel.MEDIATED_COMPARATIVE
        else:
            label = ISLabel.NEW
        labeled.append(replace(mention, label=label))
    return replace(document, mentions=tuple(labeled))


def _generate_document(doc_index: int, seed: int, sentences_per_doc: int,
                       mentions_per_sentence: int) -> Document:
    rng = SplitMix64(derive_seed(seed, "doc", doc_index))
    topics = _plan_topics(rng, sentences_per_doc, mentions_per_sentence)

    prior: list[tuple[str, ...]] = []  # mention phrases from earlier sentences
    used: set[str] = set()
    repeated: set[str] = set()  # strings already re-mentioned in this document
    # (string, phrase) of each entry of `prior` whose string is not in
    # `repeated`, in `prior` order: kept as they change, not rebuilt per slot.
    unrepeated: list[tuple[str, tuple[str, ...]]] = []
    sentences: list[tuple[str, ...]] = []
    mentions: list[Mention] = []
    mention_counter = 0

    for s in range(sentences_per_doc):
        phrases: list[tuple[str, ...]] = []
        slots = mentions_per_sentence
        for topic in topics:
            if topic["intro"] == s and slots >= 2:
                phrases += [topic["phrase"], topic["phrase"]]
                slots -= 2
            elif s in topic["repeats"] and slots >= 1:
                phrases.append(topic["phrase"])
                slots -= 1
        for _ in range(slots):
            kind = rng.weighted_choice(_SLOT_KINDS, _SLOT_WEIGHTS)
            phrase = _make_phrase(rng, kind, prior, used, unrepeated)
            if kind == "repeat":
                text = normalize_text(phrase)
                if text not in repeated:
                    repeated.add(text)
                    unrepeated = [e for e in unrepeated if e[0] != text]
            phrases.append(phrase)

        tokens: list[str] = []
        spans: list[tuple[int, int]] = []
        for i, phrase in enumerate(phrases):
            if i > 0:
                tokens.append(rng.choice(_VERBS) if i == 1 else rng.choice(_FILLERS))
            spans.append((len(tokens), len(tokens) + len(phrase)))
            tokens.extend(phrase)
        tokens.append(".")

        sentences.append(tuple(tokens))
        for start, end in sorted(spans):
            mentions.append(Mention(id=f"synth-{doc_index:03d}.m{mention_counter}",
                                    sentence_index=s, start=start, end=end,
                                    head_index=end - 1))
            mention_counter += 1
        for phrase in phrases:
            text = normalize_text(phrase)
            used.add(text)
            if text not in repeated:
                unrepeated.append((text, phrase))
        prior += phrases

    document = Document(id=f"synth-{doc_index:03d}",
                        sentences=tuple(sentences), mentions=tuple(mentions))
    return label_mentions_by_rules(document)


def generate_synthetic(seed: int, n_docs: int, sentences_per_doc: int,
                       mentions_per_sentence: int) -> Corpus:
    """Deterministic synthetic corpus; a pure function of its arguments.

    Every sentence carries exactly `mentions_per_sentence` mentions with the
    head on the last span token; labels come from the surface rules above.
    """
    if min(n_docs, sentences_per_doc, mentions_per_sentence) < 1:
        raise ValueError("n_docs, sentences_per_doc and mentions_per_sentence "
                         "must all be at least 1")
    documents = tuple(_generate_document(d, seed, sentences_per_doc,
                                         mentions_per_sentence)
                      for d in range(n_docs))
    corpus = Corpus(documents=documents)
    validate_corpus(corpus)
    return corpus
