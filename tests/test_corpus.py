import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostat import corpus as cp

MINIMAL = {
    "documents": [{
        "id": "d1",
        "sentences": [{"index": 0, "tokens": ["Friends", "pitched", "in", "."]}],
        "mentions": [{"id": "m1", "sentence_index": 0, "start": 0, "end": 1,
                      "head_index": 0, "label": "new"}],
    }]
}


def _mention(d):
    return d["documents"][0]["mentions"][0]


def write_corpus(tmp_path, payload, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_minimal_corpus(tmp_path):
    loaded = cp.load_corpus(write_corpus(tmp_path, MINIMAL))
    assert len(loaded.documents) == 1
    doc = loaded.documents[0]
    assert len(doc.mentions) == 1
    assert doc.mention_text(doc.mentions[0]) == "Friends"
    assert doc.mentions[0].label is cp.ISLabel.NEW


def test_head_outside_span_is_rejected(tmp_path):
    bad = json.loads(json.dumps(MINIMAL))
    bad["documents"][0]["mentions"][0]["head_index"] = 3
    with pytest.raises(cp.CorpusError, match="head outside span"):
        cp.load_corpus(write_corpus(tmp_path, bad))


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["documents"][0]["mentions"][0].update(end=9), "out of bounds"),
    (lambda d: d["documents"][0]["mentions"][0].update(label="fresh"),
     "unknown label"),
    (lambda d: d["documents"][0]["mentions"].append(
        dict(d["documents"][0]["mentions"][0])), "duplicate mention id"),
    (lambda d: d["documents"].append(dict(d["documents"][0])),
     "duplicate document id"),
    (lambda d: d["documents"][0]["sentences"][0].update(index=4), "dense"),
    (lambda d: d["documents"][0]["sentences"][0]["tokens"].append("two words"),
     "whitespace"),
    (lambda d: d["documents"][0]["mentions"][0].update(sentence_index=2),
     "outside document"),
    # Wrong JSON types: labelled errors, never a TypeError or a conversion.
    (lambda d: d.update(documents={"d1": {}}), "a 'documents' list"),
    (lambda d: d["documents"][0].update(sentences="Friends pitched in ."),
     "document 'd1': 'sentences' must be a list"),
    (lambda d: d["documents"][0].update(mentions=_mention(d)),
     "document 'd1': 'mentions' must be a list"),
    (lambda d: d["documents"][0]["sentences"][0].update(index=None),
     "sentence 0: 'index' must be an integer, not null"),
    (lambda d: d["documents"][0]["sentences"][0].update(index="0"),
     "sentence 0: 'index' must be an integer, not \"0\""),
    (lambda d: _mention(d).update(start=None),
     "mention 'm1': 'start' must be an integer, not null"),
    (lambda d: _mention(d).update(end=1.7),
     r"mention 'm1': 'end' must be an integer, not 1\.7"),
    (lambda d: _mention(d).update(sentence_index="0"),
     "mention 'm1': 'sentence_index' must be an integer, not \"0\""),
    (lambda d: _mention(d).update(head_index=True),
     "mention 'm1': 'head_index' must be an integer, not true"),
    # Ids are JSON strings, never converted with str().
    (lambda d: d["documents"][0].update(id=None),
     "document at position 0: 'id' must be a string, not null"),
    (lambda d: d["documents"][0].update(id=1.5),
     r"document at position 0: 'id' must be a string, not 1\.5"),
    (lambda d: d["documents"][0].update(id=True),
     "document at position 0: 'id' must be a string, not true"),
    (lambda d: _mention(d).update(id=None),
     "document 'd1': mention at position 0: 'id' must be a string, not null"),
    (lambda d: _mention(d).update(id=1.5),
     r"document 'd1': mention at position 0: 'id' must be a string, not 1\.5"),
    (lambda d: _mention(d).update(id=True),
     "document 'd1': mention at position 0: 'id' must be a string, not true"),
    (lambda d: _mention(d).update(label=True),
     "^document 'd1', mention 'm1': 'label' must be a string, not true$"),
    (lambda d: _mention(d).update(label=["new"]),
     r"^document 'd1', mention 'm1': 'label' must be a string, "
     r"not \[\"new\"\]$"),
])
def test_invalid_corpora_are_rejected(tmp_path, mutate, message):
    bad = json.loads(json.dumps(MINIMAL))
    mutate(bad)
    with pytest.raises(cp.CorpusError, match=message):
        cp.load_corpus(write_corpus(tmp_path, bad))


@pytest.mark.parametrize("ids, position", [((None, "None"), 0),
                                           (("None", None), 1)])
def test_null_id_is_no_duplicate_of_none(tmp_path, ids, position):
    # str(None) is "None", so a converted null id would clash with a real
    # "None" and be reported as a duplicate the file does not contain.
    bad = json.loads(json.dumps(MINIMAL))
    first = bad["documents"][0]
    bad["documents"] = [dict(first, id=doc_id) for doc_id in ids]
    with pytest.raises(cp.CorpusError) as err:
        cp.load_corpus(write_corpus(tmp_path, bad))
    assert str(err.value) == (f"document at position {position}: 'id' must "
                              "be a string, not null")


def test_malformed_json_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(cp.CorpusError, match="malformed JSON"):
        cp.load_corpus(path)


def test_missing_head_is_an_error(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    del payload["documents"][0]["mentions"][0]["head_index"]
    with pytest.raises(cp.CorpusError, match="mention 'm1': head_index missing$"):
        cp.load_corpus(write_corpus(tmp_path, payload))


def test_mentions_are_sorted_on_load(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["documents"][0]["mentions"] = [
        {"id": "b", "sentence_index": 0, "start": 2, "end": 3,
         "head_index": 2, "label": "new"},
        {"id": "a", "sentence_index": 0, "start": 0, "end": 2,
         "head_index": 1, "label": "old"},
    ]
    loaded = cp.load_corpus(write_corpus(tmp_path, payload))
    assert [m.id for m in loaded.documents[0].mentions] == ["a", "b"]


def test_roundtrip_of_generated_corpus(tmp_path):
    generated = cp.generate_synthetic(seed=1, n_docs=10, sentences_per_doc=5,
                                      mentions_per_sentence=3)
    path = tmp_path / "synth.json"
    cp.save_corpus(generated, path)
    assert cp.load_corpus(path) == generated


def test_generation_is_deterministic(tmp_path):
    a = cp.generate_synthetic(seed=7, n_docs=4, sentences_per_doc=6,
                              mentions_per_sentence=4)
    b = cp.generate_synthetic(seed=7, n_docs=4, sentences_per_doc=6,
                              mentions_per_sentence=4)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    cp.save_corpus(a, pa)
    cp.save_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = cp.generate_synthetic(seed=8, n_docs=4, sentences_per_doc=6,
                              mentions_per_sentence=4)
    assert c != a


@pytest.mark.parametrize("seed, n_docs, sentences, digest", [
    (5, 1, 175,
     "4ea36b40ce1738c205960b98816501bf713c4d7c866669d2f8e2cefecbe810d7"),
    (13, 2, 55,
     "3f5c6359e6df7ce36ce5ca370558445fbbafa9a5208bf757854e691d43f53c9a"),
], ids=["1x175x4", "2x55x4"])
def test_generated_corpus_bytes_are_pinned(tmp_path, seed, n_docs, sentences,
                                           digest):
    """Long documents draw many "repeat" slots, each over the earlier
    phrases not yet re-mentioned; any change to that draw moves these
    bytes, and with them every benchmark input."""
    path = tmp_path / "synth.json"
    cp.save_corpus(cp.generate_synthetic(seed, n_docs, sentences, 4), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generator_sizes_and_bounds():
    generated = cp.generate_synthetic(seed=3, n_docs=5, sentences_per_doc=7,
                                      mentions_per_sentence=4)
    assert len(generated.documents) == 5
    assert generated.total_mentions() == 5 * 7 * 4
    with pytest.raises(ValueError):
        cp.generate_synthetic(seed=1, n_docs=0, sentences_per_doc=1,
                              mentions_per_sentence=1)


def test_possessive_mentions_are_syntactic():
    generated = cp.generate_synthetic(seed=5, n_docs=12, sentences_per_doc=6,
                                      mentions_per_sentence=4)
    seen = 0
    for doc in generated.documents:
        for m in doc.mentions:
            if doc.mention_tokens(m)[0].casefold() != "their":
                continue
            earlier = {cp.normalize_text(doc.mention_tokens(o))
                       for o in doc.mentions
                       if o.sentence_index < m.sentence_index}
            if cp.normalize_text(doc.mention_tokens(m)) in earlier:
                assert m.label is cp.ISLabel.OLD  # re-mention outranks surface
            else:
                assert m.label is cp.ISLabel.MEDIATED_SYNTACTIC
                seen += 1
    assert seen > 0


def relabel_oracle(doc: cp.Document) -> list[cp.ISLabel]:
    """Independent reimplementation of the labeling rules (a)-(e)."""
    labels = []
    for m in doc.mentions:
        tokens = doc.sentences[m.sentence_index][m.start:m.end]
        text = " ".join(tokens).casefold()
        earlier = set()
        for other in doc.mentions:
            if other.sentence_index < m.sentence_index:
                other_tokens = doc.sentences[other.sentence_index][
                    other.start:other.end]
                earlier.add(" ".join(other_tokens).casefold())
        if text in earlier:
            labels.append(cp.ISLabel.OLD)
        elif tokens[0].casefold() in {"his", "her", "their"}:
            labels.append(cp.ISLabel.MEDIATED_SYNTACTIC)
        elif any(t.casefold() == "and" for t in tokens):
            labels.append(cp.ISLabel.MEDIATED_AGGREGATE)
        elif tokens[0].casefold() in {"another", "further"}:
            labels.append(cp.ISLabel.MEDIATED_COMPARATIVE)
        else:
            labels.append(cp.ISLabel.NEW)
    return labels


def test_generator_labels_match_rule_reapplication():
    generated = cp.generate_synthetic(seed=11, n_docs=8, sentences_per_doc=8,
                                      mentions_per_sentence=4)
    for doc in generated.documents:
        assert [m.label for m in doc.mentions] == relabel_oracle(doc)


def test_stats_of_generated_corpus_match_json_recount(tmp_path):
    generated = cp.generate_synthetic(seed=1, n_docs=10, sentences_per_doc=5,
                                      mentions_per_sentence=3)
    path = tmp_path / "synth.json"
    cp.save_corpus(generated, path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    recount: dict[str, int] = {}
    total = 0
    for doc in raw["documents"]:
        for m in doc["mentions"]:
            recount[m["label"]] = recount.get(m["label"], 0) + 1
            total += 1
    stats = cp.corpus_stats(generated)
    assert sum(e.count for e in stats.values()) == total
    for label, entry in stats.items():
        assert entry.count == recount.get(label.value, 0)
        assert entry.fraction == entry.count / total


def test_stats_empty_corpus():
    stats = cp.corpus_stats(cp.Corpus(documents=()))
    assert all(e.count == 0 and e.fraction == 0.0 for e in stats.values())
    assert set(stats) == set(cp.LABELS)


def test_stats_rejects_unlabeled():
    doc = cp.Document(
        id="d", sentences=(("x",),),
        mentions=(cp.Mention("m", 0, 0, 1, 0, label=None),))
    with pytest.raises(cp.CorpusError, match="unlabeled"):
        cp.corpus_stats(cp.Corpus(documents=(doc,)))


def test_stats_reference_distribution():
    # A corpus distributed like the published benchmark: 10,980 mentions,
    # of which old 3237 (29.5%), new 4035 (36.7%), bridging 663 (6.0%).
    counts = {
        cp.ISLabel.OLD: 3237,
        cp.ISLabel.MEDIATED_SYNTACTIC: 1592,
        cp.ISLabel.MEDIATED_WORLD_KNOWLEDGE: 924,
        cp.ISLabel.MEDIATED_BRIDGING: 663,
        cp.ISLabel.MEDIATED_COMPARATIVE: 253,
        cp.ISLabel.MEDIATED_AGGREGATE: 211,
        cp.ISLabel.MEDIATED_FUNCTION: 65,
        cp.ISLabel.NEW: 4035,
    }
    tokens = ("w",) * 40
    mentions = []
    i = 0
    for label, count in counts.items():
        for _ in range(count):
            mentions.append(cp.Mention(f"m{i}", 0, i % 40, i % 40 + 1,
                                       i % 40, label=label))
            i += 1
    doc = cp.Document(id="d", sentences=(tokens,), mentions=tuple(mentions))
    stats = cp.corpus_stats(cp.Corpus(documents=(doc,)))
    total = sum(e.count for e in stats.values())
    assert total == 10980
    assert round(stats[cp.ISLabel.OLD].fraction * 1000) == 295
    assert round(stats[cp.ISLabel.NEW].fraction * 1000) == 367
    assert round(stats[cp.ISLabel.MEDIATED_BRIDGING].fraction * 1000) == 60
    assert abs(sum(e.fraction for e in stats.values()) - 1.0) < 1e-9


@given(st.lists(st.sampled_from(list(cp.LABELS)), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_stats_fractions_sum_to_one(labels):
    tokens = ("w",) * len(labels)
    mentions = tuple(cp.Mention(f"m{i}", 0, i, i + 1, i, label=label)
                     for i, label in enumerate(labels))
    doc = cp.Document(id="d", sentences=(tokens,), mentions=mentions)
    stats = cp.corpus_stats(cp.Corpus(documents=(doc,)))
    assert sum(e.count for e in stats.values()) == len(labels)
    assert abs(sum(e.fraction for e in stats.values()) - 1.0) < 1e-9


def test_unknown_label_parse_is_closed():
    for value in ("mediated/unknown", "OLD", ["old"]):
        with pytest.raises(cp.CorpusError, match="unknown label"):
            cp.parse_label(value)
