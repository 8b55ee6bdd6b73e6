from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostat import context as ctx
from infostat import corpus as cp
from infostat.dataset import encode_pairs


def make_doc(sentences: list[str], mentions: list[tuple]) -> cp.Document:
    """mentions: (id, sentence_index, start, end[, head_index])."""
    sents = tuple(tuple(s.split()) for s in sentences)
    ms = []
    for m in mentions:
        head = m[4] if len(m) > 4 else m[3] - 1
        ms.append(cp.Mention(m[0], m[1], m[2], m[3], head))
    ms.sort(key=lambda m: (m.sentence_index, m.start, m.end))
    doc = cp.Document(id="d", sentences=sents, mentions=tuple(ms))
    cp.validate_document(doc)
    return doc


# Two-sentence discourse where a country name recurs: the second occurrence
# overlaps an earlier-sentence mention in both string and head.
POLAND_DOC = make_doc(
    ["In Poland , only 4 %25 of all investment goes toward making things "
     "farmers want ; in the West , it is closer to 20 %25 ."
     .replace("%25", "%"),
     "A private farmer in Poland is free to buy and sell land ."],
    [("p1", 0, 1, 2), ("farmers", 0, 11, 12), ("west", 0, 15, 17, 16),
     ("farmer", 1, 0, 3, 2), ("p2", 1, 4, 5), ("land", 1, 11, 12)])

# One-sentence-of-history discourse: the target in the second sentence has
# no string or head match among preceding-sentence mentions.
FRIENDS_DOC = make_doc(
    ["She made money , but spent more .",
     "Friends pitched in ."],
    [("she", 0, 0, 1), ("money", 0, 2, 3), ("friends", 1, 0, 1)])


def mention_by_id(doc: cp.Document, mention_id: str) -> cp.Mention:
    return next(m for m in doc.mentions if m.id == mention_id)


class TestComputeOverlap:
    def test_repeated_name_matches_string_and_head(self):
        info = ctx.compute_overlap(mention_by_id(POLAND_DOC, "p2"), POLAND_DOC)
        assert info == ctx.OverlapInfo(same_string=True, same_head=True)

    def test_first_sentence_has_no_preceding_context(self):
        info = ctx.compute_overlap(mention_by_id(POLAND_DOC, "p1"), POLAND_DOC)
        assert info == ctx.OverlapInfo(same_string=False, same_head=False)

    def test_head_match_without_string_match(self):
        doc = make_doc(["a red car stopped .", "the car honked ."],
                       [("a", 0, 0, 3), ("b", 1, 0, 2)])
        info = ctx.compute_overlap(mention_by_id(doc, "b"), doc)
        assert info == ctx.OverlapInfo(same_string=False, same_head=True)

    def test_comparison_is_case_folded(self):
        doc = make_doc(["POLAND said no .", "poland agreed ."],
                       [("a", 0, 0, 1), ("b", 1, 0, 1)])
        assert ctx.compute_overlap(mention_by_id(doc, "b"), doc) \
            == ctx.OverlapInfo(True, True)

    def test_same_sentence_mentions_do_not_count(self):
        doc = make_doc(["the car passed the car ."],
                       [("a", 0, 0, 2), ("b", 0, 3, 5)])
        assert ctx.compute_overlap(mention_by_id(doc, "b"), doc) \
            == ctx.OverlapInfo(False, False)

    def test_later_sentence_mentions_do_not_count(self):
        doc = make_doc(["the car passed .", "the car honked ."],
                       [("a", 0, 0, 2), ("b", 1, 0, 2)])
        # Mutating the later mention never changes the earlier one's flags.
        base = ctx.compute_overlap(mention_by_id(doc, "a"), doc)
        assert base == ctx.OverlapInfo(False, False)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_adding_preceding_mentions_is_monotone(self, start, width):
        sentences = ["alpha beta gamma delta .", "the target waits ."]
        target = ("t", 1, 0, 2)
        doc_without = make_doc(sentences, [target])
        before = ctx.compute_overlap(mention_by_id(doc_without, "t"),
                                     doc_without)
        end = min(start + 1 + width, 4)
        doc_with = make_doc(sentences, [("extra", 0, start, end), target])
        after = ctx.compute_overlap(mention_by_id(doc_with, "t"), doc_with)
        assert after.same_string >= before.same_string
        assert after.same_head >= before.same_head


def quadratic_overlap(mention: cp.Mention, document: cp.Document):
    """Oracle: rescan every mention of an earlier sentence."""
    target_string = cp.normalize_text(document.mention_tokens(mention))
    target_head = document.head_token(mention).casefold()
    earlier = [m for m in document.mentions
               if m.sentence_index < mention.sentence_index]
    return ctx.OverlapInfo(
        same_string=any(cp.normalize_text(document.mention_tokens(m))
                        == target_string for m in earlier),
        same_head=any(document.head_token(m).casefold() == target_head
                      for m in earlier))


def assert_matches_oracle(document: cp.Document) -> None:
    for mention in document.mentions:
        assert ctx.compute_overlap(mention, document) \
            == quadratic_overlap(mention, document)


class TestOverlapMatchesQuadraticScan:
    def test_generated_corpora(self):
        flags = set()
        for seed in range(4):
            generated = cp.generate_synthetic(seed=seed, n_docs=3,
                                              sentences_per_doc=9,
                                              mentions_per_sentence=4)
            for document in generated.documents:
                assert_matches_oracle(document)
                flags.update(quadratic_overlap(m, document)
                             for m in document.mentions)
        # Generated heads are the last span token, so a string match
        # implies a head match; the other three combinations all occur.
        assert flags == {ctx.OverlapInfo(False, False),
                         ctx.OverlapInfo(False, True),
                         ctx.OverlapInfo(True, True)}

    def test_repeated_head_across_sentences(self):
        doc = make_doc(["a red car stopped .", "nothing here .",
                        "the car honked .", "a blue car left ."],
                       [("a", 0, 0, 3), ("n", 1, 0, 1), ("b", 2, 0, 2),
                        ("c", 3, 0, 3)])
        assert_matches_oracle(doc)
        assert ctx.compute_overlap(mention_by_id(doc, "c"), doc) \
            == ctx.OverlapInfo(same_string=False, same_head=True)

    def test_same_sentence_repeat_does_not_count(self):
        doc = make_doc(["the car passed the car .", "the car honked ."],
                       [("a", 0, 0, 2), ("b", 0, 3, 5), ("c", 1, 0, 2)])
        assert_matches_oracle(doc)
        assert ctx.compute_overlap(mention_by_id(doc, "b"), doc) \
            == ctx.OverlapInfo(False, False)
        assert ctx.compute_overlap(mention_by_id(doc, "c"), doc) \
            == ctx.OverlapInfo(True, True)

    def test_case_folded_match(self):
        # casefold, unlike lower, maps "ß" to "ss"
        doc = make_doc(["The Straße opened .", "the STRASSE closed ."],
                       [("a", 0, 0, 2), ("b", 1, 0, 2)])
        assert_matches_oracle(doc)
        assert ctx.compute_overlap(mention_by_id(doc, "b"), doc) \
            == ctx.OverlapInfo(True, True)


class TestEarlierMentionsPerDocument:
    @pytest.fixture()
    def built(self, monkeypatch):
        """The documents EarlierMentions.of is called with, in call order."""
        calls = []
        of = cp.EarlierMentions.of.__func__
        monkeypatch.setattr(cp.EarlierMentions, "of", classmethod(
            lambda cls, document: calls.append(document) or of(cls, document)))
        return calls

    def test_overlap_of_every_mention_builds_the_sets_once(self, built):
        document = replace(POLAND_DOC)  # a new object: nothing cached yet
        for mention in document.mentions:
            ctx.compute_overlap(mention, document)
        assert len(built) == 1 and built[0] is document

    def test_vocab_and_encoding_share_each_documents_sets(self, built):
        corpus = cp.generate_synthetic(seed=2, n_docs=3, sentences_per_doc=4,
                                       mentions_per_sentence=2)
        built.clear()  # labelling built the sets of the unlabelled documents
        vocab = ctx.build_vocab(corpus, ctx.LOCAL_CONTEXT_OVERLAP)
        pairs = [(d, m) for d in corpus.documents for m in d.mentions]
        encode_pairs(pairs, ctx.LOCAL_CONTEXT_OVERLAP, vocab, max_len=32)
        assert [id(d) for d in built] == [id(d) for d in corpus.documents]

    def test_sets_stay_out_of_eq_hash_and_replace(self):
        cached, fresh = replace(POLAND_DOC), replace(POLAND_DOC)
        assert cached.earlier is cached.earlier
        assert cached == fresh and hash(cached) == hash(fresh)
        assert "earlier" not in vars(replace(cached))


class TestBuildPseudoSentence:
    def test_mention_only_is_mention_plus_prediction_token(self):
        ps = ctx.build_pseudo_sentence(mention_by_id(FRIENDS_DOC, "friends"),
                                       FRIENDS_DOC, ctx.MENTION_ONLY, 16)
        assert list(ps.surface_tokens) == ["Friends", "[IS]"]
        assert list(ps.segment_tags) == [1, 1]
        assert ps.is_index == 1
        assert ps.delimiter_index is None
        assert not ps.truncated

    def test_overlap_mode_layout(self):
        ps = ctx.build_pseudo_sentence(mention_by_id(FRIENDS_DOC, "friends"),
                                       FRIENDS_DOC,
                                       ctx.LOCAL_CONTEXT_OVERLAP, 32)
        assert list(ps.surface_tokens) == [
            "[STR-]", "[HEAD-]", "Friends", "pitched", "in", ".",
            "[DELIM]", "Friends", "[IS]"]
        assert list(ps.segment_tags) == [0, 0, 0, 0, 0, 0, 1, 1, 1]
        assert ps.delimiter_index == 6
        assert ps.is_index == 8

    def test_overlap_tokens_reflect_matches(self):
        ps = ctx.build_pseudo_sentence(mention_by_id(POLAND_DOC, "p2"),
                                       POLAND_DOC,
                                       ctx.LOCAL_CONTEXT_OVERLAP, 64)
        assert ps.surface_tokens[0] == "[STR+]"
        assert ps.surface_tokens[1] == "[HEAD+]"

    def test_context_left_truncation(self):
        # A 10-token mention inside a 200-token sentence at max_len=16:
        # the earliest context tokens are dropped, the tail survives.
        tokens = [f"w{i}" for i in range(200)]
        sentence = " ".join(tokens)
        doc = make_doc([sentence], [("m", 0, 120, 130)])
        ps = ctx.build_pseudo_sentence(mention_by_id(doc, "m"), doc,
                                       ctx.LOCAL_CONTEXT, 16)
        assert len(ps) == 16
        assert ps.surface_tokens[-1] == "[IS]"
        assert "[DELIM]" in ps.surface_tokens
        assert not ps.truncated
        # oracle: reserved = [DELIM] + [IS]; room = 16 - 2 - 10 = 4 context
        # tokens, the last four of the sentence
        expected = tokens[-4:] + ["[DELIM]"] + tokens[120:130] + ["[IS]"]
        assert list(ps.surface_tokens) == expected

    def test_prev_sentence_window_prepends_sentences(self):
        mode = ctx.ContextMode(ctx.ContextKind.LOCAL_CONTEXT,
                               prev_sentence_window=1)
        ps = ctx.build_pseudo_sentence(mention_by_id(FRIENDS_DOC, "friends"),
                                       FRIENDS_DOC, mode, 32)
        assert list(ps.surface_tokens[:8]) == \
            ["She", "made", "money", ",", "but", "spent", "more", "."]

    def test_mention_tail_dropped_when_budget_is_tiny(self):
        doc = make_doc(["a b c d e f ."], [("m", 0, 0, 6)])
        ps = ctx.build_pseudo_sentence(mention_by_id(doc, "m"), doc,
                                       ctx.LOCAL_CONTEXT, 5)
        assert ps.truncated
        assert list(ps.surface_tokens) == ["[DELIM]", "a", "b", "c", "[IS]"]
        assert len(ps) == 5

    def test_max_len_below_floor_is_rejected(self):
        doc = make_doc(["a b ."], [("m", 0, 0, 1)])
        with pytest.raises(ValueError, match="max_len"):
            ctx.build_pseudo_sentence(mention_by_id(doc, "m"), doc,
                                      ctx.LOCAL_CONTEXT_OVERLAP, 4)

    def test_invariants_across_generated_corpus(self):
        generated = cp.generate_synthetic(seed=2, n_docs=4,
                                          sentences_per_doc=5,
                                          mentions_per_sentence=3)
        max_len = 24
        for mode in (ctx.MENTION_ONLY, ctx.LOCAL_CONTEXT,
                     ctx.LOCAL_CONTEXT_OVERLAP):
            for _, _, ps in ctx.iter_pseudo_sentences(generated, mode, max_len):
                assert len(ps) <= max_len
                assert ps.surface_tokens[-1] == "[IS]"
                assert ps.is_index == len(ps) - 1
                n_delim = ps.surface_tokens.count("[DELIM]")
                assert n_delim == (0 if mode is ctx.MENTION_ONLY else 1)
                overlap = [t for t in ps.surface_tokens
                           if t in ("[STR+]", "[STR-]", "[HEAD+]", "[HEAD-]")]
                if mode is ctx.LOCAL_CONTEXT_OVERLAP:
                    assert len(overlap) == 2
                    assert ps.surface_tokens[0] in ("[STR+]", "[STR-]")
                    assert ps.surface_tokens[1] in ("[HEAD+]", "[HEAD-]")
                else:
                    assert not overlap


class TestVocab:
    def test_empty_corpus_has_only_reserved_tokens(self):
        vocab = ctx.build_vocab(cp.Corpus(documents=()), ctx.MENTION_ONLY)
        assert vocab.tokens == ctx.RESERVED_TOKENS
        assert len(vocab) == 8

    def test_reserved_ids_are_fixed(self):
        vocab = ctx.build_vocab(cp.Corpus(documents=()), ctx.LOCAL_CONTEXT)
        assert vocab.id_of("[PAD]") == 0
        assert vocab.id_of("[UNK]") == 1
        assert vocab.id_of("[IS]") == 2
        assert vocab.id_of("[DELIM]") == 3
        assert [vocab.token_of(i) for i in range(8)] == list(ctx.RESERVED_TOKENS)

    def test_min_freq_filters_tokens(self):
        doc = make_doc(["a a b"], [("m", 0, 0, 3)])
        vocab = ctx.build_vocab(cp.Corpus(documents=(doc,)),
                                ctx.MENTION_ONLY, min_freq=2)
        assert vocab.tokens == ctx.RESERVED_TOKENS + ("a",)

    def test_ordering_by_frequency_then_lexicographic(self):
        doc = make_doc(["b c a c"], [("m", 0, 0, 4)])
        vocab = ctx.build_vocab(cp.Corpus(documents=(doc,)), ctx.MENTION_ONLY)
        assert vocab.tokens[8:] == ("c", "a", "b")

    def test_tokens_are_case_folded(self):
        doc = make_doc(["The the THE"], [("m", 0, 0, 3)])
        vocab = ctx.build_vocab(cp.Corpus(documents=(doc,)), ctx.MENTION_ONLY)
        assert vocab.tokens[8:] == ("the",)
        assert vocab.id_of("The") == vocab.id_of("the") == 8

    def test_save_load_roundtrip(self, tmp_path):
        doc = make_doc(["café Zürich ."], [("m", 0, 0, 2)])
        vocab = ctx.build_vocab(cp.Corpus(documents=(doc,)), ctx.LOCAL_CONTEXT)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        reloaded = ctx.Vocab.load(path)
        assert reloaded == vocab
        assert reloaded.sha256() == vocab.sha256()

    def test_corrupt_vocab_file_is_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\nnope\n", encoding="utf-8")
        with pytest.raises(ValueError, match="reserved"):
            ctx.Vocab.load(path)


class TestEncode:
    def build(self):
        ps = ctx.build_pseudo_sentence(mention_by_id(FRIENDS_DOC, "friends"),
                                       FRIENDS_DOC, ctx.MENTION_ONLY, 8)
        vocab = ctx.Vocab(tokens=ctx.RESERVED_TOKENS + ("friends",))
        return ps, vocab

    def test_padding_and_mask(self):
        ps, vocab = self.build()
        ids, mask, segments = ctx.encode(ps, vocab, 4)
        assert ids.tolist() == [8, 2, 0, 0]
        assert mask.tolist() == [1, 1, 0, 0]
        assert segments.tolist() == [1, 1, 0, 0]

    def test_unknown_token_maps_to_unk(self):
        ps, _ = self.build()
        vocab = ctx.Vocab(tokens=ctx.RESERVED_TOKENS)
        ids, _, _ = ctx.encode(ps, vocab, 4)
        assert ids.tolist() == [1, 2, 0, 0]

    def test_decode_inverts_encode_up_to_oov(self):
        doc = make_doc(["The car honked twice ."], [("m", 0, 0, 2)])
        vocab = ctx.Vocab(tokens=ctx.RESERVED_TOKENS + ("the", "car", "."))
        ps = ctx.build_pseudo_sentence(mention_by_id(doc, "m"), doc,
                                       ctx.LOCAL_CONTEXT, 16)
        ids, _, _ = ctx.encode(ps, vocab, 16)
        expected = [t if t in ctx.RESERVED_TOKENS
                    else (t.casefold() if t.casefold() in vocab.tokens
                          else "[UNK]")
                    for t in ps.surface_tokens]
        assert ctx.decode(ids, vocab) == expected
        assert "[UNK]" in expected  # "honked"/"twice" are out of vocabulary

    def test_length_over_budget_is_rejected(self):
        ps, vocab = self.build()
        with pytest.raises(ValueError, match="exceeds max_len"):
            ctx.encode(ps, vocab, 1)


def test_iter_pseudo_sentences_yields_one_per_mention():
    generated = cp.generate_synthetic(seed=4, n_docs=2, sentences_per_doc=3,
                                      mentions_per_sentence=2)
    records = list(ctx.iter_pseudo_sentences(generated,
                                             ctx.LOCAL_CONTEXT_OVERLAP, 48))
    assert [m.id for _, m, _ in records] == [
        m.id for d in generated.documents for m in d.mentions]
    assert len(records) == generated.total_mentions()
    for document, mention, ps in records:
        assert mention in document.mentions
        assert len(ps.segment_tags) == len(ps) <= 48
        assert ps.surface_tokens[ps.is_index] == "[IS]"
