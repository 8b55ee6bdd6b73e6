"""Walk through the data model: synthetic corpora, labels, pseudo sentences.

Run:  python demos/01_corpus_and_pseudo_sentences.py
"""

from infostat import (LOCAL_CONTEXT, LOCAL_CONTEXT_OVERLAP, MENTION_ONLY,
                      build_pseudo_sentence, compute_overlap, corpus_stats,
                      generate_synthetic)

# A deterministic synthetic corpus. Labels follow surface rules: re-mentions
# of an earlier-sentence phrase are old, possessive-initial phrases are
# mediated/syntactic, coordinations are mediated/aggregate, another/further
# phrases are mediated/comparative, everything else is new.
corpus = generate_synthetic(seed=7, n_docs=4, sentences_per_doc=5,
                            mentions_per_sentence=3)
print(f"{len(corpus.documents)} documents, {corpus.total_mentions()} mentions")
print("\nlabel distribution:")
for label, entry in corpus_stats(corpus).items():
    if entry.count:
        print(f"  {label.value:<24} {entry.count:>4}  {entry.fraction:.1%}")

doc = corpus.documents[0]
print(f"\ndocument {doc.id!r}:")
for sentence in doc.sentences[:3]:
    print("  " + " ".join(sentence))

# Pick a mention beyond the first sentence so the discourse context matters.
mention = next(m for m in doc.mentions if m.sentence_index >= 1)
print(f"\ntarget mention: {doc.mention_text(mention)!r} "
      f"(sentence {mention.sentence_index}, label {mention.label.value})")

overlap = compute_overlap(mention, doc)
print(f"overlap vs preceding sentences: same_string={overlap.same_string}, "
      f"same_head={overlap.same_head}")

# The same mention rendered under the three context modes.
for mode in (MENTION_ONLY, LOCAL_CONTEXT, LOCAL_CONTEXT_OVERLAP):
    ps = build_pseudo_sentence(mention, doc, mode, max_len=48)
    print(f"\n{mode.kind.value}:")
    print("  tokens:  " + " ".join(ps.surface_tokens))
    print("  segments:" + " ".join(str(s) for s in ps.segment_tags))
