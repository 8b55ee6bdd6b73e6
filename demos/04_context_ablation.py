"""Miniature context ablation: how much do context and overlap flags help?

The synthetic corpus makes old-vs-new decidable only through string
repetition across sentences, so the mention-only system is blind there,
the local-context system can at least spot same-sentence doubles, and the
overlap-flag system sees the answer directly.

Run:  python demos/04_context_ablation.py   (a few minutes on CPU)
"""

from infostat import (LOCAL_CONTEXT, LOCAL_CONTEXT_OVERLAP, MENTION_ONLY,
                      generate_synthetic, run_cross_validation)
from infostat.corpus import ISLabel
from infostat.encoder import ModelConfig, TrainConfig

corpus = generate_synthetic(seed=11, n_docs=20, sentences_per_doc=6,
                            mentions_per_sentence=4)
print(f"{corpus.total_mentions()} mentions in {len(corpus.documents)} documents")

for mode, max_len in ((MENTION_ONLY, 8), (LOCAL_CONTEXT, 26),
                      (LOCAL_CONTEXT_OVERLAP, 26)):
    config = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=128,
                         max_len=max_len, vocab_size=8, dropout_rate=0.1)
    train_config = TrainConfig(epochs=16, learning_rate=3e-3, batch_size=64,
                               seed=0, grad_clip_norm=5.0)
    result = run_cross_validation(corpus, mode, config, train_config,
                                  k=5, seed=1)
    records = result.pooled_records()
    subset = [r for r in records if r.gold in (ISLabel.OLD, ISLabel.NEW)]
    sub_acc = sum(r.gold == r.pred for r in subset) / len(subset)
    print(f"{mode.kind.value:<14} pooled accuracy {result.report.accuracy:.3f}   "
          f"old/new subset {sub_acc:.3f}")
