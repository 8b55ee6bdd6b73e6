"""Train on a synthetic corpus and score held-out documents.

Run:  python demos/03_train_and_score.py   (about a minute on CPU)
"""

from infostat import LOCAL_CONTEXT_OVERLAP, generate_synthetic, score
from infostat.context import RESERVED_TOKENS
from infostat.encoder import ModelConfig, TrainConfig
from infostat.evaluation import fit, predict

corpus = generate_synthetic(seed=3, n_docs=20, sentences_per_doc=6,
                            mentions_per_sentence=4)
held_out, training = corpus.documents[:4], corpus.documents[4:]

# fit builds the vocabulary from the training documents and sets vocab_size.
config = ModelConfig(n_layers=2, d_model=32, n_heads=4, d_ff=128, max_len=32,
                     vocab_size=len(RESERVED_TOKENS), dropout_rate=0.1)
model, result = fit(training, LOCAL_CONTEXT_OVERLAP, config,
                    TrainConfig(epochs=20, learning_rate=2e-3, batch_size=32,
                                seed=0))
print("epoch losses:", " ".join(f"{x:.3f}" for x in result.epoch_losses[::4]))

records = predict(model, held_out, require_labels=True)
report = score([r.pred for r in records], [r.gold for r in records])
print(f"\nheld-out accuracy: {report.accuracy:.3f} over {report.n} mentions")
for label, m in report.per_class.items():
    if m.support:
        print(f"  {label.value:<24} P {m.precision:5.2f}  R {m.recall:5.2f}  "
              f"F {m.f1:5.2f}  (support {m.support})")
