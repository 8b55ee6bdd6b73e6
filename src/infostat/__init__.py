"""Fine-grained information-status classification of noun-phrase mentions.

The pipeline renders every mention as a pseudo sentence carrying its
discourse context (overlap flags against preceding-sentence mentions, the
local sentence, the mention itself, and a trailing [IS] prediction token),
feeds it to a from-scratch multi-head self-attention encoder, and reads the
eight-way class distribution from the hidden state at the [IS] position.
"""

from . import context, corpus, dataset, encoder, evaluation, rng
from .context import (ContextKind, ContextMode, LOCAL_CONTEXT,
                      LOCAL_CONTEXT_OVERLAP, MENTION_ONLY, OverlapInfo,
                      PseudoSentence, Vocab, build_pseudo_sentence,
                      build_vocab, compute_overlap, encode, mode_from_name)
from .corpus import (Corpus, CorpusError, Document, ISLabel, LABELS, Mention,
                     corpus_stats, generate_synthetic, load_corpus,
                     save_corpus)
from .evaluation import (CrossValResult, EvalReport, FoldSplit,
                         randomization_test, run_cross_validation, score,
                         split_folds)

__version__ = "0.1.0"
