"""Bridge from corpora to encoded model inputs."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .context import ContextMode, Vocab, build_pseudo_sentence, encode
from .corpus import Document, LABEL_INDEX, Mention
from .encoder.model import Batch


def encode_pairs(pairs: Iterable[tuple[Document, Mention]], mode: ContextMode,
                 vocab: Vocab, max_len: int,
                 require_labels: bool = False) -> Batch:
    """Encode (document, mention) pairs into one Batch, in the given order."""
    ids_rows, mask_rows, seg_rows, is_rows, label_rows = [], [], [], [], []
    all_labeled = True
    for document, mention in pairs:
        ps = build_pseudo_sentence(mention, document, mode, max_len)
        ids, mask, segments = encode(ps, vocab, max_len)
        ids_rows.append(ids)
        mask_rows.append(mask)
        seg_rows.append(segments)
        is_rows.append(ps.is_index)
        if mention.label is None:
            all_labeled = False
            if require_labels:
                raise ValueError(f"document {document.id!r}, mention "
                                 f"{mention.id!r}: unlabeled mention where "
                                 "labels are required")
        else:
            label_rows.append(LABEL_INDEX[mention.label])
    if not ids_rows:
        raise ValueError("no mentions to encode")
    labels = np.asarray(label_rows, dtype=np.int64) if all_labeled else None
    return Batch(ids=np.stack(ids_rows), mask=np.stack(mask_rows),
                 segments=np.stack(seg_rows),
                 is_index=np.asarray(is_rows, dtype=np.int64),
                 labels=labels)
