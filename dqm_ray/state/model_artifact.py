"""External model artifacts for the scorer slot (T1 analog: the
ChannelMapFiller fills build-once state from an EXTERNAL source,
reference include/dqm/ChannelMapFiller.hpp:38-75).

``load_model_artifact`` sniffs the file's magic bytes and returns a
typed result, so ``QualityConfig.model_path`` can point at any of:

- **DQMB** — this repo's native binary bigram artifact (documented
  below): deserialized directly into the scorer's log-probability
  matrix, no retraining. The production shape: train once, ship the
  binary to every worker.
- **fastText ``.bin``** (lid.176.bin layout) — recognized by the
  public int32 magic ``793712314``; the args header (dim, ws, epoch,
  ... t) is parsed to validate the layout, then inference is delegated
  to the ``fasttext`` wheel when importable. Without the wheel the
  loader raises ``NotImplementedError`` carrying the parsed header —
  the artifact is understood, only the runtime is missing.
- **KenLM binary** — recognized by the public header string
  ``mmap lm http://kheafield.com/code format version``; same
  delegate-or-raise contract via the ``kenlm`` wheel.
- anything else — treated as UTF-8 **training text** (the legacy
  contract): the scorer trains its char-bigram model from it.

DQMB layout (version 1, little-endian)::

    bytes 0..4   magic  b"DQMB\\x01"
    bytes 5..8   uint32 V (alphabet size)
    bytes 9..    float64[V*V] row-major log-probability matrix
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DQMB_MAGIC = b"DQMB\x01"
FASTTEXT_MAGIC = 793712314  # fastText FASTTEXT_FILEFORMAT_MAGIC_INT32
KENLM_MAGIC_PREFIX = b"mmap lm http://kheafield.com/code format version"

# fastText Args::load field order (all int32 except t: double) — the
# public serialization in fasttext/src/args.cc
_FASTTEXT_ARG_FIELDS = ("dim", "ws", "epoch", "minCount", "neg",
                        "wordNgrams", "loss", "model", "bucket",
                        "minn", "maxn", "lrUpdateRate")


@dataclass
class BigramArtifact:
    """Deserialized DQMB matrix, drop-in for VectorBigramModel state."""

    log_p: np.ndarray  # (V, V) float64


@dataclass
class TrainingText:
    text: str


class KenLMPerplexity:
    """Adapter giving a ``kenlm.Model`` the scorer's ``log_ppl_many``
    contract: natural-log perplexity per token. kenlm's ``score`` is
    the log10 probability of the whole sentence (with BOS/EOS), so
    log_ppl = -score * ln(10) / (n_words + 1) — the +1 counts the EOS
    transition, matching kenlm's own perplexity definition. Without
    this wrapper, ScorerStage would crash with AttributeError on the
    first batch whenever the wheel IS installed (the raw model has no
    log_ppl_many)."""

    def __init__(self, model):
        self._model = model

    def log_ppl_many(self, texts) -> np.ndarray:
        import math

        ln10 = math.log(10.0)
        out = np.empty(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            words = (t or "").split()
            out[i] = -self._model.score(" ".join(words), bos=True,
                                        eos=True) * ln10 / (len(words) + 1)
        return out


def save_bigram_artifact(path: str, log_p: np.ndarray) -> None:
    """Serialize a (V, V) float64 log-probability matrix as DQMB v1."""
    v = log_p.shape[0]
    if log_p.shape != (v, v):
        raise ValueError("log_p must be square")
    with open(path, "wb") as fh:
        fh.write(DQMB_MAGIC)
        fh.write(struct.pack("<I", v))
        fh.write(np.ascontiguousarray(log_p, dtype="<f8").tobytes())


def parse_fasttext_header(head: bytes) -> dict:
    """Parse the public fastText .bin header: int32 magic, int32
    version, then the Args block (12 int32 + 1 double)."""
    need = 8 + 4 * len(_FASTTEXT_ARG_FIELDS) + 8
    if len(head) < need:
        raise ValueError("truncated fastText header")
    magic, version = struct.unpack_from("<ii", head, 0)
    vals = struct.unpack_from(f"<{len(_FASTTEXT_ARG_FIELDS)}i", head, 8)
    (t,) = struct.unpack_from("<d", head, 8 + 4 * len(_FASTTEXT_ARG_FIELDS))
    out = {"magic": magic, "version": version, "t": t}
    out.update(zip(_FASTTEXT_ARG_FIELDS, vals))
    return out


def load_model_artifact(path: str):
    """Sniff + load ``path``. Returns ``BigramArtifact``,
    ``TrainingText``, or a wheel-backed model object; raises
    ``NotImplementedError`` for a recognized fastText/KenLM artifact
    whose runtime wheel is absent (message carries the parsed header,
    proving the byte layout was read correctly)."""
    with open(path, "rb") as fh:
        head = fh.read(512)

    if head.startswith(DQMB_MAGIC):
        with open(path, "rb") as fh:
            fh.seek(len(DQMB_MAGIC))
            (v,) = struct.unpack("<I", fh.read(4))
            mat = np.frombuffer(fh.read(8 * v * v), dtype="<f8")
        if mat.size != v * v:
            raise ValueError("truncated DQMB artifact")
        return BigramArtifact(log_p=mat.reshape(v, v).copy())

    if len(head) >= 8 and struct.unpack_from("<i", head, 0)[0] \
            == FASTTEXT_MAGIC:
        hdr = parse_fasttext_header(head)
        try:
            import fasttext  # not in this sandbox

            return fasttext.load_model(path)
        except ImportError:
            raise NotImplementedError(
                f"recognized fastText model (header {hdr}) but the "
                "'fasttext' wheel is not installed in this environment")

    if head.startswith(KENLM_MAGIC_PREFIX):
        version = head[len(KENLM_MAGIC_PREFIX):head.index(b"\x00")] \
            .strip().decode("ascii", "replace")
        try:
            import kenlm  # not in this sandbox

            return KenLMPerplexity(kenlm.Model(path))
        except ImportError:
            raise NotImplementedError(
                f"recognized KenLM binary LM (format version {version}) "
                "but the 'kenlm' wheel is not installed in this "
                "environment")

    with open(path, encoding="utf-8") as fh:
        return TrainingText(text=fh.read())
