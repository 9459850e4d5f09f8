"""Where do the bytes of a session blob go?

    python tools/blob_report.py PATH.nvpt
    python tools/blob_report.py --fresh

Decodes one serialized session snapshot — the file at PATH, or with
``--fresh`` the raw blob of one ``fast``-preset session tuned, queried
(so it is deployed) and captured in this process — and prints one row per
array (dotted path, dtype, shape, payload bytes, share of the blob) and
one per top-level section (its whole encoding), then the blob's codec
``nodes`` (every value and every dict key: what encoding and decoding
spend one Python call on each) and the total.  The section sizes are
re-encoded, so the total equals the blob's length only if the blob is in
canonical form; exits 1 when it does not.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.serve.codec import encode_value  # noqa: E402
from repro.serve.snapshot import MAGIC, SessionSnapshot  # noqa: E402

_FRAME = len(MAGIC) + 2 + 1 + 8     # magic, schema, dict tag, entry count


def fresh_blob() -> bytes:
    """The verify skill's fast driving recipe, captured raw."""
    from repro import (FrameworkConfig, PromptServeEngine, TuneRequest,
                       build_corpus, build_model, build_tokenizer,
                       make_dataset, make_user)
    from repro.llm import PretrainConfig, pretrain_lm
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=600, seed=0),
                PretrainConfig(steps=80, seed=0))
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 10, seed=0)
    engine.submit(TuneRequest(user_id=0, samples=tuple(samples)))
    engine.answer(0, samples[-1].input_text)
    return SessionSnapshot.capture(engine.session(0), mode="raw").to_bytes()


def arrays(value, path=""):
    """``(dotted path, array)`` for every array inside a decoded value."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from arrays(item, f"{path}[{index}]")


def codec_nodes(value) -> int:
    """How many values and dict keys the codec codes for ``value``."""
    if isinstance(value, dict):
        return 1 + sum(1 + codec_nodes(item) for item in value.values())
    if isinstance(value, list):
        return 1 + sum(codec_nodes(item) for item in value)
    return 1


def report(blob: bytes) -> int:
    body = vars(SessionSnapshot.from_bytes(blob))   # field name -> section
    rows = [(path, array.dtype.str, "x".join(map(str, array.shape)) or "-",
             array.nbytes) for path, array in arrays(body)]
    sections = [(key, "section", "",
                 len(encode_value(key)) + len(encode_value(value)))
                for key, value in body.items()]
    total = _FRAME + sum(size for *_, size in sections)
    width = max(len(row[0]) for row in rows + sections)
    for path, dtype, shape, size in rows + sections + [
            ("(framing)", "", "", _FRAME)]:
        print(f"{path:<{width}}  {dtype:<7}  {shape:<14}  {size:>10,}  "
              f"{size / len(blob):6.1%}")
    print(f"{'nodes':<{width}}  {'':<7}  {'':<14}  {codec_nodes(body):>10,}")
    print(f"{'total':<{width}}  {'':<7}  {'':<14}  {total:>10,}  "
          f"{total / len(blob):6.1%}")
    if total != len(blob):
        print(f"MISMATCH: sections add up to {total:,} B, the blob is "
              f"{len(blob):,} B")
    return int(total != len(blob))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(report(fresh_blob() if sys.argv[1] == "--fresh"
                    else Path(sys.argv[1]).read_bytes()))
