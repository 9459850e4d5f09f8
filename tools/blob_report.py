"""Where do the bytes of a session blob go?

    python tools/blob_report.py PATH.nvpt
    python tools/blob_report.py --fresh [--timing]

Decodes one serialized session snapshot — the file at PATH, or with
``--fresh`` the raw blob of one ``fast``-preset session tuned, queried
(so it is deployed) and captured in this process — and prints one row per
array (dotted path, dtype, shape, payload bytes, share of the blob) and
one per top-level section (its whole encoding), then the blob's codec
``nodes`` (every value and every dict key the codec walks) and the
total.  The section sizes are re-encoded, so the total equals the blob's
length only if the blob is in canonical form; exits 1 when it does not.

``--timing`` (with ``--fresh``) then prints the warm median of 200 calls
of each durable stage a spill and a restore run on that session: capture,
``to_bytes``, ``put``, ``get``, ``from_bytes`` and ``build_session``.
``put`` and ``get`` go through a disk :class:`SessionStore` in a
temporary directory and cycle 8 users, so each put replaces a live file,
as a spill does.  Wall-clock on the host it runs on — compare two trees
on one host, never across hosts.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.serve.codec import encode_value  # noqa: E402
from repro.serve.snapshot import HEADER_SIZE, SessionSnapshot  # noqa: E402
from repro.serve.store import SessionStore  # noqa: E402

_FRAME = HEADER_SIZE + 1 + 8     # header, then the body's dict tag and count


def fresh_session():
    """The verify skill's fast driving recipe: one deployed session."""
    from repro import (FrameworkConfig, PromptServeEngine, QueryRequest,
                       TuneRequest, build_corpus, build_model,
                       build_tokenizer, make_dataset, make_user)
    from repro.llm import PretrainConfig, pretrain_lm
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, build_corpus(tok, n_sentences=600, seed=0),
                PretrainConfig(steps=80, seed=0))
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 10, seed=0)
    engine.submit(TuneRequest(user_id=0, samples=tuple(samples)))
    engine.query(QueryRequest(user_id=0, text=samples[-1].input_text))
    return engine.session(0)


def stage_timings(session, calls: int = 200) -> None:
    """Print the warm median of ``calls`` calls of each durable stage."""
    snap = SessionSnapshot.capture(session, mode="raw")
    blob = snap.to_bytes()
    restored = SessionSnapshot.from_bytes(blob)
    with tempfile.TemporaryDirectory(prefix="blob-report-") as directory:
        store = SessionStore(directory)
        for user in range(8):
            store.put(user, blob)
        put_users = itertools.cycle(range(8))
        get_users = itertools.cycle(range(8))
        stages = (
            ("capture", lambda: SessionSnapshot.capture(session, mode="raw")),
            ("to_bytes", snap.to_bytes),
            ("put", lambda: store.put(next(put_users), blob)),
            ("get", lambda: store.get(next(get_users))),
            ("from_bytes", lambda: SessionSnapshot.from_bytes(blob)),
            ("build_session",
             lambda: restored.build_session(session.model, session.tokenizer)),
        )
        print(f"stage timings: warm median of {calls} calls")
        for name, call in stages:
            call()
            times = []
            for _ in range(calls):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            print(f"  {name:<14} {statistics.median(times) * 1e3:8.3f} ms")


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


def main(argv: list[str]) -> int:
    if argv not in (["--fresh"], ["--fresh", "--timing"]) and (
            len(argv) != 1 or argv[0].startswith("--")):
        sys.exit(__doc__)
    if argv[0] != "--fresh":
        return report(Path(argv[0]).read_bytes())
    session = fresh_session()
    status = report(SessionSnapshot.capture(session, mode="raw").to_bytes())
    if "--timing" in argv:
        stage_timings(session)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
