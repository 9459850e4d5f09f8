"""Durable per-user session state: capture, serialize, restore.

A :class:`SessionSnapshot` is everything a
:class:`~repro.serve.session.UserSession` owns that cannot be recomputed
for free: the trained OVT library (token matrices plus the user's
autoencoder weights), the observed-sample buffer, cumulative serving
counters, and — optionally — the NVM deployment state.  Captured
snapshots serialize to a stdlib-only tagged binary format
(:mod:`repro.serve.codec`) behind a header — magic, schema version and
a CRC32 of the body — so a session can leave memory (LRU eviction,
process restart, another worker) and come back answering
byte-identically, without re-running one tuner step.  A blob is read in
exactly the form this build writes: another version, a body that fails
its checksum, or a section that does not rebuild is a
:class:`SnapshotError`, and the engine quarantines it.

Two capture modes trade size against restore cost, and both restore
through the same path (the engines spill ``raw``; ``recipe`` is how an
operator archives a user without their crossbar state):

* ``mode="raw"`` — the deployment section travels: crossbar
  conductances, cumulative counters and generator states.  Restore
  rebuilds the NVM state bit-identically with **zero** programming pulses.
* ``mode="recipe"`` — the session as if its deployment had just been
  retired: no deployment section, the live crossbars' counters banked
  into ``counters["retired_cim"]``.  The restored session is undeployed
  and re-programs lazily on its next query.  Programming is
  deterministic (the deployment's generator derives from the config
  alone), so the conductances and the answers are the same — and the
  re-programming is *billed*: NVM write energy and endurance are the
  paper's own cost model.

The prefill slots — their KV and the answers they keep — are
deliberately *not* serialized: prefill and decoding are deterministic,
so a restored session recomputes any state it needs and still produces
byte-identical answers — only the ``prefill_hits`` telemetry starts
cold.  The snapshot records the cache keys as metadata
so stores can report what was dropped.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..compression import OVTAutoencoder
from ..core.framework import FrameworkConfig, NVCiMDeployment, OVTLibrary
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..nvm.crossbar import CrossbarStats
from ..tuning import VirtualTokens
from .codec import CodecError, decode_value, encode_parts
from .session import UserSession

__all__ = ["SessionSnapshot", "SnapshotError", "SCHEMA_VERSION", "MAGIC",
           "HEADER", "HEADER_SIZE"]

# Bumped whenever the payload layout changes incompatibly; from_bytes
# refuses blobs from other versions (the golden-fixture test pins this).
# The blob's one version: no section inside it carries its own.
SCHEMA_VERSION = 3

MAGIC = b"NVPTSNAP"

# After the magic: the schema version, then the CRC32 of the body.
HEADER = struct.Struct("<HI")
HEADER_SIZE = len(MAGIC) + HEADER.size


class SnapshotError(ValueError):
    """Raised for malformed, foreign, or incompatible snapshot blobs."""


def _sample_dict(sample: Sample) -> dict:
    return dataclasses.asdict(sample)


def _sample_from(data: dict) -> Sample:
    return Sample(task=data["task"], user_id=int(data["user_id"]),
                  input_text=data["input_text"],
                  target_text=data["target_text"], domain=data["domain"])


@dataclass
class SessionSnapshot:
    """A :class:`UserSession` as a value: capture, encode, rebuild."""

    user_id: int
    mode: str
    config: dict
    model_fingerprint: dict
    library: dict
    buffer: list
    counters: dict
    prefill_keys: list
    deployment: dict | None

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, session: UserSession, *,
                mode: str = "raw") -> "SessionSnapshot":
        """Snapshot a live session (which keeps running, unaffected)."""
        if mode not in ("raw", "recipe"):
            raise ValueError(f"mode must be 'raw' or 'recipe', got {mode!r}")
        model = session.model
        library = session.library
        ae = library.autoencoder
        # A recipe banks the live crossbars' counters as a retirement
        # would; a deployment section carries its own.
        if mode == "raw" and session.is_deployed:
            deployment = session._deployment.snapshot()
            retired_cim = session._retired_cim
        else:
            deployment, retired_cim = None, session.cim_stats()
        return cls(
            user_id=session.user_id,
            mode=mode,
            config=session.config.to_dict(),
            model_fingerprint={
                "d_model": model.config.d_model,
                "vocab_size": model.config.vocab_size,
                "n_layers": model.config.n_layers,
            },
            library={
                "ovts": [{"matrix": ovt.matrix.copy(),
                          "domain": ovt.domain,
                          "source": (_sample_dict(ovt.source)
                                     if ovt.source is not None else None)}
                         for ovt in library.ovts],
                "autoencoder_state": ae.state_dict(),
                "autoencoder_trained": ae.is_trained,
                "noise_aware": library.noise_aware,
            },
            buffer=[_sample_dict(s) for s in session.pipeline.buffer.samples],
            counters={
                "epochs_completed": session.epochs_completed,
                "pipeline_epochs": session.pipeline._epochs_completed,
                "queries_served": session.queries_served,
                "prefill_hits": session.prefill_hits,
                "retired_cim": retired_cim.to_dict(),
            },
            prefill_keys=[[text, index]
                          for text, index in session._prefill_states],
            deployment=deployment,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize to the binary form: magic, schema version, the
        body's CRC32, body."""
        payload = {
            "user_id": self.user_id,
            "mode": self.mode,
            "config": self.config,
            "model_fingerprint": self.model_fingerprint,
            "library": self.library,
            "buffer": self.buffer,
            "counters": self.counters,
            "prefill_keys": self.prefill_keys,
            "deployment": self.deployment,
        }
        parts = encode_parts(payload)
        # One crc32 call over a joined copy of the body: several times
        # faster than a call per part, and the copy is gone before the
        # blob is built, so the body is held once at a time.
        crc = zlib.crc32(b"".join(parts))
        return b"".join([MAGIC, HEADER.pack(SCHEMA_VERSION, crc), *parts])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SessionSnapshot":
        """Parse a serialized snapshot.

        Refuses, in this order, a bad magic, another schema version and
        a body whose CRC32 is not the header's — each a
        :class:`SnapshotError` — and only then decodes.  The arrays of
        the returned snapshot are read-only views over ``blob`` (see
        :mod:`repro.serve.codec`); :meth:`build_session` copies each
        into memory the session owns.
        """
        if len(blob) < HEADER_SIZE:
            raise SnapshotError("blob too short to be a session snapshot")
        if blob[:len(MAGIC)] != MAGIC:
            raise SnapshotError("not a session snapshot (bad magic)")
        # The version leads the header in every schema, so a blob of
        # another one is named by its own version here.
        version, crc = HEADER.unpack_from(blob, len(MAGIC))
        if version != SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema version {version} is not supported "
                f"(this build reads version {SCHEMA_VERSION})")
        body = memoryview(blob)[HEADER_SIZE:]
        if zlib.crc32(body) != crc:
            raise SnapshotError("snapshot body fails its CRC32 check")
        try:
            payload = decode_value(body)
        except CodecError as error:
            raise SnapshotError(f"corrupt snapshot body: {error}") from error
        if not isinstance(payload, dict):
            raise SnapshotError("snapshot body is not a mapping")
        try:
            return cls(
                user_id=int(payload["user_id"]),
                mode=payload["mode"],
                config=payload["config"],
                model_fingerprint=payload["model_fingerprint"],
                library=payload["library"],
                buffer=payload["buffer"],
                counters=payload["counters"],
                prefill_keys=payload["prefill_keys"],
                deployment=payload["deployment"],
            )
        except KeyError as error:
            raise SnapshotError(
                f"snapshot body is missing field {error}") from error
        except (TypeError, ValueError) as error:
            raise SnapshotError(
                f"snapshot body has a malformed field: {error}") from error

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def build_session(self, model: TinyCausalLM,
                      tokenizer: Tokenizer) -> UserSession:
        """Rebuild the captured session against the shared base model.

        A deployment section comes back bit-identically with no
        programming; without one the session is undeployed and
        ``UserSession.deployment()`` re-programs (deterministically, and
        billed) on its next query.  Either way the rebuilt session's
        greedy answers are byte-identical to the original's, with no
        tuner step re-run.  Any section that does not rebuild raises
        :class:`SnapshotError`, so the engine quarantines the blob.
        """
        fingerprint = self.model_fingerprint
        actual = {"d_model": model.config.d_model,
                  "vocab_size": model.config.vocab_size,
                  "n_layers": model.config.n_layers}
        if actual != fingerprint:
            raise SnapshotError(
                f"snapshot was captured against a model with "
                f"{fingerprint}, got {actual}")
        try:
            return self._rebuild(model, tokenizer)
        except SnapshotError:
            raise
        except (LookupError, ValueError, TypeError, AttributeError,
                ArithmeticError) as error:
            # A section missing, of the wrong type or length, or holding
            # numbers that make no sense (what one flipped byte can leave
            # of a blob that still decodes).
            raise SnapshotError(
                f"snapshot state does not restore: {error!r}") from error

    def _rebuild(self, model: TinyCausalLM,
                 tokenizer: Tokenizer) -> UserSession:
        config = FrameworkConfig.from_dict(self.config)
        # Library: token matrices verbatim, the autoencoder built straight
        # from its weights (no initial weights drawn to be overwritten),
        # each array one owned float32 copy; the session starts with it.
        library = OVTLibrary(
            ovts=[VirtualTokens(
                      np.array(entry["matrix"], dtype=np.float32),
                      source=(_sample_from(entry["source"])
                              if entry["source"] is not None else None),
                      domain=entry["domain"])
                  for entry in self.library["ovts"]],
            autoencoder=OVTAutoencoder.from_state_dict(
                config.autoencoder_config(model.config.d_model),
                self.library["autoencoder_state"],
                trained=bool(self.library["autoencoder_trained"])),
            noise_aware=bool(self.library["noise_aware"]))
        session = UserSession(self.user_id, model, tokenizer, config,
                              library)

        # Buffer: samples travel; embeddings are recomputed (embedding a
        # text through the frozen model is deterministic).
        for data in self.buffer:
            sample = _sample_from(data)
            ids = tokenizer.encode(sample.input_text)
            session.pipeline.buffer.add(sample,
                                        model.embed_text_vector(ids))

        counters = self.counters
        session.epochs_completed = int(counters["epochs_completed"])
        session.pipeline._epochs_completed = int(
            counters["pipeline_epochs"])
        session.queries_served = int(counters["queries_served"])
        session.prefill_hits = int(counters["prefill_hits"])
        session._retired_cim = CrossbarStats.from_dict(
            counters["retired_cim"])

        if self.deployment is not None:
            if self.mode != "raw":
                raise SnapshotError(
                    f"a {self.mode!r} snapshot carries a deployment "
                    f"section; only a 'raw' one does")
            session._deployment = NVCiMDeployment.from_snapshot(
                model, tokenizer, library, config, self.deployment)
        return session
