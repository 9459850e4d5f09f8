"""The NVCiM-PT framework (paper Fig. 3).

Two phases, mirroring the paper's training and inference modes:

* :class:`OVTTrainingPipeline` — consumes the user's data stream through
  the bounded buffer; each time the buffer fills it runs Representative
  Selection, trains one OVT per representative (noise-aware if configured),
  and refreshes the autoencoder with the non-representative remainder.
  The result is an :class:`OVTLibrary`.
* :class:`NVCiMDeployment` — encodes the library with the autoencoder,
  programs the scaled copies onto NVM crossbars, and serves the retrieval
  half of a query: embed -> encode -> in-memory scaled search -> restore
  -> decode.  Prepending the restored prompt and generating is the
  serving engine's one decode loop (:mod:`repro.serve.engine`).

:class:`repro.serve.PromptServeEngine` runs both, one session per user.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from ..cim.energy import RetrievalCostReport
from ..compression import AutoencoderConfig, OVTAutoencoder
from ..data.buffer import DataBuffer
from ..data.lamp import Sample
from ..llm.tokenizer import Tokenizer
from ..llm.transformer import TinyCausalLM
from ..mitigation import MITIGATION_REGISTRY, make_mitigation
from ..nvm.device_models import get_device
from ..retrieval import RETRIEVAL_REGISTRY, CiMSearchEngine, SearchConfig
from ..tuning import TuningConfig, VanillaPromptTuner, VirtualTokens
from ..utils import derive_rng
from .noise_training import NoiseAwareTrainer, NoiseInjectionConfig
from .selection import KSelectionConfig, select_representatives

__all__ = ["FrameworkConfig", "OVTLibrary", "OVTTrainingPipeline",
           "NVCiMDeployment"]


# Named configurations (JSON-style dicts, resolved by ``from_dict``).
_PRESETS: dict[str, dict] = {
    # Paper main grid: buffer 25, FeFET3, sigma 0.1, SSA + noise-aware PT;
    # Tables III and IV override the buffer or sigma of this cell.
    "table1": {"buffer_capacity": 25, "device_name": "NVM-3", "sigma": 0.1,
               "retrieval": "ssa", "mitigation": "none", "noise_aware": True},
    # Small-scale smoke configuration for demos and tests.
    "fast": {"buffer_capacity": 10, "device_name": "NVM-3", "sigma": 0.1,
             "tuning": {"steps": 6, "lr": 0.05}},
}


def _plain(value):
    """Recursively convert dataclasses/tuples to JSON-style dicts/lists."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _reject_unknown(section_cls, data: dict, section: str = "") -> None:
    """``from_dict``'s promise, for the top level and each nested section."""
    unknown = sorted(section + key for key in
                     set(data) - {f.name for f in fields(section_cls)})
    if unknown:
        raise ValueError(f"unknown FrameworkConfig keys: {unknown}")


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything that defines one NVCiM-PT configuration."""

    buffer_capacity: int = 25
    device_name: str = "NVM-3"
    sigma: float = 0.1                    # device variation (Table IV knob)
    retrieval: str = "ssa"                # "ssa" or "mips"
    mitigation: str = "none"              # none|swv|cxdnn|correctnet
    noise_aware: bool = True              # the paper's NT component
    code_dim: int = 48                    # autoencoder embedding size
    tuning: TuningConfig = field(default_factory=TuningConfig)
    k_selection: KSelectionConfig = field(default_factory=KSelectionConfig)
    noise_factors: tuple[float, float, float, float] = (1.0, 1.6, 1.6, 1.0)
    search: SearchConfig | None = None    # derived from `retrieval` if None
    seed: int = 0

    def __post_init__(self):
        if self.buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive")
        for axis, table in (("retrieval", RETRIEVAL_REGISTRY),
                            ("mitigation", MITIGATION_REGISTRY)):
            name = getattr(self, axis)
            if name not in table:
                raise ValueError(f"{axis} must be one of {sorted(table)}, "
                                 f"got {name!r}")

    def search_config(self) -> SearchConfig:
        if self.search is not None:
            return self.search
        return RETRIEVAL_REGISTRY[self.retrieval]

    def autoencoder_config(self, input_dim: int) -> AutoencoderConfig:
        """The user's autoencoder over ``input_dim``-wide (model) rows."""
        return AutoencoderConfig(input_dim=input_dim, code_dim=self.code_dim,
                                 seed=self.seed)

    def noise_config(self) -> NoiseInjectionConfig:
        f1, f2, f3, f4 = self.noise_factors
        return NoiseInjectionConfig(sigma=self.sigma, f1=f1, f2=f2, f3=f3,
                                    f4=f4, seed=self.seed)

    # ------------------------------------------------------------------
    # Serialization and presets (the serve layer's config surface).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict; inverse of :meth:`from_dict`."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> FrameworkConfig:
        """Build a config from a (possibly nested) plain dict.

        Nested sections (``tuning``, ``k_selection``, ``search``) may be
        given as dicts of their dataclass fields; omitted keys take the
        defaults.  Unknown keys — top-level or inside a section — are an
        error rather than silently dropped.
        """
        data = dict(data)
        _reject_unknown(cls, data)
        for name, section_cls in (("tuning", TuningConfig),
                                  ("k_selection", KSelectionConfig),
                                  ("search", SearchConfig)):
            section = data.get(name)
            if not isinstance(section, dict):
                continue
            _reject_unknown(section_cls, section, f"{name}.")
            # JSON lists (SearchConfig scales/weights) come back as tuples.
            data[name] = section_cls(**{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in section.items()})
        if "noise_factors" in data:
            data["noise_factors"] = tuple(data["noise_factors"])
        return cls(**data)

    @classmethod
    def preset(cls, name: str, **overrides) -> FrameworkConfig:
        """A named experiment configuration, e.g. ``preset("table1")``.

        Keyword overrides are applied on top of the preset, so
        ``preset("table1", device_name="NVM-5")`` is one Table I cell.
        """
        if name not in _PRESETS:
            raise KeyError(f"unknown preset {name!r}; "
                           f"available: {sorted(_PRESETS)}")
        return cls.from_dict({**_PRESETS[name], **overrides})


@dataclass
class OVTLibrary:
    """The trained artefacts: OVTs plus the autoencoder that encodes them."""

    ovts: list[VirtualTokens]
    autoencoder: OVTAutoencoder
    noise_aware: bool

    def __len__(self) -> int:
        return len(self.ovts)


def _token_rows(model: TinyCausalLM, tokenizer: Tokenizer,
                samples: list[Sample]) -> np.ndarray:
    """Stack normalised token-embedding rows (AE training data).

    Each sample's token matrix is normalised to unit peak, matching how
    matrices are scaled when encoded for storage/queries.
    """
    rows = []
    for sample in samples:
        matrix = model.token_embedding.weight.data[
            tokenizer.encode(sample.input_text)]
        rows.append(matrix / OVTAutoencoder.matrix_scale(matrix))
    return np.concatenate(rows, axis=0)


class OVTTrainingPipeline:
    """Training mode: stream -> buffer -> RS -> (noise-aware) PT -> library."""

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 config: FrameworkConfig | None = None,
                 library: OVTLibrary | None = None):
        """``library`` is the library to start from (a restored one); by
        default an empty one with a freshly initialised autoencoder."""
        config = config if config is not None else FrameworkConfig()
        self.model = model
        self.tokenizer = tokenizer
        self.config = config
        self.buffer = DataBuffer(config.buffer_capacity)
        self.library = library if library is not None else OVTLibrary(
            ovts=[],
            autoencoder=OVTAutoencoder(
                config.autoencoder_config(model.config.d_model)),
            noise_aware=config.noise_aware,
        )
        self._epochs_completed = 0

    # ------------------------------------------------------------------
    def observe(self, sample: Sample) -> bool:
        """Add one sample; returns True when a training epoch just ran."""
        ids = self.tokenizer.encode(sample.input_text)
        embedding = self.model.embed_text_vector(ids)
        self.buffer.add(sample, embedding)
        if self.buffer.is_full:
            self._run_epoch()
            return True
        return False

    def run(self, samples: list[Sample]) -> OVTLibrary:
        """Stream all samples through the buffer; return the library."""
        for sample in samples:
            self.observe(sample)
        return self.library

    def fork(self) -> OVTTrainingPipeline:
        """A copy to train on while this pipeline's library keeps serving.

        The fork has its own buffer; the library is shared, which is safe
        because an epoch never changes a library in place — it installs a
        new one.
        """
        twin = copy.copy(self)
        twin.buffer = self.buffer.copy()
        return twin

    # ------------------------------------------------------------------
    def _run_epoch(self) -> None:
        """Train the buffer into a new :class:`OVTLibrary`: the old one —
        its OVT list and its autoencoder — is left as it was, so whoever
        serves it (a deployment, a session not yet re-published) never
        sees an epoch half-applied."""
        library = OVTLibrary(ovts=list(self.library.ovts),
                             autoencoder=copy.deepcopy(
                                 self.library.autoencoder),
                             noise_aware=self.library.noise_aware)
        samples, embeddings = self.buffer.take_all()
        selection = select_representatives(
            embeddings, k_config=self.config.k_selection,
            seed=self.config.seed + self._epochs_completed)
        representatives = [samples[i] for i in selection.representative_indices]
        remainder = [samples[i] for i in selection.remainder_indices()]

        tuning = replace(self.config.tuning,
                         seed=self.config.seed + self._epochs_completed)
        if self.config.noise_aware:
            trainer = NoiseAwareTrainer(self.model, self.tokenizer, tuning,
                                        self.config.noise_config())
        else:
            trainer = VanillaPromptTuner(self.model, self.tokenizer, tuning)
        fresh_ovts = []
        for representative in representatives:
            artifact = trainer.fit([representative])
            fresh_ovts.append(artifact.soft_prompt)
        library.ovts.extend(fresh_ovts)

        # Autoencoder upkeep (paper: the buffer remainder updates the AE).
        # The freshly trained OVTs join the update set so the encoder also
        # covers virtual-token statistics, not just word embeddings.
        pieces = [_token_rows(self.model, self.tokenizer,
                              remainder or representatives)]
        for ovt in fresh_ovts:
            pieces.append(ovt.matrix
                          / OVTAutoencoder.matrix_scale(ovt.matrix))
        rows = np.concatenate(pieces, axis=0)
        if library.autoencoder.is_trained:
            library.autoencoder.update(rows)
        else:
            library.autoencoder.fit(rows)
        self.library = library
        self._epochs_completed += 1


class NVCiMDeployment:
    """Inference mode: the library programmed onto NVM, retrieving and
    restoring the prompt for each query."""

    def __init__(self, model: TinyCausalLM, tokenizer: Tokenizer,
                 library: OVTLibrary,
                 config: FrameworkConfig | None = None):
        config = config if config is not None else FrameworkConfig()
        if not library.ovts:
            raise ValueError("cannot deploy an empty OVT library")
        if not library.autoencoder.is_trained:
            raise ValueError("autoencoder must be trained before deployment")
        self.model = model
        self.tokenizer = tokenizer
        self.library = library
        self.config = config
        mitigation = (make_mitigation(config.mitigation)
                      if config.mitigation != "none" else None)
        self.engine = CiMSearchEngine(
            get_device(config.device_name),
            sigma=config.sigma,
            config=config.search_config(),
            mitigation=mitigation,
            rng=derive_rng(config.seed, "deployment", config.device_name,
                           config.mitigation, config.retrieval),
        )
        encoded = []
        self._scales: list[float] = []
        for ovt in library.ovts:
            codes, scale = library.autoencoder.encode_matrix(ovt.matrix)
            encoded.append(codes)
            self._scales.append(scale)
        self.engine.build(encoded)

    # ------------------------------------------------------------------
    def encode_query(self, input_text: str) -> np.ndarray:
        """User input -> token embedding rows -> autoencoder codes."""
        ids = self.tokenizer.encode(input_text)
        rows = self.model.token_embedding.weight.data[ids]
        codes, _ = self.library.autoencoder.encode_matrix(rows)
        return codes

    def restored_prompt(self, index: int) -> np.ndarray:
        """Read an OVT back from NVM and decode it to model space."""
        codes = self.engine.restore(index)
        return self.library.autoencoder.decode_matrix(codes,
                                                      self._scales[index])

    @cached_property
    def query_cost(self) -> RetrievalCostReport:
        """The priced cost of one retrieval (:meth:`CiMSearchEngine
        .query_cost`), worked out once: the stores keep their tiles for
        the deployment's life."""
        return self.engine.query_cost()

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture of the deployment's durable NVM state.

        The per-scale crossbar stores travel in full — conductances,
        counters, generator states — so :meth:`from_snapshot` brings the
        deployment back bit-identically without one programming pulse.
        """
        return {
            "scales": [float(s) for s in self._scales],
            "engine": self.engine.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, model: TinyCausalLM, tokenizer: Tokenizer,
                      library: OVTLibrary, config: FrameworkConfig,
                      snap: dict) -> "NVCiMDeployment":
        """Rebuild a deployment from a :meth:`snapshot` without programming.

        ``model``/``tokenizer``/``library``/``config`` are supplied by
        the caller (the session snapshot carries the library and config;
        the model is ambient), and the NVM state — conductances, counters
        and generator states — comes back bit-identically from ``snap``.
        """
        if not library.ovts:
            raise ValueError("cannot restore a deployment without a library")
        self = object.__new__(cls)
        self.model = model
        self.tokenizer = tokenizer
        self.library = library
        self.config = config
        self._scales = [float(s) for s in snap["scales"]]
        if len(self._scales) != len(library.ovts):
            raise ValueError(
                f"snapshot holds {len(self._scales)} OVTs, library has "
                f"{len(library.ovts)}")
        mitigation = (make_mitigation(config.mitigation)
                      if config.mitigation != "none" else None)
        self.engine = CiMSearchEngine.from_snapshot(
            snap["engine"],
            get_device(config.device_name),
            config=config.search_config(),
            mitigation=mitigation,
        )
        return self

