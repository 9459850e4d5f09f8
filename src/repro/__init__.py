"""NVCiM-PT: an NVCiM-assisted prompt tuning framework for edge LLMs.

Reproduction of Qin et al., DATE 2025 (arXiv:2411.08244), grown into a
multi-user serving system.  The public API has two levels:

**Serving layer** (:mod:`repro.serve`) — the primary surface.  A
:class:`PromptServeEngine` owns one shared frozen base model and a bounded
LRU cache of per-user sessions, each holding that user's OVT library and
its NVM deployment.  Training data arrives as
:class:`TuneRequest`s, queries as :class:`QueryRequest`s (singly or in
batches via ``submit_batch`` / ``answer_batch``), and every
:class:`QueryResponse` carries retrieval telemetry: the selected OVT, the
per-OVT similarity scores, and analytic CiM latency/energy estimates.
One user is an engine with one session (``max_sessions=1``).

**Serving edge** (:mod:`repro.gateway`) — the network front.  A
:class:`PromptGateway` exposes the engine over HTTP (pure stdlib asyncio)
with bounded-queue FIFO admission control, deadline SLOs, and a worker
thread driving the engine's continuous batching; :class:`GatewayClient`
is the pooled retrying client.

**Building blocks** — the framework pieces the engine composes:
:class:`OVTTrainingPipeline` / :class:`NVCiMDeployment`, the
model/dataset/device zoos, prompt-tuning methods and cost models.

The paper's evaluation grid is closed: its three models, five NVM
devices, mitigation baselines and retrieval strategies are plain
name-keyed tables, each read through one lookup whose error lists
the valid names (``build_model``, ``get_device``, and
``FrameworkConfig(mitigation=..., retrieval=...)``).  Configurations are
plain data: :meth:`FrameworkConfig.to_dict` /
:meth:`FrameworkConfig.from_dict` round-trip through JSON, and
:meth:`FrameworkConfig.preset` names the paper's main setting
(``"table1"``) and a small smoke setting (``"fast"``).
"""

from .core import (
    FrameworkConfig,
    NVCiMDeployment,
    NoiseAwareTrainer,
    NoiseInjectionConfig,
    OVTLibrary,
    OVTTrainingPipeline,
)
from .data import (
    DataBuffer,
    available_datasets,
    build_corpus,
    build_tokenizer,
    make_dataset,
    make_user,
    make_users,
)
from .gateway import (
    GatewayClient,
    GatewayConfig,
    PromptGateway,
)
from .llm import (
    GenerationConfig,
    available_models,
    build_model,
    generate,
    load_pretrained_model,
)
from .nvm import available_devices, get_device
from .serve import (
    PromptServeEngine,
    QueryRequest,
    QueryResponse,
    SessionSnapshot,
    SessionStore,
    TuneRequest,
    TuneResponse,
    UserSession,
)

__version__ = "0.2.0"

__all__ = [
    # Serving layer
    "PromptServeEngine", "UserSession",
    "SessionSnapshot", "SessionStore",
    "TuneRequest", "TuneResponse", "QueryRequest", "QueryResponse",
    # Serving edge
    "PromptGateway", "GatewayConfig", "GatewayClient",
    # Framework
    "FrameworkConfig", "OVTLibrary", "OVTTrainingPipeline",
    "NVCiMDeployment", "NoiseAwareTrainer", "NoiseInjectionConfig",
    # Data
    "build_tokenizer", "build_corpus", "make_dataset", "available_datasets",
    "make_user", "make_users", "DataBuffer",
    # Models and generation
    "build_model", "load_pretrained_model", "available_models",
    "generate", "GenerationConfig",
    # Devices
    "get_device", "available_devices",
    "__version__",
]
