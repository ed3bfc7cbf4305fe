"""Chain plane: service graphs as the unit of deployment.

The template/overlay split after B-JointSP (see ``DESIGN.md`` §15):

* :mod:`repro.chain.template` — :class:`ChainSpec` manifests: components
  with cpu/memory demand and statefulness, directed arcs with per-arc
  rates, strict validation, canonical digests;
* :mod:`repro.chain.embed` — the joint scaling-and-placement engine that
  turns a template into an :class:`Overlay` against the QoS directory's
  advertised slack, plus the greedy per-function baseline;
* :mod:`repro.chain.deploy` — the orchestrator realizing an overlay
  through real attested sessions, routing per-arc traffic, and
  re-embedding around failures via the migrate plane.

Entirely opt-in: nothing here is imported by the core stack, and the
``chain_*`` perf counters stay zero unless a chain is deployed.
"""

from repro.chain.deploy import (ChainDeployError, ChainDeployment,
                                ChainStageFunction)
from repro.chain.embed import EmbedError, Overlay, embed, greedy_embed
from repro.chain.template import (ArcSpec, ChainSpec, ChainSpecError,
                                  ComponentSpec, apply_transform,
                                  fanout_chain, pipeline_chain)

__all__ = [
    "ArcSpec", "ChainSpec", "ChainSpecError", "ComponentSpec",
    "apply_transform", "fanout_chain", "pipeline_chain",
    "EmbedError", "Overlay", "embed", "greedy_embed",
    "ChainDeployError", "ChainDeployment", "ChainStageFunction",
]
