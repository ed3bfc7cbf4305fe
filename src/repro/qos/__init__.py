"""The serving plane: admission control, load shedding, slack placement.

See :mod:`repro.qos.plane` for the orchestrator a
:class:`~repro.core.server.BentoServer` embeds, and DESIGN.md §10 for how
admission → shed → place fit together.
"""

from repro.qos.admission import AdmissionController
from repro.qos.placement import pick_box_by_slack, rank_boxes, slack_key
from repro.qos.plane import QosConfig, ServingPlane
from repro.qos.shedding import LoadShedder

__all__ = [
    "AdmissionController",
    "LoadShedder",
    "QosConfig",
    "ServingPlane",
    "pick_box_by_slack",
    "rank_boxes",
    "slack_key",
]
