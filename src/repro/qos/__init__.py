"""The serving plane: admission control, fair scheduling, load shedding.

See :mod:`repro.qos.plane` for the orchestrator a
:class:`~repro.core.server.BentoServer` embeds, and DESIGN.md §10 for how
admission → schedule → shed → place fit together.
"""

from repro.qos.admission import AdmissionController
from repro.qos.placement import pick_box_by_slack, rank_boxes, slack_key
from repro.qos.plane import CLASS_WEIGHTS, QosConfig, ServingPlane
from repro.qos.scheduler import FairQueue
from repro.qos.shedding import LoadShedder

__all__ = [
    "AdmissionController",
    "CLASS_WEIGHTS",
    "FairQueue",
    "LoadShedder",
    "QosConfig",
    "ServingPlane",
    "pick_box_by_slack",
    "rank_boxes",
    "slack_key",
]
