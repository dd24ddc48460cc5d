"""Production deployment simulation (§VI).

The online service fronts the ``repro.runtime`` engine, which owns the
collection -> buffering -> formatting -> pattern-gated detection stages
(the pattern library included); this package adds alert routing, the
annotation workflow and the deployment-efficiency comparison against
rule-based methods.
"""

from .alerting import AlertRouter, AlertSink, EmailSink, RecordingSink, SmsSink
from .online import OnlineService
from .labeling import Annotator, LabelingOutcome, dual_annotation
from .efficiency import LogSynergyTimeline, RuleBasedTimeline, deployment_speedup

__all__ = [
    "AlertRouter", "AlertSink", "SmsSink", "EmailSink", "RecordingSink",
    "OnlineService",
    "RuleBasedTimeline", "LogSynergyTimeline", "deployment_speedup",
    "Annotator", "LabelingOutcome", "dual_annotation",
]
