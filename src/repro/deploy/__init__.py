"""Production deployment simulation (§VI).

The online service fronts the ``repro.runtime`` engine, which owns the
collection -> buffering -> formatting -> pattern-gated detection stages;
this package adds the pattern library, alert routing, the annotation
workflow and the deployment-efficiency comparison against rule-based
methods.
"""

from .pattern_library import PatternLibrary, PatternStats
from .alerting import AlertRouter, AlertSink, EmailSink, RecordingSink, SmsSink
from .online import OnlineService
from .labeling import Annotator, LabelingOutcome, dual_annotation
from .efficiency import LogSynergyTimeline, RuleBasedTimeline, deployment_speedup

__all__ = [
    "PatternLibrary", "PatternStats",
    "AlertRouter", "AlertSink", "SmsSink", "EmailSink", "RecordingSink",
    "OnlineService",
    "RuleBasedTimeline", "LogSynergyTimeline", "deployment_speedup",
    "Annotator", "LabelingOutcome", "dual_annotation",
]
