"""LogSynergy core: the paper's primary contribution.

SUFE feature disentanglement (CLUB mutual-information minimization +
anomaly/system classifier pair), DAAN domain adaptation, the Transformer
feature extractor, the offline trainer (Eq. 5) and the online detector.
"""

from .club import CLUBEstimator
from .daan import DAANModule
from .model import LogSynergyModel
from .features import SystemFeaturizer
from .trainer import LogSynergyTrainer, TrainingBatch, TrainingHistory
from .checkpoint import CheckpointEntry, CheckpointStore
from .controller import (
    CONTINUE,
    PAUSE,
    STOP,
    CheckpointEvery,
    ComposedController,
    ControllerError,
    StopAfter,
    TrainingController,
    compose,
)
from .onboard import OnboardingResult, OnboardingSession
from .report import AnomalyReport, build_report
from .explain import (
    EventAttribution,
    WindowExplanation,
    explain_window,
    nearest_training_sequences,
    occlusion_attribution,
)
from .pipeline import LogSynergy

__all__ = [
    "CLUBEstimator", "DAANModule", "LogSynergyModel", "SystemFeaturizer",
    "LogSynergyTrainer", "TrainingBatch", "TrainingHistory",
    "CheckpointEntry", "CheckpointStore",
    "CONTINUE", "PAUSE", "STOP", "TrainingController", "ComposedController",
    "ControllerError", "CheckpointEvery", "StopAfter", "compose",
    "OnboardingResult", "OnboardingSession",
    "AnomalyReport", "build_report",
    "EventAttribution", "WindowExplanation", "explain_window",
    "occlusion_attribution", "nearest_training_sequences",
    "LogSynergy",
]
