"""The paper's contribution: the hybrid CS ECG front-end, end to end."""

from repro.core.adaptive import (
    ActivityEstimator,
    AdaptiveFrontEnd,
    AdaptiveReceiver,
)
from repro.core.channel import LossyLink, RobustReceiver, payload_crc
from repro.core.config import DEFAULT_CONFIG, FrontEndConfig
from repro.core.encode_batch import measure_window_stack
from repro.core.frontend import HybridFrontEnd, NormalCsFrontEnd
from repro.core.packets import HEADER_BITS, WindowPacket
from repro.core.pipeline import (
    RecordOutcome,
    WindowOutcome,
    default_codebook,
    run_database,
    run_record,
)
from repro.core.receiver import HybridReceiver, WindowReconstruction
from repro.core.windowing import WindowFramer

__all__ = [
    "ActivityEstimator",
    "AdaptiveFrontEnd",
    "AdaptiveReceiver",
    "DEFAULT_CONFIG",
    "FrontEndConfig",
    "HEADER_BITS",
    "HybridFrontEnd",
    "HybridReceiver",
    "LossyLink",
    "NormalCsFrontEnd",
    "RobustReceiver",
    "payload_crc",
    "RecordOutcome",
    "WindowFramer",
    "WindowOutcome",
    "WindowPacket",
    "WindowReconstruction",
    "default_codebook",
    "measure_window_stack",
    "run_database",
    "run_record",
]
