"""ECG signal substrate: synthesizer, noise models and the synthetic database.

Substitutes the MIT-BIH Arrhythmia Database (unavailable offline) with a
deterministic ECGSYN-style synthetic database sharing its sampling metadata;
see DESIGN.md §2 for the substitution rationale.
"""

from repro.signals.database import (
    DEFAULT_RECORD_DURATION_S,
    MITBIH_RECORD_NAMES,
    RecordProfile,
    SyntheticDatabase,
    load_database,
    load_record,
    load_record_pair,
    record_profile,
)
from repro.signals.ecgsyn import (
    NORMAL_MORPHOLOGY,
    PVC_MORPHOLOGY,
    PVC_V5_MORPHOLOGY,
    V5_MORPHOLOGY,
    EcgMorphology,
    RRParameters,
    integrate_reference,
    rr_tachogram,
    synthesize_ecg,
)
from repro.signals.noise import (
    NoiseProfile,
    baseline_wander,
    electrode_motion,
    muscle_artifact,
    powerline_interference,
    white_noise,
)
from repro.signals.detectors import QrsDetector, detect_r_peaks
from repro.signals.preprocessing import clean, notch_mains, remove_baseline
from repro.signals.records import (
    BeatAnnotation,
    MITBIH_HEADER,
    Record,
    RecordHeader,
)
from repro.signals.wfdb_io import (
    pack_212,
    read_header,
    read_record,
    unpack_212,
    write_record,
    write_record_pair,
)

__all__ = [
    "BeatAnnotation",
    "DEFAULT_RECORD_DURATION_S",
    "EcgMorphology",
    "MITBIH_HEADER",
    "MITBIH_RECORD_NAMES",
    "NORMAL_MORPHOLOGY",
    "NoiseProfile",
    "PVC_MORPHOLOGY",
    "PVC_V5_MORPHOLOGY",
    "QrsDetector",
    "Record",
    "V5_MORPHOLOGY",
    "detect_r_peaks",
    "load_record_pair",
    "write_record_pair",
    "RecordHeader",
    "RecordProfile",
    "RRParameters",
    "SyntheticDatabase",
    "baseline_wander",
    "clean",
    "electrode_motion",
    "notch_mains",
    "remove_baseline",
    "integrate_reference",
    "load_database",
    "load_record",
    "muscle_artifact",
    "pack_212",
    "powerline_interference",
    "read_header",
    "read_record",
    "record_profile",
    "rr_tachogram",
    "synthesize_ecg",
    "unpack_212",
    "white_noise",
    "write_record",
]
