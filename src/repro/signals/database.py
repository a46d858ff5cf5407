"""A deterministic synthetic stand-in for the MIT-BIH Arrhythmia Database.

The paper's Section IV evaluates on the 48 half-hour MIT-BIH records
(360 Hz, 11-bit over 10 mV).  The raw database cannot be bundled here, so
this module builds a *synthetic* database with the same shape:

* the same 48 record names,
* the same header (360 Hz, 11-bit, gain 200 ADU/mV, baseline 1024 ADU),
* per-record morphology diversity (heart rate, wave amplitudes, noise
  levels, and ectopic PVC beats for a subset of records), all derived
  deterministically from the record name, so every run of every experiment
  sees byte-identical data.

Record duration is configurable (the paper's half-hour records would make
the benchmark suite needlessly slow); experiments default to 60-second
records, which is plenty for stable window statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.signals.ecgsyn import (
    NORMAL_MORPHOLOGY,
    PVC_MORPHOLOGY,
    PVC_V5_MORPHOLOGY,
    V5_MORPHOLOGY,
    EcgMorphology,
    RRParameters,
    _gaussian_wave_drive,
    rr_tachogram,
)
from repro.signals.noise import NoiseProfile
from repro.signals.records import BeatAnnotation, MITBIH_HEADER, Record, RecordHeader

__all__ = [
    "MITBIH_RECORD_NAMES",
    "RecordProfile",
    "record_profile",
    "load_record",
    "load_database",
    "SyntheticDatabase",
    "DEFAULT_RECORD_DURATION_S",
    "iter_record_chunks",
    "interleave_playback",
]

#: The 48 record names of the MIT-BIH Arrhythmia Database.
MITBIH_RECORD_NAMES: Tuple[str, ...] = (
    "100", "101", "102", "103", "104", "105", "106", "107", "108", "109",
    "111", "112", "113", "114", "115", "116", "117", "118", "119", "121",
    "122", "123", "124", "200", "201", "202", "203", "205", "207", "208",
    "209", "210", "212", "213", "214", "215", "217", "219", "220", "221",
    "222", "223", "228", "230", "231", "232", "233", "234",
)

DEFAULT_RECORD_DURATION_S = 60.0


@dataclass(frozen=True)
class RecordProfile:
    """Deterministic per-record synthesis parameters.

    Derived from the record name so the database is reproducible; see
    :func:`record_profile`.
    """

    name: str
    seed: int
    mean_hr_bpm: float
    std_hr_bpm: float
    amplitude_mv: float
    noise_scale: float
    pvc_probability: float
    mains_hz: float

    def rr_params(self) -> RRParameters:
        """RR-process parameters for this record."""
        return RRParameters(
            mean_hr_bpm=self.mean_hr_bpm, std_hr_bpm=self.std_hr_bpm
        )

    def noise_profile(self) -> NoiseProfile:
        """Noise profile for this record (scaled base ambulatory profile)."""
        base = NoiseProfile(mains_hz=self.mains_hz)
        return base.scaled(self.noise_scale)


def record_profile(name: str) -> RecordProfile:
    """Build the deterministic :class:`RecordProfile` for a record name.

    The record name seeds a PRNG from which all per-record parameters are
    drawn, giving the database stable morphology diversity: heart rates in
    55-95 bpm, R amplitudes 0.6-1.5 mV, noise scaling 0.5x-1.6x, and PVCs
    in roughly a third of the records (like the real database, where some
    records are dominated by ectopy and others are clean sinus rhythm).
    """
    if name not in MITBIH_RECORD_NAMES:
        raise KeyError(
            f"unknown record {name!r}; valid names are the 48 MIT-BIH record ids"
        )
    seed = int(name) * 7919 + 17
    rng = np.random.default_rng(seed)
    mean_hr = float(rng.uniform(55.0, 95.0))
    std_hr = float(rng.uniform(0.5, 3.0))
    amplitude = float(rng.uniform(0.6, 1.5))
    noise_scale = float(rng.uniform(0.5, 1.6))
    has_pvc = rng.uniform() < 0.35
    pvc_prob = float(rng.uniform(0.03, 0.15)) if has_pvc else 0.0
    return RecordProfile(
        name=name,
        seed=seed,
        mean_hr_bpm=mean_hr,
        std_hr_bpm=std_hr,
        amplitude_mv=amplitude,
        noise_scale=noise_scale,
        pvc_probability=pvc_prob,
        mains_hz=60.0,
    )


#: Per-lead (sinus, PVC) morphology pairs.  Leads share the phase
#: trajectory and beat schedule — two projections of one dipole — so
#: multi-lead records stay sample-aligned.
_LEAD_MORPHOLOGIES: Dict[str, Tuple[EcgMorphology, EcgMorphology]] = {
    "MLII": (NORMAL_MORPHOLOGY, PVC_MORPHOLOGY),
    "V5": (V5_MORPHOLOGY, PVC_V5_MORPHOLOGY),
}


def _synthesize_with_beats(
    profile: RecordProfile,
    duration_s: float,
    fs_hz: float,
    lead: str = "MLII",
) -> Tuple[np.ndarray, List[BeatAnnotation]]:
    """Phase-domain synthesis with per-beat morphology and annotations.

    Replicates :func:`repro.signals.ecgsyn.synthesize_ecg` but (a) selects a
    morphology per beat so PVCs can be interleaved with sinus beats,
    (b) projects onto the requested lead, and (c) returns R-peak
    annotations derived from the phase trajectory.  All randomness is
    seeded from the profile only, so different leads of the same record
    share RR timing and beat types exactly.
    """
    from scipy import signal as sps

    if lead not in _LEAD_MORPHOLOGIES:
        raise KeyError(
            f"unknown lead {lead!r}; choose from {sorted(_LEAD_MORPHOLOGIES)}"
        )
    rng = np.random.default_rng(profile.seed + 1)
    n = int(round(duration_s * fs_hz))
    dt = 1.0 / fs_hz

    rr = rr_tachogram(n, fs_hz, profile.rr_params(), rng)
    omega = 2.0 * np.pi / rr

    theta_unwrapped = np.empty(n)
    theta_unwrapped[0] = -np.pi  # start at the beginning of a cycle
    if n > 1:
        theta_unwrapped[1:] = theta_unwrapped[0] + np.cumsum(omega[:-1]) * dt
    theta = (theta_unwrapped + np.pi) % (2.0 * np.pi) - np.pi

    # Beat index of every sample: cycle k covers unwrapped phase
    # [-pi + 2*pi*k, -pi + 2*pi*(k+1)).
    beat_index = np.floor((theta_unwrapped + np.pi) / (2.0 * np.pi)).astype(int)
    n_beats = int(beat_index.max()) + 1

    # Choose per-beat morphology (beat schedule is lead-independent).
    beat_is_pvc = rng.uniform(size=n_beats) < profile.pvc_probability
    sinus_morph, pvc_morph = _LEAD_MORPHOLOGIES[lead]
    morphologies: Dict[bool, EcgMorphology] = {
        False: sinus_morph,
        True: pvc_morph,
    }

    drive = np.empty(n)
    for is_pvc, morph in morphologies.items():
        mask = beat_is_pvc[beat_index] == is_pvc
        if np.any(mask):
            drive[mask] = _gaussian_wave_drive(theta[mask], omega[mask], morph)

    t = np.arange(n) * dt
    z0 = 0.005 * np.sin(2.0 * np.pi * 0.25 * t)
    u = z0 + drive
    decay = float(np.exp(-dt))
    z = sps.lfilter([1.0 - decay], [1.0, -decay], u)

    peak = float(np.max(np.abs(z))) if n else 0.0
    if peak > 0:
        z = z * (profile.amplitude_mv / peak)
    return z, _r_peak_annotations(theta, beat_index, beat_is_pvc, n_beats)


def _r_peak_annotations(
    theta: np.ndarray,
    beat_index: np.ndarray,
    beat_is_pvc: np.ndarray,
    n_beats: int,
) -> List[BeatAnnotation]:
    """R peaks: the sample in each beat closest to theta == 0 (the R wave's
    angular position in both morphologies' QRS complex)."""
    annotations: List[BeatAnnotation] = []
    for k in range(n_beats):
        samples = np.nonzero(beat_index == k)[0]
        if samples.size == 0:
            continue
        local = samples[np.argmin(np.abs(theta[samples]))]
        # Skip partial beats at the edges whose R wave falls outside.
        if abs(theta[local]) > 0.2:
            continue
        symbol = "V" if beat_is_pvc[k] else "N"
        annotations.append(BeatAnnotation(sample=int(local), symbol=symbol))
    return annotations


@lru_cache(maxsize=64)
def _load_record_cached(
    name: str, duration_s: float, fs_hz: float, clean: bool, lead: str
) -> Record:
    """Synthesize (or fetch) the record for one exact parameter tuple.

    LRU semantics the rest of the repo relies on:

    * a cache hit returns the *same* :class:`Record` object — callers
      must treat records as immutable (``Record`` is frozen and its
      arrays are never written in-repo);
    * eviction (more than 64 distinct parameter tuples in flight) only
      costs time: synthesis is a deterministic function of the key, so a
      re-synthesized record is byte-identical to the evicted one.  Both
      properties are pinned by ``tests/signals/test_database.py``.
    """
    profile = record_profile(name)
    header = RecordHeader(
        fs_hz=fs_hz,
        resolution_bits=MITBIH_HEADER.resolution_bits,
        adc_gain=MITBIH_HEADER.adc_gain,
        adc_zero=MITBIH_HEADER.adc_zero,
        lead=lead,
    )
    clean_mv, annotations = _synthesize_with_beats(
        profile, duration_s, fs_hz, lead
    )
    if clean:
        signal_mv = clean_mv
    else:
        # Each lead sees its own electrode/muscle noise realization
        # (different electrodes), seeded deterministically per lead.
        lead_offset = sum(ord(c) for c in lead)
        noise_rng = np.random.default_rng(profile.seed + 2 + lead_offset)
        signal_mv = clean_mv + profile.noise_profile().render(
            duration_s, fs_hz, noise_rng
        )
    adu = header.mv_to_adu(signal_mv)
    return Record(
        name=name, adu=adu, header=header, annotations=tuple(annotations)
    )


def load_record(
    name: str,
    *,
    duration_s: float = DEFAULT_RECORD_DURATION_S,
    fs_hz: float = 360.0,
    clean: bool = False,
    lead: str = "MLII",
) -> Record:
    """Load one synthetic record by its MIT-BIH name.

    Parameters
    ----------
    name:
        One of the 48 MIT-BIH record ids (e.g. ``"100"``).
    duration_s:
        Record length in seconds (default 60 s; the real records are 30 min
        but shorter records give the same window statistics far faster).
    fs_hz:
        Sampling rate; 360 Hz matches the original database.
    clean:
        If true, skip the additive noise model (useful for tests that need
        a noise-free reference).
    lead:
        ``"MLII"`` (default, the lead the paper's experiments use) or
        ``"V5"``; both leads of a record share beat timing exactly.

    Returns
    -------
    Record
        Deterministic for a given ``(name, duration_s, fs_hz, clean, lead)``.
        Results are memoized per exact parameter tuple (LRU, 64 entries);
        repeated loads return the same immutable object, and eviction
        never changes record bytes (see :func:`_load_record_cached`).
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    return _load_record_cached(
        name, float(duration_s), float(fs_hz), bool(clean), str(lead)
    )


def load_record_pair(
    name: str,
    *,
    duration_s: float = DEFAULT_RECORD_DURATION_S,
    fs_hz: float = 360.0,
    clean: bool = False,
) -> Tuple[Record, Record]:
    """Both leads of a record (MLII, V5), sample-aligned.

    Mirrors the two-channel structure of the real MIT-BIH records; the
    leads share RR timing and beat types (they are two projections of the
    same cardiac dipole), so their annotations are identical.
    """
    mlii = load_record(
        name, duration_s=duration_s, fs_hz=fs_hz, clean=clean, lead="MLII"
    )
    v5 = load_record(
        name, duration_s=duration_s, fs_hz=fs_hz, clean=clean, lead="V5"
    )
    return mlii, v5


def load_database(
    names: Optional[Sequence[str]] = None,
    *,
    duration_s: float = DEFAULT_RECORD_DURATION_S,
    fs_hz: float = 360.0,
    clean: bool = False,
) -> "SyntheticDatabase":
    """Load the full 48-record synthetic database (or a named subset)."""
    selected = tuple(names) if names is not None else MITBIH_RECORD_NAMES
    records = tuple(
        load_record(n, duration_s=duration_s, fs_hz=fs_hz, clean=clean)
        for n in selected
    )
    return SyntheticDatabase(records)


def iter_record_chunks(
    record: Record, chunk_size: int
) -> Iterator[np.ndarray]:
    """Play a record back as successive fixed-size sample chunks.

    Yields the record's raw ADU samples in arrival order as 1-D integer
    arrays of shape ``(chunk_size,)`` (the final chunk may be shorter).
    Purely index-driven — no sleeps, no wall clock — so streaming tests
    replay a "live" acquisition deterministically.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    for start in range(0, len(record), chunk_size):
        yield record.adu[start : start + chunk_size]


def interleave_playback(
    records: Sequence[Record], chunk_size: int
) -> Iterator[Tuple[str, np.ndarray]]:
    """Round-robin chunked playback across several records.

    Yields ``(record_name, chunk)`` pairs, cycling through the records
    in order and emitting one ``chunk_size`` slice from each per cycle
    (chunks are 1-D integer arrays; a record's final chunk may be
    shorter).  Records that run out simply drop from the rotation, so
    differing record lengths are fine.  The ordering is a deterministic
    function of the inputs alone — this is how the ``gateway_realtime``
    workload of ``perfbench/`` and the gateway tests simulate N
    concurrent patients without any wall-clock dependency.
    """
    if not records:
        raise ValueError("need at least one record")
    streams = [(rec.name, iter_record_chunks(rec, chunk_size)) for rec in records]
    while streams:
        still_live = []
        for name, chunks in streams:
            chunk = next(chunks, None)
            if chunk is None:
                continue
            still_live.append((name, chunks))
            yield name, chunk
        streams = still_live


@dataclass(frozen=True)
class SyntheticDatabase:
    """An ordered collection of :class:`Record` with convenience access."""

    records: Tuple[Record, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("database cannot be empty")
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            raise ValueError("duplicate record names in database")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, name: str) -> Record:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(f"record {name!r} not in database")

    @property
    def names(self) -> Tuple[str, ...]:
        """Record names in database order."""
        return tuple(r.name for r in self.records)

    def total_duration_s(self) -> float:
        """Sum of all record durations in seconds."""
        return float(sum(r.duration_s for r in self.records))

    def subset(self, names: Sequence[str]) -> "SyntheticDatabase":
        """A new database containing only the named records, in order."""
        return SyntheticDatabase(tuple(self[n] for n in names))
