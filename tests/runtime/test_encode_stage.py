"""Tests of the batched encode stage over same-link window tasks."""

import dataclasses

import numpy as np
import pytest

from repro.core.codebooks import CodebookKey
from repro.core.config import FrontEndConfig
from repro.recovery.pdhg import PdhgSettings
from repro.runtime import CodebookSpec, WindowTask, task_seed
from repro.runtime.stages import encode, encode_batch
from repro.signals.database import load_record

FAST = FrontEndConfig(
    window_len=128,
    n_measurements=48,
    solver=PdhgSettings(max_iter=200, tol=1e-3),
)


@pytest.fixture(scope="module")
def tasks():
    record = load_record("100", duration_s=3.0)
    windows = list(record.windows(FAST.window_len))[:4]
    spec = CodebookSpec.default(
        CodebookKey(
            lowres_bits=FAST.lowres_bits,
            acquisition_bits=FAST.acquisition_bits,
        )
    )
    return [
        WindowTask(
            record_name="100",
            method="hybrid",
            window_index=i,
            codes=w,
            config=FAST,
            codebook=spec,
            seed=task_seed("100", "hybrid", i),
        )
        for i, w in enumerate(windows)
    ]


class TestEncodeBatch:
    def test_matches_scalar_stage(self, tasks):
        batched = encode_batch(tasks)
        scalar = [encode(task) for task in tasks]
        assert [p.to_bytes() for p in batched] == [
            p.to_bytes() for p in scalar
        ]
        assert [p.window_index for p in batched] == [t.window_index for t in tasks]

    def test_empty_batch(self):
        assert encode_batch([]) == []

    def test_single_task_uses_scalar_path(self, tasks):
        [packet] = encode_batch(tasks[:1])
        assert packet.to_bytes() == encode(tasks[0]).to_bytes()

    def test_mixed_links_rejected(self, tasks):
        other = dataclasses.replace(
            tasks[1], config=FAST.with_measurements(32)
        )
        with pytest.raises(ValueError, match="share one link"):
            encode_batch([tasks[0], other])

    def test_mixed_methods_rejected(self, tasks):
        normal = dataclasses.replace(
            tasks[1], method="normal", codebook=CodebookSpec.none()
        )
        with pytest.raises(ValueError, match="share one link"):
            encode_batch([tasks[0], normal])
