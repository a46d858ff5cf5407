"""Tests for the repro.perf profiler."""
