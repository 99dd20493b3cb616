"""Tests for repro.perf (pool, cache, audit) and the CI paired gate."""
