#!/usr/bin/env python3
"""Every committed BENCH_*.json must record its own gates as passing.

A bench writes `*_pass` / `*_identical` flags for the gates it checks
while it runs (bitwise shard identity, accuracy gates, ...). A committed
artifact carrying one of them as `false` either came from a failing run
or went stale when the code moved on; both mean the file no longer
reproduces from HEAD. This test walks every object in every committed
artifact, so a flag nested inside a report is covered too.

Run directly or via the `bench_gate_selftest` ctest entry.
"""

import glob
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FLAG_SUFFIXES = ("_pass", "_identical")


def gate_flags(obj, path=""):
    """Yield (dotted_path, value) for every boolean key ending in a flag suffix."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            here = f"{path}.{key}" if path else key
            if isinstance(value, bool) and key.endswith(FLAG_SUFFIXES):
                yield here, value
            yield from gate_flags(value, here)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from gate_flags(value, f"{path}[{i}]")


class GateFlagTests(unittest.TestCase):
    def test_walk_finds_nested_flags_and_ignores_non_booleans(self):
        doc = {"a_pass": True, "n_pass": 1, "x": {"y_identical": False},
               "cells": [{"z_pass": False}], "other": False}
        self.assertEqual(list(gate_flags(doc)),
                         [("a_pass", True), ("x.y_identical", False),
                          ("cells[0].z_pass", False)])


class CommittedArtifactTests(unittest.TestCase):
    def test_every_gate_flag_in_committed_artifacts_is_true(self):
        artifacts = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertTrue(artifacts, f"no BENCH_*.json found under {ROOT}")
        failing = []
        for artifact in artifacts:
            with open(artifact) as f:
                doc = json.load(f)
            name = os.path.basename(artifact)
            failing += [f"{name}:{flag}" for flag, ok in gate_flags(doc) if not ok]
        self.assertEqual(failing, [], "committed artifacts record failing gates; "
                         "regenerate them from HEAD")


if __name__ == "__main__":
    unittest.main()
