"""Scenario replays must reproduce their recorded results byte for byte.

``tests/data/scenario_replays.json`` holds, for every bundled scenario
and every registered policy, the SHA-256 of ``ReplayResult.to_dict()``
(minus ``elapsed_seconds``, serialized with sorted keys) on the library
path and, for the fault-free scenarios, on the sharded path with
``shards=3``. The digests were captured while the harness still applied
events through its own manager-level loop; replaying through the
runtime reducer must not change a single checkpoint or counter.

Regenerate (only when a behaviour change is intended) with::

    PYTHONPATH=src python tests/scenarios/test_replay_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.algorithms.policies import policy_names
from repro.parallel import lower_bound_cache
from repro.scenarios import (
    ReplayOptions,
    bundled_scenario,
    replay_scenario,
    scenario_names,
)

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "scenario_replays.json"
SCHEMA = "scenario-replays-v1"

OPTIONS = {
    "library": ReplayOptions(checkpoint_every=64, offline_algorithm=None),
    "sharded": ReplayOptions(
        path="sharded", shards=3, checkpoint_every=64, offline_algorithm=None
    ),
}


def _cases():
    for name in scenario_names():
        scenario = bundled_scenario(name)
        has_faults = scenario.compile(scenario.instance.build()).has_faults
        for path in ("library", "sharded"):
            if path == "sharded" and has_faults:
                continue
            for policy in sorted(policy_names()):
                yield f"{name}/{policy}/{path}", name, policy, path


def replay_digest(name: str, policy: str, path: str) -> str:
    result = replay_scenario(bundled_scenario(name), policy, options=OPTIONS[path])
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _golden() -> Dict[str, str]:
    with GOLDEN_PATH.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["schema"] == SCHEMA
    return doc["digests"]


@pytest.fixture(autouse=True)
def _fresh_lb_cache():
    lower_bound_cache().clear()
    yield


def test_every_case_is_recorded():
    assert sorted(case[0] for case in _cases()) == sorted(_golden())


@pytest.mark.parametrize(
    "name,policy,path", [case[1:] for case in _cases()], ids=[c[0] for c in _cases()]
)
def test_replay_matches_golden(name, policy, path):
    assert replay_digest(name, policy, path) == _golden()[f"{name}/{policy}/{path}"]


if __name__ == "__main__":
    digests = {key: replay_digest(*rest) for key, *rest in _cases()}
    with GOLDEN_PATH.open("w", encoding="utf-8") as fh:
        json.dump({"schema": SCHEMA, "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
