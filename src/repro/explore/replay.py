"""Schedule serialisation and exact replay.

A counterexample (or any schedule of interest) is serialised as a
small JSON document — the *schedule format* — that pins everything a
later process needs to reproduce the run bit-for-bit: scenario name,
exploration options, and the choice indices.  Because the simulator
is deterministic and scenarios rebuild their world from scratch, a
loaded schedule replays the identical run on any machine.

Format (``repro-explore-schedule/2``)::

    {
      "format": "repro-explore-schedule/2",
      "scenario": "quit-race",
      "options": { ... ExploreOptions fields ... },
      "schedule": [0, 2, 1],
      "expect": "clean" | "violation",
      "note": "free-form provenance",
      "source": "forward" | "backward",
      "seed": 7 | null,
      "predicate": "member-stranded" | ""
    }

The provenance trio (``source``, ``seed``, ``predicate``) lets a
schedule name which search produced it, under which seed, chasing
which goal predicate; any other ``source`` (``"frontier"``, written
by the sharded forward search that was removed, included) is rejected
with :class:`ScheduleFormatError`.  This is the only accepted format:
any other ``format`` value is rejected too.

``expect`` is what the *pinned* behaviour is: regression schedules
exported after a fix carry ``"clean"`` (replaying them must produce
no violation); freshly exported counterexamples carry
``"violation"`` until the underlying bug is fixed.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple, Union

from repro.explore.engine import ExploreOptions, RunOutcome, natural, run_schedule
from repro.explore.scenarios import SCENARIOS, get_scenario

FORMAT = "repro-explore-schedule/2"

_SOURCES = ("forward", "backward")
_EXPECTS = ("clean", "violation")


class ScheduleFormatError(ValueError):
    """Raised when a schedule document is malformed."""


def schedule_payload(
    scenario_name: str,
    options: ExploreOptions,
    schedule: Tuple[int, ...],
    expect: str = "violation",
    note: str = "",
    source: str = "forward",
    seed: Optional[int] = None,
    predicate: str = "",
) -> Dict[str, object]:
    """Build the JSON-serialisable schedule document (format v2)."""
    if expect not in _EXPECTS:
        raise ValueError(f"expect must be 'clean' or 'violation', got {expect!r}")
    if source not in _SOURCES:
        raise ValueError(f"source must be one of {_SOURCES}, got {source!r}")
    return {
        "format": FORMAT,
        "scenario": scenario_name,
        "options": options.to_dict(),
        "schedule": list(schedule),
        "expect": expect,
        "note": note,
        "source": source,
        "seed": seed,
        "predicate": predicate,
    }


def dump_schedule(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_options(options: object) -> None:
    """Every known ``ExploreOptions`` field has its default's type:
    a non-negative int or a list of strings.  Unknown keys are
    ignored, as :meth:`ExploreOptions.from_dict` ignores them."""
    if not isinstance(options, dict):
        raise ScheduleFormatError("options must be a JSON object")
    defaults = ExploreOptions()
    for key, value in options.items():
        if key not in ExploreOptions.__dataclass_fields__:
            continue
        default = getattr(defaults, key)
        if isinstance(default, tuple):
            valid = isinstance(value, list) and all(isinstance(v, str) for v in value)
        else:
            valid = natural(value)
        if not valid:
            raise ScheduleFormatError(
                f"options.{key} must be like {default!r}, got {value!r}"
            )


def load_schedule(text: Union[str, bytes]) -> Dict[str, object]:
    """Parse and validate a schedule document (text, or UTF-8 bytes).
    Anything a replay could not run raises :class:`ScheduleFormatError`."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScheduleFormatError(f"not UTF-8: {exc}") from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScheduleFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ScheduleFormatError("schedule document must be a JSON object")
    version = payload.get("format")
    if version != FORMAT:
        raise ScheduleFormatError(
            f"unknown format {version!r}; expected {FORMAT!r}"
        )
    for key in ("scenario", "options", "schedule"):
        if key not in payload:
            raise ScheduleFormatError(f"missing required key {key!r}")
    scenario = payload["scenario"]
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ScheduleFormatError(
            f"unknown scenario {scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    _check_options(payload["options"])
    schedule = payload["schedule"]
    if not isinstance(schedule, list) or not all(map(natural, schedule)):
        raise ScheduleFormatError("schedule must be a list of non-negative ints")
    for key, allowed, default in (
        ("expect", _EXPECTS, "clean"),
        ("source", _SOURCES, "forward"),
    ):
        value = payload.get(key, default)
        if not isinstance(value, str) or value not in allowed:
            raise ScheduleFormatError(
                f"{key} must be one of {allowed}, got {value!r}"
            )
    for key in ("note", "predicate"):
        if not isinstance(payload.get(key, ""), str):
            raise ScheduleFormatError(f"{key} must be a string")
    seed = payload.get("seed")
    if seed is not None and type(seed) is not int:
        raise ScheduleFormatError("seed must be an int or null")
    return payload


def replay_payload(payload: Dict[str, object]) -> RunOutcome:
    """Replay a schedule document; returns the (deterministic) outcome."""
    scenario = get_scenario(str(payload["scenario"]))
    options = ExploreOptions.from_dict(dict(payload["options"]))
    schedule = tuple(int(value) for value in payload["schedule"])
    limit = max(len(schedule), options.max_decisions)
    return run_schedule(scenario, schedule, options, limit=limit)


def replay_file(path: str) -> RunOutcome:
    """Load a schedule document from ``path`` and replay it."""
    with open(path, "rb") as handle:
        payload = load_schedule(handle.read())
    return replay_payload(payload)


def verify_payload(payload: Dict[str, object]) -> Optional[str]:
    """Replay and compare against the document's ``expect`` pin.

    Returns None when behaviour matches, else a human-readable
    mismatch description (used by generated regression tests).
    """
    outcome = replay_payload(payload)
    expect = payload.get("expect", "clean")
    if expect == "clean" and outcome.violation is not None:
        return (
            "schedule pinned as clean now violates:\n"
            + outcome.violation.describe()
        )
    if expect == "violation" and outcome.violation is None:
        return "schedule pinned as violating now replays clean"
    return None
