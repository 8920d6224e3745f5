"""Scenario file parsing and duration literals.

A scenario is line-oriented: ``<time> <verb> <args>``, where time is a
duration literal (``30``, ``30s``, ``500ms``, ``20min``, ``100us``; a bare
number means seconds) and the verbs are:

    <time> join <id>
    <time> leave <id> graceful|crash
    <time> partition <ids>|<ids>[|<ids>...]
    <time> heal

``<ids>`` is a comma-separated list of node ids.  Blank lines and ``#``
comments are ignored.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .simnet import CrashAt, HealAt, JoinAt, LeaveAt, PartitionAt

_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000, "min": 60_000_000}


def parse_duration(text: str) -> int:
    """A duration literal to integer microseconds."""
    text = text.strip()
    for unit in ("min", "ms", "us", "s"):
        if text.endswith(unit):
            number = text[: -len(unit)]
            scale = _UNITS[unit]
            break
    else:
        number, scale = text, _UNITS["s"]
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(f"bad duration literal {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite duration {text!r}")
    if value < 0:
        raise ConfigError(f"negative duration {text!r}")
    return round(value * scale)


def _parse_ids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise ConfigError(f"bad id list {text!r}") from None


def parse_scenario(text: str) -> tuple:
    """Parse scenario text into a schedule for :func:`agdh.simnet.run`."""
    schedule = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            at = parse_duration(parts[0])
            verb = parts[1]
            if verb == "join":
                schedule.append(JoinAt(at, int(parts[2])))
            elif verb == "leave":
                how = parts[3]
                if how == "graceful":
                    schedule.append(LeaveAt(at, int(parts[2]), graceful=True))
                elif how == "crash":
                    schedule.append(CrashAt(at, int(parts[2])))
                else:
                    raise ConfigError(f"leave mode {how!r}")
            elif verb == "partition":
                cells = tuple(_parse_ids(cell) for cell in parts[2].split("|"))
                schedule.append(PartitionAt(at, cells))
            elif verb == "heal":
                schedule.append(HealAt(at))
            else:
                raise ConfigError(f"unknown verb {verb!r}")
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"scenario line {lineno}: {exc}") from None
        except ConfigError as exc:
            raise ConfigError(f"scenario line {lineno}: {exc}") from None
    return tuple(schedule)


def load_scenario(path: str) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
