"""Scenario file parsing and duration literals.

A scenario is line-oriented: ``<time> <verb> <args>``, where time is a
duration literal (``30``, ``30s``, ``500ms``, ``20min``, ``100us``; a bare
number means seconds) and the verbs are:

    <time> join <id>
    <time> leave <id> graceful|crash
    <time> partition <ids>|<ids>[|<ids>...]
    <time> heal

``<ids>`` is a comma-separated list of node ids.  Each verb takes exactly
the arguments shown, and each partition cell names at least one id; a line
that does not (``join 5 6``, ``partition 1,2||3``, ``heal now``) is a
ConfigError naming its line, never a schedule entry that silently drops
what it could not read.  Blank lines and ``#`` comments are ignored.
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


#: Arguments each verb takes after ``<time> <verb>``.
_ARITY = {"join": 1, "leave": 2, "partition": 1, "heal": 0}


def _parse_ids(text: str) -> tuple[int, ...]:
    if not text:
        raise ConfigError("empty partition cell")
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad id list {text!r}") from None


def _parse_entry(parts: list[str]):
    at = parse_duration(parts[0])
    if len(parts) < 2:
        raise ConfigError("missing verb")
    verb, args = parts[1], parts[2:]
    arity = _ARITY.get(verb)
    if arity is None:
        raise ConfigError(f"unknown verb {verb!r}")
    if len(args) != arity:
        raise ConfigError(f"{verb} takes {arity} argument(s), got {len(args)}")
    if verb == "join":
        return JoinAt(at, int(args[0]))
    if verb == "leave":
        node, how = int(args[0]), args[1]
        if how == "graceful":
            return LeaveAt(at, node)
        if how == "crash":
            return CrashAt(at, node)
        raise ConfigError(f"leave mode {how!r}")
    if verb == "partition":
        return PartitionAt(at, tuple(_parse_ids(cell) for cell in args[0].split("|")))
    return HealAt(at)


def parse_scenario(text: str) -> tuple:
    """Parse scenario text into a schedule for :func:`agdh.simnet.run`."""
    schedule = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            schedule.append(_parse_entry(line.split()))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"scenario line {lineno}: {exc}") from None
    return tuple(schedule)


def load_scenario(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path}: not UTF-8 ({exc})") from None
    return parse_scenario(text)
