"""Exception types shared across the protocol kit."""


class ProtocolError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ProtocolError):
    """Invalid group parameters, node configuration, or simulation setup."""


class ZeroScalar(ProtocolError):
    """A secret or exponent that must be nonzero was zero."""


class BadLength(ProtocolError):
    """Byte string has the wrong length for the parameter set."""


class NotInSubgroup(ProtocolError):
    """Value is not a member of the prime-order subgroup."""


class DegenerateKey(ProtocolError):
    """The computed group key is the identity element and must not be used."""


class UnknownParticipant(ProtocolError):
    """No long-term key is provisioned for the given participant id."""


class ShapeViolation(ProtocolError):
    """Message content does not match the grammar for its kind.

    Carries the offending field path in ``args[0]``.
    """


class MalformedMessage(ProtocolError):
    """Byte string cannot be decoded into a message."""


class OverlapError(ConfigError):
    """Partition cells are not disjoint."""


class UnknownNode(ConfigError):
    """Scheduled event refers to a node id that is unknown, already
    exists, or is not live at that point in the schedule."""


class CountMismatch(ProtocolError):
    """Measured protocol costs differ from the expected cost row."""
