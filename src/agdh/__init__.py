"""Asymmetric group Diffie-Hellman key agreement.

Group arithmetic, the key-agreement math, the wire message layer, the
per-node protocol state machine, and a deterministic lossy-network simulator
with a transcript auditor.
"""

from .errors import (
    BadLength,
    ConfigError,
    CountMismatch,
    DegenerateKey,
    MalformedMessage,
    NotInSubgroup,
    OverlapError,
    ProtocolError,
    ShapeViolation,
    UnknownNode,
    UnknownParticipant,
    ZeroScalar,
)
from .gka_core import (
    GroupEntry,
    blind,
    compute_key_leader,
    compute_key_member,
    derive_session_key,
    oracle_key,
    recover_leader_blind,
    respond,
)
from .group_arith import (
    PROD,
    TOY,
    ExpCounter,
    GroupParams,
    decode_element,
    encode_element,
    exp,
    load_params,
    parse_params_text,
    random_scalar,
    scalar_inverse,
)
from .messages import HmacKeyRing, Message, MessageKind
from .node_fsm import Mode, Node, NodeConfig, SessionKey
from .oracle import AuditReport, CostRow, audit_transcript, cost_table
from .simnet import SimConfig, SimResult, converged, leaders, replay, run

__version__ = "0.1.0"
