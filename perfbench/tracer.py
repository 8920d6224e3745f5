"""In-memory span tracer that wraps the public functions of ``agdh``.

Each wrapped call records one span: its name, start, end, parent span and a
request id, in CPU seconds of the process (``time.process_time``).  Every ``Node.handle`` call opens a new request, and all spans
inside it share that request's id.  Self time (a span's duration minus the
time its child spans cover) and call counts are aggregated as spans close.
Spans stay in memory in flat arrays and are written out once, at the end,
in a compact binary form (:func:`read_spans` loads it).

Functions are wrapped at every binding their callers use: ``node_fsm``
imports ``blind`` and ``decode`` by name, ``gka_core`` imports ``exp`` and
``is_element``, and so on, so replacing only the defining module's attribute
would miss those call sites.  :func:`install` replaces the function object
under every name that binds it in any ``agdh`` module, and counts calls per
calling module as well as per function.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (defining module, function name) for each traced module-level function.
FUNCTIONS = (
    ("group_arith", "exp"),
    ("group_arith", "is_element"),
    ("group_arith", "encode_element"),
    ("group_arith", "decode_element"),
    ("gka_core", "blind"),
    ("gka_core", "respond"),
    ("gka_core", "recover_leader_blind"),
    ("gka_core", "compute_key_leader"),
    ("gka_core", "compute_key_member"),
    ("gka_core", "derive_session_key"),
    ("gka_core", "oracle_key"),
    ("messages", "encode_canonical"),
    ("messages", "encode_signed"),
    ("messages", "decode"),
    ("messages", "sign"),
    ("messages", "verify"),
    ("messages", "validate_shape"),
    ("scenario", "parse_scenario"),
)

# (module, class, method, span name) for each traced method.
METHODS = (
    ("node_fsm", "Node", "handle", "node_fsm.handle"),
    ("node_fsm", "Node", "start", "node_fsm.start"),
    ("node_fsm", "Node", "start_as_leader", "node_fsm.start_as_leader"),
    ("messages", "HmacKeyRing", "sign", "messages.hmac"),
    ("messages", "HmacKeyRing", "verify", "messages.hmac"),
    ("simnet", "Transcript", "render", "simnet.render"),
)

SPAN_COLUMNS = ("name", "start", "end", "parent", "request")

# The span that starts a new request: everything inside one FSM step.
REQUEST_SPAN = "node_fsm.handle"


class Tracer:
    """Span store plus running self-time and call-count aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.binding_calls: Counter = Counter()  # (caller module, span) -> calls
        self._stack: list[list] = []  # [span index, start, child time, request]
        self._next_request = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> None:
        stack = self._stack
        if stack:
            parent, request = stack[-1][0], stack[-1][3]
        else:
            parent, request = -1, 0
        if name == REQUEST_SPAN or not stack:
            self._next_request += 1
            request = self._next_request
        index = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_request.append(request)
        self.span_end.append(0.0)
        start = time.process_time()
        self.span_start.append(start)
        stack.append([index, start, 0.0, request])

    def exit(self, name: str) -> None:
        end = time.process_time()
        index, start, child, _ = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    def wrap(self, fn, name: str, caller: str | None = None):
        enter, exit_, binding_calls = self.enter, self.exit, self.binding_calls
        key = (caller, name)

        def traced(*args, **kwargs):
            binding_calls[key] += 1
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)

        return traced

    def summary(self, scale: float = 1.0) -> dict:
        """Aggregates so far, as plain JSON-ready values, with every time
        multiplied by ``scale``."""
        return {
            "spans": len(self.span_start),
            "calls": dict(self.calls),
            "self_s": {k: v * scale for k, v in self.self_s.items()},
            "total_s": {k: v * scale for k, v in self.total_s.items()},
            "binding_calls": {f"{caller}->{name}": n for (caller, name), n
                              in self.binding_calls.items()},
        }

    def write(self, path: str) -> None:
        """Write every span: one JSON header line, then the raw columns."""
        columns = (self.span_name, self.span_start, self.span_end,
                   self.span_parent, self.span_request)
        header = {"spans": len(self.span_start), "names": self.names,
                  "columns": [[n, c.typecode] for n, c in
                              zip(SPAN_COLUMNS, columns)]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in columns:
                column.tofile(fh)


def read_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Load a file written by :meth:`Tracer.write`: (names, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(fh, header["spans"])
            columns[name] = column
    return header["names"], columns


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each ``agdh`` binding and every traced
    method on its class.  Call once per process, before any traced call."""
    for name in ("group_arith", "gka_core", "messages", "node_fsm", "simnet",
                 "oracle", "scenario"):
        importlib.import_module(f"agdh.{name}")
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "agdh" or name.startswith("agdh.")}
    for module_name, fn_name in FUNCTIONS:
        original = getattr(modules[f"agdh.{module_name}"], fn_name)
        span_name = f"{module_name}.{fn_name}"
        for mod_name, mod in modules.items():
            caller = mod_name.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, tracer.wrap(original, span_name, caller))
    for module_name, cls_name, method, span_name in METHODS:
        cls = getattr(modules[f"agdh.{module_name}"], cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), span_name))
