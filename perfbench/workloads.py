"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload name and a seed, so the same
seed always gives the same inputs.  The program under test receives only
what is built here: a :class:`~agdh.simnet.SimConfig`, a
:class:`~agdh.node_fsm.NodeConfig` and a group, or, for ``keying_m50``, the
group size and per-node random sources.
"""

from __future__ import annotations

import random

SECOND = 1_000_000

SIM_WORKLOADS = ("form_n100", "churn_n30", "toy_lossy")
WORKLOADS = SIM_WORKLOADS + ("keying_m50",)

#: keying_m50: group size, and groups established per sample process.
KEYING_M = 50
KEYING_GROUPS = 10

# churn_n30 schedule: a fixed timeline of actions, so every seed does about
# the same membership work; the seed picks the ids and the partition cells.
# A partition lasts _PARTITION_S and is healed before the next action.
_CHURN_TIMELINE = (
    (30, "partition"), (75, "join"), (90, "graceful"), (105, "crash"),
    (120, "join"), (135, "partition"), (180, "graceful"), (195, "crash"),
    (210, "join"),
)
_PARTITION_S = 30


def sample_seed(seed: int, index: int) -> int:
    """Seed of the index-th sample of a run: distinct inputs per sample."""
    return random.Random(f"perfbench/{seed}/{index}").getrandbits(31)


def churn_scenario(seed: int, node_count: int = 30) -> str:
    """Scenario text of joins, graceful leaves, crashes and partition/heal
    pairs for ``agdh.scenario.parse_scenario``.

    The generator tracks which nodes are live, so it never leaves or crashes
    an id that is already gone, and joins always use fresh ids.
    """
    rng = random.Random(f"churn/{seed}")
    live = list(range(1, node_count + 1))
    next_id = node_count + 1
    lines = [f"# churn_n30 seed={seed}"]
    for t, action in _CHURN_TIMELINE:
        if action == "join":
            lines.append(f"{t}s join {next_id}")
            live.append(next_id)
            next_id += 1
        elif action in ("graceful", "crash"):
            victim = rng.choice(live)
            live.remove(victim)
            lines.append(f"{t}s leave {victim} {action}")
        else:
            shuffled = rng.sample(live, len(live))
            cut = len(shuffled) // 2
            cells = (sorted(shuffled[:cut]), sorted(shuffled[cut:]))
            rendered = "|".join(",".join(map(str, c)) for c in cells)
            lines.append(f"{t}s partition {rendered}")
            lines.append(f"{t + _PARTITION_S}s heal")
    return "\n".join(lines) + "\n"


def sim_inputs(workload: str, seed: int):
    """(SimConfig, NodeConfig, GroupParams) for one sim-workload sample."""
    from agdh.group_arith import PROD, TOY
    from agdh.node_fsm import NodeConfig
    from agdh.scenario import parse_scenario
    from agdh.simnet import SimConfig

    if workload == "form_n100":
        return (SimConfig(node_count=100, loss_prob=0.0, seed=seed,
                          duration=120 * SECOND),
                NodeConfig(), PROD)
    if workload == "churn_n30":
        schedule = parse_scenario(churn_scenario(seed))
        return (SimConfig(node_count=30, loss_prob=0.05, seed=seed,
                          duration=400 * SECOND, schedule=schedule),
                NodeConfig(eager_rekey=True), PROD)
    if workload == "toy_lossy":
        return (SimConfig(node_count=30, loss_prob=0.3, seed=seed,
                          duration=300 * SECOND),
                NodeConfig(period_t=2_500_000, jitter_max=250_000,
                           eager_rekey=True),
                TOY)
    raise ValueError(f"not a sim workload: {workload!r}")
