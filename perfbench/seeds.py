"""What the workload seed selects. The same seed always gives the same inputs."""

import random

# the seed of the named `random6` and `solvable4` fixtures
DEFAULT_SEED = 20160409


def family_r(seed: int) -> int:
    """r of the invariant alpha family [1, r, -1, -r]; 2 for the default seed."""
    return 2 + (seed - DEFAULT_SEED) % 4


def golden_lambda(seed: int) -> int:
    """Overall factor of the alpha ratios [l, -l, -l, -l]; 1 for the default
    seed, which is the criterion-10 specialization [1, -1, -1, -1]."""
    return [1, -1, 2, 3][(seed - DEFAULT_SEED) % 4]


def config_order(seed: int, n: int) -> list[int]:
    """Order in which the CLI configs run."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order
