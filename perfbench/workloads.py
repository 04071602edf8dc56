"""Seeded inputs for the three benchmark workloads.

Everything here is benchmark-side data: the program only ever receives the
commands and parameter values generated below.  The same seed always yields
the same stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-all", "case-queries", "toric-points")

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

# Operations per pass; ``wall_s`` is the median time of one pass.
PASS_SIZE = {"verify-all": 1, "case-queries": 17, "toric-points": 64}

# The 32 catalog records whose evaluation runs no grid scan (every record
# except 3.25 and 5.3).
QUERY_IDS = (
    "2.20", "2.21", "2.22", "2.24", "2.27", "2.29", "2.32", "2.34", "3.5",
    "3.8", "3.9", "3.10-a0", "3.10-a", "3.12", "3.13", "3.15", "3.17", "3.19",
    "3.20", "3.27", "4.2", "4.3", "4.4", "4.6", "4.7", "4.13", "5.1", "6.1",
    "7.1", "8.1", "9.1", "10.1",
)

VERIFY_ALL_ARGS = ("verify", "--all")
VALIDATE_ARGS = ("catalog", "validate")

# Toric families as documented in the package README: parameter order, the
# scan box (exclusive upper bound per scanned parameter) and pinned values.
TORIC_FAMILIES = (
    ("p1", ("a",), {"a": 3}, {}),
    ("p2", ("h",), {"h": 3}, {}),
    ("p1xp1", ("a", "b"), {"a": 3, "b": 3}, {}),
    ("p1xp2", ("a", "h"), {"a": 3, "h": 3}, {}),
    ("p1cubed", ("a", "b", "c"), {"a": 3, "b": 3, "c": 3}, {}),
    ("s6", ("a", "b", "c"), {"a": 3, "b": 3, "c": 3}, {}),
    ("p1xs6", ("t", "a", "b", "c"), {"a": 3, "b": 3, "c": 3}, {"t": 2}),
    ("bl2lines-p3", ("h", "a", "b"), {"a": 4, "b": 4}, {"h": 4}),
)
MAX_DENOMINATOR = 8


def case_query_block(rng):
    """Four passes of 8 ``verify <id>``, 8 ``report <id> --format json-lines``
    and one ``catalog validate``, order shuffled.  Over the four, every id is
    verified once and reported once, so the slowest records land in every
    run's p90 whatever the seed.  The validate runs are the slowest commands;
    at 1 in 17 they stay out of the p90."""
    ids = list(QUERY_IDS)
    rng.shuffle(ids)
    quarters = [ids[i:i + 8] for i in range(0, len(ids), 8)]
    for verify, report in ((0, 1), (2, 3), (1, 0), (3, 2)):
        ops = [("verify", i) for i in quarters[verify]]
        ops += [("report", i, "--format", "json-lines") for i in quarters[report]]
        ops.append(VALIDATE_ARGS)
        rng.shuffle(ops)
        yield ops


def _draw(rng, upper):
    q = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(1, upper * q - 1), q)


def toric_point_pass(rng):
    """One pass: 8 rounds over the 8 families, one point per family each."""
    points = []
    for _ in range(PASS_SIZE["toric-points"] // len(TORIC_FAMILIES)):
        for family, names, box, pinned in TORIC_FAMILIES:
            params = {n: Fraction(pinned[n]) if n in pinned else _draw(rng, box[n])
                      for n in names}
            points.append((family, params))
    return points


def passes(workload, seed):
    """Endless stream of passes; each pass is a list of operations."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "verify-all":
            yield [VERIFY_ALL_ARGS]
        elif workload == "case-queries":
            yield from case_query_block(rng)
        else:
            yield toric_point_pass(rng)


def point_key(family, params):
    """Stable text key of one toric point, e.g. ``s6 a=1/2,b=3,c=5/4``."""
    return family + " " + ",".join(f"{n}={v}" for n, v in params.items())

