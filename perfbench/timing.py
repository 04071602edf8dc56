"""The closed loop, and times normalised to a reference machine speed.

The machines this benchmark runs on are shared: the same pure-Python work
can take twice as long from one minute to the next, and that drift is in
the execution speed itself (CPU time moves with wall time).  So a short
fixed kernel of the same kinds of work is timed before and after every
timed unit, and every ``PROBE_PERIOD_S`` while a child process runs it.  It
has two halves because the machine's slowdowns do not hit all work alike:
small-rational arithmetic tracks the toric integrals, and building, sorting
and stringifying a dict of a few thousand entries tracks interpreter start,
imports and catalog parsing.  A measured time ``t`` is
reported as ``(t - k_during) * REFERENCE_KERNEL_S / k``: ``k_during`` is the
kernel time spent inside ``t`` (the kernel and the child share one CPU) and
``k`` the mean kernel time from just before the unit to just after it.  That
is the time the work would have taken with the kernel at its reference
speed.  The raw times are kept beside the normalised ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.010
BRACKET_SAMPLES = 3
PROBE_PERIOD_S = 0.25


def speed_kernel():
    table = {}
    total = Fraction(0)
    squares = []
    for i in range(1, 400):
        f = Fraction(i % 13 + 1, i % 7 + 2)
        table[(i % 50, i % 3)] = f
        total = total + f * f - Fraction(1, i % 11 + 1)
        squares = [x * x for x in range(8)]
    entries = {}
    for i in range(6000):
        entries[i * 7919 % 100003] = (i, str(i))
    ordered = sorted(entries.items())
    return total, len(table), squares, sum(k for k, _ in ordered[::3])


class SpeedProbe:
    """Kernel times, in the order they were taken."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self, count=1):
        # CPU time: a sample taken while a child runs on the same CPU must not
        # count the moments the child preempted it.
        for _ in range(count):
            start = time.process_time()
            speed_kernel()
            self.samples.append(time.process_time() - start)
        self.last = time.perf_counter()

    def sample_if_due(self):
        """Call while waiting on a child: samples every ``PROBE_PERIOD_S``."""
        if time.perf_counter() - self.last >= PROBE_PERIOD_S:
            self.sample()


def closed_loop(stream, run_op, seconds=None, passes=None, per_op=True):
    """One client: each operation starts when the previous one has ended.

    Runs whole passes from ``stream`` until ``passes`` are done, or, when
    ``seconds`` is given instead, until that time has passed and at least
    one pass is complete.  ``run_op(op, probe)`` may call
    ``probe.sample_if_due()`` while it waits.  The kernel brackets every
    operation (``per_op``) or every pass.  Returns ``(ops, pass_s)``: per
    operation ``(normalised s, raw s, result)``, and the normalised time of
    each complete pass, the sum of its operations.  The operations
    themselves are not kept, so that the client's memory does not grow with
    the number of operations more than it must.
    """
    clock = time.perf_counter
    deadline = clock() + (seconds or 0)
    probe = SpeedProbe()
    ops, pass_ends = [], []
    pending = []         # (result, raw s, kernel s inside it) of the open unit
    unit_first = 0       # first kernel sample of the open unit's window

    def finished():
        if passes is not None:
            return len(pass_ends) >= passes
        return bool(pass_ends) and clock() >= deadline

    def close_unit():
        nonlocal unit_first
        probe.sample(BRACKET_SAMPLES)
        window = probe.samples[unit_first:]
        scale = REFERENCE_KERNEL_S * len(window) / sum(window)
        ops.extend(((raw - inside) * scale, raw, result)
                   for result, raw, inside in pending)
        pending.clear()
        unit_first = len(probe.samples) - BRACKET_SAMPLES

    probe.sample(BRACKET_SAMPLES)
    for batch in stream:
        complete = True
        for op in batch:
            if finished():
                complete = False
                break
            before = len(probe.samples)
            start = clock()
            result = run_op(op, probe)
            raw = clock() - start
            pending.append((result, raw, sum(probe.samples[before:])))
            if per_op:
                close_unit()
        if not complete:
            break
        if pending:
            close_unit()
        pass_ends.append(len(ops))
        if finished():
            break
    if pending:
        close_unit()
    pass_s = [sum(o[0] for o in ops[begin:end])
              for begin, end in zip([0] + pass_ends, pass_ends)]
    return ops, pass_s
