"""The repository benchmark: three seeded workloads, measured end to end
and, in a separate traced run, layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload swarm-coop --seed 1 --seconds 30 --trace 0

Workloads (see :mod:`perfbench.workloads` for why each was chosen):

* ``swarm-coop`` — one cooperative randomized run, n = k = 500, on the
  loop and then the array backend, both logs verified and compared;
* ``barter-starve`` — credit-limited barter (s = 1) on degree-36 random
  regular overlays with throttled strategic clients, n = k = 96;
* ``campaign-mix`` — every registry engine under every scenario axis at
  n = 48, k = 24, run cold through ``sweep``/``ParallelExecutor`` (2
  workers) with an armed checkpoint spec, then served warm from the
  result cache.

Every time is reported in *reference seconds*: measured seconds scaled
by how long a fixed calibration loop took around the same stretch of
work, relative to ``machine.REFERENCE_S`` (see
:class:`perfbench.machine.ReferenceClock`); the host's speed otherwise
swings by up to 1.8x from one stretch of seconds to the next. The
measured seconds are in the report as ``raw_wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
report with the machine fingerprint, every metric's sample count and
tail, the per-workload property shares and, for a traced run, every
per-layer metric with a reason where one does not apply. Files the run
leaves behind go under ``.perfbench/`` in the checkout.
"""
