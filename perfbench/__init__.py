"""The repository benchmark: three closed-loop workloads over one
seeded hospital instance, timed end to end, with a separate traced run
that splits the time by layer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload ask_cold --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
benchmark's own tests run with ``python3 -m pytest perfbench/tests``.

Modules: :mod:`perfbench.inputs` makes the seeded inputs and pins
them, :mod:`perfbench.program` builds and serves the program,
:mod:`perfbench.workloads` holds the timed loops and answer checks,
:mod:`perfbench.tracer` the span wrappers of the traced run, and
:mod:`perfbench.launcher` the server process of the two wire workloads.
"""
