"""Whole-run deployment benchmark for the CPVF/FLOOR simulator.

Entry point: ``python3 deploybench/run.py`` (see ``deploybench/README.md``).
The modules split the benchmark by job:

* :mod:`deploybench.workloads` — the workloads as ``RunSpec`` factories and
  the end-to-end metric names;
* :mod:`deploybench.measure` — one workload measured in one process:
  set-up, warm-up, timed runs, output checks (run as a child process);
* :mod:`deploybench.trace` — the traced run: wrappers around each layer's
  public functions, spans, self time and per-layer metrics;
* ``run.py`` — the command line, one child process per workload.
"""
