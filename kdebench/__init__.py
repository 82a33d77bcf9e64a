"""Repository benchmark for the self-tuning KDE selectivity service.

``python3 kdebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`kdebench.workloads`) in one
process against the public API of ``repro.serve``, ``repro.db`` and
``repro.core`` from the checkout's ``src/``, checks every answer, and
prints one JSON result as its last line.  ``kdebench/steady.py`` repeats
runs over seeds and reports how steady each metric is.
"""
