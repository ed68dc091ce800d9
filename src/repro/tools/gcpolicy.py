"""The garbage-collector policy of an evaluation process.

Kept apart from :mod:`repro.tools.cli` so that an entry point other than
the CLI (``examples/full_evaluation.py``) installs it without loading
the CLI and everything its subcommands import.
"""

import gc

#: Collector thresholds for a process that runs evaluations. Such a
#: process builds up memoized state that lives as long as it does
#: (kernels, prefixes, variants, compiled programs), and under CPython's
#: default ``(700, 10, 10)`` every full collection rescans all of it. On
#: a 2-CPU x86-64 container, CPython 3.11, a cold ``full_evaluation.py``
#: ran 11 full collections (1.36 s, 10,653 objects reclaimed) and a warm
#: one 9 (0.78 s, 220 reclaimed). With these thresholds neither runs
#: one, and peak RSS does not move. Under ``repro serve``'s mixed load
#: they cut wall time per request block by ~23% but raise hot-request
#: p99 by ~13%, so judge a retune on that p99 as well as on evaluation
#: wall time.
EVAL_GC_THRESHOLDS = (50_000, 20, 20)


def use_eval_gc_policy() -> None:
    """Install :data:`EVAL_GC_THRESHOLDS` for the whole process.

    Only process entry points call this: :func:`repro.tools.cli.main`
    run as the program, and ``examples/full_evaluation.py``. Pool
    workers fork from them and inherit the thresholds.
    """
    gc.set_threshold(*EVAL_GC_THRESHOLDS)
