"""The benchmark's workloads and the inputs it generates from a seed.

A sweep workload is a list of figures regenerated from an empty record
cache (``cold``) and then re-rendered from that cache by a fresh process
(``warm``).  The serve workload is a closed loop of job submissions whose
mix is drawn from the seed; the program only ever sees the payloads.
"""

from __future__ import annotations

import random

#: The paper's twelve kernels (``repro.workloads.ALL_BENCHMARKS``).
ALL_BENCHMARKS = ("cccp", "cmp", "compress", "eqn", "eqntott", "espresso",
                  "grep", "lex", "yacc", "matrix300", "nasa7", "tomcatv")

#: Every table and figure of the suite, in paper order.
ALL_FIGURES = ("table1", "figure7", "figure8", "figure9", "figure10",
               "figure11", "figure12", "figure13", "ablation_cpistack",
               "ablation_models", "ablation_windows", "ablation_unroll")

#: The figure suite runs over five kernels so one cold regeneration fits
#: a run several times: four integer kernels (cmp and eqntott among the
#: ones whose figure8 cycles depend on the hash seed) and one FP kernel.
FIGURE_BENCHMARKS = ("cmp", "compress", "eqntott", "grep", "matrix300")

#: ``min_units``: timed units per run at least (more while they fit in
#: ``--seconds``); the serial ``sim_x4`` sweep varies least between units.
WORKLOADS = {
    "figures": {"kind": "sweep", "figures": ALL_FIGURES,
                "benchmarks": FIGURE_BENCHMARKS, "scale": 1,
                "engine": "fast", "jobs": 2, "min_units": 3},
    "sim_x4": {"kind": "sweep", "figures": ("figure7", "figure12"),
               "benchmarks": ALL_BENCHMARKS, "scale": 4,
               "engine": "batched", "jobs": 1, "min_units": 2},
    "serve_mixed": {"kind": "serve", "scale": 1, "engine": "fast",
                    "jobs": 2, "clients": 2, "min_units": 3},
}

ISSUE_RATES = (1, 2, 4, 8)
RC_MODELS = (1, 2, 3, 4, 5)
CHECK_JOBS = 6
#: Resubmissions per kernel of its non-RC and its RC jobs: 60 of 174
#: jobs, about a third, chosen evenly so the share of cheap and costly
#: hits does not depend on the seed.  Each lands at least REPEAT_GAP jobs
#: after its original, so most are artifact hits rather than coalesced
#: with a job still running.
REPEATS_NO_RC = 2
REPEATS_RC = 3
REPEAT_GAP = 4


def serve_jobs(seed: int) -> list[dict]:
    """The serve job mix for *seed*: a list of job descriptions
    ``{"kind", "benchmark", "issue", "rc", "model"}``.

    Every kernel gets one ``simulate`` job per issue rate on the
    64-register machine without RC, and one per reset model on the RC
    machine (16 integer / 32 FP cores), and the same number of repeats,
    so the mix's cost barely depends on the seed.  The seed picks the RC
    jobs' issue rates, the ``check`` targets, which jobs repeat, and the
    order.
    """
    rng = random.Random(seed)
    unique, repeats = [], []
    for bench in ALL_BENCHMARKS:
        plain = [{"kind": "simulate", "benchmark": bench, "issue": issue,
                  "rc": False, "model": 3} for issue in ISSUE_RATES]
        rc = [{"kind": "simulate", "benchmark": bench,
               "issue": rng.choice(ISSUE_RATES), "rc": True, "model": model}
              for model in RC_MODELS]
        unique += plain + rc
        repeats += (rng.sample(plain, REPEATS_NO_RC)
                    + rng.sample(rc, REPEATS_RC))
    for bench in rng.sample(ALL_BENCHMARKS, CHECK_JOBS):
        unique.append({"kind": "check", "benchmark": bench,
                       "issue": rng.choice(ISSUE_RATES), "rc": True,
                       "model": rng.choice(RC_MODELS)})
    rng.shuffle(unique)
    rng.shuffle(repeats)
    sequence = list(unique)
    for job in repeats:
        pos = sequence.index(job)
        sequence.insert(rng.randint(min(pos + REPEAT_GAP, len(sequence)),
                                    len(sequence)), job)
    return sequence
