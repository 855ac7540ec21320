"""The benchmark's workloads: what each one runs and why it was chosen.

Pure data, shared by the orchestrator (``run.py``) and the measured child
process (``unit.py``); nothing here imports the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: workload seed used when ``--seed`` is not given (the paper's year)
DEFAULT_SEED = 2014
#: seed recorded beside the default and never used while tuning, so a later
#: performance claim can be re-checked on inputs it was not written against
HELDOUT_SEED = 4099

#: the three kernels of the trial-bound workloads: the two image/audio
#: codecs with the longest golden runs and the ML kernel with the most
#: register-file pressure, one per fidelity metric family
TRIAL_KERNELS = ("jpegdec", "g721dec", "kmeans")


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: "sweep" runs paper figures through the experiments runner;
    #: "trials" runs one campaign per kernel through the campaign API
    kind: str
    #: injection trials per campaign
    trials: int
    #: paper figures computed, in order (sweeps)
    figures: Tuple[str, ...] = ()
    #: kernels, protection scheme and fault model (trials workloads)
    kernels: Tuple[str, ...] = ()
    scheme: str = "dup_valchk"
    fault_model: str = "single_bit"
    #: measured processes per run; metrics are their medians
    units: int = 1
    #: fresh processes that perform the workload's set-up (the measured
    #: ones included); ``setup_s`` is their median.  A sweep already sums 52
    #: cold prepares per run.
    setup_rounds: int = 1
    #: trials per campaign re-run from scratch (no snapshot restore, no
    #: triage) and compared with the campaign's own result
    check_trials: int = 2


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="sweep_cold",
            why="figure11 then figure12 over all 13 kernels from an empty "
                "campaign cache: the paper experiment end to end; the traced "
                "run adds a warm figure11 for the cache read path",
            kind="sweep", trials=40, figures=("figure11", "figure12"),
            check_trials=1,
        ),
        Spec(
            name="trials_regfile",
            why="three kernels under dup_valchk, 1000 single_bit trials "
                "each: trial-bound, exercises snapshot restore, replay, "
                "detection and register triage",
            kind="trials", trials=1000, kernels=TRIAL_KERNELS,
            fault_model="single_bit", units=2, setup_rounds=3,
            check_trials=8,
        ),
        Spec(
            name="trials_memory",
            why="the same kernels with mem_transient faults: long "
                "post-injection replays, occupancy capture and dead-memory "
                "triage; a gain only for register flips shows no change",
            kind="trials", trials=400, kernels=TRIAL_KERNELS,
            fault_model="mem_transient", setup_rounds=3, check_trials=8,
        ),
    )
}
