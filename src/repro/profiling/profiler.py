"""Value-profiling runs (the paper's offline profiling pass).

The paper instruments LLVM IR to collect value profiles on a *train* input,
one time per benchmark, then feeds those profiles to the check-insertion
pass.  Here the instrumentation is the interpreter's value hook: a profiling
run executes the module with the train input and streams every
(instruction, value) pair into a :class:`~repro.profiling.profiles.ProfileStore`.

Only integer- and float-valued instructions are profiled; pointers (GEPs,
allocas) are excluded — the paper's value checks target data computations,
while address corruption is covered by symptoms.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.types import FloatType, IntType
from ..sim.config import SimConfig
from ..sim.interpreter import Interpreter
from .profiles import ProfileStore


def collect_profiles(
    module: Module,
    inputs: Optional[Dict[str, Sequence]] = None,
    entry: str = "main",
    args: Sequence[object] = (),
    num_bins: int = 5,
    top_capacity: int = 8,
    config: Optional[SimConfig] = None,
    max_instructions: int = 50_000_000,
) -> ProfileStore:
    """Run ``module`` once on the train input, profiling every data value.

    Returns the populated :class:`ProfileStore`.  Guards already present in
    the module (none, normally — profiling happens before transformation) run
    in counting mode so they cannot abort the profile run.
    """
    store = ProfileStore(num_bins=num_bins, top_capacity=top_capacity)

    def hook(instr: Instruction, value) -> None:
        t = instr.type
        if isinstance(t, IntType):
            if t.bits > 1:  # booleans carry no useful range information
                store.observe(instr, value)
        elif isinstance(t, FloatType):
            store.observe(instr, float(value))

    interp = Interpreter(module, config=config, guard_mode="count", value_hook=hook)
    interp.run(entry=entry, args=args, inputs=inputs, max_instructions=max_instructions)
    return store
