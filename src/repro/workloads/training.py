"""Training workloads by name.

Profiling in the harness and the CLI, sweep grids and the serve protocol
all resolve a training workload's name here. The table loads the two
training workloads' modules and none of the measurement drivers (macro,
microbenchmark, SPEC-like).
"""

from repro.workloads.apachebench import apachebench_workload
from repro.workloads.lmbench import lmbench_workload

#: Training workloads by name (factories taking ``ops_scale``).
TRAINING_WORKLOADS = {
    "lmbench": lmbench_workload,
    "apache": apachebench_workload,
}
