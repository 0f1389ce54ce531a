"""Installs the benchmark's wrappers in every fresh interpreter of a traced
(or kernel-delayed) run; this directory is on PYTHONPATH for those runs
only.  Sweep launchers and spawned backend workers are covered this way."""

import os
import sys

if os.environ.get("PERFBENCH_TRACE") or os.environ.get(
        "PERFBENCH_KERNEL_DELAY_S"):
    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))))
    import probe

    probe.install_from_env(os.environ.get("PERFBENCH_ROLE", "worker"))
