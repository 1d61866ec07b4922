"""Process environment and scratch space shared by the runner and the
workloads.  Imports nothing from ``repro``, so the runner can check for
the sources before anything tries to load them."""

from __future__ import annotations

import os
from typing import Dict, List


def state_dir(repo_root: str) -> str:
    """The benchmark's scratch directory inside the checkout."""
    path = os.path.join(repo_root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def scrubbed_env(python_path: List[str]) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` variable, with
    ``PYTHONPATH`` set to ``python_path`` and hash randomization off."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(python_path)
    env["PYTHONHASHSEED"] = "0"
    return env
