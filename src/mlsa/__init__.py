"""Multilevel Ruppert-Polyak averaged stochastic approximation.

The namespace keeps the set-up entry points; every other name is imported from its
defining module (``mlsa.params``, ``mlsa.driver``, ...).  ``.config`` loads every
computing module, so ``import mlsa`` leaves nothing to import before a run.
"""

from .config import build_cost_model, build_family, build_projection, load_config
from .driver import RunPlan
