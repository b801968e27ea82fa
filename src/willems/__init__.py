"""Data-based trajectory analysis for linear systems.

Finite input/output windows of a discrete-time LTI plant can be written as
column combinations of block-Hankel matrices built from recorded data, with
excitation requirements that depend on the minimal polynomial of the state
matrix rather than its dimension, and without assuming controllability.
This package provides the subspace machinery behind that statement, the
window-parameterization checks, a data-driven receding-horizon controller
shown step-for-step equivalent to model-based MPC, and an identification
pipeline for networks of identical agents.

The package exports the ``__all__`` of each library module, the command
line `willems.cli` aside. ``willems.hankel`` and ``willems.parameterize``
are the functions of those names; their modules are in ``sys.modules``.
"""

# bound before the star imports, after which ``from . import hankel`` would
# return the function
from . import hankel as _hankel, lti as _lti, multiagent as _multiagent
from . import numerics as _numerics, parameterize as _parameterize
from . import predictive as _predictive, qp as _qp, subspace as _subspace
from .hankel import *  # noqa: F403
from .lti import *  # noqa: F403
from .multiagent import *  # noqa: F403
from .numerics import *  # noqa: F403
from .parameterize import *  # noqa: F403
from .predictive import *  # noqa: F403
from .qp import *  # noqa: F403
from .subspace import *  # noqa: F403

_MODULES = (
    _hankel, _lti, _multiagent, _numerics, _parameterize, _predictive, _qp, _subspace
)
__all__ = [name for module in _MODULES for name in module.__all__]

__version__ = "0.1.0"
