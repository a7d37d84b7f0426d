"""Action-defined ("phenomenological") causal structure toolkit.

Causal graphs are treated as derived objects: a set of elementary actions
is declared, and a DAG is valid exactly when every action changes at most
one causal mechanism. The package provides the graph calculus, exact
discrete distributions, structural models, action classification, worked
example systems, LiNGAM-style statistical recovery, and machine-checked
consistency suites for the underlying formal guarantees.

The package namespace is the union of its modules' ``__all__`` lists.
"""

__version__ = "0.1.0"

from .graphs import *
from .tables import *
from .scm import *
from .actions import *
from .exemplars import *
from .discovery import *
from .verify import *
