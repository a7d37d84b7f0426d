"""The former controller embedding: one ``GeneralScm`` whose controlled class
tallies are vector noises, as a reference for ``verify.build_embedding`` and
as an ``exact_joint`` workload on a 2 x 2 x 49 x 49 noise grid."""

from __future__ import annotations

import itertools
import math

import numpy as np

from phenocausal import GeneralScm, NoiseSpec


def embedding_reference(exemplar, controllers) -> GeneralScm:
    """Joint SCM over (controllers, system); ``exact_joint`` of it is the
    embedding joint.

    The class tally of a controlled node becomes a vector with one
    independent component per value of its controller: the sorted distinct
    atoms of the controller's law, zero-weight atoms included. Its noise is
    the index of the vector's joint atom (``itertools.product`` order), and
    its mechanism picks the component of the controller's value.
    """
    base = exemplar.scm
    class_nodes = exemplar.notes["class_nodes"]
    nodes = tuple(controllers.noises) + base.nodes
    parents = {**{y: () for y in controllers.noises}, **base.parents}
    mechanisms = {**{y: lambda pa, nz: nz for y in controllers.noises},
                  **base.mechanisms}
    noises = {**controllers.noises, **base.noises}
    for label, (ctrl, fn) in controllers.controls.items():
        v = class_nodes[label]
        values = tuple(np.unique(controllers.noises[ctrl].support()[0]).tolist())
        atom_sets = [fn(c).support() for c in values]
        probs = tuple(math.prod(combo)
                      for combo in itertools.product(*(s[1] for s in atom_sets)))
        # components[i, c]: joint atom i's tally under controller value c
        components = np.array(list(itertools.product(*(s[0] for s in atom_sets))))
        parents[v] = base.parents[v] + (ctrl,)

        # the base mechanism reads its own parents by name and ignores the
        # controller value that shares ``pa`` with them
        def mech(pa, atom, base_mech=base.mechanisms[v], ctrl=ctrl, values=values,
                 components=components):
            at = np.searchsorted(values, pa[ctrl])
            return base_mech(pa, components[np.asarray(atom, dtype=np.intp), at])

        mechanisms[v] = mech
        noises[v] = NoiseSpec.finite(range(len(probs)), probs)
    return GeneralScm(nodes=nodes, parents=parents, mechanisms=mechanisms,
                      noises=noises)
