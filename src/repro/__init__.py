"""repro — analog layout synthesis via topological approaches.

Reproduction of Graeb et al., *Analog Layout Synthesis — Recent Advances
in Topological Approaches*, DATE 2009.  The package provides:

* :mod:`repro.geometry` — rectangles, modules, placements, nets;
* :mod:`repro.circuit` — netlists, layout constraints, circuit hierarchy
  and the benchmark circuit library;
* :mod:`repro.seqpair` — sequence-pair placement with symmetric-feasible
  codes (paper section II);
* :mod:`repro.bstar` — B*-tree, ASF-B*-tree and hierarchical B*-tree
  placement (section III);
* :mod:`repro.shapes` — shape functions, enhanced shape functions and
  deterministic hierarchical placement (section IV);
* :mod:`repro.sizing` — layout-aware sizing with layout templates and
  in-loop parasitic extraction (section V);
* :mod:`repro.anneal` — the shared simulated-annealing engine and the
  walk API every annealing placer extends;
* :mod:`repro.placers` — the engine registry (name -> config, placer);
* :mod:`repro.cost` — the unified cost subsystem: one declarative,
  delta-capable objective shared by every placer, the portfolio's
  reference ranking and the CLI;
* :mod:`repro.perf` — the flat-coordinate evaluation kernel the
  annealing hot loops run on (bit-identical to the object tier);
* :mod:`repro.analysis` — search-space combinatorics and rendering.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
