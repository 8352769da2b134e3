"""Monte Carlo experiments built on the object pipeline.

bell: entangled-pair correlations, Bell functional, LHV bound oracle.
doubleslit: two-branch interference with an optional which-path marker.
pendulum: coupled pendulums, closed-form laws vs local integration.

Each loads when it is imported (from qcausal.experiments import bell), so
a Bell run never loads the two numpy experiments.
"""
