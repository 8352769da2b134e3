"""Named choices that a numpy module and the CLI's parser share.

The parser is built before any subcommand runs, so it reads a flag's
choices from here, where loading them loads no numpy; wave and
experiments.pendulum check their arguments against the same tuples.
"""

BOUNDARIES = ("periodic", "fixed")  # wave grid edges
PENDULUM_MODES = ("in-phase", "anti-phase")
