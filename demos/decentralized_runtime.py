"""The decentralized runtime, watched one round at a time.

Instead of a central loop claiming events in a fixed order, each object
runs its own engine and coordinates through an advertisement board:
publish where you are, read where everyone was last round, propose
interactions to whoever overlaps.  A mediator checks the two sides of every proposal
agree, grants at most one interaction per object per round, and every
granted interaction's effect passes an exact conservation check; the
ledger printed below records each one's totals.

Here one entangled-pair trial is traced round by round, then the
aggregate statistics are compared against the centralized engine: same
distribution, to sampling noise, and bit-identical on reruns.
"""

from qcausal.engine import RngState
from qcausal.experiments.bell import BellConfig, bell_world, run_bell_experiment
from qcausal.runtime import BellRoundPolicy, RefinedRuntime


# -- one trial, traced ---------------------------------------------------------

rng = RngState(0).substream(0)
policy = BellRoundPolicy(angle_a=0.0, angle_b=30.0, spindir_policy="uniform", rng=rng.substream("source"))
runtime = RefinedRuntime(bell_world(), policy, rng, keep_ledger=True)

print("one trial, analyzers at (0, 30) degrees:")
while not policy.done(runtime.state):
    runtime.run_round()
    objs = ", ".join(sorted(runtime.state.objects))
    print(f"  round {runtime.round_index}: objects [{objs}]")

print(f"\n{runtime.interactions} interactions, {len(runtime.mediator.rejections)} rejections")
for r in runtime.mediator.rejections:
    print(f"  round {r['round']}: {r['pair']} rejected ({r['reason']})")
print("\nconservation ledger:")
for e in runtime.ledger:
    print(
        f"  round {e.round_index} at {e.position}: {e.participants} -> {e.out_id}, "
        f"energy {e.before['energy']:g} -> {e.after['energy']:g}, "
        f"balanced = {e.balanced}"
    )

# -- the aggregate agrees with the centralized engine ----------------------------

TRIALS = 5_000
cen = run_bell_experiment(BellConfig(0.0, 30.0, trials=TRIALS, seed=0))
ref = run_bell_experiment(BellConfig(0.0, 30.0, trials=TRIALS, seed=0, runtime="refined"))
print(f"\n{TRIALS} trials, centralized vs decentralized:")
print(f"  E = {cen.stats.correlation:+.4f} vs {ref.stats.correlation:+.4f}")
print(f"  total-variation distance = {cen.stats.tv_distance(ref.stats):.4f}")

again = run_bell_experiment(BellConfig(0.0, 30.0, trials=TRIALS, seed=0, runtime="refined"))
print(f"  rerun counts identical: {again.stats.counts() == ref.stats.counts()}")

rnd = run_bell_experiment(
    BellConfig(0.0, 30.0, trials=TRIALS, seed=0, runtime="refined", scheduler="randomized")
)
print(f"  randomized scheduler, same physics: E = {rnd.stats.correlation:+.4f}")
