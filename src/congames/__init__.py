"""No-regret, no-violation learning in repeated contextual games.

The package provides kernels and incremental GP regression with confidence
bounds, sleeping-expert aggregation rules, constraint-aware contextual
learners, a tabular game simulator with a random-game generator, oracle-side
metrics (constrained regret, violations, equilibrium accuracy), and a
JSON-config CLI harness.  Each name is imported from its module
(``congames.gp.GpModel``, ``congames.game.run``, ...); the package
namespace re-exports nothing.
"""
