"""Fixture with planted REP013 violations (never imported, only linted)."""


def hardcoded_physics(grid, solver):
    # The equation and its boundary chosen inline instead of from a
    # Scenario: --scenario can never reach this setup.
    equations = solver.LinearizedEuler(dissipation=0.02)
    boundary = solver.get_boundary_condition("outflow")
    return equations, boundary
