"""Fixture with a planted REP004 violation (never imported, only linted)."""


def late_bound_backwards(grad, axes):
    # Every stored closure reads ``axis`` when called, after the loop
    # has finished: all of them see the last axis.
    closures = []
    for axis in axes:
        closures.append(lambda g: g.sum(axis=axis))
    return [backward(grad) for backward in closures]
