"""Fixture with a planted REP016 violation (never imported, only linted)."""

from repro.obs import metrics


def private_instrument():
    # A Gauge built outside the registry: no snapshot, merge or export
    # ever sees it.
    loss = metrics.Gauge("train.loss")
    return loss
