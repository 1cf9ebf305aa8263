"""In-process MPI-style message passing (the mpi4py stand-in).

Typical SPMD usage::

    from repro import mpi

    def program(comm):
        if comm.rank == 0:
            comm.send({"hello": comm.size}, dest=1, tag=7)
        elif comm.rank == 1:
            data = comm.recv(source=0, tag=7)
        return comm.allreduce(comm.rank)

    results = mpi.run_parallel(program, size=4)

Two execution backends share the :class:`Communicator` API:
``run_parallel(..., backend="threads")`` (default) runs in-process
ranks over an in-memory router — the faithful communication-structure
execution — while ``backend="processes"`` runs one OS process per rank,
so P ranks genuinely occupy P cores; its messages are pickled through
per-rank mailboxes, whatever their size.  Bulk data does not travel at
all: the caller allocates it with :func:`shared_empty` and the ranks
write their windows in place, on either backend; ranks that also *read*
each other's windows order those reads with a :class:`Handshake`.  See
DESIGN.md ("Execution backends") for what each mode measures.
"""

from .api import (
    ANY_SOURCE,
    ANY_TAG,
    LAND,
    LOR,
    MAX,
    MAX_USER_TAG,
    MIN,
    PROD,
    SUM,
    Communicator,
    ReduceOp,
    Request,
    Status,
    SubCommunicator,
    wait_all,
)
from .cartesian import CartComm, dims_create
from .handshake import Handshake
from .launcher import BACKENDS, run_parallel
from .process_backend import ProcessCommunicator
from .router import MessageRouter
from .shm import shared_empty
from .world import SelfCommunicator, WorldCommunicator

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "MAX_USER_TAG",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "ReduceOp",
    "Status",
    "Request",
    "wait_all",
    "Communicator",
    "SubCommunicator",
    "WorldCommunicator",
    "SelfCommunicator",
    "ProcessCommunicator",
    "MessageRouter",
    "CartComm",
    "dims_create",
    "run_parallel",
    "BACKENDS",
    "shared_empty",
    "Handshake",
]
