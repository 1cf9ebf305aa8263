"""In-process MPI-style message passing (the mpi4py stand-in).

Typical SPMD usage::

    from repro import mpi

    def program(comm):
        if comm.rank == 0:
            comm.send({"hello": comm.size}, dest=1, tag=7)
        elif comm.rank == 1:
            data = comm.recv(source=0, tag=7)
        comm.barrier()
        return comm.allreduce(comm.rank, op=mpi.MAX)

    results = mpi.run_parallel(program, size=4)

That is the whole surface: ``send``/``recv`` with explicit source and
tag, ``barrier``, ``allreduce`` with :data:`SUM` or :data:`MAX`, plus
:func:`shared_empty` and :class:`Handshake` for bulk data.  Two
execution backends share the :class:`Communicator` API:
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

from .api import MAX, SUM, Communicator
from .handshake import Handshake
from .launcher import run_parallel
from .shm import shared_empty

__all__ = [
    "Communicator",
    "SUM",
    "MAX",
    "run_parallel",
    "shared_empty",
    "Handshake",
]
