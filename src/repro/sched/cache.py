"""Fingerprint-keyed cache of compiled charge programs.

Same pickle-per-entry, write-then-rename idiom as the engine's result
cache and the planner's plan cache, with one deliberate difference: the
**key excludes the machine**.  A :class:`~repro.sched.program.ChargeProgram`
records counts (messages, words, flops), not seconds -- the
alpha-beta-gamma rates are applied by the target machine at replay time
-- so one captured program serves every
:class:`~repro.costmodel.params.MachineSpec`.

Keys do cover the :data:`SCHED_VERSION` tag, so an IR format change
invalidates old entries; ``repro cache clear --sched`` (and the
``REPRO_SCHED_CACHE_DIR`` override) manage the directory explicitly.
"""

from __future__ import annotations

import hashlib

from repro.sched.program import ChargeProgram
from repro.utils.diskcache import AtomicDiskCache

#: Version tag baked into program keys; bump when the IR or the capture
#: semantics change so stale compiled programs invalidate themselves.
SCHED_VERSION = "repro-sched-v2"


def program_key(spec, algorithm: str) -> str:
    """Content hash identifying the compiled program of a *prepared* spec.

    Covers everything that shapes the charge stream -- the algorithm, the
    matrix shape, and every grid/variant parameter -- and deliberately
    **not** the machine (programs are machine-independent counts) nor the
    matrix's data/seed (symbolic capture only sees shapes).
    """
    h = hashlib.sha256()
    for part in (SCHED_VERSION, algorithm, spec.shape, spec.procs, spec.c,
                 spec.d, spec.pr, spec.pc, spec.block_size,
                 spec.base_case_size, spec.mode):
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class ProgramCache(AtomicDiskCache):
    """Pickle-per-entry on-disk cache of :class:`ChargeProgram` objects.

    Atomic publication and torn-read-as-miss loads come from
    :class:`~repro.utils.diskcache.AtomicDiskCache`; entries that
    unpickle to anything other than a :class:`ChargeProgram` also read
    as misses.  Entries that unpickle to a *structurally invalid*
    program -- a valid pickle stream whose IR would replay garbage
    (hand-edited entry, version-skewed payloads, bit rot) -- are
    rejected by :func:`repro.analysis.verify_program` and read as
    misses too, counted under ``cache.sched.invalid``.
    """

    suffix = ".prog.pkl"
    value_type = ChargeProgram
    metrics_name = "sched"

    def validate_value(self, value: object) -> bool:
        # Lazy import: repro.analysis depends on the IR types above.
        from repro.analysis.findings import has_errors
        from repro.analysis.verifier import verify_program

        return not has_errors(verify_program(value))
