"""Cost-model parameters and machine presets.

The paper analyzes algorithms in the alpha-beta-gamma model (Section II-A):

* ``alpha`` -- cost of sending or receiving a single message (seconds),
* ``beta``  -- cost of moving one word of data between processors (seconds),
* ``gamma`` -- cost of one floating-point operation (seconds),

with the architectural assumption ``alpha >> beta >> gamma``.

Machine presets encode the constants the paper publishes for its two
testbeds (Section IV-B):

* **Stampede2** (TACC): Intel KNL nodes, > 3 Tflop/s peak per node, Intel
  Omni-Path fat tree with 12.5 GB/s injection bandwidth, 64 MPI processes
  per node in the headline experiments.
* **Blue Waters** (NCSA): Cray XE nodes with 16 Bulldozer FP units,
  313 Gflop/s peak per node, Gemini 3D torus with 9.6 GB/s injection
  bandwidth, 16 MPI processes per node.

The paper's architectural argument is that the ratio of peak flops to
injection bandwidth is ~8x higher on Stampede2 (240 vs 32.6 flops/byte);
communication-avoiding algorithms therefore pay off there and not on Blue
Waters.  The presets below reproduce exactly that ratio.

Two *calibration* fields are deliberately explicit rather than buried in
benchmark code:

* ``sequential_efficiency`` -- fraction of per-core peak that the sequential
  BLAS/LAPACK kernels achieve (the paper's measured Gflops/s/node figures
  correspond to 5-15 percent of peak when flops are counted with the
  Householder formula; the underlying DGEMM efficiency is higher).
* ``alpha`` -- the effective per-message latency, which folds in software
  overhead and network diameter.  It is a calibrated value, not one the
  paper publishes.  Stampede2's preset alpha (1.9e-5 s) is about 13x
  *larger* than Blue Waters' (1.5e-6 s), so per message the model makes
  latency dearer on Stampede2.  The paper's observation that "the
  overhead of synchronization is less prevalent on Stampede2 than Blue
  Waters" is therefore not what the alphas encode.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, replace
from typing import Dict

from repro.utils.validation import check_positive_int, require

#: The :class:`MachineSpec` fields that hold real-valued rates or
#: efficiencies.
_RATE_FIELDS = ("peak_flops_per_node", "injection_bandwidth", "alpha",
                "sequential_efficiency", "bandwidth_efficiency",
                "qr_kernel_efficiency")

#: Bytes per double-precision word.  All word counts in the ledger are in
#: 8-byte words, matching the paper's usage of "words".
WORD_BYTES = 8


@dataclass(frozen=True)
class CostParams:
    """Scalar alpha-beta-gamma rates, in seconds per unit.

    ``alpha`` is seconds per message, ``beta`` seconds per word moved,
    ``gamma`` seconds per flop.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        require(self.alpha >= 0 and self.beta >= 0 and self.gamma >= 0,
                f"cost rates must be non-negative, got {self}")

    def time(self, messages: float, words: float, flops: float) -> float:
        """Seconds for a ``(messages, words, flops)`` cost triple."""
        return self.alpha * messages + self.beta * words + self.gamma * flops


@dataclass(frozen=True)
class MachineSpec:
    """A machine preset: published constants plus explicit calibration.

    Attributes
    ----------
    name:
        Human-readable machine name.
    peak_flops_per_node:
        Vendor peak double-precision flop rate per node (flop/s).
    injection_bandwidth:
        Per-node network injection bandwidth (bytes/s), as published.
    procs_per_node:
        MPI processes per node (``ppn`` in the paper's variant tuples).
    alpha:
        Effective per-message latency (seconds), calibration field.
    sequential_efficiency:
        Fraction of per-process peak achieved by sequential kernels,
        calibration field.
    bandwidth_efficiency:
        Effective collective-bandwidth multiplier on the per-process
        injection share ``injection_bandwidth / ppn``.  Values below 1 model
        protocol overhead; values **above 1** model the fact that with many
        processes per node a large fraction of butterfly stages move data
        between co-located processes over shared memory and never touch the
        NIC (with 64 processes/node, the first 6 stages of any blocked-rank
        butterfly are intra-node).  Calibration field.
    """

    name: str
    peak_flops_per_node: float
    injection_bandwidth: float
    procs_per_node: int
    alpha: float
    sequential_efficiency: float = 0.25
    bandwidth_efficiency: float = 1.0
    #: Efficiency of blocked-Householder (ScaLAPACK PGEQRF) kernels relative
    #: to the large-GEMM rate `sequential_efficiency` is calibrated for.
    #: BLAS-2 panel work and skinny updates hurt far more on wide-vector
    #: KNL than on conventional XE cores.  Calibration field.
    qr_kernel_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TypeError(
                f"name must be a string, got {type(self.name).__name__}")
        check_positive_int(self.procs_per_node, "procs_per_node")
        for name in _RATE_FIELDS:
            # A JSON `true` is an int to Python; as a rate it is a bug.
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(
                    f"{name} must be a number, got {type(value).__name__}")
        for name in ("peak_flops_per_node", "injection_bandwidth", "alpha"):
            require(math.isfinite(getattr(self, name)),
                    f"{name} must be finite, got {getattr(self, name)!r}")
        require(self.peak_flops_per_node > 0, "peak_flops_per_node must be positive")
        require(self.injection_bandwidth > 0, "injection_bandwidth must be positive")
        require(0 < self.sequential_efficiency <= 1, "sequential_efficiency must be in (0, 1]")
        require(0 < self.qr_kernel_efficiency <= 1, "qr_kernel_efficiency must be in (0, 1]")
        require(0 < self.bandwidth_efficiency <= 64,
                "bandwidth_efficiency must be in (0, 64] "
                "(values above 1 model intra-node shared-memory stages)")
        require(self.alpha >= 0, "alpha must be non-negative")

    @property
    def flops_per_process(self) -> float:
        """Effective sequential flop rate of one MPI process (flop/s)."""
        return self.peak_flops_per_node * self.sequential_efficiency / self.procs_per_node

    @property
    def words_per_second_per_process(self) -> float:
        """Effective per-process bandwidth (words/s); NIC shared by ppn."""
        bytes_per_s = self.injection_bandwidth * self.bandwidth_efficiency / self.procs_per_node
        return bytes_per_s / WORD_BYTES

    @property
    def flops_to_bandwidth_ratio(self) -> float:
        """Peak flops per byte of injection bandwidth (the paper's 8x lever)."""
        return self.peak_flops_per_node / self.injection_bandwidth

    def cost_params(self) -> CostParams:
        """Per-process alpha-beta-gamma rates implied by this machine."""
        return CostParams(
            alpha=self.alpha,
            beta=1.0 / self.words_per_second_per_process,
            gamma=1.0 / self.flops_per_process,
        )

    def with_ppn(self, procs_per_node: int) -> "MachineSpec":
        """Preset variant with a different process count per node.

        The paper sweeps ``(ppn, tpr)`` combinations; fewer processes per
        node with more threads gives each process a larger share of the NIC
        and of the node's flops.
        """
        return replace(self, procs_per_node=procs_per_node)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form of every field, in declaration order (see
        :meth:`from_dict`)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "MachineSpec":
        """Build a machine from its JSON form (the ``--machine-file`` schema).

        Required keys are the published constants (``name``,
        ``peak_flops_per_node``, ``injection_bandwidth``,
        ``procs_per_node``, ``alpha``); the calibration fields keep their
        defaults when omitted.  Unknown keys are rejected so a typo'd
        calibration field fails loudly instead of silently using the
        default.
        """
        require(isinstance(data, dict),
                f"a machine description must be a JSON object, got "
                f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(MachineSpec)}
        unknown = sorted(set(data) - known)
        require(not unknown,
                f"unknown machine field(s) {unknown}; known fields: "
                f"{sorted(known)}")
        needed = ("name", "peak_flops_per_node", "injection_bandwidth",
                  "procs_per_node", "alpha")
        missing = sorted(k for k in needed if k not in data)
        require(not missing, f"machine description is missing {missing}")
        return MachineSpec(**data)  # type: ignore[arg-type]


#: Stampede2 (TACC).  3 Tflop/s KNL nodes, 12.5 GB/s OPA injection
#: bandwidth, 64 processes/node in the headline runs.  Peak/injection =
#: 240 flops/byte.
STAMPEDE2 = MachineSpec(
    name="stampede2",
    peak_flops_per_node=3.0e12,
    injection_bandwidth=12.5e9,
    procs_per_node=64,
    alpha=1.9e-5,
    sequential_efficiency=0.16,
    bandwidth_efficiency=4.2,
    qr_kernel_efficiency=0.47,
)

#: Blue Waters (NCSA).  313 Gflop/s XE nodes, 9.6 GB/s Gemini injection
#: bandwidth, 16 processes/node.  Peak/injection = 32.6 flops/byte -- the
#: ~8x lower ratio that makes communication-avoidance unprofitable there.
#: Its calibrated alpha (1.5e-6 s) is about 13x smaller than Stampede2's.
BLUE_WATERS = MachineSpec(
    name="blue-waters",
    peak_flops_per_node=313.0e9,
    injection_bandwidth=9.6e9,
    procs_per_node=16,
    alpha=1.5e-6,
    sequential_efficiency=0.26,
    bandwidth_efficiency=4.4,
    qr_kernel_efficiency=0.70,
)

#: Unit-rate machine for pure cost counting: one second per message, per
#: word, and per flop.  Used by tests that compare ledger counts against
#: closed-form cost functions.
ABSTRACT_MACHINE = MachineSpec(
    name="abstract",
    peak_flops_per_node=1.0,
    injection_bandwidth=float(WORD_BYTES),
    procs_per_node=1,
    alpha=1.0,
    sequential_efficiency=1.0,
    bandwidth_efficiency=1.0,
)

_REGISTRY: Dict[str, MachineSpec] = {
    STAMPEDE2.name: STAMPEDE2,
    BLUE_WATERS.name: BLUE_WATERS,
    ABSTRACT_MACHINE.name: ABSTRACT_MACHINE,
}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a machine preset by name (``stampede2``, ``blue-waters``, ``abstract``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown machine {name!r}; known machines: {known}") from None
