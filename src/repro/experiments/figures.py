"""Per-figure experiment specifications, transcribed from the paper's plots.

Every spec carries the exact matrix family, node ladder and variant tuples
shown in the corresponding figure legend:

* **Figure 4** (a,b,c): weak scaling on Blue Waters, ``Nodes = 16 a b**2``.
* **Figure 5** (a-d):  weak scaling on Stampede2, ``Nodes = 8 a b**2``.
* **Figure 6** (a,b):  strong scaling on Blue Waters, N = 32..2048.
* **Figure 7** (a-d):  strong scaling on Stampede2, N = 64..1024.
* **Figure 1** (a,b):  the headline best-variant views of Figures 7 and 5
  respectively (``FIG1A_SOURCES`` / ``FIG1B_SOURCES`` list the panels the
  best-of reduction draws from).

The weak-scaling ladder ``(a, b)`` follows Section IV-C's progression:
three steps doubling ``m`` (and ``d``) for every step doubling ``n`` (and
``c``): (2,1), (1,2), (2,2), (4,2), (8,2), (4,4), (8,4).
"""

from __future__ import annotations

from typing import Dict, List

from repro.costmodel.params import BLUE_WATERS, STAMPEDE2
from repro.experiments.scaling import (
    CAStrongVariant,
    CAWeakVariant,
    ScaLAPACKStrongVariant,
    ScaLAPACKWeakVariant,
    StrongScalingFigure,
    WeakScalingFigure,
)

#: Section IV-C's weak-scaling progression of (a, b), as shown on the
#: x-axes of Figures 1(b), 4 and 5.
WEAK_LADDER = ((2, 1), (1, 2), (2, 2), (4, 2), (8, 2), (4, 4), (8, 4))

_BW_STRONG_NODES = (32, 64, 128, 256, 512, 1024, 2048)
_S2_STRONG_NODES = (64, 128, 256, 512, 1024)


def _ca_w(rn, rd, depth, ppn=64, tpr=1) -> CAWeakVariant:
    return CAWeakVariant(ratio_num=rn, ratio_den=rd, inverse_depth=depth, ppn=ppn, tpr=tpr)


def _sl_w(f, b, ppn=64, tpr=1) -> ScaLAPACKWeakVariant:
    return ScaLAPACKWeakVariant(pr_factor=f, block_size=b, ppn=ppn, tpr=tpr)


def _ca_s(dn, dd, c, depth, ppn=64, tpr=1) -> CAStrongVariant:
    return CAStrongVariant(d_num=dn, d_den=dd, c=c, inverse_depth=depth, ppn=ppn, tpr=tpr)


def _sl_s(f, b, ppn=64, tpr=1) -> ScaLAPACKStrongVariant:
    return ScaLAPACKStrongVariant(pr_factor=f, block_size=b, ppn=ppn, tpr=tpr)


# ---------------------------------------------------------------------------
# Figure 4: weak scaling, Blue Waters (ppn=16, tpr=1), Nodes = 16ab^2
# ---------------------------------------------------------------------------

FIG4: List[WeakScalingFigure] = [
    WeakScalingFigure(
        name="fig4a", machine=BLUE_WATERS, base_m=65536, base_n=2048,
        nodes_factor=16, ladder=WEAK_LADDER,
        ca_variants=(
            _ca_w(4, 1, 0, ppn=16), _ca_w(4, 1, 1, ppn=16),
            _ca_w(32, 1, 0, ppn=16), _ca_w(256, 1, 0, ppn=16),
        ),
        sl_variants=(
            _sl_w(256, 32, ppn=16), _sl_w(256, 64, ppn=16),
            _sl_w(128, 32, ppn=16), _sl_w(64, 32, ppn=16),
        ),
        paper_note="Weak Scaling, 65536*a x 2048*b; ScaLAPACK wins on Blue Waters",
    ),
    WeakScalingFigure(
        name="fig4b", machine=BLUE_WATERS, base_m=262144, base_n=1024,
        nodes_factor=16, ladder=WEAK_LADDER,
        ca_variants=(
            _ca_w(32, 1, 0, ppn=16), _ca_w(256, 1, 0, ppn=16), _ca_w(4, 1, 0, ppn=16),
        ),
        sl_variants=(
            _sl_w(256, 32, ppn=16), _sl_w(256, 64, ppn=16), _sl_w(128, 32, ppn=16),
        ),
        paper_note="Weak Scaling, 262144*a x 1024*b",
    ),
    WeakScalingFigure(
        name="fig4c", machine=BLUE_WATERS, base_m=1048576, base_n=512,
        nodes_factor=16, ladder=WEAK_LADDER,
        ca_variants=(
            _ca_w(256, 1, 0, ppn=16), _ca_w(512, 1, 0, ppn=16), _ca_w(32, 1, 0, ppn=16),
        ),
        sl_variants=(_sl_w(256, 32, ppn=16), _sl_w(256, 64, ppn=16)),
        paper_note="Weak Scaling, 1048576*a x 512*b; c=1 -> c=2 halves time at N=32",
    ),
]

# ---------------------------------------------------------------------------
# Figure 5: weak scaling, Stampede2 (ppn=64 unless noted), Nodes = 8ab^2
# ---------------------------------------------------------------------------

FIG5: List[WeakScalingFigure] = [
    WeakScalingFigure(
        name="fig5a", machine=STAMPEDE2, base_m=131072, base_n=8192,
        nodes_factor=8, ladder=WEAK_LADDER,
        ca_variants=(_ca_w(1, 1, 0), _ca_w(8, 1, 0), _ca_w(64, 1, 0)),
        sl_variants=(_sl_w(256, 64), _sl_w(128, 32), _sl_w(64, 32)),
        paper_note="131072*a x 8192*b; CA-CQR2 1.1x over ScaLAPACK at 1024 nodes (c=32)",
    ),
    WeakScalingFigure(
        name="fig5b", machine=STAMPEDE2, base_m=262144, base_n=4096,
        nodes_factor=8, ladder=WEAK_LADDER,
        ca_variants=(_ca_w(8, 1, 0), _ca_w(1, 1, 0), _ca_w(64, 1, 0)),
        sl_variants=(_sl_w(256, 32), _sl_w(256, 64), _sl_w(128, 32)),
        paper_note="262144*a x 4096*b; 1.3x at 1024 nodes (c=16)",
    ),
    WeakScalingFigure(
        name="fig5c", machine=STAMPEDE2, base_m=524288, base_n=2048,
        nodes_factor=8, ladder=WEAK_LADDER,
        ca_variants=(_ca_w(64, 1, 1), _ca_w(128, 1, 0, ppn=16, tpr=4)),
        sl_variants=(_sl_w(512, 32), _sl_w(512, 64)),
        paper_note="524288*a x 2048*b; 1.7x at 1024 nodes (c=8)",
    ),
    WeakScalingFigure(
        name="fig5d", machine=STAMPEDE2, base_m=1048576, base_n=1024,
        nodes_factor=8, ladder=WEAK_LADDER,
        ca_variants=(_ca_w(512, 1, 1), _ca_w(512, 1, 0), _ca_w(64, 1, 1), _ca_w(64, 1, 0)),
        sl_variants=(_sl_w(512, 32),),
        paper_note="1048576*a x 1024*b; 1.9x at 1024 nodes (c=4)",
    ),
]

# ---------------------------------------------------------------------------
# Figure 6: strong scaling, Blue Waters (ppn=16), N = 32..2048
# ---------------------------------------------------------------------------

FIG6: List[StrongScalingFigure] = [
    StrongScalingFigure(
        name="fig6a", machine=BLUE_WATERS, m=1048576, n=4096,
        nodes=_BW_STRONG_NODES,
        ca_variants=(
            _ca_s(1, 1, 4, 0, ppn=16), _ca_s(4, 1, 2, 0, ppn=16),
            _ca_s(1, 4, 8, 0, ppn=16), _ca_s(1, 4, 8, 2, ppn=16),
        ),
        sl_variants=(_sl_s(8, 32, ppn=16), _sl_s(8, 64, ppn=16), _sl_s(4, 32, ppn=16)),
        paper_note="1048576 x 4096; immediate c=2 -> c=4 crossover (small m/n)",
    ),
    StrongScalingFigure(
        name="fig6b", machine=BLUE_WATERS, m=4194304, n=2048,
        nodes=_BW_STRONG_NODES,
        ca_variants=(
            _ca_s(16, 1, 1, 0, ppn=16), _ca_s(4, 1, 2, 0, ppn=16), _ca_s(1, 1, 4, 0, ppn=16),
        ),
        sl_variants=(
            _sl_s(16, 32, ppn=16), _sl_s(16, 64, ppn=16),
            _sl_s(8, 32, ppn=16), _sl_s(8, 64, ppn=16),
        ),
        paper_note="4194304 x 2048; crossovers c1->c2 at N=256, c2->c4 at N=512",
    ),
]

# ---------------------------------------------------------------------------
# Figure 7: strong scaling, Stampede2 (ppn=64 unless noted), N = 64..1024
# ---------------------------------------------------------------------------

FIG7: List[StrongScalingFigure] = [
    StrongScalingFigure(
        name="fig7a", machine=STAMPEDE2, m=524288, n=8192,
        nodes=_S2_STRONG_NODES,
        ca_variants=(_ca_s(1, 1, 8, 0), _ca_s(1, 1, 8, 1), _ca_s(1, 4, 16, 0)),
        sl_variants=(_sl_s(8, 16), _sl_s(4, 32)),
        paper_note="524288 x 8192; CA-CQR2 2.6x over ScaLAPACK at 1024 nodes (c=8)",
    ),
    StrongScalingFigure(
        name="fig7b", machine=STAMPEDE2, m=2097152, n=4096,
        nodes=_S2_STRONG_NODES,
        ca_variants=(
            _ca_s(4, 1, 4, 0), _ca_s(4, 1, 4, 1), _ca_s(1, 1, 8, 0), _ca_s(16, 1, 2, 0),
        ),
        sl_variants=(_sl_s(64, 64), _sl_s(16, 32)),
        paper_note="2097152 x 4096; 3.3x at 1024 nodes (c=4)",
    ),
    StrongScalingFigure(
        name="fig7c", machine=STAMPEDE2, m=8388608, n=2048,
        nodes=_S2_STRONG_NODES,
        ca_variants=(
            _ca_s(16, 1, 1, 0, ppn=16, tpr=4), _ca_s(16, 1, 2, 0), _ca_s(4, 1, 4, 0),
        ),
        sl_variants=(_sl_s(32, 32), _sl_s(64, 32)),
        paper_note="8388608 x 2048; 3.1x at 1024 nodes (c=4)",
    ),
    StrongScalingFigure(
        name="fig7d", machine=STAMPEDE2, m=33554432, n=1024,
        nodes=_S2_STRONG_NODES,
        ca_variants=(
            _ca_s(64, 1, 1, 0), _ca_s(16, 1, 1, 0, ppn=16, tpr=4),
            _ca_s(16, 1, 2, 0), _ca_s(4, 1, 2, 0, ppn=16, tpr=4),
        ),
        sl_variants=(_sl_s(64, 16), _sl_s(64, 32)),
        paper_note="33554432 x 1024; 2.7x at 1024 nodes (c=1)",
    ),
]

#: Figure 1(a) is the best-variant view of Figure 7's four panels
#: (matrix sizes 2^25 x 2^10 ... 2^19 x 2^13).
FIG1A_SOURCES: List[StrongScalingFigure] = list(reversed(FIG7))

#: Figure 1(b) is the best-variant view of Figure 5's four panels
#: (the 131072*a*c x 1024*b*d family).
FIG1B_SOURCES: List[WeakScalingFigure] = list(reversed(FIG5))


def all_figures() -> Dict[str, object]:
    """Name -> spec for every reproduced figure panel."""
    out: Dict[str, object] = {}
    for fig in FIG4 + FIG5:
        out[fig.name] = fig
    for fig in FIG6 + FIG7:
        out[fig.name] = fig
    return out
