"""The benchmark's workloads: one INI config per op, generated from the seed.

Each run builds consecutive seeds starting at the workload seed, as many as
fit in the run's seconds at about ``op_s`` seconds an op on the host used for
the baseline; the program only ever sees the generated configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

TOLERANCE = Fraction(1, 50)


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    shapes: str
    probs: str
    sides: str
    window: tuple[int, ...]
    op_s: float
    cutoffs: str | None = None

    @property
    def cells(self) -> int:
        return math.prod(self.window)

    @property
    def targets(self) -> list[Fraction]:
        return [Fraction(p) for p in self.probs.split()]

    def seeds(self, seed: int, seconds: float) -> list[int]:
        return [seed + k for k in range(max(1, round(seconds / self.op_s)))]

    def config_text(self, seed: int, out_dir: str) -> str:
        plan = f"sides = {self.sides}\n"
        if self.cutoffs is not None:
            plan += f"cutoffs = {self.cutoffs}\n"
        return (
            "[run]\n"
            f"dim = {self.dim}\n"
            f"seed = {seed}\n"
            "mode = relaxed\n"
            f"window = {','.join(str(e) for e in self.window)}\n"
            f"out = {out_dir}\n"
            "format = text\n"
            "\n[family]\n"
            f"shapes = {self.shapes}\n"
            "\n[targets]\n"
            f"probs = {self.probs}\n"
            "\n[plan]\n"
            f"{plan}"
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's headline case: 512^2 top towers of the 3x2/2x3 family,
        # so bulk-array layers dominate.  The roadmap pins 4096^2, where one
        # op takes ~50 s on a 2-core host.  A run needs many ops for its
        # medians to hold still while the host's speed drifts, so the window
        # is 1536^2 (several top towers, ~3.5 s a build, ~0.8 s a verify).
        Workload(
            name="flagship",
            dim=2,
            shapes="3x2 2x3",
            probs="2/5 3/5",
            sides="64,512",
            window=(1536, 1536),
            op_s=3.6,
        ),
        # Thousands of tiny stage-1 and stage-2 towers: per-tower Python
        # overhead dominates, and it is the only workload on the countable
        # paths (tail selection, multi-pool redistribution).  The window is
        # a quarter of the roadmap's 10^6 cells so that a run holds ~9 ops.
        Workload(
            name="line_countable",
            dim=1,
            shapes="2 3 5",
            probs="1/2 2/5 1/10",
            sides="33,200",
            cutoffs="2,3",
            window=(250_000,),
            op_s=2.8,
        ),
        # Many short jobs weigh the per-job fixed costs: 40 consecutive seeds
        # in a 25 s run, so that ten samples lie beyond p75.  0.625 s an op
        # is the host's quiet speed; with the reference work around each
        # op, a run takes 45-55 s.  They are kept as they come: some are refused with
        # TargetsInfeasible today, and that shows in the failed count.
        Workload(
            name="seed_sweep",
            dim=2,
            shapes="3x2 2x3",
            probs="2/5 3/5",
            sides="64,512",
            window=(1024, 1024),
            op_s=0.625,
        ),
    )
}
