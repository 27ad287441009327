"""Value object for one member of the depolarized family R(p).

No library code needs it; the tests use it to bundle Psi with a checked
mixing weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from witnessforge.linalg import complex_svd
from witnessforge.states import BipartiteDensity
from witnessforge.witness_finite import (
    _check_normalized,
    depolarized_state,
    min_pt_eigenvalue,
)


@dataclass(frozen=True)
class DepolarizedFamily:
    """Pure-state operator Psi mixed with white noise at weight p."""

    psi: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "psi", _check_normalized(self.psi))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing weight p={self.p} outside [0, 1]")

    @property
    def d(self) -> int:
        return self.psi.shape[0]

    def density(self) -> BipartiteDensity:
        return depolarized_state(self.psi, self.p)

    def min_pt_eigenvalue(self) -> float:
        return min_pt_eigenvalue(complex_svd(self.psi), self.p)
