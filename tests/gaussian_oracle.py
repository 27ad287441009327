"""Closed forms of the Gaussian twin beam that only the tests read."""


def twb_mean_photons(x: float) -> float:
    """Average total photon number 2 x^2 / (1 - x^2) of the twin beam."""
    return 2.0 * x * x / (1.0 - x * x)
