"""Exception types raised by the solvers and verifiers."""


class KernelGamesError(Exception):
    """Base class for all library-specific errors."""


class SingularMeanEquation(KernelGamesError):
    """The mean equation (I - K) phi = mu has 1 in the spectrum of K."""


class NoConvergence(KernelGamesError):
    """An iterative solver failed to reach its tolerance within the cap."""


class InfeasibleMoment(KernelGamesError):
    """A candidate equilibrium moment violates obedience or positivity."""


class NoRealEigenvalueAtLeastOne(KernelGamesError):
    """The payoff operator has no real eigenvalue >= 1, so the duplicate
    equilibrium construction does not apply."""
