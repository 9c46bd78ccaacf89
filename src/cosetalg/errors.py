"""Exception types shared across the package."""


class CosetAlgError(Exception):
    """Base class for all library errors."""


class GroupBuildError(CosetAlgError):
    """A Cayley table or generator set fails the group axioms."""


class NotClosed(GroupBuildError):
    pass


class NotAssociative(GroupBuildError):
    pass


class NoIdentity(GroupBuildError):
    pass


class NoInverse(GroupBuildError):
    pass


class NotAPermutation(GroupBuildError):
    pass


class CapExceeded(CosetAlgError):
    """A group exceeds the order cap, or an array the byte budget."""


class UnknownName(CosetAlgError):
    """Unrecognized builtin group name."""


class CarrierMismatch(CosetAlgError):
    """Operands live on different carriers."""


class NonPositive(CosetAlgError):
    """A weight function that must be strictly positive is not."""


class NotCosetConstant(CosetAlgError):
    """A per-element weight function is not constant on left cosets."""


class UnknownCheckId(CosetAlgError):
    """Check id not in the registry."""
