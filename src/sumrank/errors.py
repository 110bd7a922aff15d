"""Exception hierarchy shared across the package."""


class SumrankError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(SumrankError):
    pass


class DegreesNotCoprime(SumrankError):
    pass


class RootsOfUnityAbsent(SumrankError):
    pass


class BlockLengthNotMultiple(SumrankError):
    pass


class TowerMismatch(SumrankError):
    pass


class LevelMismatch(SumrankError):
    pass


class DivisionByZero(SumrankError):
    pass


class ZeroBeta(SumrankError):
    pass


class NotRootOfUnity(SumrankError):
    pass


class LengthMismatch(SumrankError):
    pass


class UnequalParts(SumrankError):
    pass


class BudgetExceeded(SumrankError):
    def __init__(self, needed, budget):
        super().__init__(f"enumeration of {needed} codewords exceeds budget {budget}")
        self.needed = needed
        self.budget = budget


class ZeroCode(SumrankError):
    pass


class FieldTooLarge(SumrankError):
    pass


class InvalidParameter(SumrankError):
    pass


class UnreadableInput(SumrankError):
    pass


class ShapeMismatch(SumrankError):
    pass


class GridNotContained(SumrankError):
    def __init__(self, pair):
        super().__init__(f"grid pair {pair} is not in the defining set")
        self.pair = pair


class PreconditionViolated(SumrankError):
    def __init__(self, which):
        super().__init__(f"hypothesis violated: {which}")
        self.which = which


class NotNormal(SumrankError):
    pass


class NotPrimitive(SumrankError):
    pass


class SelectionTooSmall(SumrankError):
    pass


class GeneratorNotOverE(SumrankError):
    pass


class NotADivisor(SumrankError):
    pass


class FieldMismatch(SumrankError):
    pass


class ParseError(SumrankError):
    pass
