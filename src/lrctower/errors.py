"""Exception hierarchy shared by all lrctower modules."""


class LrcError(Exception):
    """Base class for every error raised by this package."""


# --- finite fields ---

class NonPrimeCharacteristic(LrcError):
    """Requested characteristic is not a prime number."""


class FieldTooLarge(LrcError):
    """Field order, characteristic or tower parameter l exceeds the
    desk-scale cap (2**16); an oversized l is refused before it is factored."""


class NotASquareField(LrcError):
    """Operation needs q = l**2 but the field order is not a square."""


# --- towers ---

class UnsupportedDepth(LrcError):
    """Tower level outside the supported range for the variant."""


class VariantMismatch(LrcError):
    """Objects built for different tower variants were mixed."""


# --- recovery groups ---

class IllegalOrder(LrcError):
    """Requested group order violates the divisibility requirements."""


class NotASubgroup(LrcError):
    """Given elements do not form (or normalize) a valid subgroup."""


class NontrivialIntersection(LrcError):
    """The two recovery groups share a non-identity element."""


# --- code construction ---

class EmptyCode(LrcError):
    """Intersection of the two evaluation spaces is zero-dimensional."""


class BudgetTooSmall(LrcError):
    """Degree budget cannot host the repair-variable powers."""


# --- repair / verification ---

class NotACodeword(LrcError):
    """Strict repair: the unerased symbols are inconsistent with the code."""


class TooLarge(LrcError):
    """Exhaustive enumeration would exceed the configured cap."""


# --- bounds ---

class NotAPrimePower(LrcError):
    """Argument must be a prime power."""


class DenominatorZero(LrcError):
    """Trade-off line undefined: its slope denominator vanishes (r1*r2 - 1
    at r1 = r2 = 1 on the tower lines, r1*r2 at r1 = 0 or r2 = 0 on the
    direct-product line)."""


class RegimeViolation(LrcError):
    """Parameters fall outside the admissible locality regime."""
