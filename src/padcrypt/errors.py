"""Exception hierarchy shared by all padcrypt modules."""


class PadcryptError(Exception):
    """Base class for every error raised by this package."""


def cut(text: str) -> str:
    """Text an input file supplies, for an error message: its first 60
    characters and `...` if longer, so any file gives a short `ERROR` line."""
    return text if len(text) <= 60 else f"{text[:60]}..."


# --- codec ---------------------------------------------------------------

class InvalidSpace(PadcryptError):
    """Message space is empty or its distribution is malformed."""


class NotInCodebook(PadcryptError):
    """Message has no codeword in the code in force."""


class NotACodeword(PadcryptError):
    """No codeword is a prefix of the given bit stream."""


class InvalidCode(PadcryptError):
    """Codebook violates an invariant (empty, non-injective, not prefix-free)."""


class NondeterministicCompressor(PadcryptError):
    """External compressor produced different outputs for the same input."""


class EmptyCompressorOutput(PadcryptError):
    """External compressor produced a zero-length output; cannot be framed."""


class CodebookFormatError(PadcryptError):
    """Codebook file is corrupt or has an unsupported version."""


# --- keystore ------------------------------------------------------------

class InvalidLength(PadcryptError):
    """Requested a key pool of fewer than 1 bit, or of 2^64 bits or more."""


class KeyExhausted(PadcryptError):
    """Pool has fewer unconsumed bits than requested; reuse is forbidden."""


class PoolFormatError(PadcryptError):
    """Key pool file is corrupt, truncated, or has an unsupported version."""


# --- cipher --------------------------------------------------------------

class DecryptionFailed(PadcryptError):
    """No prefix of the XORed ciphertext is a codeword (wrong key or corruption)."""


class WireFormatError(PadcryptError):
    """Ciphertext frame is corrupt or belongs to a different codebook."""


# --- verify --------------------------------------------------------------

class EnumerationTooLarge(PadcryptError):
    """Exhaustive enumeration would exceed the configured budget."""


class BoundViolation(PadcryptError):
    """A code breaks the length bounds of the construction it names."""
