"""MinHash signatures for Jaccard estimation.

Classic construction: ``num_perm`` universal hash functions
``h_i(x) = (a_i·x + b_i) mod p``; the signature of a token set is the
per-function minimum over its token hashes.  For two sets,
``P[sig_i(A) = sig_i(B)] = J(A, B)``, so the fraction of agreeing
signature positions is an unbiased Jaccard estimator with standard error
``O(1/sqrt(num_perm))``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable

from repro.errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

#: A Mersenne prime comfortably above any token-universe size we hash into.
_PRIME = (1 << 61) - 1


class MinHasher:
    """Deterministic MinHash signer over string tokens.

    Tokens are mapped to integers with a stable per-instance vocabulary
    (insertion order), so signatures are reproducible for a given seed.
    """

    def __init__(self, num_perm: int = 128, seed: int = 0) -> None:
        if num_perm < 1:
            raise ConfigError("num_perm must be >= 1")
        import numpy as np

        self.num_perm = num_perm
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _PRIME, size=num_perm, dtype=np.uint64)
        self._b = rng.integers(0, _PRIME, size=num_perm, dtype=np.uint64)
        self._token_ids: Dict[str, int] = {}

    def _token_id(self, token: str) -> int:
        identifier = self._token_ids.get(token)
        if identifier is None:
            identifier = len(self._token_ids) + 1
            self._token_ids[token] = identifier
        return identifier

    def signature(self, tokens: Iterable[str]) -> np.ndarray:
        """MinHash signature of a token set (uint64 array of ``num_perm``)."""
        import numpy as np

        ids = np.asarray(
            [self._token_id(token) for token in tokens], dtype=np.uint64
        )
        if ids.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # (num_perm, n_tokens) hash matrix; min over tokens per permutation.
        with np.errstate(over="ignore"):
            hashed = (
                self._a[:, None] * ids[None, :] + self._b[:, None]
            ) % _PRIME
        return hashed.min(axis=1)

