"""Reference form of the base-corpus generator: one `rng.integers` and one
`rng.random` call per line, then a per-token loop for the order-2 swap.

`munmt.synthlang.gen_rank_lines` takes each chunk's words in one block and
must make exactly these draws, so the benchmark's bytes follow from numpy's
documented streams. The equivalence test compares the two line for line.
"""

import numpy as np

from munmt.rng import named_rng
from munmt.synthlang import CorpusSpec, _context_swaps, _swap_partner, zipf_probs


def gen_rank_lines(spec: CorpusSpec) -> list:
    rng = named_rng(spec.seed, f"synthlang:{spec.label}")
    cdf = np.cumsum(zipf_probs(spec.vocab_types))
    partners = [_swap_partner(r, spec.vocab_types) for r in range(spec.vocab_types)]
    out = []
    for _ in range(spec.lines):
        n = int(rng.integers(spec.len_min, spec.len_max + 1))
        draws = np.searchsorted(cdf, rng.random(n), side="right").tolist()
        prev2, prev1 = spec.vocab_types + 1, spec.vocab_types + 2
        sent = []
        for r in draws:
            r = min(r, spec.vocab_types - 1)
            partner = partners[r]
            if partner != r and _context_swaps(prev2, prev1, min(r, partner)):
                r = partner
            sent.append(r)
            prev2, prev1 = prev1, r
        out.append(sent)
    return out
