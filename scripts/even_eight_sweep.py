#!/usr/bin/env python3
"""Find the eight-subsets of the sixteen nodes whose half sum is divisible by 2
relative to the span of L, the nodes and the tropes, and print them paired
with their complements. The sweep enumerates the F2 span of the generators
and checks each weight-8 candidate exactly with Hermite normal form."""
from ulrichcert.labels import NODE_LABELS, node_token
from ulrichcert.picard import EvenEightTester


def main():
    positives = EvenEightTester().sweep()
    print(f"{len(positives)} even eights among 12870 eight-subsets")
    full = set(NODE_LABELS)
    seen = set()
    pair_index = 0
    for eight in sorted(positives, key=lambda s: sorted(s)):
        if eight in seen:
            continue
        complement = frozenset(full - eight)
        seen.update((eight, complement))
        pair_index += 1
        left = " ".join(node_token(l) for l in sorted(eight))
        right = " ".join(node_token(l) for l in sorted(complement))
        print(f"pair {pair_index:2d}:  {left}   <->   {right}")
    closed = all(frozenset(full - s) in set(positives) for s in positives)
    print(f"closed under complementation: {closed}")


if __name__ == "__main__":
    main()
