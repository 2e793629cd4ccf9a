"""Expected outputs, computed without the program under test.

Gate and lookup-table answers come from the benchmark's own truth tables;
the circuit's answer from plain Python integer arithmetic modulo 2^8.
Nothing here imports ``repro``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

#: The ten two-input bootstrapped gates, in the order the single-gate phase
#: walks through them.
GATES: Dict[str, Callable[[int, int], int]] = {
    "nand": lambda a, b: 1 - (a & b),
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "nor": lambda a, b: 1 - (a | b),
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: 1 - (a ^ b),
    "andny": lambda a, b: (1 - a) & b,
    "andyn": lambda a, b: a & (1 - b),
    "orny": lambda a, b: (1 - a) | b,
    "oryn": lambda a, b: a | (1 - b),
}
GATE_NAMES: Tuple[str, ...] = tuple(GATES)

#: Boolean lookup tables sent as ``lut`` requests: name → (arity, function).
LUTS: Dict[str, Tuple[int, Callable[[Sequence[int]], int]]] = {
    "xor3": (3, lambda bits: bits[0] ^ bits[1] ^ bits[2]),
    "maj3": (3, lambda bits: int(bits[0] + bits[1] + bits[2] >= 2)),
    "nand2": (2, lambda bits: 1 - (bits[0] & bits[1])),
    "xnor2": (2, lambda bits: 1 - (bits[0] ^ bits[1])),
}


def truth_table(arity: int, fn: Callable[[Sequence[int]], int]) -> int:
    """The table integer: bit ``i`` is ``fn`` of the inputs whose bit ``j`` is input ``j``."""
    table = 0
    for index in range(1 << arity):
        bits = [(index >> j) & 1 for j in range(arity)]
        table |= (fn(bits) & 1) << index
    return table


#: Width of the circuit's unsigned operands.
WIDTH = 8


def circuit_expected(a: int, b: int, c: int) -> int:
    """``fhe_max(a*3 + b, b - c)`` on 8-bit unsigned integers."""
    mask = (1 << WIDTH) - 1
    return max((a * 3 + b) & mask, (b - c) & mask)


def bits_to_int(bits: Sequence[int]) -> int:
    return sum((int(bit) & 1) << i for i, bit in enumerate(bits))
