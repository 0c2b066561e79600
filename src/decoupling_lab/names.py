"""The names the argument parser offers, and the engines run.

One stdlib-only table, read by cli (the parser's choices), constants (the
directions and search families) and bounds (the formulas and their
parameters), so ``--help`` builds its parser from this module alone.
"""

DIRECTIONS = ("decouple-upper", "decouple-lower", "randomized-plus", "randomized-minus")

# search family -> (multiplier alphabet, tree kind)
FAMILIES = {
    "paley-walsh-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "paley-walsh"),
    "gaussian-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "three-point"),
    "supnorm-signs": ((1.0, -1.0), "paley-walsh"),
}

# closed-form formula -> the parameters it takes
FORMULA_PARAMS = {
    "extrap-c": ("p", "q", "A", "b", "r"),
    "phi-growth": ("p", "q", "d_const"),
    "exponent-shift": ("p", "q", "d_const"),
    "hilbert-phi": ("q", "d_const"),
    "supnorm-upper": ("p", "d", "scalar_const"),
    "logdim-lower": ("p", "d"),
}
