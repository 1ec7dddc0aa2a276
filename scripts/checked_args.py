"""argparse types the demo scripts share: a value a script cannot use exits 2 while its arguments are parsed."""
import argparse


def checked(convert, ok, rule: str):
    """An argparse type: the converted text if ok holds for it, else an error naming the rule (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return parse


#: a ``RandomSource`` seed
SEED = checked(int, lambda v: 0 <= v < 2 ** 64, "an integer in [0, 2^64)")
