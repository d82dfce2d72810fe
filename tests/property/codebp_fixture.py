"""Debuggee for the code-breakpoint oracle in test_prop_linetable.py.

One line of each shape a breakpoint can land on: simple statements in
function bodies, loop and ``if``/``try``/``with`` headers, ``except``
lines, a continuation line, nested and method bodies, class and module
bodies, blank and comment lines.  ``run()`` executes every function.
The oracle reads this file's source, so any layout is fair game.
"""

LIMIT = 3


def loops(n):
    total = 0
    for i in range(n):
        total += i
        if total > 1:
            total -= 1
    while n > 0:
        n -= 1
    return total


def calls(x):
    value = max(x,
                1)
    values = [v * 2 for v in range(x)]
    return value + len(values)


def nested(x):
    base = x + 1

    def inner(y):
        z = y * base
        return z
    return inner(2) + inner(3)


def guarded(x):
    try:
        y = 10 // x
    except ZeroDivisionError:
        y = 0
    with open(__file__) as fh:
        first = fh.readline()
    return y + len(first)


class Box:
    SIDE = 2

    def area(self):
        side = self.SIDE
        return side * side


def run():
    box = Box()
    return (loops(LIMIT), calls(LIMIT), nested(LIMIT), guarded(0),
            guarded(2), box.area())
