"""Pure-Python coset enumeration kernel.

HLT-style: every relator is scanned and filled at every live coset, then any
remaining holes in the row are defined; coincidences are processed through a
FIFO queue, merging the larger coset index into the smaller.  The budget
counts live cosets, never definitions, so collapses may define and discard
far more cosets than the budget.

A lookahead pass scans every relator at each live coset from the main
loop's position on, without defining anything; that closes ripe relator
cycles and lets coincidence cascades free rows.  Cosets behind the position
are skipped: each had every relator scanned with fill, so its cycles are
closed and a rescan finds nothing.  The main loop runs a pass whenever the
live count reaches a threshold, which starts at 64 and is reset to eight
times the live count after every pass, so a collapse that is ripe at a few
hundred live cosets is found there and not at the budget.  A pass also runs
when a definition would break the budget; enumeration then keeps going as
long as lookahead recovers at least five percent of the budget, and gives
up otherwise.

Words arrive as tuples of direction indices (2g for generator g, 2g+1 for
its inverse).  The compiled kernel implements the identical algorithm; both
must produce byte-identical tables.
"""

from collections import deque


class _Exhausted(Exception):
    pass


def run(num_gens, relators, subgroup, max_live):
    """Returns (closed, count, rows): count is the index if closed, else the
    number of live cosets when enumeration gave up."""
    width = 2 * num_gens
    rows = [[-1] * width]
    parent = [0]
    live = 1
    total = 1
    max_total = 1000 * max_live
    next_lookahead = 64

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def coincide(a, b):
        nonlocal live
        queue = deque()
        queue.append((a, b))
        while queue:
            x, y = queue.popleft()
            x = find(x)
            y = find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            live -= 1
            rx = rows[x]
            ry = rows[y]
            for d in range(width):
                t = ry[d]
                if t != -1:
                    if rx[d] == -1:
                        rx[d] = t
                    else:
                        queue.append((rx[d], t))
            rows[y] = None

    def define(at, d):
        nonlocal live, total
        if live >= max_live or total >= max_total:
            raise _Exhausted
        new = len(rows)
        rows.append([-1] * width)
        parent.append(new)
        live += 1
        total += 1
        rows[at][d] = new
        rows[new][d ^ 1] = at
        return new

    def scan(c, word, fill):
        n = len(word)
        if n == 0:
            return
        f = c
        i = 0
        b = c
        j = n - 1
        while True:
            while i <= j:
                t = rows[f][word[i]]
                if t == -1:
                    break
                f = find(t)
                i += 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i:
                t = rows[b][word[j] ^ 1]
                if t == -1:
                    break
                b = find(t)
                j -= 1
            if j < i:
                coincide(f, b)
                return
            if i == j:
                d = word[i]
                rows[f][d] = b
                rows[b][d ^ 1] = f
                return
            if not fill:
                return
            f = define(f, word[i])
            i += 1

    def lookahead(start):
        nonlocal next_lookahead
        x = start
        while x < len(rows):
            if parent[x] == x:
                for rel in relators:
                    scan(x, rel, False)
                    if parent[x] != x:
                        break
            x += 1
        next_lookahead = 8 * live

    def process(c, step):
        """Run step() to completion, inserting lookahead passes from c on
        while they keep recovering a usable slice of the budget."""
        while True:
            try:
                step()
                return True
            except _Exhausted:
                if total >= max_total:
                    return False
                lookahead(c)
                if max_live - live < max(1, max_live // 20):
                    return False

    def coset_step(c):
        if parent[c] != c:
            return
        for rel in relators:
            scan(c, rel, True)
            if parent[c] != c:
                return
        row = rows[c]
        for d in range(width):
            if row[d] == -1:
                define(c, d)

    for w in subgroup:
        if not process(0, lambda: scan(find(0), w, True)):
            return False, live, None
    c = 0
    while c < len(rows):
        if parent[c] == c:
            if live >= next_lookahead:
                lookahead(c)
            if not process(c, lambda: coset_step(c)):
                return False, live, None
        c += 1

    # canonical renumbering of the closed table
    remap = {}
    order = []
    for c in range(len(rows)):
        if parent[c] == c:
            remap[c] = len(order)
            order.append(c)
    out = []
    for c in order:
        out.append([remap[find(t)] for t in rows[c]])
    return True, len(order), out
