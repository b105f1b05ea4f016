"""Calibration kernel: a fixed amount of pure-Python work, independent of
ubckit, that the benchmark times in a fresh interpreter next to every
operation.

The host this benchmark was written on switches between speed states that
differ by about 50 % and last for minutes, while the ratio of an operation's
time to this kernel's time stays within a few per cent.  The kernel mixes
the work ubckit does: fraction-free elimination on a small integer matrix,
and subset tests on tuples and frozensets.

    python3 -I bench/calibrate.py
"""

from itertools import combinations


def bareiss_rank(m):
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(cols):
        p = next((i for i in range(rank, rows) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pivot, pivot_row = m[rank][c], m[rank]
        for i in range(rank + 1, rows):
            f, row = m[i][c], m[i]
            for j in range(c + 1, cols):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            row[c] = 0
        prev = pivot
        rank += 1
        if rank == rows:
            break
    return rank


def main():
    x = 12345
    matrix = []
    for _ in range(90):
        row = []
        for _ in range(120):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append((x >> 16) % 3 - 1)
        matrix.append(row)
    evens = frozenset(range(0, 26, 2))
    subsets = sum(1 for t in combinations(range(26), 4) if frozenset(t) <= evens or sum(t) % 3 == 0)
    print(bareiss_rank(matrix), subsets)


if __name__ == "__main__":
    main()
